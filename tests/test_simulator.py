import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness.domain import DomainError
from nearness.ingest import traces_equal, write_traces
from nearness.simulator import (
    AgentSpec,
    ConfigError,
    GroundTruth,
    RfParams,
    ScenarioConfig,
    ScenarioParseError,
    SoundPhase,
    Waypoint,
    generate,
    load_scenario,
    parse_scenario,
    rssi_from_distance,
    validate_config,
)


def fixed_agent(agent_id, x, y, sound=()):
    return AgentSpec(id=agent_id, waypoints=(Waypoint(0, x, y),), sound=sound)


def two_agent_config(distance_m=1.0, duration_ms=600_000, **rf):
    return ScenarioConfig(
        agents=(fixed_agent("a", 0.0, 0.0), fixed_agent("b", distance_m, 0.0)),
        duration_ms=duration_ms,
        rf=RfParams(**rf),
        seed=42,
    )


def distance(gt, i, j, t_ms):
    """Exact distance between two agents at `t_ms`, from their positions."""
    (xi, yi), (xj, yj) = gt.positions(i, [t_ms]), gt.positions(j, [t_ms])
    return float(np.hypot(xi - xj, yi - yj)[0])


def sighting_rows(traces):
    """(t_ms, observer, subject, rssi_dbm) per sighting, in table order."""
    tab = traces.sightings
    return zip(tab.t_ms.tolist(), tab.observer.tolist(), tab.subject.tolist(),
               tab.rssi_dbm.tolist())


class TestRssiModel:
    def test_reference_distance(self):
        assert rssi_from_distance(1.0, RfParams()) == -40.0

    def test_one_decade(self):
        assert rssi_from_distance(10.0, RfParams()) == pytest.approx(-67.0, abs=1e-12)

    def test_two_decades(self):
        assert rssi_from_distance(100.0, RfParams()) == pytest.approx(-94.0, abs=1e-12)

    def test_noise_adds_in_db(self):
        assert rssi_from_distance(1.0, RfParams(), noise_db=3.5) == -36.5

    def test_clamped_to_valid_range(self):
        assert rssi_from_distance(1e-6, RfParams()) == 0.0
        assert rssi_from_distance(1e6, RfParams()) == -120.0

    def test_zero_distance_clamps_to_zero_dbm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert rssi_from_distance(0.0, RfParams()) == 0.0


class TestGroundTruth:
    def test_three_four_five(self):
        config = ScenarioConfig(
            agents=(fixed_agent("a", 0.0, 0.0), fixed_agent("b", 3.0, 4.0)),
            duration_ms=60_000)
        gt = GroundTruth(config)
        assert distance(gt, "a", "b", 0) == 5.0

    def test_coincident_positions(self):
        config = ScenarioConfig(
            agents=(fixed_agent("a", 1.0, 1.0), fixed_agent("b", 1.0, 1.0)),
            duration_ms=60_000)
        gt = GroundTruth(config)
        assert distance(gt, "a", "b", 12345) == 0.0

    def test_linear_interpolation_midpoint(self):
        mover = AgentSpec(id="m", waypoints=(Waypoint(0, 0.0, 0.0),
                                             Waypoint(10_000, 10.0, 0.0)))
        config = ScenarioConfig(agents=(mover, fixed_agent("a", 0.0, 0.0)),
                                duration_ms=60_000)
        gt = GroundTruth(config)
        assert distance(gt, "m", "a", 5_000) == 5.0

    def test_position_holds_after_last_waypoint(self):
        mover = AgentSpec(id="m", waypoints=(Waypoint(0, 0.0, 0.0),
                                             Waypoint(10_000, 10.0, 0.0)))
        config = ScenarioConfig(agents=(mover,), duration_ms=60_000)
        gt = GroundTruth(config)
        assert [c.tolist() for c in gt.positions("m", [59_000])] == [[10.0], [0.0]]

    def test_unknown_agent_rejected(self):
        gt = GroundTruth(two_agent_config())
        with pytest.raises(DomainError):
            gt.positions("nobody", [0])

    def test_symmetry(self):
        gt = GroundTruth(two_agent_config(distance_m=7.3))
        assert distance(gt, "a", "b", 0) == distance(gt, "b", "a", 0)

    def test_moving_only_inside_displacing_segments(self):
        mover = AgentSpec(id="m", waypoints=(
            Waypoint(0, 0.0, 0.0), Waypoint(10_000, 0.0, 0.0),
            Waypoint(20_000, 5.0, 0.0), Waypoint(30_000, 5.0, 0.0)))
        config = ScenarioConfig(agents=(mover,), duration_ms=60_000)
        gt = GroundTruth(config)
        # the last instant is past the last waypoint
        assert gt.moving_mask("m", [5_000, 15_000, 25_000, 45_000]).tolist() == [
            False, True, False, False]

    def test_scheduled_amplitude(self):
        agent = fixed_agent("a", 0.0, 0.0,
                            sound=(SoundPhase(1_000, 5_000, 0.4),))
        config = ScenarioConfig(agents=(agent,), duration_ms=60_000)
        gt = GroundTruth(config)
        # phases are half-open: 5 000 is already quiet
        assert gt.amplitudes("a", [0, 3_000, 5_000]).tolist() == [0.0, 0.4, 0.0]


class TestGenerate:
    def test_fixed_pair_at_reference_distance(self):
        traces, _ = generate(two_agent_config(distance_m=1.0))
        assert len(traces.sightings) == 20  # 10 scans, two directions
        assert all(r == -40.0 for r in traces.sightings.rssi_dbm)

    def test_single_agent_yields_no_sightings(self):
        config = ScenarioConfig(agents=(fixed_agent("a", 0.0, 0.0),),
                                duration_ms=300_000)
        traces, _ = generate(config)
        assert len(traces.sightings) == 0
        assert len(traces.accel["a"]) == 300_000 // 50
        assert len(traces.sound["a"]) == 300

    def test_out_of_range_pair_never_sighted(self):
        traces, _ = generate(two_agent_config(distance_m=50.0, max_range_m=30.0))
        assert len(traces.sightings) == 0

    def test_sampling_cadence(self):
        traces, _ = generate(two_agent_config(duration_ms=10_000))
        accel = traces.accel["a"]
        assert np.array_equal(np.diff(accel.t_ms), np.full(len(accel) - 1, 50))
        sound = traces.sound["a"]
        assert np.array_equal(np.diff(sound.t_ms), np.full(len(sound) - 1, 1000))

    def test_same_seed_byte_identical(self, tmp_path):
        config = two_agent_config(shadowing_sigma_db=4.0)
        first, _ = generate(config)
        second, _ = generate(config)
        assert traces_equal(first, second)
        p1 = write_traces(first, tmp_path / "one")
        p2 = write_traces(second, tmp_path / "two")
        for a, b in zip(p1, p2):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_different_seed_differs(self):
        config = two_agent_config(shadowing_sigma_db=4.0)
        other = dataclasses.replace(config, seed=43)
        first, _ = generate(config)
        second, _ = generate(other)
        assert not traces_equal(first, second)

    def test_sighting_symmetry_without_shadowing(self):
        traces, _ = generate(two_agent_config(distance_m=3.7))
        by_dir = {}
        for t, obs, subj, rssi in sighting_rows(traces):
            by_dir.setdefault((obs, subj), []).append((t, rssi))
        assert by_dir[("a", "b")] == by_dir[("b", "a")]

    def test_shadowing_breaks_direction_symmetry(self):
        traces, _ = generate(two_agent_config(distance_m=3.7, shadowing_sigma_db=4.0))
        by_dir = {}
        for _, obs, subj, rssi in sighting_rows(traces):
            by_dir.setdefault((obs, subj), []).append(rssi)
        assert by_dir[("a", "b")] != by_dir[("b", "a")]

    def test_rssi_values_match_model(self):
        # coincident agents, clamped at 0 dBm, clamped at -120 dBm, in range
        for distance_m, rf, clamped_to in ((0.0, {}, 0.0),
                                           (0.01, {}, 0.0),
                                           (1000.0, {"max_range_m": 2000.0}, -120.0),
                                           (6.25, {}, None)):
            config = two_agent_config(distance_m=distance_m, **rf)
            traces, gt = generate(config)
            tab = traces.sightings
            assert len(tab) == 20
            for obs, subj in (("a", "b"), ("b", "a")):
                rows = (tab.observer == obs) & (tab.subject == subj)
                t = tab.t_ms[rows]
                (xo, yo), (xs, ys) = gt.positions(obs, t), gt.positions(subj, t)
                model = rssi_from_distance(np.hypot(xo - xs, yo - ys), config.rf)
                assert tab.rssi_dbm[rows].tolist() == model.tolist()
            if clamped_to is not None:
                assert set(tab.rssi_dbm.tolist()) == {clamped_to}

    def test_moving_agent_gets_lively_gravity_axis(self):
        mover = AgentSpec(id="m", waypoints=(Waypoint(0, 0.0, 0.0),
                                             Waypoint(600_000, 50.0, 0.0)))
        config = ScenarioConfig(agents=(mover,), duration_ms=600_000,
                                accel_noise_sigma=0.0)
        traces, _ = generate(config)
        az = traces.accel["m"].az
        assert np.std(az) > 1.0
        assert np.std(traces.accel["m"].ax) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_any_seed_is_deterministic(self, seed):
        config = dataclasses.replace(
            two_agent_config(duration_ms=120_000, shadowing_sigma_db=2.0), seed=seed)
        assert traces_equal(generate(config)[0], generate(config)[0])


class TestConfigValidation:
    def test_duplicate_agent_id(self):
        config = ScenarioConfig(
            agents=(fixed_agent("a", 0, 0), fixed_agent("a", 1, 0)),
            duration_ms=1000)
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.field == "agents[1].id"

    def test_first_waypoint_not_at_zero(self):
        agent = AgentSpec(id="a", waypoints=(Waypoint(5, 0.0, 0.0),))
        with pytest.raises(ConfigError) as err:
            validate_config(ScenarioConfig(agents=(agent,), duration_ms=1000))
        assert err.value.field == "agents[0].waypoints[0].t_ms"

    def test_unsorted_waypoints(self):
        agent = AgentSpec(id="a", waypoints=(Waypoint(0, 0, 0), Waypoint(10, 1, 0),
                                             Waypoint(5, 2, 0)))
        with pytest.raises(ConfigError) as err:
            validate_config(ScenarioConfig(agents=(agent,), duration_ms=1000))
        assert err.value.field == "agents[0].waypoints[2].t_ms"

    def test_sound_amplitude_out_of_range(self):
        agent = fixed_agent("a", 0, 0, sound=(SoundPhase(0, 500, 1.5),))
        with pytest.raises(ConfigError) as err:
            validate_config(ScenarioConfig(agents=(agent,), duration_ms=1000))
        assert err.value.field == "agents[0].sound[0].amplitude"

    def test_sound_phase_beyond_duration(self):
        agent = fixed_agent("a", 0, 0, sound=(SoundPhase(0, 2000, 0.5),))
        with pytest.raises(ConfigError) as err:
            validate_config(ScenarioConfig(agents=(agent,), duration_ms=1000))
        assert err.value.field == "agents[0].sound[0].to_ms"

    def test_bad_seed(self):
        with pytest.raises(ConfigError) as err:
            validate_config(dataclasses.replace(two_agent_config(), seed=-1))
        assert err.value.field == "seed"

    def test_bad_pathloss_exponent(self):
        with pytest.raises(ConfigError) as err:
            validate_config(two_agent_config(pathloss_exp=0.0))
        assert err.value.field == "rf.pathloss_exp"

    def test_no_agents(self):
        with pytest.raises(ConfigError) as err:
            validate_config(ScenarioConfig(agents=(), duration_ms=1000))
        assert err.value.field == "agents"


class TestScenarioGrammar:
    GOOD = """
# comment
duration_ms = 600000
seed = 9

[rf]
p_ref_dbm = -40
max_range_m = 25

[agent a]
waypoint = 0 0.0 0.0
sound = 0 600000 0.3

[agent b]
waypoint = 0 2.0 0.0
waypoint = 300000 4.0 1.0
"""

    def test_parses_and_validates(self):
        config = parse_scenario(self.GOOD)
        assert config.duration_ms == 600_000
        assert config.seed == 9
        assert config.rf.max_range_m == 25.0
        assert config.rf.pathloss_exp == 2.7  # untouched default
        assert [a.id for a in config.agents] == ["a", "b"]
        assert config.agents[0].sound[0].amplitude == 0.3
        assert config.agents[1].waypoints[1] == Waypoint(300_000, 4.0, 1.0)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("duration_ms = 1000\nbogus = 1\n", source="f.scn")
        assert "f.scn:2" in str(err.value)

    def test_missing_duration(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("seed = 1\n")

    def test_bad_waypoint_arity(self):
        text = "duration_ms = 1000\n[agent a]\nwaypoint = 0 1.0\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert ":3" in str(err.value)

    def test_agent_redefinition(self):
        text = "duration_ms = 1000\n[agent a]\nwaypoint = 0 0 0\n[agent a]\nwaypoint = 0 0 0\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    def test_bundled_scenarios_load(self, scenarios_dir):
        for name in ("experiment1.scn", "experiment2.scn", "experiment3.scn"):
            config = load_scenario(scenarios_dir / name)
            assert config.duration_ms > 0
            assert len(config.agents) >= 2
