import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness import simulator
from nearness.domain import MAX_SPAN_DAYS, MS_PER_DAY, DomainError
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
from rowwise_simulator import eager_accel, moving_mask_per_sample


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

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=0, max_size=6),
           axis=st.lists(st.integers(-3, 25), max_size=40))
    def test_moving_mask_matches_the_per_sample_lookup(self, steps, axis):
        # waypoint times may repeat (a zero-length segment), positions may
        # stay put, and the axis reaches outside the waypoints' span
        waypoints, t, x = [Waypoint(0, 0.0, 0.0)], 0, 0.0
        for dt, moves in steps:
            t, x = t + dt, x + moves
            waypoints.append(Waypoint(t, x, 0.0))
        config = ScenarioConfig(agents=(AgentSpec(id="m", waypoints=tuple(waypoints)),),
                                duration_ms=30)
        t_ms = np.array(sorted(axis), dtype=np.int64)
        expected = moving_mask_per_sample(config, "m", t_ms)
        assert GroundTruth(config).moving_mask("m", t_ms).tolist() == expected.tolist()

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
        assert traces.counts()[0] == 20  # 10 scans, two directions
        assert all(r == -40.0 for s in traces.sightings.values() for r in s.rssi_dbm)

    def test_single_agent_yields_no_sightings(self):
        config = ScenarioConfig(agents=(fixed_agent("a", 0.0, 0.0),),
                                duration_ms=300_000)
        traces, _ = generate(config)
        assert traces.counts()[0] == 0
        assert traces.sightings == {}
        assert len(traces.accel["a"]) == 300_000 // 50
        assert len(traces.sound["a"]) == 300

    def test_out_of_range_pair_never_sighted(self):
        traces, _ = generate(two_agent_config(distance_m=50.0, max_range_m=30.0))
        assert traces.counts()[0] == 0
        assert traces.sightings == {}       # as a file of no sightings reads back

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
        ab, ba = traces.sightings[("a", "b")], traces.sightings[("b", "a")]
        assert list(zip(ab.t_ms.tolist(), ab.rssi_dbm.tolist())) == \
            list(zip(ba.t_ms.tolist(), ba.rssi_dbm.tolist()))

    def test_shadowing_breaks_direction_symmetry(self):
        traces, _ = generate(two_agent_config(distance_m=3.7, shadowing_sigma_db=4.0))
        ab, ba = traces.sightings[("a", "b")], traces.sightings[("b", "a")]
        assert ab.rssi_dbm.tolist() != ba.rssi_dbm.tolist()

    def test_rssi_values_match_model(self):
        # coincident agents, clamped at 0 dBm, clamped at -120 dBm, in range
        for distance_m, rf, clamped_to in ((0.0, {}, 0.0),
                                           (0.01, {}, 0.0),
                                           (1000.0, {"max_range_m": 2000.0}, -120.0),
                                           (6.25, {}, None)):
            config = two_agent_config(distance_m=distance_m, **rf)
            traces, gt = generate(config)
            assert traces.counts()[0] == 20
            for obs, subj in (("a", "b"), ("b", "a")):
                series = traces.sightings[(obs, subj)]
                t = series.t_ms
                (xo, yo), (xs, ys) = gt.positions(obs, t), gt.positions(subj, t)
                model = rssi_from_distance(np.hypot(xo - xs, yo - ys), config.rf)
                assert series.rssi_dbm.tolist() == model.tolist()
            if clamped_to is not None:
                assert {r for s in traces.sightings.values() for r in s.rssi_dbm.tolist()} \
                    == {clamped_to}

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


def walking_crowd(agents, duration_ms, **overrides):
    """`agents` agents one metre apart that walk 10 m in the first half of
    the run and stand still in the second."""
    half = duration_ms // 2
    return ScenarioConfig(
        agents=tuple(AgentSpec(id=f"n{k}", waypoints=(Waypoint(0, float(k), 0.0),
                                                      Waypoint(half, float(k), 10.0)))
                     for k in range(agents)),
        duration_ms=duration_ms, **overrides)


def bits(series):
    return [(getattr(series, c).dtype, getattr(series, c).tobytes())
            for c in ("t_ms", "ax", "ay", "az")]


class TestDrawnAccel:
    """`generate` draws each node's accelerometer series when it is looked up."""

    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_every_lookup_equals_the_eager_loop(self, sigma):
        config = walking_crowd(3, 300_000, accel_noise_sigma=sigma, seed=11)
        traces, _ = generate(config)
        oracle = eager_accel(config)
        assert list(traces.accel) == sorted(oracle)
        for node, series in oracle.items():
            for _ in range(2):      # a second lookup draws the same bits
                assert bits(traces.accel[node]) == bits(series)

    def test_lookup_order_does_not_matter(self):
        config = walking_crowd(4, 120_000, seed=5)
        forward, _ = generate(config)
        backward, _ = generate(config)
        drawn = {node: bits(forward.accel[node]) for node in forward.accel}
        for node in [*reversed(list(backward.accel)), "n2", "n0"]:
            assert bits(backward.accel[node]) == drawn[node]

    def test_unknown_node_raises_key_error(self):
        traces, _ = generate(walking_crowd(2, 60_000))
        with pytest.raises(KeyError):
            traces.accel["zz"]
        assert "zz" not in traces.accel and traces.accel.get("zz") is None

    def test_time_axis_is_shared_and_read_only(self):
        traces, _ = generate(walking_crowd(2, 60_000))
        t_ms = traces.accel["n0"].t_ms
        assert t_ms is traces.accel["n1"].t_ms
        assert not t_ms.flags.writeable
        with pytest.raises(ValueError):
            t_ms[0] = 1

    def test_counts_and_nodes_draw_nothing(self, monkeypatch):
        draws = []
        stream_rng = simulator._stream_rng
        monkeypatch.setattr(simulator, "_stream_rng",
                            lambda seed, *labels: draws.append(labels) or stream_rng(seed, *labels))
        traces, _ = generate(walking_crowd(3, 60_000))
        assert traces.counts() == (6, 3 * 1200, 3 * 60)
        assert traces.nodes() == ["n0", "n1", "n2"]
        assert traces.max_t_ms() == 59_950
        assert len(traces.accel) == 3 and "n1" in traces.accel
        assert draws == []
        traces.accel["n1"]
        assert draws == [("accel", "n1")]


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

    def test_duration_past_the_span_limit(self):
        longest = MAX_SPAN_DAYS * MS_PER_DAY
        assert validate_config(two_agent_config(duration_ms=longest)).duration_ms == longest
        with pytest.raises(ConfigError) as err:
            validate_config(two_agent_config(duration_ms=longest + 1))
        assert err.value.field == "duration_ms"

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

    @pytest.mark.parametrize("text, message", [
        ("duration_ms = 1000\nbogus = 1", "2: unknown key 'bogus'"),
        ("duration_ms = 1000\nduration_ms = 2000", "2: duplicate key 'duration_ms'"),
        ("[rf]\nseed = 1", "2: unknown rf key 'seed'"),
        ("[rf]\nmax_range_m = 1\nmax_range_m = 2", "3: duplicate rf key 'max_range_m'"),
        ("duration_ms = 1.5", "1: duration_ms: invalid integer '1.5'"),
        ("seed = x", "1: seed: invalid integer 'x'"),
        ("accel_noise_sigma = abc", "1: accel_noise_sigma: invalid number 'abc'"),
        ("[rf]\nscan_interval_ms = 1e3", "2: scan_interval_ms: invalid integer '1e3'"),
        ("[rf]\npathloss_exp = two", "2: pathloss_exp: invalid number 'two'"),
        ("[agent a]\nwaypoint = 0.5 0 0", "2: waypoint.t_ms: invalid integer '0.5'"),
        ("[agent a]\nwaypoint = 0 x 0", "2: waypoint.x: invalid number 'x'"),
        ("[agent a]\nwaypoint = 0 0 y", "2: waypoint.y: invalid number 'y'"),
        ("[agent a]\nsound = a 1 0.1", "2: sound.from_ms: invalid integer 'a'"),
        ("[agent a]\nsound = 0 1.0 0.1", "2: sound.to_ms: invalid integer '1.0'"),
        ("[agent a]\nsound = 0 1 loud", "2: sound.amplitude: invalid number 'loud'"),
        ("[agent a]\nwaypoint = 0 1.0", "2: waypoint needs: t_ms x y"),
        ("[agent a]\nsound = 0 1 0.1 0.2", "2: sound needs: from_ms to_ms amplitude"),
        ("[agent a]\nspeed = 1", "2: unknown agent key 'speed'"),
        ("[agent a]\nseed = 1", "2: unknown agent key 'seed'"),
        ("[agent ]", "1: unknown section [agent]"),
        ("[agent a]\n[agent a]", "2: agent 'a' redefined"),
        ("[world]", "1: unknown section [world]"),
        ("[rf", "1: unterminated section header"),
        ("duration_ms 1000", "1: expected key = value, got 'duration_ms 1000'"),
        ("seed = 1", "0: missing required key duration_ms"),
        ("duration_ms = 1000\n[agent rf]\nmax_range_m = 3", "3: unknown agent key 'max_range_m'"),
        ("[agent a]\nwaypoint = 0 0 0\n[rf]\nwaypoint = 0 0 0", "4: unknown rf key 'waypoint'"),
    ])
    def test_every_error_names_file_line_and_cause(self, text, message):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text, source="f.scn")
        assert str(err.value) == f"f.scn:{message}"
        assert err.value.line == int(message.split(":")[0])

    def test_every_number_field_reads_back(self):
        text = """
duration_ms = 120000
accel_noise_sigma = 0.25
seed = 77
[rf]
p_ref_dbm = -45.5
pathloss_exp = 3.1
shadowing_sigma_db = 1.5
scan_interval_ms = 30000
max_range_m = 12.5
[agent a]
waypoint = 0 1.5 -2.5
waypoint = 60000 3.25 4
sound = 1000 2000 0.5
"""
        config = parse_scenario(text)
        assert config == ScenarioConfig(
            agents=(AgentSpec("a", (Waypoint(0, 1.5, -2.5), Waypoint(60_000, 3.25, 4.0)),
                              (SoundPhase(1000, 2000, 0.5),)),),
            duration_ms=120_000, rf=RfParams(-45.5, 3.1, 1.5, 30_000, 12.5),
            accel_noise_sigma=0.25, seed=77)
        for obj, cls in ((config, ScenarioConfig), (config.rf, RfParams)):
            for f in dataclasses.fields(cls):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) != f.default, f.name
        assert [type(v) for v in dataclasses.astuple(config.rf)] == [float, float, float, int, float]
        assert [type(v) for v in (config.duration_ms, config.accel_noise_sigma, config.seed)] == \
            [int, float, int]
        assert [type(v) for v in dataclasses.astuple(config.agents[0].waypoints[1])] == \
            [int, float, float]
        assert [type(v) for v in dataclasses.astuple(config.agents[0].sound[0])] == [int, int, float]

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
