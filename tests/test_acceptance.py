"""End-to-end acceptance gate.

One test per release criterion; the conftest hook prints a PASS/FAIL line
for each at the end of the run.  Numeric tolerances are pinned here, not
derived at runtime.
"""

import math

import numpy as np
import pytest

from nearness.domain import LABELS
from nearness.fusion import (
    SessionStats,
    nearness_label,
    propinquity,
    social_interaction,
    tercile_ranks,
)
from nearness.engine import EngineConfig, run_engine
from nearness.pipelines import estimate_distance_raw, motion_codes
from nearness.simulator import (
    AgentSpec,
    RfParams,
    ScenarioConfig,
    Waypoint,
    generate,
    rssi_from_distance,
)
from nearness.store import RecordLog

from oracle import propinquity_oracle, rel_error, social_interaction_oracle

SI_10_1_0_1 = 0.46065886596178063902  # frozen from the mpmath oracle


def test_01_equations_match_arbitrary_precision_oracle():
    """p and si match the mpmath oracle to 1e-9 on a 1000-point grid."""
    assert rel_error(social_interaction(10.0, 1, 0.0, 1), SI_10_1_0_1) <= 1e-9

    rng = np.random.default_rng(2024)
    checked = 0
    edge_s = [0.0, 0.5, 1.0, 1.0000001]
    edge_d = [0.0, 0.1, 9.0]
    while checked < 1000:
        if checked < len(edge_s) * len(edge_d):
            s = edge_s[checked % len(edge_s)]
            d = edge_d[checked // len(edge_s) % len(edge_d)]
        else:
            s = float(10.0 ** rng.uniform(-1, 5))
            d = float(10.0 ** rng.uniform(-2, 3.3))
        v = int(rng.integers(0, 4))
        m = int(rng.integers(1, 3))
        assert rel_error(propinquity(s, d, m), propinquity_oracle(s, d, m)) <= 1e-9
        assert rel_error(social_interaction(s, v, d, m),
                         social_interaction_oracle(s, v, d, m)) <= 1e-9
        checked += 1
    assert checked == 1000


def test_02_monotonicity_over_ten_thousand_cases():
    """10k random cases: monotone in s and d, exact halving, sound shape."""
    rng = np.random.default_rng(7)
    violations = []
    for k in range(10_000):
        s = float(10.0 ** rng.uniform(0.01, 5))   # above the strength floor
        d = float(10.0 ** rng.uniform(-2, 3.3))
        v = int(rng.integers(0, 4))
        m = int(rng.integers(1, 3))
        s_hi = s * 1.5 + 1.0
        d_hi = d * 1.5 + 1.0

        p, si = propinquity(s, d, m), social_interaction(s, v, d, m)
        if not propinquity(s_hi, d, m) > p:
            violations.append((k, "p not increasing in s"))
        if not social_interaction(s_hi, v, d, m) > si:
            violations.append((k, "si not increasing in s"))
        if not propinquity(s, d_hi, m) < p:
            violations.append((k, "p not decreasing in d"))
        if not social_interaction(s, v, d_hi, m) < si:
            violations.append((k, "si not decreasing in d"))
        if propinquity(s, d, 2) != propinquity(s, d, 1) / 2.0:
            violations.append((k, "motion does not halve p exactly"))
        if social_interaction(s, v, d, 2) != social_interaction(s, v, d, 1) / 2.0:
            violations.append((k, "motion does not halve si exactly"))
        if propinquity(s, d, m) != p:
            violations.append((k, "p changed across v evaluations"))
        peak = social_interaction(s, 1, d, m)
        if not all(peak > social_interaction(s, off, d, m) for off in (0, 2, 3)):
            violations.append((k, "si not maximized at the target class"))
        if social_interaction(s, 0, d, m) != social_interaction(s, 2, d, m):
            violations.append((k, "si not symmetric around the target class"))
    assert violations == [], violations[:5]


def test_03_empirical_case_orderings():
    """Representative case encodings keep their si ordering and Avg labels."""
    case1 = dict(s=3600.0, v=0, d=2.0, m=1)    # strong tie, quiet, close, still
    case2 = dict(s=3600.0, v=2, d=18.0, m=1)   # strong tie, alert, far, still
    case3 = dict(s=30.0, v=0, d=2.0, m=2)      # weak tie, quiet, close, moving

    si1 = social_interaction(case1["s"], case1["v"], case1["d"], case1["m"])
    si2 = social_interaction(case2["s"], case2["v"], case2["d"], case2["m"])
    si3 = social_interaction(case3["s"], case3["v"], case3["d"], case3["m"])
    assert si1 > si2
    assert si1 > si3

    p1 = propinquity(case1["s"], case1["d"], case1["m"])
    p2 = propinquity(case2["s"], case2["d"], case2["m"])
    p3 = propinquity(case3["s"], case3["d"], case3["m"])

    # a session in which all three p values rank high while si1 ranks mid
    # and si2/si3 rank low: every case must come out as Avg nearness
    stats = SessionStats()
    si_history = np.array([0.1] * 8 + [0.65] * 12 + [5.0] * 12)
    stats.add(np.full(len(si_history), 0.001), si_history)
    assert tercile_ranks(stats.p, np.array([min(p1, p2, p3)])).tolist() == [2]
    assert tercile_ranks(stats.si, np.array([si1])).tolist() == [1]
    assert tercile_ranks(stats.si, np.array([si2, si3])).tolist() == [0, 0]
    labels, provisional = nearness_label(np.array([p1, p2, p3]), np.array([si1, si2, si3]),
                                         stats)
    assert [LABELS[c] for c in labels] == ["Avg"] * 3 and not provisional


def test_04_short_scenario_shape(exp1_run):
    """7 h run: strength grows within slots; distance hits p harder than si;
    a quiet spell drags si down while p holds."""
    records = exp1_run.by_key()
    minutes = sorted(m for (m, i, j) in records if (i, j) == ("a", "b"))
    series = [records[(m, "a", "b")] for m in minutes]

    by_slot: dict[int, list] = {}
    for r in series:
        by_slot.setdefault((r["minute"] // 60) % 24, []).append(r)
    assert len(by_slot) == 7
    for slot_records in by_slot.values():
        s_values = [r["s_s"] for r in slot_records]
        assert all(b >= a for a, b in zip(s_values, s_values[1:]))

    # separation leg: only distance changes between these two minutes
    before, after = records[(205, "a", "b")], records[(220, "a", "b")]
    assert (before["v_i"], before["m_i"]) == (after["v_i"], after["m_i"])
    assert after["d_m"] > before["d_m"]
    drop_p = 1.0 - after["p"] / before["p"]
    drop_si = 1.0 - after["si"] / before["si"]
    assert drop_p > drop_si > 0.0

    # quiet leg: sound class falls to 0 at constant distance
    loud, quiet = records[(265, "a", "b")], records[(280, "a", "b")]
    assert (loud["v_i"], quiet["v_i"]) == (1, 0)
    assert quiet["d_m"] == pytest.approx(loud["d_m"], rel=1e-6)
    assert quiet["si"] < loud["si"]
    assert quiet["p"] >= loud["p"]

    assert exp1_run.elapsed_s < 5.0


def test_05_long_scenario_shape(exp2_run):
    """50 h run: scores vanish through the absence window, then propinquity
    jumps at the scripted reunion minute."""
    records = exp2_run.by_key()
    window = range(300, 1260)  # hours 5..20
    for direction in (("a", "b"), ("b", "a")):
        for minute in window:
            r = records[(minute, *direction)]
            assert r["p"] == 0.0 and r["si"] == 0.0
        before = records[(1259, *direction)]
        reunion = records[(1260, *direction)]
        assert reunion["p"] > before["p"]
        assert reunion["d_m"] < math.inf

    assert exp2_run.elapsed_s < 10.0


def test_06_symmetric_scenario_correlation(exp3_run, exp3_noisy_run):
    """Directional si series correlate >= 0.99 under symmetric sensing; the
    propinquity correlation under asymmetric distance noise is reported."""
    from nearness.engine import build_report

    report = build_report(exp3_run.result, {}, exp3_run.config.seed)
    symmetry = report["pairs"]["a,b"]["symmetry"]
    assert symmetry["si"] is not None and symmetry["si"] >= 0.99

    noisy = build_report(exp3_noisy_run.result, {}, exp3_noisy_run.config.seed)
    noisy_symmetry = noisy["pairs"]["a,b"]["symmetry"]
    print(f"\nsymmetric sensing:  si corr = {symmetry['si']:.6f}, "
          f"p corr = {symmetry['p']:.6f}")
    print(f"asymmetric shadowing: si corr = {noisy_symmetry['si']:.6f}, "
          f"p corr = {noisy_symmetry['p']:.6f} (reported, no bound)")
    assert noisy_symmetry["p"] is not None
    assert -1.0 <= noisy_symmetry["p"] <= 1.0


def test_07_distance_estimator_roundtrip_and_smoothing():
    """Noiseless inversion is exact to 1e-9; smoothing beats raw estimates
    under 2 dB shadowing."""
    rf = RfParams(p_ref_dbm=-30.0)  # no clamping anywhere on [0.1, 1000]
    distances = np.geomspace(0.1, 1000.0, 500)
    for d, rssi in zip(distances.tolist(), rssi_from_distance(distances, rf).tolist()):
        back = estimate_distance_raw(rssi, rf.p_ref_dbm, rf.pathloss_exp)
        assert abs(back - d) / d <= 1e-9

    config = ScenarioConfig(
        agents=(AgentSpec("a", (Waypoint(0, 0.0, 0.0),)),
                AgentSpec("b", (Waypoint(0, 10.0, 0.0),))),
        duration_ms=3_600_000,
        rf=RfParams(shadowing_sigma_db=2.0),
        seed=1234)
    traces, _ = generate(config)
    raw = [estimate_distance_raw(rssi, config.rf.p_ref_dbm, config.rf.pathloss_exp)
           for rssi in traces.sightings[("a", "b")].rssi_dbm.tolist()]
    # the engine's per-minute distance for a -> b: one sighting per minute
    result = run_engine(traces, EngineConfig(rf=config.rf), duration_ms=config.duration_ms)
    records = result.records
    smoothed = records.d_m[(records.i == "a") & (records.j == "b")].tolist()
    assert len(raw) == len(smoothed) == 60
    rmse_raw = math.sqrt(np.mean((np.array(raw) - 10.0) ** 2))
    rmse_ema = math.sqrt(np.mean((np.array(smoothed) - 10.0) ** 2))
    print(f"\nraw RMSE {rmse_raw:.3f} m vs smoothed RMSE {rmse_ema:.3f} m")
    assert rmse_ema < rmse_raw


def test_08_motion_classifier_accuracy():
    """>= 95% of 5 s windows classified correctly on a mixed scenario."""
    waypoints = []
    for k in range(7):  # alternate 10 min still / 10 min walking
        x = 0.0 if (k // 2) % 2 == 0 else 50.0
        waypoints.append(Waypoint(k * 600_000, x if k % 2 == 0 else 50.0 - x, 0.0))
    config = ScenarioConfig(agents=(AgentSpec("m", tuple(waypoints)),),
                            duration_ms=3_600_000, seed=99)
    traces, gt = generate(config)
    accel = traces.accel["m"]
    engine = EngineConfig()
    boundaries = np.arange(5_000, 3_600_001, 5_000, dtype=np.int64)
    codes = motion_codes(accel.t_ms, accel.ax, accel.ay, accel.az, boundaries,
                         engine.motion_window_ms, engine.motion_threshold)
    truth = np.where(gt.moving_mask("m", boundaries - 2_500), 2, 1)
    correct = int(np.sum(codes == truth))
    total = len(codes)
    accuracy = correct / total
    print(f"\nmotion window accuracy: {correct}/{total} = {accuracy:.4f}")
    assert total == 720
    assert accuracy >= 0.95


def test_09_end_to_end_determinism(tmp_path, scenarios_dir):
    """Two identical runs leave byte-identical logs and exported CSVs."""
    from nearness.cli import main

    scenario = str(scenarios_dir / "experiment3.scn")
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
        assert main(["export", "--log", str(out / "records.log"),
                     "--out", str(out / "records.csv")]) == 0
        outputs.append(out)
    one, two = outputs
    assert (one / "records.log").read_bytes() == (two / "records.log").read_bytes()
    assert (one / "records.csv").read_bytes() == (two / "records.csv").read_bytes()


def test_10_storage_discipline(tmp_path, scenarios_dir):
    """Persisted outputs hold fused minute records only, never raw samples."""
    from nearness.cli import main
    from nearness.ingest import ACCEL_HEADER, SIGHTINGS_HEADER, SOUND_HEADER

    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenarios_dir / "experiment3.scn"),
                 "--out", str(out)]) == 0

    persisted = sorted(p.name for p in out.iterdir())
    assert persisted == ["records.log", "report.json"]

    raw_signatures = [",".join(h).encode() for h in
                      (SIGHTINGS_HEADER, ACCEL_HEADER, SOUND_HEADER)]
    raw_signatures += [b"rssi_dbm", b"amplitude", b"ax,ay,az"]
    for path in out.iterdir():
        blob = path.read_bytes()
        for signature in raw_signatures:
            assert signature not in blob, (path.name, signature)

    # every frame in the log must parse as a fused minute record
    log = RecordLog.open(out / "records.log")
    assert len(log) > 0
    records = log.query()
    assert np.isin(records.m_i, (1, 2)).all()
    assert ((records.v_i >= 0) & (records.v_i <= 3)).all()
