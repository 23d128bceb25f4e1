"""The scaling sweep's tiny grid runs end to end and writes its JSON."""

import json
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def test_tiny_grid_writes_every_point(tmp_path):
    out = tmp_path / "sweep.json"
    subprocess.run([sys.executable, str(SWEEP), "--tiny", "--out", str(out)], check=True,
                   capture_output=True, timeout=300)
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result["machine"]) >= {"cpu_count", "python", "numpy"}
    assert result["logs_agree"] == {"crowd3x0.25h": True}
    points = {p["name"]: p for p in result["points"]}
    assert len(points) == 7
    for point in points.values():
        assert point["wall_s"] > 0 and point["peak_rss_mb"] > 0
        assert point["sha256"] and all(len(d) == 64 for d in point["sha256"].values())
    # both paths wrote the same log
    direct, read = (points[f"crowd3x0.25h run --{source}"] for source in ("scenario", "traces"))
    assert direct["sha256"] == read["sha256"] and direct["records"] == read["records"] > 0
    # export writes one row per record of the log it reads
    assert points["crowd4x0.5h export"]["records"] == points["crowd4x0.5h run --scenario"]["records"]
    assert 0 < points["crowd4x0.5h analyze"]["records"] < points["crowd4x0.5h export"]["records"]
    assert points["crowd3x0.25h simulate"]["records"] is None
