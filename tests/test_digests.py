"""Frozen output digests of the bundled scenarios.

`run --scenario` and `export` on experiment1-3 at their default seeds must
keep writing these exact bytes: `records.log`, the full export CSV,
`report.json` without its `runtime_s` field (re-serialised the way `run`
writes it), and the stdout of `analyze --pair a,b` for each of the seven
metrics in turn, which holds every series, mean and symmetry correlation.  A change that moves any of them changes the program's output
and must say so, not pass silently.
"""

import hashlib
import json

import pytest

from conftest import SCENARIOS
from nearness.cli import METRIC_FIELDS, main

DIGESTS = {
    "experiment1": (
        "dae595833e2c1332b1e7c1f2aa92940546aace0c2d8f2d4e2251eea5605287f4",
        "998872c4f3dd5f77a7d35a503165d4c92c79371dab296f6416ab3e8052c0b745",
        "fef4f50fd7f9684ffc4968464e790a34f1cb35a0f06bf724eaffed557cc43dbf",
        "f8a797963ba14583169165d30e1ded0efee8286432f0dc64d49a565302becf7a",
    ),
    "experiment2": (
        "608ad292e3d3827068da812628ed0d429b7f541aba99792cfefffb3fb80b809e",
        "86c4625c4581402c1e93602926a42879deb6e9eae443901889867d849a02b78e",
        "54c0d9c03d9d1d65cb1729c9d48ebd107cdee0c9cb7654c7851da3fe40631c21",
        "f365b3c32d23af4fb475e44e9e14a555dab25eb07ceddab64ddf85ea48b16936",
    ),
    "experiment3": (
        "bc15950efa773e2c28186a552737aea0c6cee644cd90a52210947a7886d5c287",
        "56263c2360e65c9ae1b7d9de4d755b1561504cc55f8ff3d5fa106c4de87d2123",
        "bd9e458521cca23ffdb1447c899a960c54dc3dd62ed857b60f03651a9090c8d8",
        "01d6be33e21da16ab03747c5f6137daaa43cd89b3eb2efb73cb3432cc0cfaef7",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_scenario_outputs_are_frozen(name, tmp_path, monkeypatch, capsys):
    # run from the scenario directory so the report echoes the bare file name
    monkeypatch.chdir(SCENARIOS)
    out = tmp_path / "run"
    assert main(["run", "--scenario", f"{name}.scn", "--out", str(out)]) == 0
    assert main(["export", "--log", str(out / "records.log"),
                 "--out", str(tmp_path / "all.csv")]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("runtime_s")
    report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    capsys.readouterr()
    for metric in METRIC_FIELDS:
        assert main(["analyze", "--log", str(out / "records.log"), "--pair", "a,b",
                     "--metric", metric]) == 0
    analyze_text = capsys.readouterr().out
    assert (sha256((out / "records.log").read_bytes()),
            sha256((tmp_path / "all.csv").read_bytes()),
            sha256(report_text.encode("utf-8")),
            sha256(analyze_text.encode("utf-8"))) == DIGESTS[name]
