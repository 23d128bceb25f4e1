"""Record the output digests of the default seeds into bench/digests.json.

    python3 bench/record_digests.py [SEED ...]      (default seeds 0-10)

Runs one set-up and one untraced pass of every workload per seed and keeps
the sha256 of `records.log` and of the export CSV.  Run it from the root of
the repository, and only in a change whose purpose is to change the
program's output: the benchmark fails any pass whose outputs differ from
these digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DIGESTS_PATH, WORKLOADS, Digests, Ops  # noqa: E402

DEFAULT_SEEDS = range(11)


def record(seeds) -> dict:
    table: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload_class in WORKLOADS.items():
        for seed in seeds:
            workdir = os.path.join(ROOT, ".bench_runs", f"digests-{name}-{seed}")
            try:
                workload = workload_class(workdir, seed, tiny=False)
                workload.digests = Digests(name, seed, use_recorded=False)
                ops = Ops()
                workload.setup(ops)
                workload.run_pass(ops)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if ops.failed:
                raise SystemExit(f"{name} seed {seed}: {ops.problems}")
            table.setdefault(name, {})[str(seed)] = dict(sorted(workload.digests.expected.items()))
            print(name, seed, table[name][str(seed)], flush=True)
    return table


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(DEFAULT_SEEDS)
    table = record(seeds)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
