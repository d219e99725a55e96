"""Record the reference results the correctness gate compares against.

    python3 benchmark/record_references.py --seeds 0-19

Runs one untraced full-size repeat per (workload, seed) through the same
child process as run.py, checks its invariants, and writes the main
results into references.json (existing entries for other seeds stay).
Run it on the commit whose outputs are the reference, never on a change
that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run
import workloads


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, required=True,
                    help="inclusive range, e.g. 0-19")
    ap.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = ap.parse_args()

    path = run.HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workload or workloads.NAMES:
        table = refs["workloads"].setdefault(name, {})
        for seed in args.seeds:
            rep_dir = run.WORK / f"reference-{name}-s{seed}"
            shutil.rmtree(rep_dir, ignore_errors=True)
            try:
                rep = run.run_repeat(name, seed, "full", False, rep_dir,
                                     run.HARD_LIMIT_S)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            if not rep.ok:
                print(f"{name} seed {seed}: FAILED {rep.problems}")
                return 1
            table[str(seed)] = rep.results
            print(f"{name} seed {seed}: {rep.results}")
        refs["workloads"][name] = dict(sorted(table.items(),
                                              key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
