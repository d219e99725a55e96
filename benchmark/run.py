"""langlab benchmark: one workload, timed through the ``langlab`` CLI.

    python3 benchmark/run.py --workload udpos-finetune --seed 0 --seconds 40 --trace 0

Closed loop, one client: each repeat is a fresh Python process that sets
up the workload's inputs and then runs one ``langlab`` command; repeats
run back to back until ``--seconds`` is used up (at least three
untraced, or two alternating untraced/traced with ``--trace 1``).  BLAS
is pinned to one thread in the child's environment.

Every repeat passes the correctness gate: exit code 0, strict JSON run
files, a run directory byte-identical to the first repeat's, the
workload's invariants, and the reference values of references.json.
The first repeat also runs the untimed check t-SNE (child.py); the
others feed it the same points, as their run directories show.
A repeat that fails any check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics (medians over untraced
repeats), ``--trace 1`` the per-layer metrics (medians over traced
repeats), each named with its unit in
BENCHMARK.json.  The last stdout line is the JSON result; the line
before it records the machine.  NOTES.md says what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import TSNE_NXN_ARRAYS_PER_ITER  # noqa: E402

WORK = HERE / ".work"
RESULTS = HERE / ".results"
HARD_LIMIT_S = 170.0
MIN_REPEATS = {0: 3, 1: 2}
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# ROADMAP Baseline (2-vCPU Xeon VM, one BLAS thread): one MLM step at (32, 28), and one
# exact t-SNE iteration at N=2000.
BASELINE_MLM_STEP_MS = 78.0
BASELINE_TSNE_ITER_MS = 110.0
BASELINE_TSNE_N = 2000


@dataclass
class Repeat:
    index: int
    traced: bool
    setup_s: float = 0.0
    result: dict | None = None
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.problems


def run_repeat(workload: str, seed: int, size: str, traced: bool,
               rep_dir: Path, timeout: float, index: int = 0,
               check: bool = True, cpu: int | None = None) -> Repeat:
    """Run one child process; fill in its timings and what it got wrong.
    ``check`` runs the untimed check t-SNE after the timed command;
    ``cpu`` pins the child to that CPU."""
    rep = Repeat(index=index, traced=traced)
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
           "--check", str(int(check)), "--result", str(result_path)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    env = {**os.environ, **CHILD_ENV}
    with open(rep_dir / "child.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=rep_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rep.problems.append(f"timed out after {timeout:.0f} s")
            return rep
    if proc.returncode != 0:
        tail = (rep_dir / "child.log").read_text(errors="replace")[-400:]
        rep.problems.append(f"child exited {proc.returncode}: {tail.strip()}")
    if not result_path.exists():
        rep.problems.append("child wrote no result")
        return rep
    rep.result = json.loads(result_path.read_text(encoding="utf-8"))
    rep.setup_s = rep.result["setup_s"]
    run_dir = rep_dir / workloads.RUN_DIR
    if run_dir.is_dir():
        rep.digests = {
            str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}
    if rep.result["rc"] == 0:
        try:
            rep.results = workloads.main_results(workload, rep_dir,
                                                 rep.result["taps"])
            rep.problems += workloads.invariants(workload, size, rep_dir,
                                                 rep.results, check)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            rep.problems.append(f"unreadable results: {exc!r}")
    return rep


def machine_info() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches_per_core": caches, "platform": platform.platform(),
            "git_commit": commit}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Repeat]) -> dict:
    good = [r for r in reps if r.result is not None and not r.traced]
    return {
        "wall_s": _median([r.result["wall_s"] for r in good]),
        "setup_s": _median([r.setup_s for r in good]),
        "peak_rss_mib": _median([r.result["peak_rss_mib"] for r in good]),
    }


def per_layer(reps: list[Repeat], units: dict) -> dict:
    """Medians over traced repeats, plus the process figures; adds a
    problem to a repeat whose counts or span sums do not hold."""
    plain = [r.result for r in reps if r.result is not None and not r.traced]
    traced = [r for r in reps if r.result is not None and r.traced]
    out = {}
    for name in traced[0].result["layers"] if traced else ():
        values = [r.result["layers"][name] for r in traced]
        if units.get(name) == "count" and len(set(values)) > 1:
            traced[-1].problems.append(f"count {name} differs between "
                                       f"traced repeats: {values}")
        out[name] = _median(values)
    for r in traced:
        if r.result["layers"]["pipeline.untraced_s"] < 0:
            r.problems.append("top-level spans exceed the traced wall time")
    wall_plain = _median([p["wall_s"] for p in plain])
    out["process.cpu_s"] = _median([p["cpu_s"] for p in plain])
    out["process.cpu_util"] = _median([p["cpu_s"] / p["wall_s"] for p in plain])
    out["trace.overhead_s"] = (_median([r.result["wall_s"] for r in traced])
                               - wall_plain)
    return out


STAGES = ("corpus", "pretrain", "train", "probe", "evaluate", "analyze",
          "checkpoint", "untraced")


def span_sum_line(rep: Repeat) -> str:
    """One traced repeat's top-level spans, summed against its wall time."""
    layers = rep.result["layers"]
    parts = [f"{s} {layers[f'pipeline.{s}_s']:.3f}" for s in STAGES]
    total = sum(layers[f"pipeline.{s}_s"] for s in STAGES)
    return (f"repeat {rep.index} top-level spans (s): {' + '.join(parts)} "
            f"= {total:.3f}; traced wall {rep.result['wall_s']:.3f}")


def baseline_lines(layers: dict) -> list[str]:
    """The ROADMAP Baseline beside this run's figures; a report, not a gate."""
    lines = []
    step = layers["encoder.mlm_step_ms_p50"]
    if step:
        lines.append(f"MLM step p50 {step:.2f} ms vs ROADMAP Baseline "
                     f"{BASELINE_MLM_STEP_MS:.0f} ms at (32, 28): ratio "
                     f"{step / BASELINE_MLM_STEP_MS:.3f}")
    it = layers["analysis.tsne_iter_ms"]
    if it:
        # the Baseline is per iteration at N=2000; exact t-SNE is O(N^2)
        n2 = layers["analysis.tsne_bytes_per_iter"] / (8 * TSNE_NXN_ARRAYS_PER_ITER)
        scaled = BASELINE_TSNE_ITER_MS * n2 / BASELINE_TSNE_N ** 2
        lines.append(f"t-SNE {it:.3f} ms/iteration at mean N^2 = {n2:.0f}; "
                     f"ROADMAP Baseline {BASELINE_TSNE_ITER_MS:.0f} ms at "
                     f"N={BASELINE_TSNE_N} scaled by N^2 -> {scaled:.3f} ms: "
                     f"ratio {it / scaled:.3f}")
    lines.append("computed, not measured: encoder.gflop, encoder.gflop_per_s "
                 "(matmul FLOPs from B, T, d_model, d_ff, n_layers), "
                 "analysis.tsne_bytes_per_iter (from N), "
                 "optim.adam_elements, token counts")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: smoke-test sizes, no reference check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "langlab" / "cli.py").is_file():
        print(f"error: no langlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # Repeats of each kind take the CPUs in turn: on a shared host one CPU
    # can run slow for tens of seconds while another runs at full speed.
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[Repeat] = []
    durations: list[float] = []     # whole repeats, as the loop sees them
    began = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - began
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = run_repeat(args.workload, args.seed, args.size, traced,
                             work / f"r{len(reps)}", HARD_LIMIT_S - elapsed,
                             index=len(reps), check=not reps,
                             cpu=cpus[len(reps) // (1 + args.trace) % len(cpus)])
            reps.append(rep)
            if rep.result is None:
                break
            durations.append(time.monotonic() - began - elapsed)
            elapsed += durations[-1]
            typical = _median(durations)
            if (len(reps) >= MIN_REPEATS[args.trace]
                    and elapsed + typical > args.seconds):
                break
            if elapsed + 2 * typical > HARD_LIMIT_S:
                break
        ref = (refs["workloads"].get(args.workload, {}).get(str(args.seed))
               if args.size == "full" else None)
        for rep in reps:
            if ref is not None and rep.results:
                rep.problems += workloads.compare_reference(
                    rep.results, ref, refs["tolerance"])
            if rep.digests != reps[0].digests:
                rep.problems.append("run directory differs from repeat 0")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(reps, units) if args.trace else end_to_end(reps)
    failed = sum(1 for r in reps if not r.ok)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if extra or (missing and not failed):
        print(f"error: metrics {missing} missing, {extra} not in BENCHMARK.json",
              file=sys.stderr)
        return 3
    # a run whose traced repeats all failed still reports, as incorrect
    values = {name: values.get(name, 0.0) for name in units}

    machine = machine_info()
    runtime = next((r.result["runtime"] for r in reps if r.result), {})
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(reps)} repeats, {failed} failed; "
          f"{'checked against references.json' if ref is not None else 'no reference for this seed: invariants only'}")
    for r in reps:
        timing = (f"setup {r.setup_s:.3f} s  wall {r.result['wall_s']:.3f} s  "
                  f"peak {r.result['peak_rss_mib']:.1f} MiB"
                  if r.result else "no result")
        status = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        print(f"  repeat {r.index} {'traced' if r.traced else 'untraced'}  "
              f"{timing}  {status}")
    for name in units:
        print(f"  {name:34s} {values[name]:14.6g} {units[name]}")
    if args.trace:
        lines = [span_sum_line(r) for r in reps if r.traced and r.result]
        lines += [f"not traced, no longer in langlab: {name}" for name in
                  next((r.result["untraceable"] for r in reps
                        if r.traced and r.result), [])]
        for line in lines + baseline_lines(values):
            print("  " + line)

    summary = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "machine": {**machine, **runtime},
               "repeats": [{"index": r.index, "traced": r.traced,
                            "setup_s": r.setup_s, "problems": r.problems,
                            "results": r.results,
                            **{k: r.result[k] for k in ("wall_s", "cpu_s",
                               "peak_rss_mib", "setup_peak_rss_mib")
                               if r.result}}
                           for r in reps],
               "metrics": values}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"machine": summary["machine"]}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
