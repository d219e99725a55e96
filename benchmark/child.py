"""One repeat of a workload, in a process of its own.

Run by run.py with the repeat directory as cwd.  Imports langlab, builds
the workload's inputs, then times one ``langlab.cli.main`` call; with
``--trace 1`` spans are recorded around langlab's public functions.
With ``--check 1`` it then runs ``tsne`` once more, untimed, on a subset
of the task sample and past the early-exaggeration window, so that the
correctness gate can see the optimization lower the KL divergence.
Writes timings, resource use and tapped values to ``--result`` (outside
the run directory, so the run directory stays byte-identical).
"""

from __future__ import annotations

import time

# set-up is timed from here: imports, then the workload's inputs
BEGAN = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from langlab.analysis.tsne import tsne  # noqa: E402
from langlab.cli import main as langlab_main  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# The check run: about this many points of the task sample, at the
# program's default 1000 iterations, far enough past the 250 of early
# exaggeration for KL(P||Q) to fall well below its value at the start.
# The program's default rate of 200 overshoots at this N (on some seeds
# KL ends above its start); at 50, the floor of the common N / 48 rule,
# the fall varies by about 0.05 of the initial KL between seeds of the
# random start.
CHECK_POINTS = 150
CHECK_ITERATIONS = 1000
CHECK_LEARNING_RATE = 50.0


def tsne_check(points, seed: int) -> dict:
    """Untimed t-SNE on every k-th point of the timed command's task sample."""
    subset = points[::max(1, len(points) // CHECK_POINTS)][:CHECK_POINTS]
    result = tsne(subset, perplexity=min(30.0, (len(subset) - 1) / 3.0),
                  iterations=CHECK_ITERATIONS,
                  learning_rate=CHECK_LEARNING_RATE, seed=seed)
    return {"N": len(subset), "kl_initial": result.kl_initial,
            "kl_final": result.kl_final}


def runtime_info() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--check", type=int, default=1, choices=(0, 1),
                    help="run the untimed check t-SNE after the command")
    ap.add_argument("--cpu", type=int, default=None,
                    help="pin this process to one CPU")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    with contextlib.redirect_stdout(io.StringIO()):
        argv = workloads.setup(args.workload, args.size, args.seed, langlab_main)
    tracer = tracing.Tracer() if args.trace else None
    untraceable = tracer.install() if tracer else []
    taps: dict = {}
    samples: list = []
    tracing.install_taps(taps, samples)
    setup_rss = _rss_mib()

    cpu0 = _cpu_s()
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = langlab_main(argv)
    end = time.monotonic()
    cpu = _cpu_s() - cpu0

    result = {
        "argv": argv, "rc": rc, "start": start, "end": end,
        "setup_s": start - BEGAN, "wall_s": end - start, "cpu_s": cpu,
        "peak_rss_mib": _rss_mib(), "setup_peak_rss_mib": setup_rss,
        "taps": taps, "runtime": runtime_info(),
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, end - start)
        result["untraceable"] = untraceable
    if rc == 0 and samples and args.check:
        taps["tsne_check"] = tsne_check(samples[0], args.seed)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
