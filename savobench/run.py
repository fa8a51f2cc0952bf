"""Benchmark entry point.

    python3 savobench/run.py --workload savo-update --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pinned before numpy loads; recorded in every result and never changed
# between commits, so runs of different commits stay comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent


def enter_checkout() -> None:
    """Import savo from the checkout's sources and work from its root, where
    checkpoints and span dumps go (under ``.savobench/``)."""
    src = ROOT / "src"
    if not (src / "savo" / "__init__.py").is_file():
        sys.exit(f"savo sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    os.chdir(ROOT)


def blas_threads_seen(blas: dict) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    dirs = [Path(blas.get("lib directory", "")), Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in [lib for d in dirs if d.is_dir() for lib in sorted(d.glob("lib*openblas*.so*"))]:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of a git checkout at the root, read from files; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_seen": blas_threads_seen(blas),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    enter_checkout()

    from savobench.harness import PROBE_REF_MS, run_plain, run_traced
    from savobench.tracer import per_layer_names
    from savobench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print("machine", json.dumps(machine(args.seed), sort_keys=True))
    if args.trace:
        out = run_traced(cls, args.seed, args.seconds, spans_path=f"spans-{args.workload}-{args.seed}.json")
        units = dict(per_layer_names())
        metrics = {name: (out["layer_metrics"][name], unit) for name, unit in units.items()}
    else:
        out = run_plain(cls, args.seed, args.seconds)
        metrics = out["metrics"]
    win = out["window"]
    n = len(win.latencies_ns)
    print(f"workload {args.workload}  trace {args.trace}  ops {n}  attempted {win.attempted}  "
          f"failed {win.failed}  digest {win.digest}")
    if not args.trace:
        print(f"setup_s is the median of {len(out['setups'])} set-ups; "
              f"op latency percentiles are over {n} ops ({n - int(0.9 * n)} beyond p90); "
              f"setup_s and the *_norm values are at a probe time of {PROBE_REF_MS} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, (value, unit) in out.get("raw", {}).items():
        print(f"{name + ' (raw)':44s} {value:14.6g} {unit}")
    for check, count in sorted(win.failures.items()):
        print(f"failed check {check}: {count} op(s)")
    # failed_op_share travels as failed/attempted: it is 0 on correct code, so
    # no relative bound can be set on it
    reported = {k: v for k, v in metrics.items() if k != "failed_op_share"}
    print(json.dumps({
        "correct": win.failed == 0,
        "attempted": win.attempted,
        "failed": win.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
