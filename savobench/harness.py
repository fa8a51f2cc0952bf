"""Closed-loop measurement: one client, the next op starts when the previous
one ends. Output checks run between ops with the clock stopped.

On a shared host the speed the process gets can swing by half for seconds to
minutes at a time (measured on a 2-vCPU VM). After each op, again with the
op's clock stopped, the workload's probe (fixed reference work that never
calls ``savo``, see ``probe.py``) is timed. Each op's latency is divided by
the median probe time around it and multiplied by ``PROBE_REF_MS``: the
``*_norm`` metrics, and ``setup_s``, are times on a machine where the
workload's probe takes ``PROBE_REF_MS``. The raw times are printed beside
them."""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .api import make_api
from .probe import probe_for
from .tracer import Tracer, layer_metrics
from .workloads import OUT_DIR

SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond p90
MIN_TRACED_OPS = 5
MAX_WINDOW_S = 120.0  # from the first set-up on: a stalled program still exits in time
PROBE_REF_MS = 1.0
PROBE_SPAN = 15  # probes in the rolling median each op is normalised by


def normalised_ms(latencies_ns, probes_ns) -> np.ndarray:
    """Op latencies in ms at a probe time of ``PROBE_REF_MS``."""
    probes = np.asarray(probes_ns, dtype=float)
    half = min(PROBE_SPAN, len(probes)) // 2
    padded = np.pad(probes, (half, half), mode="edge")
    local = np.median(sliding_window_view(padded, 2 * half + 1), axis=1)
    return np.asarray(latencies_ns, dtype=float) / local * PROBE_REF_MS


@dataclass
class Window:
    latencies_ns: list = field(default_factory=list)
    probes_ns: list = field(default_factory=list)  # one per entry of latencies_ns
    norm_ms: list = field(default_factory=list)  # filled by normalise()
    op_ns: int = 0
    op_failed: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    op_digests: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_failed)

    @property
    def failed(self) -> int:
        return sum(self.op_failed)

    @property
    def throughput(self) -> float:
        return len(self.latencies_ns) / (self.op_ns / 1e9) if self.op_ns else 0.0

    def run(self, op, probe=None) -> None:
        """Time one op, then run its output checks and time the ``probe``, if
        given, all with the op's clock stopped."""
        t0 = time.perf_counter_ns()
        try:
            rec = op()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            self.op_ns += time.perf_counter_ns() - t0
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            self.op_failed.append(True)
            self.failures[f"raised {type(exc).__name__}"] += 1
            self.op_digests.append("raised")
            return
        dt = time.perf_counter_ns() - t0
        self.op_ns += dt
        self.latencies_ns.append(dt)
        if probe is not None:
            self.probes_ns.append(probe())
        bad = {name for name, fn, args in rec.checks if not fn(*args)}
        self.op_failed.append(bool(bad))
        self.failures.update(bad)
        self.counts.update(rec.counts)
        self.op_digests.append(_digest(rec.digest))

    def normalise(self) -> None:
        self.norm_ms = list(normalised_ms(self.latencies_ns, self.probes_ns)) if self.latencies_ns else []

    @classmethod
    def merged(cls, windows) -> "Window":
        out = cls()
        for w in windows:
            out.latencies_ns += w.latencies_ns
            out.probes_ns += w.probes_ns
            out.norm_ms += w.norm_ms
            out.op_ns += w.op_ns
            out.op_failed += w.op_failed
            out.failures.update(w.failures)
            out.counts.update(w.counts)
            out.op_digests += w.op_digests
        return out

    @property
    def digest(self) -> str:
        return hashlib.blake2b("".join(self.op_digests).encode(), digest_size=8).hexdigest()


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        arr = np.asarray(part)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def segment_seed(seed: int, segment: int) -> int:
    """The seed of one set-up of a run: every set-up draws fresh inputs, all
    fixed by the run's ``--seed``."""
    return int(np.random.SeedSequence([seed, segment]).generate_state(1)[0])


def build(workload_cls, seed: int, api):
    """Set-up: construct the workload and run one warm-up op; returns (workload, seconds)."""
    t0 = time.perf_counter()
    w = workload_cls(seed, api)
    w.op()
    return w, time.perf_counter() - t0


def run_window(w, seconds: float, min_ops: int, deadline: float) -> Window:
    win = Window()
    probe = probe_for(w.name)
    while (win.op_ns < seconds * 1e9 or win.attempted < min_ops) and time.perf_counter() < deadline:
        win.run(w.op, probe)
    win.normalise()
    return win


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_plain(workload_cls, seed: int, seconds: float, min_ops: int = MIN_OPS,
              setup_repeats: int = SETUP_REPEATS, overrides=None) -> dict:
    """Set up ``setup_repeats`` times and time an equal slice of the window on
    each set-up, so that neither one set-up's inputs nor its memory layout sets
    the run's figures. Each set-up time is normalised like the op times, by
    the median of the first ``PROBE_SPAN`` probes of the slice that follows it."""
    api = make_api(None, overrides)
    setups, setups_norm, windows = [], [], []
    deadline = time.perf_counter() + MAX_WINDOW_S
    for segment in range(setup_repeats):
        gc.collect()  # free the previous set-up (its bound methods form cycles) first
        w, dt = build(workload_cls, segment_seed(seed, segment), api)
        setups.append(dt)
        windows.append(run_window(w, seconds / setup_repeats, -(-min_ops // setup_repeats), deadline))
        probes = windows[-1].probes_ns[:PROBE_SPAN]
        # a slice whose every op raised has no probes: its set-up stays raw
        setups_norm.append(dt * PROBE_REF_MS * 1e6 / statistics.median(probes) if probes else dt)
        w = None
    win = Window.merged(windows)
    lat_ms = np.array(win.latencies_ns) / 1e6
    norm_s = sum(win.norm_ms) / 1e3
    return {
        "window": win,
        "setups": setups,
        "metrics": {
            "setup_s": (statistics.median(setups_norm), "s"),
            "throughput_ops_s_norm": (len(win.norm_ms) / norm_s if norm_s else 0.0, "ops/ref-s"),
            "op_ms_p50_norm": (_pct(win.norm_ms, 50), "ref-ms"),
            "op_ms_p90_norm": (_pct(win.norm_ms, 90), "ref-ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "failed_op_share": (win.failed / win.attempted, "fraction"),
        },
        # as timed, before normalisation: printed, not declared, since the
        # host's speed swings move them past any useful bound
        "raw": {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (win.throughput, "ops/s"),
            "op_ms_p50": (_pct(lat_ms, 50), "ms"),
            "op_ms_p90": (_pct(lat_ms, 90), "ms"),
            "probe_ms_p50": (_pct(win.probes_ns, 50) / 1e6, "ms"),
        },
    }


def run_traced(workload_cls, seed: int, seconds: float, min_ops: int = MIN_TRACED_OPS,
               overrides=None, spans_path=None) -> dict:
    """Two set-ups from the inputs of the plain run's first set-up, one bare
    and one traced, stepped in alternation so that both see the same machine.
    Each traced op must reproduce the digest of the bare op with its index."""
    seed = segment_seed(seed, 0)
    bare, _ = build(workload_cls, seed, make_api(None, overrides))
    tracer = Tracer()
    traced_w, _ = tracer.wrap(build, "driver", "setup")(workload_cls, seed, make_api(tracer, overrides))
    first_op_span = len(tracer.spans)
    traced_op = tracer.wrap(traced_w.op, "driver", "glue")
    plain, traced = Window(), Window()
    deadline = time.perf_counter() + MAX_WINDOW_S
    while (plain.op_ns + traced.op_ns < seconds * 1e9 or traced.attempted < min_ops) and (
        time.perf_counter() < deadline
    ):
        plain.run(bare.op)
        traced.run(traced_op)
    for i, (a, b) in enumerate(zip(plain.op_digests, traced.op_digests)):
        if a != b:
            traced.failures["digest_mismatch"] += 1
            traced.op_failed[i] = True
    overhead = 1.0 - plain.op_ns / traced.op_ns if traced.op_ns else 0.0
    metrics = layer_metrics(tracer, first_op_span, traced.attempted, traced.counts, overhead)
    if spans_path is not None:
        tracer.write(OUT_DIR / spans_path)
    return {"window": traced, "layer_metrics": metrics}
