"""Spans around the benchmark's calls into ``savo``, and the per-layer metrics
derived from them.

Spans are kept in memory as ``[key, start_ns, end_ns, parent, work, tag]``
and written out when the run ends. ``work`` is a layer's own count (batch
rows, table rows scanned, grid cells); ``tag`` is a shape label used only for
the baseline rows. Untraced runs never build a ``Tracer``, so the calls the
workloads make are the bare ``savo`` callables.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (layer, spanned function) pairs that run inside ops; each yields
# ``<layer>.<function>.calls`` and ``<layer>.<function>.self_ms`` per op.
# Calls made only during set-up (constructors, ``create``) are spanned too,
# but count only toward ``<layer>.setup_ms``.
OP_FUNCTIONS = [
    ("nn.core", "Mlp.forward"),
    ("nn.core", "Mlp.forward_tape"),
    ("nn.core", "Mlp.backward"),
    ("nn.deepset", "summarize"),
    ("nn.deepset", "forward_batch"),
    ("nn.deepset", "forward_batch_tape"),
    ("nn.deepset", "backward_batch"),
    ("nn.film", "scale_shift"),
    ("nn.film", "modulate_tape"),
    ("nn.film", "backward"),
    ("nn.optim", "adam_step"),
    ("nn.optim", "polyak_update"),
    ("nn.checkpoint", "save_arrays"),
    ("nn.checkpoint", "load_arrays"),
    ("actions", "nearest"),
    ("actions", "knn"),
    ("actions", "nearest_rows"),
    ("actions", "rep_of"),
    ("envs.bandit", "BanditEnv.step"),
    ("envs.bandit", "BanditEnv.reset"),
    ("envs.bandit", "BanditLandscape"),
    ("envs.bandit", "BanditLandscape.grid"),
    ("envs.bandit", "BanditLandscape.value"),
    ("envs.pendulum", "step"),
    ("envs.pendulum", "reset"),
    ("envs.mining", "step"),
    ("envs.mining", "reset"),
    ("envs.recsim", "step"),
    ("envs.recsim", "reset"),
    ("analysis.landscape", "surrogate_values"),
    ("analysis.landscape", "count_local_optima"),
    ("analysis.mdp", "random_mdp"),
    ("analysis.mdp", "maximizer_policy_iteration"),
    ("driver", "replay_sample"),
    ("driver", "glue"),
]

LAYERS = list(dict.fromkeys(layer for layer, _ in OP_FUNCTIONS))

# Layer counts summed from span ``work``, per op.
WORK_COUNTS = {
    "nn.core.rows": ("nn.core", None),
    "actions.rows_scanned": ("actions", None),
    "analysis.landscape.cells": ("analysis.landscape", "count_local_optima"),
}

# Layer counts the workloads report in their op records, per op.
RECORD_COUNTS = ["analysis.mdp.iterations"]

# Rows of the hand-measured ROADMAP baseline that a workload reaches at the
# same shape: mean duration per call of the tagged spans, summed, times scale.
BASELINE_ROWS = {
    "baseline.critic_fwd_b256_ms": ([("nn.core", "Mlp.forward", "critic@256")], 1.0),
    "baseline.critic_fwd_bwd_b256_ms": (
        [("nn.core", "Mlp.forward_tape", "critic@256"), ("nn.core", "Mlp.backward", "critic@256")],
        1.0,
    ),
    "baseline.critic_adam_step_ms": ([("nn.optim", "adam_step", "p76545")], 1.0),
    "baseline.deepset_fwd_bwd_b256_m2_ms": (
        [("nn.deepset", "forward_batch_tape", "256x2"), ("nn.deepset", "backward_batch", "256x2")],
        1.0,
    ),
    "baseline.nearest_rows_b256_n1000_ms": ([("actions", "nearest_rows", "256x1000")], 1.0),
    "baseline.knn_k10_x256_ms": ([("actions", "knn", "k10")], 256.0),
    "baseline.bandit_step_us": ([("envs.bandit", "BanditEnv.step", None)], 1000.0),
    "baseline.pendulum_step_us": ([("envs.pendulum", "step", None)], 1000.0),
    "baseline.mining_step_us": ([("envs.mining", "step", None)], 1000.0),
    "baseline.recsim_step_us": ([("envs.recsim", "step", None)], 1000.0),
    "baseline.bandit_landscape_2d_ms": ([("envs.bandit", "BanditLandscape", "2d")], 1.0),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    out = []
    for layer, fn in OP_FUNCTIONS:
        out.append((f"{layer}.{fn}.calls", "count"))
        out.append((f"{layer}.{fn}.self_ms", "ms"))
    for layer in LAYERS:
        out.append((f"{layer}.share", "fraction"))
        out.append((f"{layer}.setup_ms", "ms"))
    out += [(name, "count") for name in WORK_COUNTS]
    out += [(name, "count") for name in RECORD_COUNTS]
    out.append(("envs.pendulum.replaced_share", "fraction"))
    out += [(name, "us" if name.endswith("_us") else "ms") for name in BASELINE_ROWS]
    out.append(("trace.overhead_share", "fraction"))
    return out


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        self.spans: list[list] = []
        self._stack = [-1]

    def key(self, layer: str, name: str) -> int:
        k = (layer, name)
        if k not in self._key_ids:
            self._key_ids[k] = len(self.keys)
            self.keys.append(k)
        return self._key_ids[k]

    def wrap(self, fn, layer: str, name: str, work=None, tag=None):
        """``fn`` with a span around each call; ``work``/``tag`` see its arguments."""
        key = self.key(layer, name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [
                key,
                0,
                0,
                stack[-1],
                work(*args, **kwargs) if work else 0,
                tag(*args, **kwargs) if tag else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def track(self, obj, layer: str, methods: dict):
        """Span the named methods of one instance (not of its class)."""
        for attr, (name, work, tag) in methods.items():
            setattr(obj, attr, self.wrap(getattr(obj, attr), layer, name, work, tag))
        return obj

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"keys": self.keys, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(
    tracer: Tracer, first_op_span: int, ops: int, record_counts: dict, overhead_share: float
) -> dict[str, float]:
    """Per-op layer metrics from the spans of a traced window.

    Spans before ``first_op_span`` belong to the traced set-up. The op root
    spans (``driver.glue``) carry the op wall time that shares divide by.
    """
    ops = max(ops, 1)
    self_ns = tracer.self_times()
    glue = tracer.key("driver", "glue")
    calls = defaultdict(int)
    fn_self = defaultdict(int)
    layer_self = defaultdict(int)
    setup_self = defaultdict(int)
    work = defaultdict(int)
    tagged = defaultdict(lambda: [0, 0])
    op_wall = 0
    for i, (key, t0, t1, parent, w, tag) in enumerate(tracer.spans):
        layer, fn = tracer.keys[key]
        if i < first_op_span:
            setup_self[layer] += self_ns[i]
            continue
        if key == glue:
            op_wall += t1 - t0
        calls[(layer, fn)] += 1
        fn_self[(layer, fn)] += self_ns[i]
        layer_self[layer] += self_ns[i]
        work[(layer, fn)] += w
        acc = tagged[(layer, fn, tag)]
        acc[0] += 1
        acc[1] += t1 - t0
    out: dict[str, float] = {}
    for layer, fn in OP_FUNCTIONS:
        out[f"{layer}.{fn}.calls"] = calls[(layer, fn)] / ops
        out[f"{layer}.{fn}.self_ms"] = fn_self[(layer, fn)] / 1e6 / ops
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / op_wall if op_wall else 0.0
        out[f"{layer}.setup_ms"] = setup_self[layer] / 1e6
    for name, (layer, fn) in WORK_COUNTS.items():
        total = sum(v for (lay, f), v in work.items() if lay == layer and fn in (None, f))
        out[name] = total / ops
    for name in RECORD_COUNTS:
        out[name] = record_counts.get(name, 0) / ops
    steps = record_counts.get("envs.pendulum.steps", 0)
    out["envs.pendulum.replaced_share"] = record_counts.get("envs.pendulum.replaced", 0) / steps if steps else 0.0
    for name, (parts, scale) in BASELINE_ROWS.items():
        total = 0.0
        for layer, fn, tag in parts:
            if tag is None:
                n = calls[(layer, fn)]
                ns = sum(v[1] for (lay, f, _), v in tagged.items() if (lay, f) == (layer, fn))
            else:
                n, ns = tagged.get((layer, fn, tag), (0, 0))
            total += ns / n / 1e6 if n else 0.0
        out[name] = total * scale
    out["trace.overhead_share"] = overhead_share
    return out
