"""Self-test of the benchmark: a few ops of every workload.

    python3 savobench/smoke.py

Asserts that every end-to-end and per-layer metric is emitted with its
declared unit, that the traced run reproduces the untraced digests, and that
a wrong output injected into each workload is counted in ``failed_op_share``
under the check that should catch it. Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # pins the BLAS threads before numpy loads


def _fault_overrides():
    from savo import actions
    from savo.analysis import landscape

    def rows_off_by_one(queries, table):
        return (actions.nearest_rows(queries, table) + 1) % len(table)

    def knn_rotated(a, table, k):
        ids = actions.knn(a, table, k)
        return ids[1:] + ids[:1]

    def nearest_off_by_one(a, table):
        row = table.ids.index(actions.nearest(a, table))
        return table.ids[(row + 1) % len(table)]

    def optima_plus_one(grid):
        return landscape.count_local_optima(grid) + 1

    return {
        "savo-update": ({"nearest_rows": rows_off_by_one}, "retrieval"),
        "wolpertinger-update": ({"knn": knn_rotated}, "retrieval"),
        "rollout": ({"nearest": nearest_off_by_one}, "retrieval"),
        "analysis": ({"count_local_optima": optima_plus_one}, "local_optima"),
    }


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"{argv} exited {code}"
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def main() -> int:
    run.enter_checkout()
    from savobench.harness import run_plain, run_traced
    from savobench.tracer import per_layer_names
    from savobench.workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list drifted"
    assert per_layer == dict(per_layer_names()), "per_layer list drifted from the tracer"
    faults = _fault_overrides()

    for name, cls in WORKLOADS.items():
        plain = run_plain(cls, seed=0, seconds=0.2, min_ops=3, setup_repeats=1)
        units = {k: u for k, (_, u) in plain["metrics"].items()}
        assert units == {**end_to_end, "failed_op_share": "fraction"}, (name, units)
        assert plain["window"].failed == 0, (name, plain["window"].failures)

        traced = run_traced(cls, seed=0, seconds=0.4, min_ops=2)
        assert set(traced["layer_metrics"]) == set(per_layer), name
        assert traced["window"].failed == 0, (name, traced["window"].failures)

        overrides, check = faults[name]
        faulty = run_plain(cls, seed=0, seconds=0.2, min_ops=3, setup_repeats=1, overrides=overrides)
        share = faulty["metrics"]["failed_op_share"][0]
        assert share > 0 and faulty["window"].failures[check] > 0, (name, faulty["window"].failures)
        print(f"ok {name}: metrics and units match; injected fault counted "
              f"(failed_op_share {share:.2f}, check {check})")

    for trace, names in ((0, end_to_end), (1, per_layer)):
        result = _cli(["--workload", "rollout", "--seed", "0", "--seconds", "0.1", "--trace", str(trace)])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == names and result["correct"], (trace, set(got) ^ set(names))
    print("ok command line: result line holds every declared metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
