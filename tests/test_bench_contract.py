"""The benchmark under ``savobench/`` drives ``savo`` through its public names.

One op of each workload, untraced and traced, must run and pass every output
check it defers. A renamed method, a changed signature or a changed return
structure in ``savo`` fails here before it fails a benchmark run. Run from the
repository root with ``python -m pytest`` so that ``savobench`` is importable.
"""

import pytest

from savobench.api import make_api
from savobench.harness import _digest
from savobench.tracer import Tracer
from savobench.workloads import WORKLOADS

from loop_oracles import EagerLandscape, loop_policy_iteration


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_checks(name, traced, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # checkpoints go under the working directory
    workload = WORKLOADS[name](seed=3, api=make_api(Tracer() if traced else None))
    rec = workload.op()
    if hasattr(workload, "checkpoint"):  # runs only every 25th op inside op()
        workload.checkpoint(rec)
    failed = [check for check, fn, args in rec.checks if not fn(*args)]
    assert rec.checks and not failed, failed


def test_analysis_digests_equal_those_of_the_loop_oracles():
    """The analysis workload's per-op digests do not move when the array
    oracles are swapped for their loop forms, whatever BLAS numpy uses."""
    loops = {"maximizer_policy_iteration": loop_policy_iteration, "BanditLandscape": EagerLandscape}
    digests = []
    for overrides in (None, loops):
        workload = WORKLOADS["analysis"](seed=5, api=make_api(overrides=overrides))
        digests.append([_digest(workload.op().digest) for _ in range(8)])
    assert digests[0] == digests[1]
