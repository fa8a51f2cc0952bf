import inspect
import os
import subprocess
import sys

import pytest

import savo.actions
import savo.analysis.mdp
import savo.envs
import savo.nn

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", [savo.nn, savo.envs, savo.actions])
def test_every_public_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_numpy_is_the_only_runtime_dependency():
    """Importing the package pulls in no third-party module but numpy.

    The child diffs ``sys.modules`` against its own start-up set, so modules
    that site hooks preload before any import are not blamed on ``savo``.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import savo, savo.nn, savo.envs, savo.actions, savo.analysis.landscape, savo.analysis.mdp\n"
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    loaded = out.stdout.split()
    assert "savo" in loaded
    assert [m for m in loaded if m not in {"numpy", "savo"} and m not in sys.stdlib_module_names] == []


def test_settable_values_stay_pinned():
    """The env constructors and these functions take only the values their
    callers set; the rest are module constants. Adding a knob or a config
    object back means editing this."""

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(savo.envs.MiningEnv.__init__) == ["self", "n_mine_types", "n_mines", "seed"]
    assert params(savo.envs.RecsimEnv.__init__) == ["self", "n_items", "n_categories", "seed"]
    assert params(savo.envs.make_tool_map) == ["n_types"]
    assert params(savo.envs.recsim_action_table) == ["n_items", "n_categories"]
    assert params(savo.envs.CartPoleEnv.__init__) == ["self", "restriction", "seed"]
    assert params(savo.envs.random_landscape) == ["rng", "dim"]
    assert params(savo.analysis.mdp.value_iteration) == ["mdp"]
    assert params(savo.actions.knn_rows) == ["queries", "table", "k"]
    assert params(savo.nn.adam_step) == ["arrays", "grads", "state", "lr"]
    assert params(savo.nn.FilmGenerator.backward) == ["self", "tape", "dout"]
    for fn in (savo.nn.save_arrays, savo.nn.load_arrays):
        assert params(fn) == ["path", "arrays", "adam"]
        assert inspect.signature(fn).parameters["adam"].default is inspect.Parameter.empty


def test_public_names_stay_pinned():
    """A public name that grows back means editing this."""
    assert sorted(savo.nn.__all__) == [
        "AdamState",
        "DeepSetSummarizer",
        "DenseLayer",
        "FilmGenerator",
        "Mlp",
        "NonFiniteGradientError",
        "SetSummary",
        "ShapeError",
        "adam_step",
        "load_arrays",
        "polyak_update",
        "save_arrays",
        "xavier_uniform",
    ]
    assert sorted(savo.actions.__all__) == [
        "ActionTable",
        "ActionTableError",
        "checked_id",
        "knn",
        "knn_rows",
        "nearest",
        "nearest_rows",
    ]
    assert sorted(savo.envs.__all__) == [
        "BanditEnv",
        "BanditLandscape",
        "CANONICAL_RESTRICTION",
        "CartPoleEnv",
        "Env",
        "EpisodeDoneError",
        "MiningEnv",
        "RecsimEnv",
        "RestrictionSpec",
        "canonical_adversarial",
        "check_valid",
        "make_env",
        "make_tool_map",
        "mining_action_table",
        "random_landscape",
        "recsim_action_table",
    ]
