"""The ``savo`` entry points the workloads call, optionally traced.

``make_api()`` hands the workloads the bare ``savo`` callables. With a
``Tracer`` every call is spanned under its layer, and the networks, envs and
landscapes the factories build get their methods spanned per instance.
Internal calls inside ``savo`` are not spanned. ``overrides`` replaces a
module function before it is wrapped; the self-test uses it to inject wrong
outputs.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from savo import actions, envs
from savo.analysis import landscape, mdp
from savo.nn import (
    AdamState,
    DeepSetSummarizer,
    DenseLayer,
    FilmGenerator,
    Mlp,
    adam_step,
    load_arrays,
    polyak_update,
    save_arrays,
)


def _rows(x) -> int:
    return x.shape[0] if np.ndim(x) == 2 else 1


def _mlp_methods(role: str) -> dict:
    def fwd_tag(x):
        return f"{role}@{_rows(x)}"

    def bwd_tag(tape, dy, with_params=True):
        return f"{role}@{_rows(dy)}" + ("" if with_params else "/dx")

    return {
        "forward": ("Mlp.forward", _rows, fwd_tag),
        "forward_tape": ("Mlp.forward_tape", _rows, fwd_tag),
        "backward": ("Mlp.backward", lambda tape, dy, with_params=True: _rows(dy), bwd_tag),
    }


_DEEPSET_METHODS = {
    "summarize": ("summarize", None, None),
    "forward_batch": ("forward_batch", None, lambda e: f"{e.shape[0]}x{e.shape[1]}"),
    "forward_batch_tape": ("forward_batch_tape", None, lambda e: f"{e.shape[0]}x{e.shape[1]}"),
    "backward_batch": ("backward_batch", None, lambda tape, dout: f"{tape[0]}x{tape[1]}"),
}
_FILM_METHODS = {
    "scale_shift": ("scale_shift", None, None),
    "modulate_tape": ("modulate_tape", None, None),
    "backward": ("backward", None, None),
}
_ENV_LAYERS = {
    "bandit": ("envs.bandit", envs.BanditEnv, "BanditEnv."),
    "pendulum": ("envs.pendulum", envs.CartPoleEnv, ""),
    "mining": ("envs.mining", envs.MiningEnv, ""),
    "recsim": ("envs.recsim", envs.RecsimEnv, ""),
}


def clone_mlp(net: Mlp) -> Mlp:
    """An untraced deep copy of a network's weights (for target networks)."""
    return Mlp([DenseLayer(l.weight.copy(), l.bias.copy(), l.activation) for l in net.layers])


def make_api(tracer=None, overrides: dict | None = None) -> SimpleNamespace:
    funcs = {
        # name: (layer, callable, work, tag)
        "nearest": ("actions", actions.nearest, lambda a, t: len(t), None),
        "knn": ("actions", actions.knn, lambda a, t, k: len(t), lambda a, t, k: f"k{k}"),
        "nearest_rows": (
            "actions",
            actions.nearest_rows,
            lambda q, t: _rows(q) * len(t),
            lambda q, t: f"{_rows(q)}x{len(t)}",
        ),
        "adam_step": (
            "nn.optim",
            adam_step,
            None,
            lambda arrays, *a, **k: f"p{sum(x.size for x in arrays)}",
        ),
        "polyak_update": ("nn.optim", polyak_update, None, None),
        "AdamState": ("nn.optim", AdamState, None, None),
        "save_arrays": ("nn.checkpoint", save_arrays, None, None),
        "load_arrays": ("nn.checkpoint", load_arrays, None, None),
        "surrogate_values": ("analysis.landscape", landscape.surrogate_values, None, None),
        "count_local_optima": (
            "analysis.landscape",
            landscape.count_local_optima,
            lambda g: int(np.size(g)),
            None,
        ),
        "random_mdp": ("analysis.mdp", mdp.random_mdp, None, None),
        "maximizer_policy_iteration": ("analysis.mdp", mdp.maximizer_policy_iteration, None, None),
        "canonical_adversarial": ("envs.bandit", envs.canonical_adversarial, None, None),
        "BanditLandscape": (
            "envs.bandit",
            envs.BanditLandscape,
            None,
            lambda low, **k: f"{len(low)}d",
        ),
        "Mlp.create": ("nn.core", Mlp.create, None, None),
        "DeepSetSummarizer.create": ("nn.deepset", DeepSetSummarizer.create, None, None),
        "FilmGenerator.create": ("nn.film", FilmGenerator.create, None, None),
    }
    for name, fn in (overrides or {}).items():
        layer, _, work, tag = funcs[name]
        funcs[name] = (layer, fn, work, tag)
    if tracer is None:
        bare = {name: fn for name, (_, fn, _, _) in funcs.items()}

        def track(obj, layer, methods):
            return obj

        def glue(fn, name):
            return fn
    else:
        bare = {
            name: tracer.wrap(fn, layer, name, work, tag)
            for name, (layer, fn, work, tag) in funcs.items()
        }
        track, glue = tracer.track, lambda fn, name: tracer.wrap(fn, "driver", name)

    def mlp(sizes, activations, rng, role):
        return track(bare["Mlp.create"](sizes, activations, rng), "nn.core", _mlp_methods(role))

    def target_mlp(net, role):
        return track(clone_mlp(net), "nn.core", _mlp_methods(role))

    def deepset(element_dim, width, summary_dim, rng):
        ds = bare["DeepSetSummarizer.create"](element_dim, width, summary_dim, rng)
        return track(ds, "nn.deepset", _DEEPSET_METHODS)

    def target_deepset(ds):
        return track(
            DeepSetSummarizer(clone_mlp(ds.phi), clone_mlp(ds.rho)), "nn.deepset", _DEEPSET_METHODS
        )

    def film(cond_dim, width, rng):
        return track(bare["FilmGenerator.create"](cond_dim, width, rng), "nn.film", _FILM_METHODS)

    def target_film(gen):
        return track(FilmGenerator(clone_mlp(gen.net), gen.width), "nn.film", _FILM_METHODS)

    def env(kind, **kwargs):
        layer, cls, prefix = _ENV_LAYERS[kind]
        ctor = cls if tracer is None else tracer.wrap(cls, layer, cls.__name__)
        e = ctor(**kwargs)
        track(e, layer, {m: (prefix + m, None, None) for m in ("step", "reset")})
        if getattr(e, "action_table", None) is not None:
            track(e.action_table, "actions", {"rep_of": ("rep_of", None, None)})
        return e

    def landscape_(**params):
        land = bare["BanditLandscape"](**params)
        return track(
            land,
            "envs.bandit",
            {
                "grid": ("BanditLandscape.grid", None, None),
                "value": ("BanditLandscape.value", None, None),
            },
        )

    return SimpleNamespace(
        **{k: v for k, v in bare.items() if "." not in k},
        mlp=mlp,
        target_mlp=target_mlp,
        deepset=deepset,
        target_deepset=target_deepset,
        film=film,
        target_film=target_film,
        env=env,
        landscape=landscape_,
        glue=glue,
    )
