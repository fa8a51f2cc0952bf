"""Central finite-difference oracle shared by the gradient tests.

The oracle never touches the analytic backward paths: it re-evaluates the
forward closure at perturbed parameter values only. Networks are float32 by
default; a step of ``FD_STEP`` is below their resolution, so gradchecks run
on float64 copies made by :func:`as_dtype`.
"""

import numpy as np

from savo.nn import DeepSetSummarizer, DenseLayer, FilmGenerator, Mlp

FD_STEP = 1e-5
REL_TOL = 1e-4


def as_dtype(module, dtype):
    """A copy of an Mlp, DeepSetSummarizer or FilmGenerator with every
    parameter cast to ``dtype``, built through the module's constructor."""
    if isinstance(module, Mlp):
        return Mlp([DenseLayer(l.weight.astype(dtype), l.bias.astype(dtype), l.activation) for l in module.layers])
    if isinstance(module, DeepSetSummarizer):
        return DeepSetSummarizer(as_dtype(module.phi, dtype), as_dtype(module.rho, dtype))
    return FilmGenerator(as_dtype(module.net, dtype), module.width)


def central_diff(f, arrays, h=FD_STEP):
    """d f / d arrays[i][j] by central differences, perturbing in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(gn))
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


def assert_grads_match(analytic, numeric, tol=REL_TOL):
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch vs finite differences: {err:.3e} >= {tol}"
