"""Built-in manifold examples.

Six desk-scale specs spanning the interesting cases: the flat Euclidean
pair, a Hessian pair from a potential, a flat connection with a metric
whose derivative is not symmetric, the round sphere, a flat connection
with torsion, and a flat torsion-free connection written in twisted
coordinates (for the affine-chart witness).
"""
from __future__ import annotations

from .manifold import ManifoldSpec, build_spec

_UNIT_BOX = [(-1.0, 1.0), (-1.0, 1.0)]


def _euclidean2() -> ManifoldSpec:
    return build_spec("euclidean2", ("u", "v"), _UNIT_BOX,
                      metric=[["1", "0"], ["0", "1"]], connection="flat")


def _hessian_exp2() -> ManifoldSpec:
    return build_spec("hessian-exp2", ("u", "v"), _UNIT_BOX,
                      potential="exp(u) + exp(v)", connection="flat")


def _flat_skew_metric() -> ManifoldSpec:
    return build_spec("flat-skew-metric", ("u", "v"), _UNIT_BOX,
                      metric=[["1", "0"], ["0", "exp(u)"]], connection="flat")


def _sphere2() -> ManifoldSpec:
    return build_spec("sphere2", ("theta", "phi"), [(0.4, 2.7), (0.0, 3.1)],
                      metric=[["1", "0"], ["0", "sin(theta)^2"]],
                      connection="levi-civita")


def _flat_torsionful() -> ManifoldSpec:
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][0][1] = "1"
    return build_spec("flat-torsionful", ("u", "v"), _UNIT_BOX,
                      metric=[["1", "0"], ["0", "1"]],
                      connection="explicit", gamma=gamma)


def _pullback_flat() -> ManifoldSpec:
    # the flat connection of straight coordinates (u, v - u^2), together with
    # the Euclidean metric of those coordinates, both written in (u, v)
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[1][0][0] = "-2"
    return build_spec("pullback-flat", ("u", "v"), _UNIT_BOX,
                      metric=[["1 + 4*u^2", "-2*u"], ["-2*u", "1"]],
                      connection="explicit", gamma=gamma)


BUILTIN_BUILDERS = {
    "euclidean2": _euclidean2,
    "hessian-exp2": _hessian_exp2,
    "flat-skew-metric": _flat_skew_metric,
    "sphere2": _sphere2,
    "flat-torsionful": _flat_torsionful,
    "pullback-flat": _pullback_flat,
}

DESCRIPTIONS = {
    "euclidean2": "flat connection, identity metric",
    "hessian-exp2": "flat connection, metric from the potential exp(u) + exp(v)",
    "flat-skew-metric": "flat connection, metric diag(1, exp(u)); metric derivative not symmetric",
    "sphere2": "round sphere metric with its Levi-Civita connection",
    "flat-torsionful": "explicit connection with torsion, identity metric",
    "pullback-flat": "flat torsion-free connection in twisted coordinates (u, v + u^2)",
}


def example(name: str) -> ManifoldSpec:
    try:
        return BUILTIN_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown example {name!r}; choices: {', '.join(BUILTIN_BUILDERS)}") from None
