"""Seeded generators for the spec files the benchmark feeds to the program.

Three families, each with a known verdict:

* ``lc``: explicit diagonal metric ``g_kk = exp(b_k x_{k+1 mod n})`` with its
  Levi-Civita connection.  Curved, so neither Hessian nor integrable.
* ``potential``: flat connection, metric given as the coordinate Hessian of
  ``sum_k a_k exp(b_k x_k) + sum_{i<j} e_ij x_i x_j``.  On the unit box the
  diagonal dominates the off-diagonal constants, so the metric is positive
  definite.  Hessian and integrable.
* ``twisted``: the flat connection and constant metric ``diag(d)`` of the
  straight coordinates ``w_0 = x_0``, ``w_k = x_k + c_k x_0^2``, written in
  ``x`` (the n-dimensional form of the built-in ``pullback-flat``).  The
  only nonzero coefficients are ``Gamma^k_00 = 2 c_k``, so geodesics bend
  and the affine-chart witness has work to do.  Hessian and integrable.

The program only ever sees the written JSON files.  :func:`precheck`
confirms each family's geometry with plain numpy and central differences,
independently of the program, before anything is timed.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FAMILIES = ("lc", "potential", "twisted")
# (hessian, integrable) per family
EXPECTED = {"lc": (False, False), "potential": (True, True), "twisted": (True, True)}
BOX = (-1.0, 1.0)


def _num(v: float) -> str:
    return repr(float(v))


def _sum(terms: list[tuple[float, str]]) -> str:
    """Render sum(coef * factor), writing negative coefficients as subtraction."""
    out = ""
    for coef, factor in terms:
        body = _num(abs(coef)) + (f"*{factor}" if factor else "")
        if not out:
            out = body if coef >= 0 else "-" + body
        else:
            out += (" - " if coef < 0 else " + ") + body
    return out or "0"


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 3)


@dataclass(frozen=True)
class Generated:
    """A spec document plus numpy callables for its metric and, when the
    connection is not Levi-Civita, its connection coefficients."""

    family: str
    doc: dict
    metric: Callable
    gamma: Callable | None

    @property
    def n(self) -> int:
        return self.doc["dimension"]


def make_spec(family: str, n: int, seed: int) -> Generated:
    """One spec of ``family`` in dimension ``n``; the coefficients come from
    ``seed`` (any integer)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = random.Random(f"{family}:{n}:{seed}")
    coords = [f"x{i}" for i in range(n)]
    grid = [["0"] * n for _ in range(n)]
    doc = {"dimension": n, "coordinates": coords, "sample_box": [list(BOX)] * n}
    if family == "lc":
        b = [_signed(rng, 0.4, 0.9) for _ in range(n)]
        for k in range(n):
            grid[k][k] = f"exp({_num(b[k])}*{coords[(k + 1) % n]})"
        doc["metric"] = {"components": grid}
        doc["connection"] = {"kind": "levi-civita"}

        def metric(x):
            return np.diag([np.exp(b[k] * x[(k + 1) % n]) for k in range(n)])
        return Generated(family, doc, metric, None)

    if family == "potential":
        a = [round(rng.uniform(2.0, 3.0), 3) for _ in range(n)]
        b = [round(rng.uniform(0.8, 1.2), 3) for _ in range(n)]
        e = np.zeros((n, n))
        terms = [(a[k], f"exp({_num(b[k])}*{coords[k]})") for k in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            e[i, j] = e[j, i] = _signed(rng, 0.0, 0.1)
            terms.append((e[i, j], f"{coords[i]}*{coords[j]}"))
        doc["metric"] = {"potential": _sum(terms)}
        doc["connection"] = {"kind": "flat"}

        def metric(x):
            return e + np.diag([a[k] * b[k] ** 2 * np.exp(b[k] * x[k]) for k in range(n)])
        return Generated(family, doc, metric, lambda x: np.zeros((n, n, n)))

    c = np.array([0.0] + [_signed(rng, 0.3, 1.0) for _ in range(1, n)])
    d = np.array([round(rng.uniform(0.5, 2.0), 3) for _ in range(n)])
    grid[0][0] = _sum([(d[0], ""), (float(np.sum(4 * d * c ** 2)), f"{coords[0]}^2")])
    for j in range(1, n):
        grid[0][j] = grid[j][0] = _sum([(2 * d[j] * c[j], coords[0])])
        grid[j][j] = _num(d[j])
    gamma_grid = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for k in range(1, n):
        gamma_grid[k][0][0] = _num(2 * c[k])
    doc["metric"] = {"components": grid}
    doc["connection"] = {"kind": "explicit", "gamma": gamma_grid}

    def metric(x):
        jac = np.eye(n)
        jac[1:, 0] = 2 * c[1:] * x[0]
        return jac.T @ np.diag(d) @ jac

    gamma_const = np.zeros((n, n, n))
    gamma_const[1:, 0, 0] = 2 * c[1:]
    return Generated(family, doc, metric, lambda x: gamma_const)


def write_spec(directory: Path, gen: Generated) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{gen.family}-n{gen.n}.json"
    path.write_text(json.dumps(gen.doc, indent=1) + "\n")
    return path


# -- independent geometry check ------------------------------------------------

_H = 1e-4


def _partials(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference partials of an array-valued f, direction axis first."""
    out = []
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = _H
        out.append((f(x + step) - f(x - step)) / (2 * _H))
    return np.array(out)


def _levi_civita(metric: Callable) -> Callable:
    def gamma(x):
        dg = _partials(metric, x)  # dg[l, i, j] = d_l g_ij
        first = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
        return np.einsum("kl,lij->kij", np.linalg.inv(metric(x)), first)
    return gamma


def geometry(gen: Generated, points: np.ndarray) -> dict:
    """Max |torsion|, |curvature|, |nabla g| asymmetry and the smallest metric
    eigenvalue over ``points``, from the numpy callables alone."""
    gamma_fn = gen.gamma or _levi_civita(gen.metric)
    worst = {"torsion": 0.0, "curvature": 0.0, "nabla_g_asymmetry": 0.0,
             "min_metric_eig": np.inf}
    for x in points:
        g = gen.metric(x)
        gam = gamma_fn(x)
        dgam = _partials(gamma_fn, x)  # dgam[d, k, i, j]
        half = np.einsum("iljk->lijk", dgam) + np.einsum("lim,mjk->lijk", gam, gam)
        curv = half - half.transpose(0, 2, 1, 3)
        ng = (_partials(gen.metric, x) - np.einsum("lij,lk->ijk", gam, g)
              - np.einsum("lik,jl->ijk", gam, g))
        asym = max(float(np.max(np.abs(ng - ng.transpose(p))))
                   for p in itertools.permutations(range(3)))
        worst["torsion"] = max(worst["torsion"],
                               float(np.max(np.abs(gam - gam.transpose(0, 2, 1)))))
        worst["curvature"] = max(worst["curvature"], float(np.max(np.abs(curv))))
        worst["nabla_g_asymmetry"] = max(worst["nabla_g_asymmetry"], asym)
        worst["min_metric_eig"] = min(worst["min_metric_eig"],
                                      float(np.min(np.linalg.eigvalsh(g))))
    return worst


# central differences of order-h^2 on O(1) fields: "zero" is well below this,
# a genuinely curved or asymmetric field well above
_ZERO = 1e-5
_NONZERO = 1e-2


def precheck(gen: Generated) -> str | None:
    """None when the spec's geometry matches its family at eight fixed points
    of the box, else the reason."""
    points = np.random.default_rng(0).uniform(0.9 * BOX[0], 0.9 * BOX[1], size=(8, gen.n))
    geo = geometry(gen, points)
    if geo["min_metric_eig"] <= 0.0:
        return f"metric not positive definite ({geo})"
    hessian = EXPECTED[gen.family][0]
    residual = max(geo["torsion"], geo["curvature"], geo["nabla_g_asymmetry"])
    if hessian and residual > _ZERO:
        return f"expected flat, torsion-free with symmetric nabla g: {geo}"
    if not hessian and geo["curvature"] < _NONZERO:
        return f"expected a curved metric: {geo}"
    return None
