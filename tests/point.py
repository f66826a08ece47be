"""One-point wrappers over the package's stacked sweep, for tests.

Each helper calls the package's stacked functions at P = 1 base point and
F = 1 fiber vector and returns that point's arrays or dicts; a bundle point
is a :class:`BundlePoint` and the six value matrices there a
:class:`BornFrame`.  Three functions hold tensor formulas of their own.
:func:`nabla_g_at` forms nabla g, of which the package keeps only the
asymmetry.
:func:`_proof_identities` checks the frame brackets and N_J in the adapted
frame against the closed forms of the paper's proof, each residual taken
at both global signs, so that a test sees which sign matched.
:func:`born_compatibility_residuals`
checks the defining identities of the Born structure in bundle
coordinates (I^2 = -1, I = h^-1 omega, h > 0, det omega and the others)
and counts k's signature, on a frame or a stack of frames: the facts that
the package's relative adapted-frame check implies for a positive
definite g.  The base fields go through :mod:`bornbundle.fields`
at the point's seeded coordinates, not through ``base_jets``: that route
returns a value that is not finite instead of rejecting it, evaluates only
the field asked for at the order asked for (the two-of-four report of a
potential metric with its Levi-Civita connection reads Gamma at order 0 and
g at order 1), and its Levi-Civita and dual connection are the references
for :func:`bornbundle.manifold.dual_and_levi_civita`.
:func:`assert_same_bits` compares two arrays bit for bit, the sign of
every zero included.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
import numpy as np

from bornbundle import bundle, fields, jets
from bornbundle.bundle import BornStacks, _frame_of, adapted_frame_residuals, fiber_born_jets
from bornbundle.charts import DEFAULT_STEPS, ChartMap, _probe_residuals
from bornbundle.errors import SpecError
from bornbundle.integrability import _d_omega_of, _nijenhuis_of, _norm_factor
from bornbundle.manifold import (DEFAULT_TOL, BaseJets, ManifoldSpec, Residuals,
                                 _curvature_of, _nabla_g_of, _require_inside, _torsion_of,
                                 base_jets, check_spd, finite_maxima)
from bornbundle.manifold import hessian_verdict as _hessian_verdict
from bornbundle.manifold import two_of_four_residuals as _two_of_four_residuals


def assert_same_bits(got, want):
    """Equal shapes and values, and the same sign on every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@dataclass(frozen=True)
class BundlePoint:
    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise SpecError("fiber vector length must match base dimension")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class BornFrame:
    """The six tensors at one bundle point or, along leading axes, a stack of
    points.  I, J, K map vectors to vectors; h, k, omega are bilinear forms."""

    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    h: np.ndarray
    k: np.ndarray
    omega: np.ndarray

    @classmethod
    def of(cls, values: dict[str, np.ndarray]) -> "BornFrame":
        """The six tensors from their value matrices, or stacks of them, each
        made +0.0 at a zero and C-contiguous, as :func:`bundle.born_at`."""
        return cls(**{name: np.add(m, 0.0, order="C") for name, m in values.items()})


def named_tensors(born: BornStacks) -> dict[str, np.ndarray]:
    """The six tensors of a sweep by name, each a (P, F, rows, 2n, 2n) view
    into its stack."""
    return dict(zip(("I", "J", "K", "omega"), born.ijkw), h=born.hk[0], k=born.hk[1])


def born_jets(spec: ManifoldSpec, bp: BundlePoint) -> dict[str, np.ndarray]:
    return bundle.born_jets(spec, bp.x, bp.y)


def born_at(spec: ManifoldSpec, bp: BundlePoint) -> BornFrame:
    return BornFrame(**bundle.born_at(spec, bp.x, bp.y))


def _stacked(field, spec: ManifoldSpec, points, order: int) -> np.ndarray:
    """A field of :mod:`bornbundle.fields` at every point of ``points`` as
    one batch, stacked along the first axis: the values in row 0 of the
    second axis and, at order 1, the first partials in the rows after it."""
    args = jets.seed_batch([_require_inside(spec, p) for p in points], order)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        return np.moveaxis(field(spec, args).coeffs, -1, 1)


def _at(field, spec: ManifoldSpec, p, order: int = 0) -> np.ndarray:
    """A field of :mod:`bornbundle.fields` at the point p: the values, or at
    order 1 the values and first partials along the first axis."""
    out = _stacked(field, spec, [p], order)[0]
    return out if order else out[0]


def metric_at(spec: ManifoldSpec, p) -> np.ndarray:
    """Metric components at p, positivity-checked."""
    values = _at(fields.metric_args, spec, p)
    check_spd(values[None], [_require_inside(spec, p)])
    return values


def connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _at(fields.connection_args, spec, p)


def dual_of(spec: ManifoldSpec, args, gamma):
    """Dual of the connection gamma with respect to the metric at jet-valued
    coordinates, through the formula of :mod:`bornbundle.fields`."""
    g, dg = fields.metric_dg_args(spec, args)
    return fields.dual_connection_of(gamma, g, dg, fields.jet_inv(g))


def levi_civita_at(spec: ManifoldSpec, p) -> np.ndarray:
    def levi_civita(spec, args):
        g, dg = fields.metric_dg_args(spec, args)
        return fields.levi_civita_of(dg, fields.jet_inv(g))
    return _at(levi_civita, spec, p)


def dual_connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    def dual(spec, args):
        return dual_of(spec, args, fields.connection_args(spec, args))
    return _at(dual, spec, p)


def torsion_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _torsion_of(connection_at(spec, p))


def curvature_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _curvature_of(_at(fields.connection_args, spec, p, 1))


def nabla_g_at(spec: ManifoldSpec, p) -> tuple[np.ndarray, float]:
    """nabla g, indexed (direction; arguments), as (nabla_i g)_jk = d_i g_jk
    - Gamma^l_ij g_lk - Gamma^l_ik g_jl, and its worst asymmetry."""
    gamma, g = connection_at(spec, p), _at(fields.metric_args, spec, p, 1)
    ng = g[1:] - np.einsum("lij,lk->ijk", gamma, g[0]) - np.einsum("lik,jl->ijk", gamma, g[0])
    return ng, float(_nabla_g_of(gamma, g))


def hessian_verdict(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Residuals:
    points = list(points)
    if not points:
        raise ValueError("need at least one sample point")
    return _hessian_verdict(base_jets(spec, points), tol)


def two_of_four_bases(spec: ManifoldSpec, points) -> BaseJets:
    """Gamma at order 0 and g at order 1 at every point, which a potential
    metric with its Levi-Civita connection supports, each as one batch."""
    points = [_require_inside(spec, p) for p in points]
    return BaseJets(tuple(points), _stacked(fields.connection_args, spec, points, 0),
                    _stacked(fields.metric_args, spec, points, 1))


def two_of_four_residuals(spec: ManifoldSpec, points,
                          tol: float = DEFAULT_TOL) -> Residuals:
    """The record over :func:`two_of_four_bases`.  Its torsion and asymmetry,
    which ``check`` reads off the Hessian verdict of an order-1 record, are
    computed here from the same order-0 Gamma, as a record of their own."""
    bases = two_of_four_bases(spec, points)
    gamma = bases.gamma[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        residuals = {"torsion": _torsion_of(gamma),
                     "nabla_g_asymmetry": _nabla_g_of(gamma, bases.g)}
    hessian = Residuals(finite_maxima(residuals, bases.x), tol)
    return _two_of_four_residuals(bases, hessian, tol)


def _born(spec: ManifoldSpec, bp: BundlePoint):
    """The base fields at bp.x and the Born tensors at bp."""
    base = base_jets(spec, [bp.x])
    return base, {name: m[0, 0] for name, m in
                  named_tensors(fiber_born_jets(base, [bp.y])).items()}


def frame_residuals_at(spec: ManifoldSpec, bp: BundlePoint) -> dict:
    """The six relative adapted-frame residuals of the construction at bp."""
    born = fiber_born_jets(base_jets(spec, [bp.x]), [bp.y])
    ops, forms = born.values()
    return {key: float(r[0, 0]) for key, r in
            adapted_frame_residuals(ops, forms, born.a[:, :, 0], born.g[:, :, 0]).items()}


def frame_stacks(frame: BornFrame) -> tuple[np.ndarray, np.ndarray]:
    """The values of (I, J, K) and of (h, k, omega) of ``frame`` as the two
    stacks that :func:`adapted_frame_residuals` takes."""
    return (np.stack([frame.I, frame.J, frame.K], axis=-3),
            np.stack([frame.h, frame.k, frame.omega], axis=-3))


# the floor of omega_nondegenerate below, as the package's thresholds table had it
OMEGA_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class BornCompatReport:
    residuals: dict
    k_signature: tuple


def _per_frame(linalg, fill: float, shape: tuple, *stacks: np.ndarray) -> np.ndarray:
    """``linalg`` (a numpy.linalg function) on stacks of frames, its result of
    ``shape``.  If the batched call raises LinAlgError, it is called frame by
    frame, and a frame on which it raises reads ``fill``."""
    try:
        return linalg(*stacks)
    except np.linalg.LinAlgError:
        out = np.full(shape, fill)
        for index in np.ndindex(stacks[0].shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[index] = linalg(*(m[index] for m in stacks))
        return out


def born_compatibility_residuals(bf: BornFrame) -> BornCompatReport:
    """Max-norm defect of every defining identity of the structure, plus the
    eigenvalue-sign signature of k; per frame on a stack of frames.  A frame
    whose h, k or omega is numerically singular, so that a solve fails, reads
    inf for that identity; one whose eigenvalues fail, NaN."""
    ident = np.eye(bf.I.shape[-1])
    ht, kt, omegat = (m.swapaxes(-1, -2) for m in (bf.h, bf.k, bf.omega))

    def dev(m):
        return np.max(np.abs(m), axis=(-2, -1))

    def solve(a, b):
        return _per_frame(np.linalg.solve, np.inf, b.shape, a, b)

    def eigvalsh(m):
        return _per_frame(np.linalg.eigvalsh, np.nan, m.shape[:-1], m)

    ij = bf.I @ bf.J
    # det goes through logarithms: a determinant that underflows is the
    # log of zero, -inf, and reads 0, with no divide warning
    with np.errstate(divide="ignore"):
        det = np.linalg.det(bf.omega)
    residuals = {
        "I_squared": dev(bf.I @ bf.I + ident),
        "J_squared": dev(bf.J @ bf.J - ident),
        "K_squared": dev(bf.K @ bf.K - ident),
        "IJK": dev(ij @ bf.K + ident),
        # a form maps X to form(X, .); with the first argument on rows the
        # matrix of that map is the transpose of the component matrix
        "I_vs_h_inv_omega": dev(solve(ht, omegat) - bf.I),
        "J_vs_k_inv_h": dev(solve(kt, ht) - bf.J),
        "K_vs_omega_inv_k": dev(solve(omegat, kt) - bf.K),
        "h_symmetry": dev(bf.h - ht),
        "k_symmetry": dev(bf.k - kt),
        "omega_antisymmetry": dev(bf.omega + omegat),
        "anticommute_I_JK": dev(bf.J @ bf.K - bf.I),
        "anticommute_I_KJ": dev(bf.K @ bf.J + bf.I),
        "anticommute_J_KI": dev(bf.K @ bf.I + bf.J),
        "anticommute_J_IK": dev(bf.I @ bf.K - bf.J),
        "anticommute_K_IJ": dev(ij + bf.K),
        "anticommute_K_JI": dev(bf.J @ bf.I - bf.K),
        "h_positive": np.maximum(0.0, -np.min(eigvalsh(bf.h), axis=-1)),
        "omega_nondegenerate": np.maximum(0.0, OMEGA_DET_FLOOR - np.abs(det)),
    }
    eigs = eigvalsh(bf.k)
    signature = (np.sum(eigs > 0, axis=-1), np.sum(eigs < 0, axis=-1))
    return BornCompatReport(residuals=residuals, k_signature=signature)


def adapted_frame_at(spec: ManifoldSpec, bp: BundlePoint):
    """(E, E^-1): columns of E are H_1..H_n, V_1..V_n in bundle coordinates."""
    e, einv = _frame_of(_born(spec, bp)[1]["I"][:, :spec.n, :spec.n])
    return e[0], einv


def nijenhuis_at(spec: ManifoldSpec, which: str, bp: BundlePoint) -> np.ndarray:
    return _nijenhuis_of(_born(spec, bp)[1][which])


def d_omega_at(spec: ManifoldSpec, bp: BundlePoint) -> np.ndarray:
    return _d_omega_of(_born(spec, bp)[1]["omega"])


def _signed_residual(lhs: np.ndarray, rhs: np.ndarray, scale: float):
    plus = float(np.max(np.abs(lhs - rhs))) / scale
    minus = float(np.max(np.abs(lhs + rhs))) / scale
    sign = 1 if plus <= minus else -1
    return {"residual_plus": plus, "residual_minus": minus,
            "sign": sign, "residual": min(plus, minus)}


def _proof_identities(a: np.ndarray, nj: np.ndarray, gamma: np.ndarray,
                      y) -> tuple[dict, dict]:
    """The proof identities at a bundle point (x, y), from A's rows
    (1 + 2n, n, n), N_J (2n, 2n, 2n) and Gamma of order 1 at x, as two dicts
    keyed by frame-field pair.  The first holds the brackets of the adapted
    frame fields, from E's first partials, against [H_i, H_j] = -R^l_ijk y^k
    V_l, [V_i, V_j] = 0 and [H_i, V_j] = Gamma^k_ij V_k; the second N_J on
    frame-field pairs against -T^k_ij H_k - R^l_ijk y^k V_l (HH and VV) and
    R^l_ijk y^k H_l + T^k_ij V_k (HV).  Each is up to a recorded global sign."""
    n = a.shape[-1]
    e, einv = _frame_of(a)
    r = _curvature_of(gamma)
    t = _torsion_of(gamma[0])
    ry = np.einsum("lijk,k->ijl", r, np.asarray(y))
    scale = _norm_factor(y)

    # columns of E are the fields H_i and V_i; bracket every pair of columns:
    # [X_a, X_b]^m = X_a^v d_v X_b^m - X_b^v d_v X_a^m
    half = np.einsum("va,vmb->abm", e[0], e[1:])
    brackets = half - half.transpose(1, 0, 2)
    rhs_hh = np.zeros((n, n, 2 * n))
    rhs_hh[:, :, n:] = -ry
    rhs_hv = np.zeros((n, n, 2 * n))
    rhs_hv[:, :, n:] = np.einsum("kij->ijk", gamma[0])
    bracket = {
        "HH": _signed_residual(brackets[:n, :n], rhs_hh, scale),
        "VV": {"residual": float(np.max(np.abs(brackets[n:, n:]))) / scale},
        "HV": _signed_residual(brackets[:n, n:], rhs_hv, scale),
    }

    # N in the adapted frame: pull the value index back, feed frame vectors
    # in, one operand at a time: a four-operand einsum loops over every
    # index at once, (2n)^6 products against 3 (2n)^4
    nj_ad = np.einsum("cl,lmn->cmn", einv, nj)
    nj_ad = np.einsum("cmn,ma->can", nj_ad, e[0])
    nj_ad = np.einsum("can,nb->cab", nj_ad, e[0])
    rhs_hh = np.zeros((n, n, 2 * n))
    rhs_hh[:, :, :n] = -np.einsum("kij->ijk", t)
    rhs_hh[:, :, n:] = -ry
    rhs_hv = np.zeros((n, n, 2 * n))
    rhs_hv[:, :, :n] = ry
    rhs_hv[:, :, n:] = np.einsum("kij->ijk", t)
    lhs_hh = np.einsum("cab->abc", nj_ad[:, :n, :n])
    lhs_vv = np.einsum("cab->abc", nj_ad[:, n:, n:])
    lhs_hv = np.einsum("cab->abc", nj_ad[:, :n, n:])
    return bracket, {
        "HH": _signed_residual(lhs_hh, rhs_hh, scale),
        "VV": _signed_residual(lhs_vv, rhs_hh, scale),
        "HV": _signed_residual(lhs_hv, rhs_hv, scale),
    }


def _identities_at(spec: ManifoldSpec, bp: BundlePoint) -> tuple[dict, dict]:
    base, mats = _born(spec, bp)
    return _proof_identities(mats["I"][:, :spec.n, :spec.n], _nijenhuis_of(mats["J"]),
                             base.gamma[0], bp.y)


def frame_bracket_residuals(spec: ManifoldSpec, bp: BundlePoint) -> dict:
    return _identities_at(spec, bp)[0]


def nijenhuis_J_identity_residuals(spec: ManifoldSpec, bp: BundlePoint) -> dict:
    return _identities_at(spec, bp)[1]


def geodesic_integrate(spec: ManifoldSpec, x0, v, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Endpoint of the unit-time geodesic from x0 with initial velocity v."""
    return ChartMap(spec, x0, steps).probe_jets([v], 0).coeffs[0, :, 0]


def pushforward_connection_residual(chart: ChartMap, probes) -> float:
    return _probe_residuals(chart, probes).maxima["pushforward_connection"]
