"""Integrability checks for the induced Born structure.

Nijenhuis tensors and the exterior derivative of omega are computed in
bundle coordinates, where coordinate vector fields have vanishing
brackets; for a (1,1)-tensor A the components reduce to

    N^l_ab = A^m_a d_m A^l_b - A^m_b d_m A^l_a - A^l_m (d_a A^m_b - d_b A^m_a)

with derivatives over all 2n bundle coordinates read from the float
arrays of values and first partials that :mod:`bornbundle.bundle` builds.
Residuals of identities that grow linearly in the fiber coordinate are
normalized by (1 + |y|).

:func:`integrability_verdict` evaluates Gamma and g at all P base points
as one stacked record and uses it for the Hessian residuals and for every
fiber.  It builds the Born tensors of all P x F bundle points as one
(P, F, 1 + 2n, 2n, 2n) stack and computes the Nijenhuis tensors, d omega
and the construction identities once each on that stack (the formulas
accept leading stack axes).  The stack holds its (P, F) axes innermost in
memory, and einsum iterates in memory order, so the Nijenhuis einsum runs
over the sample points in its inner loop.

The structure depends on the fiber only through the block A = -Gamma y.
When every value and first partial of the record's Gamma is zero (a flat
connection in affine coordinates, or the Levi-Civita or dual connection of
a constant metric), the sweep builds the stack at the first fiber alone,
(P, 1, ...), and its (P, 1) maxima stand for all F fibers before the
division by (1 + |y|).  The report bits cannot move: between fibers A's
value row differs only in signs of zeros, its partial rows are equal,
:meth:`BornFrame.of` makes every zero of the frames +0.0, and every
residual passes ``abs`` and ``max`` before it is reported; a residual that
is not finite is so at every fiber, and is named at the first.

The report carries the record, so that the two-of-four report of ``check``
reads it too, and keeps the normalized residuals of every bundle point as
(P, F) arrays, which ``check`` writes as its columnar ``per_point`` table
and reduces to the ``argmax`` section.  A residual that is not finite at a
sample point is a spec error naming it and the point
(:func:`bornbundle.manifold.finite_maxima`); the first one is reported by
base point, through :func:`bornbundle.manifold._first_failure`, then by
fiber and residual: N_I, N_J, N_K, d omega, then the construction
identities.  The verdict compares each maximum with the Hessian verdict's
tolerance; the thresholds are in the table of :mod:`bornbundle.manifold`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import BornFrame, born_compatibility_residuals, fiber_born_jets
# unused: bornbench's test_remove_restores_every_patched_attribute pins it (ROADMAP item 5)
from .bundle import born_jets
from .errors import SpecError
from .manifold import (DEFAULT_TOL, BaseJets, HessianVerdict, ManifoldSpec,
                       _first_failure, base_jets, finite_maxima, sample_fibers,
                       sample_points)


def _norm_factor(y) -> float:
    """1 + |y|; a norm that overflows comes out inf, without a numpy warning."""
    with np.errstate(over="ignore"):
        return 1.0 + float(np.linalg.norm(y))


def _nijenhuis_of(a: np.ndarray) -> np.ndarray:
    """N_A from a (..., 1 + 2n, 2n, 2n) array of A's values and first partials."""
    av, da = a[..., 0, :, :], a[..., 1:, :, :]  # da[m, l, b] = d_m A^l_b
    half = (np.einsum("...ma,...mlb->...lab", av, da)
            - np.einsum("...lm,...amb->...lab", av, da))
    return half - half.swapaxes(-1, -2)


def _d_omega_of(omega: np.ndarray) -> np.ndarray:
    """(d omega)_abc = d_a omega_bc + d_b omega_ca + d_c omega_ab, from a
    (..., 1 + 2n, 2n, 2n) array of omega's values and first partials."""
    dw = omega[..., 1:, :, :]  # dw[a, b, c] = d_a omega_bc
    return dw + np.moveaxis(dw, -3, -1) + np.moveaxis(dw, -1, -3)


# -- verdicts -------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    maxima: dict  # residual name -> its maximum in per_point
    integrable: bool  # every maximum within hessian.tol, the verdicts' one tolerance
    hessian_agreement: bool
    hessian: HessianVerdict
    max_born_compat: dict  # worst defect of each construction identity
    k_signature_ok: bool   # k had signature (n, n) at every point
    # residual name -> (P, F) normalized residuals; entry [p, f] belongs to
    # the bundle point (bases.x[p], fibers[f])
    per_point: dict
    bases: BaseJets  # the sweep's base-point fields
    fibers: np.ndarray  # (F, n) fiber vectors of the sweep

    def argmax(self) -> dict:
        """Per residual, the first bundle point in sweep order where its
        maximum sits ("x", "y") and the maximum's :func:`log_margin`."""
        out = {}
        for name, m in self.per_point.items():
            p, f = divmod(int(np.argmax(m)), m.shape[1])
            out[name] = {"x": list(self.bases.x[p]), "y": self.fibers[f].tolist(),
                         "margin": log_margin(float(m[p, f]), self.hessian.tol)}
        return out


def log_margin(value: float, tol: float) -> float | None:
    """log10(value / tol): the decades by which a residual sits above (> 0) or
    below (< 0) its tolerance, None when either is 0.  Taken as a difference
    of logarithms, so that it is finite for every finite positive pair."""
    if value == 0 or tol == 0:
        return None
    return math.log10(value) - math.log10(tol)


def integrability_verdict(spec: ManifoldSpec, base_count: int = 32,
                          fiber_count: int = 8, fiber_radius: float = 1.0,
                          tol: float = DEFAULT_TOL, seed: int = 42) -> IntegrabilityReport:
    """Aggregate the normalized residual maxima over a base x fiber sample
    grid and compare the outcome with the Hessian verdict.  Disagreement
    contradicts the equivalence the package exists to check, so it is
    surfaced as a loud flag (implementation-bug indicator), not silently
    accepted."""
    if base_count < 1 or fiber_count < 1:
        raise ValueError("sample counts must be at least 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, not {tol!r}")
    bases = base_jets(spec, sample_points(spec, base_count, seed))
    hv = HessianVerdict.of(bases, tol)  # its positivity gate precedes the Born identities
    fibers = sample_fibers(spec.n, fiber_count, fiber_radius, seed)
    norms = np.array([_norm_factor(y) for y in fibers])
    if not np.isfinite(norms).all():
        raise SpecError(f"fiber radius {fiber_radius!r} is too large: the norm of "
                        f"a sampled fiber vector overflows")
    # Gamma with all values and partials zero: every fiber carries the
    # structure of the first (module doc)
    swept = fibers if bases.gamma.any() else fibers[:1]
    ys = [tuple(y) for y in swept.tolist()]

    def sweep(s):
        points = [(x, y) for x in bases[s].x for y in ys]
        with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
            mats = fiber_born_jets(bases[s], swept)
            tensors = {"nijenhuis_" + name: _nijenhuis_of(mats[name]) for name in "IJK"}
            tensors["d_omega"] = _d_omega_of(mats["omega"])
            worst = finite_maxima(tensors, points)
            rep = born_compatibility_residuals(
                BornFrame.of({name: m[:, :, 0] for name, m in mats.items()}))
            return worst, rep, finite_maxima(rep.residuals, points)
    worst, rep, compat = _first_failure(sweep, base_count)
    # (P, 1) maxima of the one-fiber sweep broadcast over the F norms
    per_point = {key: m.reshape(base_count, len(swept)) / norms
                 for key, m in worst.items()}
    maxima = {key: float(np.max(m)) for key, m in per_point.items()}
    worst_born = dict(zip(compat, np.max(list(compat.values()), axis=1).tolist()))
    signature_ok = bool(np.all(np.array(rep.k_signature) == spec.n))
    integrable = all(v <= tol for v in maxima.values())
    return IntegrabilityReport(
        maxima=maxima, integrable=integrable,
        hessian_agreement=(integrable == hv.is_hessian),
        hessian=hv, max_born_compat=worst_born,
        k_signature_ok=signature_ok, per_point=per_point, bases=bases,
        fibers=fibers)
