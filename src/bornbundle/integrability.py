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
as one stacked record, used for the Hessian residuals and for every
fiber, and the Born tensors of all P x F bundle points as the two stacks
of :func:`bornbundle.bundle.fiber_born_jets`.  N_I, N_J and N_K are taken
slice by slice off their stack, each reduced to per-point maxima at once,
so that the einsum temporaries stay a third of the stack; the einsums
loop over the sample points, innermost in memory.  d omega is one more
slice, and the adapted-frame residuals are two matmul chains over the
value stacks (:func:`bornbundle.bundle.adapted_frame_residuals`).

When every value and first partial of Gamma is zero (a flat connection in
affine coordinates, or the Levi-Civita or dual connection of a constant
metric), A = -Gamma y is the same at every fiber but for signs of zeros,
which ``abs`` removes: the sweep builds the first fiber alone, and its
(P, 1) maxima stand for all F fibers before the division by (1 + |y|); a
residual that is not finite there is named at the first fiber.

The report carries the base-point record, which the two-of-four
residuals of ``check`` read too, and three
:class:`~bornbundle.manifold.Residuals`: the Hessian verdict; the Born
record, the normalized residuals of every bundle point as (P, F) arrays
at the same tolerance, which ``check`` reduces to its maxima and its
``argmax`` section (the arrays stay in the library, as ``born.per_point``
next to ``bases.x`` and ``fibers``); and the construction record, the
adapted-frame residuals at ``BORN_GATE``.  A maximum that is not finite
is a spec error naming the residual and its bundle point, the first by
base point (:func:`bornbundle.manifold._first_failure`), then by fiber and
residual: N_I, N_J, N_K, d omega, then the adapted-frame residuals; the
list of bundle points that names it is built only then.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# born_jets is unused: bornbench's test_remove_restores_every_patched_attribute pins it
from .bundle import adapted_frame_residuals, born_jets, fiber_born_jets
from .errors import SpecError
from .manifold import (BORN_GATE, DEFAULT_TOL, BaseJets, ManifoldSpec, Residuals,
                       _first_failure, base_jets, finite_maxima, hessian_verdict,
                       sample_fibers, sample_points)


def _norm_factor(y) -> float:
    """1 + |y|.  Where ``np.linalg.norm`` overflows, |y| is s |y / s| with
    s = max |y_i|, which overflows only if |y| does; a norm that overflows
    comes out inf, without a numpy warning."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(y))
        if math.isinf(norm):
            s = float(np.max(np.abs(y)))
            norm = s * float(np.linalg.norm(np.divide(y, s)))
        return 1.0 + norm


def _nijenhuis_of(a: np.ndarray) -> np.ndarray:
    """N_A from a (..., 1 + 2n, 2n, 2n) array of A's values and first partials."""
    av, da = a[..., 0, :, :], a[..., 1:, :, :]  # da[m, l, b] = d_m A^l_b
    half = np.einsum("...ma,...mlb->...lab", av, da)
    half -= np.einsum("...lm,...amb->...lab", av, da)
    return half - half.swapaxes(-1, -2)


def _d_omega_of(omega: np.ndarray) -> np.ndarray:
    """(d omega)_abc = d_a omega_bc + d_b omega_ca + d_c omega_ab, from a
    (..., 1 + 2n, 2n, 2n) array of omega's values and first partials."""
    dw = omega[..., 1:, :, :]  # dw[a, b, c] = d_a omega_bc
    lead = range(dw.ndim - 3)
    return dw + dw.transpose(*lead, -2, -1, -3) + dw.transpose(*lead, -1, -3, -2)


# -- verdicts -------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    hessian: Residuals  # curvature, torsion and asymmetry per base point
    # the normalized residuals as (P, F) stacks, entry [p, f] at the bundle
    # point (bases.x[p], fibers[f]), at the Hessian verdict's tolerance; the
    # check report keeps only their maxima and argmax
    born: Residuals
    construction: Residuals  # relative adapted-frame defects, at BORN_GATE
    bases: BaseJets  # the sweep's base-point fields
    fibers: np.ndarray  # (F, n) fiber vectors of the sweep

    @property
    def agreement(self) -> bool:
        """Whether the Hessian and integrability verdicts agree."""
        return self.born.within == self.hessian.within

    def argmax(self) -> dict:
        """Per residual, the first bundle point in sweep order where its
        maximum sits ("x", "y") and the maximum's :func:`log_margin`."""
        out = {}
        for name, m in self.born.per_point.items():
            p, f = divmod(int(np.argmax(m)), m.shape[1])
            out[name] = {"x": list(self.bases.x[p]), "y": self.fibers[f].tolist(),
                         "margin": log_margin(float(m[p, f]), self.born.tol)}
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
    # every sampling argument is checked before a field is evaluated
    fibers = sample_fibers(spec.n, fiber_count, fiber_radius, seed)
    norms = np.array([_norm_factor(y) for y in fibers])
    if not np.isfinite(norms).all():
        raise SpecError(f"fiber radius {fiber_radius!r} is too large: the norm of "
                        f"a sampled fiber vector overflows")
    bases = base_jets(spec, sample_points(spec, base_count, seed))
    hessian = hessian_verdict(bases, tol)  # its positivity gate precedes the Born identities
    # Gamma with all values and partials zero: every fiber carries the
    # structure of the first (module doc)
    swept = fibers if bases.gamma.any() else fibers[:1]

    def sweep(s):
        with np.errstate(over="ignore", invalid="ignore"):  # named below if not finite
            born = fiber_born_jets(bases[s], swept)
            worst = {"nijenhuis_" + name: np.abs(_nijenhuis_of(m)).max(axis=(-3, -2, -1))
                     for name, m in zip("IJK", born.ijkw)}
            worst["d_omega"] = np.abs(_d_omega_of(born.ijkw[3])).max(axis=(-3, -2, -1))
            compat = adapted_frame_residuals(*born.values(), born.a[:, :, 0], born.g[:, :, 0])
        for family in (worst, compat):
            if not np.isfinite(list(family.values())).all():
                finite_maxima(family, [(x, tuple(y)) for x in bases[s].x
                                       for y in swept.tolist()])
        return worst, compat
    worst, compat = _first_failure(sweep, base_count)
    born = {key: m / norms for key, m in worst.items()}  # (P, 1) broadcast over F
    return IntegrabilityReport(hessian=hessian, born=Residuals(born, tol),
                               construction=Residuals(compat, BORN_GATE),
                               bases=bases, fibers=fibers)
