import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import jet_reference as ref
from bornbundle import bundle, corpus
from bornbundle.bundle import adapted_frame_residuals, fiber_born_jets
from bornbundle.cli import load_spec, spec_from_dict
from bornbundle.errors import SpecError
from bornbundle.manifold import BaseJets, base_jets, build_spec, sample_fibers, sample_points
from test_manifold import GENERATED
from point import (BornFrame, BundlePoint, adapted_frame_at, born_at, born_compatibility_residuals,
                   born_jets, connection_at, frame_stacks, metric_at, named_tensors)

EUCLID = corpus.example("euclidean2")
HESSIAN = corpus.example("hessian-exp2")
SKEW = corpus.example("flat-skew-metric")
SPHERE = corpus.example("sphere2")
TORSIONFUL = corpus.example("flat-torsionful")
PULLBACK = corpus.example("pullback-flat")
ALL = [EUCLID, HESSIAN, SKEW, SPHERE, TORSIONFUL, PULLBACK]
SPECS_DIR = Path(__file__).resolve().parent.parent / "scripts" / "specs"
# curved, so A = -Gamma y does not vanish (the 3-D specs in test_variants are flat)
CURVED3 = build_spec("curved3", ["u", "v", "w"], [[-1, 1]] * 3,
                     metric=[["1", "0", "0"], ["0", "exp(2*u)", "0"],
                             ["0", "0", "exp(2*u + v)"]],
                     connection="levi-civita")


def bundle_points(spec, n_base=4, n_fiber=5, radius=1.0, seed=3):
    base = sample_points(spec, n_base, seed)
    fibers = sample_fibers(spec.n, n_fiber, radius, seed)
    return [BundlePoint(tuple(x), tuple(y)) for x in base for y in fibers]


def test_flat_frame_is_identity():
    e, einv = adapted_frame_at(EUCLID, BundlePoint((0.1, 0.2), (0.5, -0.5)))
    assert np.array_equal(e, np.eye(4))
    assert np.array_equal(einv, np.eye(4))


def test_sphere_frame_columns():
    th = math.pi / 4
    bp = BundlePoint((th, 0.0), (0.0, 1.0))
    e, einv = adapted_frame_at(SPHERE, bp)
    # H_theta = d_theta - Gamma^k_{theta j} y^j d_{y^k}; with y = (0, 1) the
    # only contribution is -Gamma^phi_{theta phi} = -cot(theta) = -1
    assert e[:, 0] == pytest.approx([1.0, 0.0, 0.0, -1.0], abs=1e-12)
    # H_phi picks up -Gamma^theta_{phi phi} y^phi and -Gamma^phi_{phi theta} y^theta
    assert e[:, 1] == pytest.approx(
        [0.0, 1.0, math.sin(th) * math.cos(th), 0.0], abs=1e-12)
    assert np.array_equal(e[:, 2], [0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(e @ einv - np.eye(4))) <= 1e-12


def test_frame_block_structure():
    for spec in ALL:
        for bp in bundle_points(spec, 2, 2):
            e, einv = adapted_frame_at(spec, bp)
            n = spec.n
            assert np.array_equal(e[:n, :n], np.eye(n))
            assert np.array_equal(e[:n, n:], np.zeros((n, n)))
            assert np.array_equal(e[n:, n:], np.eye(n))
            # dual coframe rows: V*^i = Gamma^i_jk y^k dx^j + dy^i
            gamma = connection_at(spec, bp.x)
            vstar = np.einsum("ijk,k->ij", gamma, np.asarray(bp.y))
            assert einv[n:, :n] == pytest.approx(vstar, abs=1e-14)


def adapted_born_matrices(g):
    """The six tensors in the adapted frame at a point of metric g: I, J, K
    constant and h, k, omega in metric-block form."""
    zero = np.zeros_like(g)
    return {**dict(zip("IJK", bundle._constant_blocks(len(g)))),
            "h": np.block([[g, zero], [zero, g]]),
            "k": np.block([[zero, g], [g, zero]]),
            "omega": np.block([[zero, g], [-g, zero]])}


def standard_born_matrices(n):
    """The constant Born matrices of flat space (identity metric)."""
    return adapted_born_matrices(np.eye(n))


def max_residual(rep):
    return float(np.max(list(rep.residuals.values())))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_constant_blocks_are_built_once_per_n_and_read_only(n):
    blocks = bundle._constant_blocks(n)
    assert bundle._constant_blocks(n) is blocks
    one, zero = np.eye(n), np.zeros((n, n))
    want = [np.block([[zero, -one], [one, zero]]), np.block([[zero, one], [one, zero]]),
            np.block([[one, zero], [zero, -one]])]
    assert np.array_equal(blocks, want)
    with pytest.raises(ValueError, match="read-only"):
        blocks[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        blocks[1] *= 2.0


def test_euclidean_reproduces_standard_matrices():
    want = standard_born_matrices(2)
    for bp in bundle_points(EUCLID, 3, 3):
        bf = born_at(EUCLID, bp)
        for name in ("I", "J", "K", "h", "k", "omega"):
            got = getattr(bf, name if name != "omega" else "omega")
            assert np.max(np.abs(got - want[name])) <= 1e-12


def test_sphere_coordinate_frame_differs_but_conjugates():
    bp = BundlePoint((math.pi / 4, 0.0), (0.0, 1.0))
    adapted = adapted_born_matrices(metric_at(SPHERE, bp.x))
    bf_co = born_at(SPHERE, bp)
    assert np.max(np.abs(bf_co.I - adapted["I"])) > 0.1
    e, einv = adapted_frame_at(SPHERE, bp)
    assert np.max(np.abs(e @ adapted["I"] @ einv - bf_co.I)) <= 1e-12


@pytest.mark.parametrize("spec", ALL + [CURVED3], ids=lambda s: s.name)
def test_frame_conversion_consistency(spec):
    # conjugating / pulling back the adapted tensors reproduces the
    # bundle-coordinate ones for 20 bundle points per spec
    for bp in bundle_points(spec, 4, 5):
        adapted = adapted_born_matrices(metric_at(spec, bp.x))
        bf_co = born_at(spec, bp)
        e, einv = adapted_frame_at(spec, bp)
        for name, mixed in (("I", True), ("J", True), ("K", True),
                            ("h", False), ("k", False), ("omega", False)):
            ad = adapted[name]
            co = getattr(bf_co, name)
            want = e @ ad @ einv if mixed else einv.T @ ad @ einv
            assert np.max(np.abs(co - want)) <= 1e-12


@pytest.mark.parametrize("spec", ALL + [CURVED3], ids=lambda s: s.name)
def test_born_at_is_the_value_rows_of_born_jets(spec):
    # born_jets keeps every row; born_at its value rows, each +0.0 at a zero
    # and C-contiguous
    size = 2 * spec.n
    for bp in bundle_points(spec, 2, 2):
        jets, frame = born_jets(spec, bp), born_at(spec, bp)
        assert {name: m.shape for name, m in jets.items()} == {
            **dict.fromkeys(("I", "J", "K", "omega"), (1 + size, size, size)),
            "h": (1, size, size), "k": (1, size, size)}
        for name, m in jets.items():
            got = getattr(frame, name)
            assert got.flags.c_contiguous, name
            assert np.array_equal(got.view(np.int64), (m[0] + 0.0).view(np.int64)), name


def test_structural_zeros_are_positive():
    # reports print these matrices; a structural zero must not read -0.0
    for bp in bundle_points(CURVED3, 4, 5):
        bf = born_at(CURVED3, bp)
        for name in ("I", "J", "K", "h", "k", "omega"):
            m = getattr(bf, name)
            assert not np.any((m == 0.0) & np.signbit(m)), name


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_born_identities_hold_for_every_pair(spec):
    for bp in bundle_points(spec, 4, 5):
        rep = born_compatibility_residuals(born_at(spec, bp))
        assert max_residual(rep) <= 1e-10, rep.residuals
        assert rep.k_signature == (spec.n, spec.n)


def test_euclidean_residuals_tiny():
    bp = BundlePoint((0.3, -0.4), (0.9, 0.1))
    rep = born_compatibility_residuals(born_at(EUCLID, bp))
    assert max_residual(rep) <= 1e-12


def test_indefinite_h_reads_positive_residual():
    bf = born_at(EUCLID, BundlePoint((0.3, -0.4), (0.9, 0.1)))
    rep = born_compatibility_residuals(
        dataclasses.replace(bf, h=np.diag([1.0, -1.0, 1.0, 1.0])))
    assert rep.residuals["h_positive"] > 0


def test_k_signature_counts_no_zero_eigenvalue(monkeypatch):
    # this k is singular, so J_vs_k_inv_h has no exact solve; a least-squares
    # one stands in, as only the signature is read
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.linalg.pinv(a) @ b)
    bf = born_at(EUCLID, BundlePoint((0.3, -0.4), (0.9, 0.1)))
    rep = born_compatibility_residuals(
        dataclasses.replace(bf, k=np.diag([1.0, 0.0, -1.0, -1.0])))
    assert rep.k_signature == (1, 2)


def test_structural_symmetries_exact():
    for bp in bundle_points(SPHERE, 3, 3):
        bf = born_at(SPHERE, bp)
        assert np.array_equal(bf.omega, -bf.omega.T)
        assert np.array_equal(bf.h, bf.h.T)
        assert np.array_equal(bf.k, bf.k.T)


def test_born_at_carries_the_skew_metric():
    # the blocks themselves carry the metric at the base point
    bf = born_at(SKEW, BundlePoint((0.5, -0.3), (0.7, 0.2)))
    g = np.diag([1.0, math.exp(0.5)])
    assert bf.h[:2, :2] == pytest.approx(g, abs=1e-12)
    assert bf.omega[:2, 2:] == pytest.approx(g, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(SpecError):
        born_at(EUCLID, BundlePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    with pytest.raises(SpecError):
        BundlePoint((0.0, 0.0), (0.0,))
    for one_point in (bundle.born_jets, bundle.born_at):
        with pytest.raises(SpecError, match="^fiber vector length must match base dimension$"):
            one_point(EUCLID, (0.0, 0.0), (0.0,))


def test_base_point_outside_box_rejected():
    with pytest.raises(SpecError):
        born_at(EUCLID, BundlePoint((5.0, 0.0), (0.0, 0.0)))


def born_reference(spec, x, y):
    """The block formulas of the module doc over Jet objects: Gamma and g as
    jets over the 2n bundle coordinates, y seeded in the fiber slots, a
    product without a constant as an object matmul and c + X Y summed term
    by term."""
    n = spec.n
    args = ref.seed_embedded(x, 1, 2 * n, 0)
    gamma = ref.connection_args(spec, args, 1)
    g = ref.metric_args(spec, args, 1)
    yj = np.array(ref.seed_embedded(y, 1, 2 * n, offset=n), dtype=object)
    one = ref.const_jet_array(np.eye(n), 1, 2 * n)
    zero = ref.const_jet_array(np.zeros((n, n)), 1, 2 * n)

    def madd(c, x, y):
        for m in range(n):
            c = c + x[:, m, None] * y[None, m]
        return c

    a = -(gamma @ yj)
    na = -a
    p = na.T @ g
    h = np.block([[madd(g, p, na), p], [g @ na, g]])
    k = np.block([[madd(p, g, na), g], [g, zero]])
    omega = np.block([[madd(-p, g, na), g], [-g, zero]])
    mats = {
        "I": np.block([[a, -one], [madd(one, na, na), na]]),
        "J": np.block([[na, one], [madd(one, a, na), a]]),
        "K": np.block([[one, zero], [a * 2.0, -one]]),
        "h": (h + h.T) * 0.5,
        "k": (k + k.T) * 0.5,
        "omega": (omega - omega.T) * 0.5,
    }
    return {name: ref.jet_array(m) for name, m in mats.items()}


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + list(GENERATED))
def test_fiber_arrays_equal_jet_reference(source):
    # values and first partials over the 2n coordinates equal the jet
    # arithmetic, the signs of zero values included; h and k are built as
    # their value rows alone
    if source in GENERATED:
        spec = spec_from_dict(GENERATED[source], name=source)
    else:
        spec = corpus.example(source)
    fibers = sample_fibers(spec.n, 4, 1.0, 42)
    points = sample_points(spec, 8, 42)
    got = named_tensors(fiber_born_jets(base_jets(spec, points), fibers))
    for p, x in enumerate(points):
        for f, y in enumerate(fibers):
            want = born_reference(spec, tuple(x), tuple(y))
            want["h"], want["k"] = want["h"][:1], want["k"][:1]
            for name, arr in want.items():
                assert got[name][p, f].shape == arr.shape
                assert np.array_equal(got[name][p, f], arr), name
                assert np.array_equal(np.signbit(got[name][p, f, 0]),
                                      np.signbit(arr[0])), name


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + list(GENERATED))
def test_stacked_compatibility_equals_per_frame(source):
    # products, solves, determinants and eigenvalues over a stack of frames
    # give each frame's bits
    if source in GENERATED:
        spec = spec_from_dict(GENERATED[source], name=source)
    else:
        spec = corpus.example(source)
    frames = [born_at(spec, bp) for bp in bundle_points(spec, 2, 4)]
    stack = BornFrame(**{f.name: np.stack([getattr(bf, f.name) for bf in frames])
                         for f in dataclasses.fields(BornFrame)})
    rep = born_compatibility_residuals(stack)
    for i, bf in enumerate(frames):
        one = born_compatibility_residuals(bf)
        assert {key: val[i] for key, val in rep.residuals.items()} == one.residuals
        assert (rep.k_signature[0][i], rep.k_signature[1][i]) == one.k_signature


# -- the generic construction, as an oracle for the Born stack -----------------
#
# Each product of the block formulas below is a full jet product over the
# 2n bundle coordinates, A = -Gamma y included: the base fields are padded
# with zero y-rows and the fiber vector is seeded with zero x-rows and unit
# y-rows, and every block sum c + X Y adds its terms one product at a time.
# fiber_born_jets skips the products whose result is known; it must give
# these arrays bit for bit, every row and every sign of zero.

def _oracle_mul(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.multiply(a[:1], b[:1], out=out[:1])
    np.multiply(a[:1], b[1:], out=out[1:])
    out[1:] += 0.0
    out[1:] += a[1:] * b[:1]
    return out


def _oracle_madd(x, y, c=None):
    terms = (_oracle_mul(x[:, :, m, None], y[:, None, m]) for m in range(x.shape[2]))
    out = next(terms)
    if c is not None:
        np.add(c, out, out=out)
    for term in terms:
        out += term
    return out


def _oracle_fiber_blocks(bases, ys):
    f, n = np.shape(ys)
    count, base_rows = bases.gamma.shape[:2]
    rows = 2 * base_rows - 1
    gamma, g = (np.zeros((rows,) + m.shape[2:] + (count, 1)) for m in (bases.gamma, bases.g))
    gamma[:base_rows, ..., 0] = np.moveaxis(bases.gamma, 0, -1)
    g[:base_rows, ..., 0] = np.moveaxis(bases.g, 0, -1)
    y = np.zeros((rows, n, 1, 1, f))
    y[0, :, 0, 0] = np.transpose(ys)
    if rows > 1:
        y[1 + n:, :, 0, 0] = np.eye(n)[:, :, None]
    a = _oracle_madd(gamma.reshape(rows, n * n, n, count, 1), y).reshape(rows, n, n, count, f)
    return -a, g


def _oracle_block(grid):
    """The stack [[b00, b01], [b10, b11]] of (rows, n, n, ...) blocks, None a
    zero block, assigned by slices into one zeroed (rows, 2n, 2n, ...) array."""
    shape = np.broadcast_shapes(*(b.shape for row in grid for b in row if b is not None))
    n = shape[1]
    out = np.zeros((shape[0], 2 * n, 2 * n) + shape[3:])
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            if b is not None:
                out[:, i * n:(i + 1) * n, j * n:(j + 1) * n] = b
    return out


def born_oracle(bases, ys):
    """The six tensors as :func:`fiber_born_jets` lays them out, each
    product formed in full."""
    a, g = _oracle_fiber_blocks(bases, ys)
    one = np.zeros(a.shape[:3] + (1, 1))
    one[0, :, :, 0, 0] = np.eye(a.shape[1])
    na = -a
    p = _oracle_madd(na.swapaxes(1, 2), g)
    p0, na0, g0 = p[:1], na[:1], g[:1]
    block = _oracle_block
    h = block([[_oracle_madd(p0, na0, g0), p0], [_oracle_madd(g0, na0), g0]])
    k = block([[_oracle_madd(g0, na0, p0), g0], [g0, None]])
    omega = block([[_oracle_madd(g, na, -p), g], [-g, None]])
    stacks = {
        "I": block([[a, -one], [_oracle_madd(na, na, one), na]]),
        "J": block([[na, one], [_oracle_madd(a, na, one), a]]),
        "K": block([[one, None], [a * 2.0, -one]]),
        "h": (h + h.swapaxes(1, 2)) * 0.5,
        "k": (k + k.swapaxes(1, 2)) * 0.5,
        "omega": (omega - omega.swapaxes(1, 2)) * 0.5,
    }
    return {name: m.transpose(3, 4, 0, 1, 2) for name, m in stacks.items()}


def family_spec(family, n):
    """A spec of the benchmark's generated families at dimension n: the
    Levi-Civita connection of a curved diagonal metric, a flat connection
    with a potential metric, and the straight coordinates
    w_k = x_k + c_k x0^2 written in x."""
    x = [f"x{i}" for i in range(n)]
    doc = {"dimension": n, "coordinates": x, "sample_box": [[-1, 1]] * n,
           "connection": {"kind": "flat"}}
    diagonal = [["0"] * n for _ in range(n)]
    if family == "lc":
        for k in range(n):
            diagonal[k][k] = f"exp({(-1) ** k * (0.4 + 0.1 * k):.2f}*{x[(k + 1) % n]})"
        doc.update(metric={"components": diagonal}, connection={"kind": "levi-civita"})
    elif family == "potential":
        terms = [f"{2 + 0.2 * k:.1f}*exp({0.8 + 0.05 * k:.2f}*{x[k]})" for k in range(n)]
        terms += [f"{0.01 * (i - j):.2f}*{x[i]}*{x[j]}"
                  for i in range(n) for j in range(i + 1, n)]
        doc["metric"] = {"potential": " + ".join(terms).replace("+ -", "- ")}
    else:
        c = [0.0] + [(-1) ** k * (0.3 + 0.1 * k) for k in range(1, n)]
        d = [1.0 + 0.1 * k for k in range(n)]
        grid = [row[:] for row in diagonal]
        grid[0][0] = f"{d[0]} + {sum(4 * d[k] * c[k] ** 2 for k in range(n)):.6f}*x0^2"
        for k in range(1, n):
            grid[k][k] = str(d[k])
            grid[0][k] = grid[k][0] = f"{2 * d[k] * c[k]:.6f}*x0"
        gamma = [[["0"] * n for _ in range(n)] for _ in range(n)]
        for k in range(1, n):
            gamma[k][0][0] = f"{2 * c[k]:.6f}"
        doc.update(metric={"components": grid},
                   connection={"kind": "explicit", "gamma": gamma})
    return spec_from_dict(doc, name=f"{family}{n}")


# Gamma values and partials that are -0.0, which a product's + 0.0 turns
# into +0.0
SIGNED_ZEROS = build_spec("signed-zeros", ["u", "v"], [[-1, 1]] * 2,
                          metric=[["1", "0"], ["0", "1"]], connection="explicit",
                          gamma=[[["-0", "-0*u"], ["0*v", "u*v"]],
                                 [["-u", "-0"], ["-0*v", "-0"]]])
ORACLE_SPECS = (list(corpus.BUILTIN_BUILDERS)
                + sorted(str(p) for p in SPECS_DIR.glob("*.json"))
                + [f"{family}{n}" for family in ("lc", "potential", "twisted")
                   for n in (3, 4, 5, 6)] + ["signed-zeros"])


@pytest.mark.parametrize("size", [(7, 3), (1, 1)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("source", ORACLE_SPECS, ids=lambda s: Path(s).stem)
def test_fiber_arrays_equal_the_generic_construction(source, size):
    if source == "signed-zeros":
        spec = SIGNED_ZEROS
    elif source in corpus.BUILTIN_BUILDERS or source.endswith(".json"):
        spec = load_spec(source)
    else:
        spec = family_spec(source.rstrip("3456"), int(source[-1]))
    bases = base_jets(spec, sample_points(spec, size[0], 42))
    fibers = sample_fibers(spec.n, size[1], 1.0, 42)
    born = fiber_born_jets(bases, fibers)
    got, a, g = named_tensors(born), born.a, born.g
    want = born_oracle(bases, fibers)
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name].view(np.int64), arr.view(np.int64)), name
    # the blocks returned with the tensors are the ones that built them
    for got_block, want_block in zip((a, g), _oracle_fiber_blocks(bases, fibers)):
        want_block = want_block.transpose(3, 4, 0, 1, 2)
        assert got_block.shape == want_block.shape
        assert np.array_equal(got_block.view(np.int64), want_block.view(np.int64))


def test_a_singular_h_reads_inf_and_keeps_the_other_frames():
    # one frame's h is exactly singular: the batched solve raises, so the
    # frames are solved one by one; that frame reads inf for h^-1 omega, and
    # every other frame keeps the bits of the batched call
    bases = base_jets(SPHERE, sample_points(SPHERE, 3, 42))
    mats = named_tensors(fiber_born_jets(bases, sample_fibers(2, 2, 1.0, 42)))
    stack = BornFrame.of({name: m[:, :, 0] for name, m in mats.items()})
    h = stack.h.copy()
    h[1, 0] = 0.0
    got = born_compatibility_residuals(dataclasses.replace(stack, h=h))
    want = born_compatibility_residuals(stack)
    assert got.residuals["I_vs_h_inv_omega"][1, 0] == np.inf
    others = np.ones((3, 2), dtype=bool)
    others[1, 0] = False
    for name, m in want.residuals.items():
        assert np.array_equal(got.residuals[name][others].view(np.int64),
                              m[others].view(np.int64)), name
    assert np.array_equal(got.k_signature, want.k_signature)


# -- the identities of the block formulas, at random A and g -------------------

def born_of_blocks(a, g):
    """The frame that fiber_born_jets builds from the blocks A and g at one
    bundle point (Gamma^k_i0 = -A[k, i], fiber vector e_0, Gamma and g with
    zero first partials), and the blocks it returns with it."""
    n = len(g)
    gamma = np.zeros((1, 1 + n, n, n, n))
    gamma[0, 0, :, :, 0] = -a
    metric = np.zeros((1, 1 + n, n, n))
    metric[0, 0] = g
    born = fiber_born_jets(BaseJets(((0.0,) * n,), gamma, metric), [np.eye(n)[0]])
    frame = BornFrame.of({name: m[0, 0, 0] for name, m in named_tensors(born).items()})
    return frame, born.a[0, 0, 0], born.g[0, 0, 0]


@st.composite
def blocks(draw):
    """A random A and a random positive definite g at n = 1..4, with
    condition numbers below about 1e3."""
    n = draw(st.integers(1, 4))
    entries = hnp.arrays(float, (n, n), elements=st.floats(-3.0, 3.0))
    a, b = draw(entries), draw(entries)
    return a, b @ b.T + draw(st.floats(0.1, 2.0)) * np.eye(n)


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_the_block_formulas_satisfy_every_identity_to_round_off(blocks):
    # the facts the relative adapted-frame check implies for a positive
    # definite g: the 18 identities in bundle coordinates, each within a
    # few units of round-off of the size of its terms, k of signature
    # (n, n) and det omega = det(g)^2
    a, g = blocks
    n = len(g)
    frame, got_a, got_g = born_of_blocks(a, g)
    assert np.array_equal(got_a, a) and np.array_equal(got_g, g)
    unit = 8 * n * np.finfo(float).eps  # a few units of round-off per sum of 2n terms
    size = (1.0 + np.max(np.abs(a))) ** 2  # of the entries of I, J and K
    cond = np.linalg.cond(g)
    bound = dict.fromkeys(["h_symmetry", "k_symmetry", "omega_antisymmetry",
                           "h_positive", "omega_nondegenerate"], 0.0)
    for key in ("I_vs_h_inv_omega", "J_vs_k_inv_h", "K_vs_omega_inv_k"):
        bound[key] = unit * size ** 3 * cond
    rep = born_compatibility_residuals(frame)
    for key, r in rep.residuals.items():
        assert r <= bound.get(key, unit * size ** 2), key
    assert rep.k_signature == (n, n)
    det = np.linalg.det(g) ** 2
    assert abs(np.linalg.det(frame.omega) - det) <= 4 * unit * size ** 2 * cond * det
    residuals = adapted_frame_residuals(*frame_stacks(frame), got_a, got_g)
    assert max(residuals.values()) <= 2 * unit
