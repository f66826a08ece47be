"""Fixed source-text mutants, each paired with the test files (or pytest
node ids) that should kill it.

Each mutant replaces one exact text of a package file, which must occur
there exactly once, in a temporary copy of the repository (the README
included, as some tests read it), then runs ``python -m pytest -x -q`` on
its tests in that copy.  A mutant is killed when the tests fail, and
survives when they pass.  The script prints one line per mutant and exits 1
if any survives, or if a mutant's text is missing or its tests cannot run.

Usage: ``python scripts/mutants.py [NAME ...]``, all mutants by default.
Standard library and pytest only.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLE = "src/bornbundle/bundle.py"
EXPR = "src/bornbundle/expr.py"
FIELDS = "src/bornbundle/fields.py"
JETS = "src/bornbundle/jets.py"
MANIFOLD = "src/bornbundle/manifold.py"
# a pushforward residual between PUSHFORWARD_TOL and ten times it fails the witness
OVER_PUSHFORWARD_TOL = ("tests/test_charts.py::"
                        "test_pushforward_residual_over_its_tolerance_fails_the_witness")
# a defect or a torsion half a decade on either side of its gate
BORN_GATE_NEAR = "tests/test_cli.py::test_born_gate_decides_a_defect_near_it"
FLATNESS_GATE_NEAR = "tests/test_charts.py::test_flatness_gate_decides_a_torsion_near_it"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # test files or node ids, relative to the root


MUTANTS = (
    # check starts the chart witness only within the tighter of --tol and the gate
    Mutant("witness-max", "src/bornbundle/cli.py", "min(hv.tol, FLATNESS_GATE_TOL)",
           "max(hv.tol, FLATNESS_GATE_TOL)", ("tests/test_cli.py",)),
    Mutant("gate-points", "src/bornbundle/charts.py", "GATE_POINTS = 8", "GATE_POINTS = 4",
           ("tests/test_cli.py",)),
    # argmax splits the flat index of a (P, F) stack by F, the fiber count
    Mutant("argmax-axis", "src/bornbundle/integrability.py",
           "divmod(int(np.argmax(m)), m.shape[1])", "divmod(int(np.argmax(m)), m.shape[0])",
           ("tests/test_cli.py::test_argmax_is_the_first_maximum_of_the_one_point_functions",)),
    # theorem's exit code reads its reports' failures, not agreement alone
    Mutant("theorem-agreement-only", "src/bornbundle/cli.py", "return 2 if failed else 0",
           "return 0 if all(report['agreement'] for report in reports) else 2",
           ("tests/test_cli.py::test_theorem_exits_2_exactly_when_some_check_does",)),
    # theorem names on stderr the spec whose evaluation raised
    Mutant("theorem-error-unnamed", "src/bornbundle/cli.py",
           '            print(f"{spec.name}: {type(e).__name__}", file=sys.stderr)\n', "",
           ("tests/test_cli.py::test_theorem_names_the_spec_whose_evaluation_raised",)),
    # the --report summary names the largest residual, not the smallest
    Mutant("dominant-min", "src/bornbundle/cli.py", "max(residuals, key=residuals.get)",
           "min(residuals, key=residuals.get)",
           ("tests/test_cli.py::test_report_summary_ends_in_the_dominant_residual",)),
    # the one-fiber sweep of a vanishing Gamma stands at the first fiber
    Mutant("last-fiber", "src/bornbundle/integrability.py", "fibers[:1]", "fibers[-1:]",
           ("tests/test_integrability.py",)),
    # the block formulas of fiber_born_jets
    Mutant("I-sign-of-A", BUNDLE, "(ijkw, 0, ((a, -one),", "(ijkw, 0, ((na, -one),",
           ("tests/test_bundle.py",)),
    Mutant("K-two", BUNDLE, "(a * 2.0, -one)", "(a * 1.0, -one)", ("tests/test_bundle.py",)),
    Mutant("h-transposed-P", BUNDLE, "((_madd(p0, na0, g0), p0),",
           "((_madd(p0, na0, g0), p0.swapaxes(1, 2)),", ("tests/test_bundle.py",)),
    Mutant("k-sign-of-P", BUNDLE, "_sum_in_order(gna[:1], p0)", "_sum_in_order(gna[:1], -p0)",
           ("tests/test_bundle.py",)),
    Mutant("omega-sign-of-P", BUNDLE, "_sum_in_order(gna, -p)", "_sum_in_order(gna, p)",
           ("tests/test_bundle.py",)),
    Mutant("J-sign-of-AA", BUNDLE, "(_madd(a, na, one), a)", "(_madd(a, a, one), a)",
           ("tests/test_bundle.py",)),
    # value numbering: the key holds the operation, and a shared instruction
    # keeps the offset of its first occurrence
    Mutant("key-without-op", EXPR, "node = self.emit((text, node, right),",
           "node = self.emit((node, right),", ("tests/test_expr.py",)),
    Mutant("last-offset", EXPR, "        return slot\n\n    def peek",
           "        self.code[slot - len(self.coords)] = (fn, operands, offset)\n"
           "        return slot\n\n    def peek", ("tests/test_expr.py",)),
    # a factor may sit inside 100 levels of nesting, not 99
    Mutant("nesting-off-by-one", EXPR, "if self.depth > _MAX_NESTING:",
           "if self.depth >= _MAX_NESTING:", ("tests/test_expr.py",)),
    # index swaps in the tensor formulas
    Mutant("nijenhuis-swap", "src/bornbundle/integrability.py",
           '"...lm,...amb->...lab"', '"...ml,...amb->...lab"', ("tests/test_integrability.py",)),
    Mutant("levi-civita-swap", FIELDS, "d = dg[..., :, l, :]", "d = dg[..., l, :, :]",
           ("tests/test_fields.py",)),
    Mutant("dual-swap", FIELDS, "inner = dg[..., :, j, :]", "inner = dg[..., j, :, :]",
           ("tests/test_fields.py",)),
    Mutant("curvature-swap", MANIFOLD, '"...lim,...mjk->...lijk"',
           '"...ilm,...mjk->...lijk"', ("tests/test_manifold.py",)),
    # transposes and signs in the same formulas
    Mutant("curvature-transpose", MANIFOLD, "half - half.swapaxes(-3, -2)",
           "half - half.swapaxes(-2, -1)", ("tests/test_manifold.py",)),
    Mutant("nijenhuis-sign", "src/bornbundle/integrability.py", "return half - half.swapaxes",
           "return half + half.swapaxes", ("tests/test_integrability.py",)),
    Mutant("levi-civita-doubled", FIELDS, "d + d.swapaxes(-1, -2)", "d + d",
           ("tests/test_fields.py",)),
    # equivalent on a torsion-free Gamma, so its tests need a torsionful one
    Mutant("dual-transpose", FIELDS, "gamma[..., m, :, j, None]", "gamma[..., m, j, :, None]",
           ("tests/test_fields.py",)),
    Mutant("d-omega-cycle", "src/bornbundle/integrability.py", "dw.transpose(*lead, -1, -3, -2)",
           "dw.transpose(*lead, -1, -2, -3)", ("tests/test_integrability.py",)),
    Mutant("uniform-rows-sign", "src/bornbundle/charts.py", "(v + half)", "(v - half)",
           ("tests/test_charts.py",)),
    # the chart gathers Gamma^k_ij of each support term from the whole grid
    Mutant("gamma-gather", "src/bornbundle/charts.py", "(k * n + i) * n + j",
           "(i * n + k) * n + j", ("tests/test_charts.py",)),
    # the chart's default base point sums halves, so a box near the float
    # range has a finite center; the base point is checked when the chart is built
    Mutant("centre-sum", "src/bornbundle/charts.py", "tuple(0.5 * lo + 0.5 * hi for",
           "tuple(0.5 * (lo + hi) for", ("tests/test_golden.py::test_output_equals_golden_bytes",)),
    Mutant("chart-base-point-unchecked", "src/bornbundle/charts.py",
           '_require_inside(self.spec, x0, "chart base point")', "tuple(map(float, x0))",
           ("tests/test_charts.py::test_chart_base_point_must_be_inside",)),
    # the witness reads its residual
    Mutant("witness-ignored", "src/bornbundle/charts.py", '"witnessed": witness.within',
           '"witnessed": True', (OVER_PUSHFORWARD_TOL,)),
    # the acceleration's sum starts from -0.0, which keeps the sign of a zero term
    Mutant("accel-zero-start", "src/bornbundle/charts.py", "np.full(u.shape, -0.0)",
           "np.zeros(u.shape)",
           ("tests/test_charts.py::test_constant_acceleration_equals_products_on_non_finite_states",)),
    # every grid entry is gathered from the distinct value it reads
    Mutant("shared-write", FIELDS, "np.take(distinct, program._reads,",
           "np.take(distinct, sorted(program._reads),", ("tests/test_fields.py",)),
    # a potential under a derived connection is evaluated once for Gamma and g
    Mutant("potential-evaluated-twice", FIELDS,
           'if spec.connection_kind in ("levi-civita", "hessian-dual"):',
           'if spec.potential is None and spec.connection_kind in ("levi-civita", '
           '"hessian-dual"):',
           ("tests/test_fields.py::test_a_potential_under_a_derived_connection_is_evaluated_once",)),
    # a maximum equal to its threshold holds
    Mutant("holds-strict", MANIFOLD, "m <= self.tol for name",
           "m < self.tol for name", ("tests/test_manifold.py",)),
    # the chain rule: its partitions in reverse order (order-3 bits move),
    # and the second block of every partition into two dropped
    Mutant("partitions-reversed", JETS, "key=lambda part: [(len(b), b) for b in part])",
           "key=lambda part: [(len(b), b) for b in part], reverse=True)",
           ("tests/test_jet_batch.py",)),
    Mutant("chain-dropped-block", JETS, "for block in rest:",
           "for block in (rest if k > 2 else []):",
           ("tests/test_jet_batch.py",)),
    # thresholds a decade off, each killed by a verdict or an exit code
    Mutant("born-gate-x10", MANIFOLD, "BORN_GATE = 1e-8", "BORN_GATE = 1e-7",
           (BORN_GATE_NEAR,)),
    Mutant("born-gate-div10", MANIFOLD, "BORN_GATE = 1e-8", "BORN_GATE = 1e-9",
           (BORN_GATE_NEAR,)),
    Mutant("pushforward-tol-x10", MANIFOLD, "PUSHFORWARD_TOL = 1e-6", "PUSHFORWARD_TOL = 1e-5",
           (OVER_PUSHFORWARD_TOL,)),
    Mutant("cross-tol-x10", MANIFOLD, "CROSS_TOL = 1e-7", "CROSS_TOL = 1e-6",
           ("tests/test_thresholds.py::test_two_of_four_residuals_over_cross_tol_fail",)),
    Mutant("cross-tol-div10", MANIFOLD, "CROSS_TOL = 1e-7", "CROSS_TOL = 1e-8",
           ("tests/test_thresholds.py::test_two_of_four_residuals_under_cross_tol_hold",)),
    Mutant("pushforward-tol-div10", MANIFOLD, "PUSHFORWARD_TOL = 1e-6", "PUSHFORWARD_TOL = 1e-7",
           ("tests/test_charts.py::test_witness_holds_with_residuals_just_under_its_tolerance",)),
    Mutant("flatness-gate-x10", MANIFOLD, "FLATNESS_GATE_TOL = 1e-7",
           "FLATNESS_GATE_TOL = 1e-6", (FLATNESS_GATE_NEAR,)),
    Mutant("flatness-gate-div10", MANIFOLD, "FLATNESS_GATE_TOL = 1e-7",
           "FLATNESS_GATE_TOL = 1e-8", (FLATNESS_GATE_NEAR,)),
    # a BLAS dot product sums in an order that depends on the CPU kernel: the
    # default kernel keeps every golden's bytes, Prescott does not
    Mutant("norm-blas", "src/bornbundle/integrability.py", "math.hypot(*y)",
           "float(np.linalg.norm(y))",
           ("tests/test_golden.py::test_goldens_hold_under_another_blas_kernel",)),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".bornbench", ".benchmarks")


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or an error naming what kept the mutant from running."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:  # pytest: some test failed
        return "killed"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode} ({' '.join(tail)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant {unknown[0]!r} (known: {', '.join(by_name)})")
    names = args.names or list(by_name)
    outcomes = [run(by_name[name]) for name in names]
    for name, outcome in zip(names, outcomes):
        print(f"{name:20s} {outcome}")
    killed = outcomes.count("killed")
    print(f"{killed}/{len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
