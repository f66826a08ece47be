"""Command-line interface: load manifold specs, run the verdict suites,
emit machine-readable JSON reports.

Spec file format (JSON)::

    {
      "dimension": 2,
      "coordinates": ["u", "v"],
      "metric": {"components": [["1", "0"], ["0", "1"]]}
                or {"potential": "exp(u) + exp(v)"},
      "connection": {"kind": "flat" | "levi-civita" | "hessian-dual"
                             | "explicit",
                     "gamma": [[["0", ...], ...], ...]},   # explicit only
      "sample_box": [[lo, hi], ...]
    }

``gamma[k][i][j]`` is the coefficient with upper index k and lower indices
(i, j).  Expressions use the mini-language of :mod:`bornbundle.expr`.

``check`` takes the Hessian verdict, the two-of-four residuals and the
integrability residuals from one sweep over the sample points
(:func:`~bornbundle.integrability.integrability_verdict`); the two-of-four
residuals reuse the torsion and asymmetry of that Hessian verdict.  Each
report section is a projection of one :class:`~bornbundle.manifold.Residuals`
record, and ``failures`` comes from one table of (breached, message) pairs.
The verdict's curvature and torsion are also the chart's flatness gate:
when both are within ``--tol`` and ``FLATNESS_GATE_TOL``, ``check``
measures the affine-chart witness on the chart at the box center
(:func:`~bornbundle.charts.chart_witness`), with no gate points of its
own.  The ``affine-chart`` command keeps its gate.  ``check --report``
writes the report to a file and prints a summary line ending in the
dominant residual.  The corpus run is ``theorem``: check's suite on each
spec of a corpus, one row per spec.

Exit codes: 0 all checks ran and no internal invariant failed, 1 spec or
configuration error (including a domain error or an overflow while
evaluating the spec's fields, a field value, first derivative or
residual that is not finite at a sample point, a metric that is not
positive definite or is singular to working precision there, a fiber
radius that is not finite and positive, a tolerance that is negative or
not finite, and a spec file or ``--report`` path that cannot be read or
written, and ``affine-chart`` on a connection that fails its flatness
gate),
2 internal invariant failure (the Hessian and integrability verdicts
disagreed, the two-of-four residual pattern was impossible, the Born
construction broke in the adapted frame, or the affine-chart witness
failed: the report's ``failures``; ``theorem`` runs :func:`run`,
``check``'s full suite with the chart witness, on each spec of its
corpus, keeps its four-field rows, names each failing spec with its
failures on stderr, and so exits 2 exactly when ``check`` would on some
spec; a sampling argument that ``check`` would reject ends the run
before any spec is evaluated, with the same JSON error and no stderr
line, and a spec whose evaluation raises ends it with one stderr line
``<spec name>: <error kind>`` and the JSON error and exit code ``check``
gives on that spec) or internal fault (a jet misuse or a chart probe
placed beyond the validity radius, reported as a JSON error like a spec
error).  A spec merely being non-Hessian is a
result, not a failure.  The threshold behind each verdict, gate and exit
code is in the table of :mod:`bornbundle.manifold`.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import corpus
# unused: bornbench's test_remove_restores_every_patched_attribute pins it (ROADMAP item 5)
from .bundle import born_at
from .charts import DEFAULT_PROBES, DEFAULT_STEPS, ChartMap, affine_chart_witness, chart_witness
from .errors import InternalError, SpecError
from .expr import EvalDomainError, ParseError
from .integrability import check_sampling, integrability_verdict, log_margin
from .jets import JetDomainError, JetUsageError
from .manifold import (CROSS_TOL, DEFAULT_TOL, FLATNESS_GATE_TOL, ManifoldSpec, build_spec,
                       pattern_violated, two_of_four_residuals)

REPORT_SCHEMA = 6  # layout version of the check report


def load_spec(source: str) -> ManifoldSpec:
    """Load a built-in example by name or a spec file by path."""
    if source in corpus.BUILTIN_BUILDERS:
        return corpus.example(source)
    path = Path(source)
    if not path.exists():
        raise SpecError(f"unknown example or missing file: {source!r} "
                        f"(built-ins: {', '.join(corpus.BUILTIN_BUILDERS)})")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file {source}: invalid JSON at line {e.lineno}, "
                        f"column {e.colno}: {e.msg}") from e
    except OSError as e:  # its message names the path
        raise SpecError(f"cannot read spec file: {e}") from e
    return spec_from_dict(raw, name=path.stem)


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {dict: "object", list: "array", str: "string"}.get(type(value),
                                                            type(value).__name__)


def _expect(value, kind: str, field: str):
    """value, if it is a JSON ``kind``; else a SpecError naming the field."""
    got = _json_type(value)
    if got != kind:
        raise SpecError(f"{field} must be a JSON {kind}, not {got}")
    return value


def _number(value, field: str) -> float:
    """value as a float, if it is a JSON number that fits one."""
    try:
        return float(_expect(value, "number", field))
    except OverflowError as e:  # a JSON integer beyond the float range
        raise SpecError(f"{field} does not fit a float") from e


def _expect_grid(value, depth: int, field: str) -> None:
    """Arrays nested ``depth`` deep whose entries are strings: checked level
    by level in one pass, and walked entry by entry only to name the first
    bad one."""
    level = [value]
    for _ in range(depth):
        if any(type(v) is not list for v in level):
            break
        level = [entry for v in level for entry in v]
    else:
        if all(type(v) is str for v in level):
            return
    _walk_grid(value, depth, field)


def _walk_grid(value, depth: int, field: str) -> None:
    if depth == 0:
        _expect(value, "string", field)
        return
    for i, entry in enumerate(_expect(value, "array", field)):
        _walk_grid(entry, depth - 1, f"{field}[{i}]")


def spec_from_dict(raw: dict, name: str = "") -> ManifoldSpec:
    _expect(raw, "object", "spec")
    try:
        dimension = raw["dimension"]
        coordinates = raw["coordinates"]
        metric = raw["metric"]
        connection = raw.get("connection", {"kind": "flat"})
        sample_box = raw["sample_box"]
    except (KeyError, TypeError) as e:
        raise SpecError(f"spec is missing required field: {e}") from e
    if not _number(dimension, "dimension").is_integer():
        raise SpecError(f"dimension must be a whole number, not {dimension}")
    dimension = int(dimension)
    _expect_grid(coordinates, 1, "coordinates")
    if len(coordinates) != dimension:
        raise SpecError(f"dimension is {dimension} but {len(coordinates)} "
                        f"coordinates were given")
    for i, interval in enumerate(_expect(sample_box, "array", "sample_box")):
        if len(_expect(interval, "array", f"sample_box[{i}]")) != 2:
            raise SpecError(f"sample_box[{i}] must be a [lo, hi] pair")
        for j, bound in enumerate(interval):
            _number(bound, f"sample_box[{i}][{j}]")
    components = _expect(metric, "object", "metric").get("components")
    potential = metric.get("potential")
    if components is not None:
        _expect_grid(components, 2, "metric.components")
    if potential is not None:
        _expect(potential, "string", "metric.potential")
    kind = _expect(connection, "object", "connection").get("kind", "flat")
    gamma = connection.get("gamma")
    _expect(kind, "string", "connection.kind")
    if gamma is not None:
        _expect_grid(gamma, 3, "connection.gamma")
    try:
        return build_spec(name, coordinates, sample_box,
                          metric=components, potential=potential,
                          connection=kind, gamma=gamma)
    except (ParseError, ValueError) as e:
        raise SpecError(f"bad spec: {e}") from e


def _spec_summary(spec: ManifoldSpec) -> dict:
    return {
        "name": spec.name,
        "dimension": spec.n,
        "coordinates": list(spec.coords),
        "metric_form": "potential" if spec.potential is not None else "components",
        "connection_kind": spec.connection_kind,
        "sample_box": [list(iv) for iv in spec.sample_box],
    }


def run(spec: ManifoldSpec, points: int = 32, fiber_points: int = 8,
        fiber_radius: float = 1.0, tol: float = DEFAULT_TOL, seed: int = 42) -> dict:
    """Full verdict suite for one spec, behind both ``check`` and
    ``theorem``.  Deterministic for a fixed (spec, sampling, seed);
    certifies behaviour on sampled points of this single chart only.  The
    sampling arguments are checked by
    :func:`~bornbundle.integrability.check_sampling` before any field is
    evaluated."""
    report: dict = {
        "report_schema": REPORT_SCHEMA,
        "spec": _spec_summary(spec),
        "config": {
            "points": points,
            "fiber_points": fiber_points,
            "fiber_radius": fiber_radius,
            "tol": tol,
            "cross_tol": CROSS_TOL,
            "seed": seed,
        },
        "scope": "verdicts certify sampled points of a single chart",
    }
    integ = integrability_verdict(spec, points, fiber_points, fiber_radius, tol, seed)
    hv = integ.hessian
    report["hessian"] = {"is_hessian": hv.within,
                         **{"max_" + name: value for name, value in hv.maxima.items()},
                         "tol": hv.tol, "points": len(integ.bases.x)}
    two = two_of_four_residuals(integ.bases, hv, CROSS_TOL)
    report["two_of_four"] = {"residuals": two.maxima, "holds": two.holds, "tol": two.tol,
                             "fact_violated": pattern_violated(two)}
    report["born_compat"] = {"max_residuals": integ.construction.maxima,
                             "gate": integ.construction.tol}
    report["integrability"] = {
        **{"max_" + name: value for name, value in integ.born.maxima.items()},
        "integrable": integ.born.within,
        "tol": integ.born.tol,
        "argmax": integ.argmax(),
    }
    report["agreement"] = integ.agreement

    # the sweep's curvature and torsion are the chart's flatness gate; a
    # tolerance looser than the gate does not start the witness
    if max(hv.maxima["curvature"], hv.maxima["torsion"]) <= min(hv.tol, FLATNESS_GATE_TOL):
        witness = chart_witness(ChartMap(spec), DEFAULT_PROBES, seed)
        del witness["probes"]
        report["affine_chart"] = witness

    failures = [message for breached, message in (
        (pattern_violated(two), "two_of_four pattern (exactly two or three conditions hold)"),
        (not integ.construction.within, "born construction identities"),
        (not integ.agreement, "hessian/integrability verdicts disagree"),
        ("affine_chart" in report and not report["affine_chart"]["witnessed"],
         "affine-chart witness residuals"),
    ) if breached]
    report["status"] = "ok" if not failures else "invariant-failure"
    if failures:
        report["failures"] = failures
    return report


def report_to_json(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` plus a trailing newline:
    the one layout of every JSON document the command line writes."""
    return json.dumps(value, indent=2) + "\n"


# -- subcommands ----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--points", type=int, default=32, help="base sample count")
    p.add_argument("--fiber-points", type=int, default=8, help="fiber sample count")
    p.add_argument("--fiber-radius", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance for 'vanishes' verdicts")
    p.add_argument("--seed", type=int, default=42)


def _cmd_list_examples(_args) -> int:
    for name in corpus.BUILTIN_BUILDERS:
        print(f"{name:18s} {corpus.DESCRIPTIONS[name]}")
    return 0


def _dominant(report: dict) -> str:
    """The largest of the curvature, torsion, nabla g asymmetry and d omega
    maxima as ``name(margin)``, its :func:`log_margin` to one decimal (+inf
    at a tolerance of 0), or ``-`` when all four are within the tolerance."""
    residuals = {name: report["hessian"]["max_" + name]
                 for name in ("curvature", "torsion", "nabla_g_asymmetry")}
    residuals["d_omega"] = report["integrability"]["max_d_omega"]
    name = max(residuals, key=residuals.get)
    tol = report["hessian"]["tol"]
    if residuals[name] <= tol:
        return "-"
    margin = log_margin(residuals[name], tol)
    return f"{name}({math.inf if margin is None else margin:+.1f})"


def _cmd_check(args) -> int:
    report = run(load_spec(args.spec), args.points, args.fiber_points, args.fiber_radius,
                 args.tol, args.seed)
    text = report_to_json(report)
    if args.report:
        try:
            Path(args.report).write_text(text)
        except OSError as e:  # its message names the path
            raise SpecError(f"cannot write report: {e}") from e
        print(f"{report['spec']['name']}: hessian="
              f"{report['hessian']['is_hessian']} integrable="
              f"{report['integrability']['integrable']} agreement="
              f"{report['agreement']} status={report['status']} "
              f"dominant={_dominant(report)}")
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0 if report["status"] == "ok" else 2


def _cmd_theorem(args) -> int:
    if args.corpus == "builtin":
        sources = list(corpus.BUILTIN_BUILDERS)
    else:
        sources = [str(f) for f in sorted(Path(args.corpus).glob("*.json"))]
        if not sources:
            raise SpecError(f"no *.json specs found in {args.corpus!r}")
    specs = [load_spec(source) for source in sources]  # every file read before any run
    check_sampling(args.points, args.fiber_points, args.fiber_radius, args.tol)
    reports = []
    for spec in specs:
        try:
            reports.append(run(spec, args.points, args.fiber_points, args.fiber_radius,
                               args.tol, args.seed))
        except Exception as e:  # main reports it as check would; this names the spec
            print(f"{spec.name}: {type(e).__name__}", file=sys.stderr)
            raise
    # bornbench/workloads.py::_check_theorem splits rows into 4 fields, reads "agreement: k/k" last
    print(f"{'spec':18s} {'hessian':8s} {'integrable':11s} agreement")
    for report in reports:
        print(f"{report['spec']['name']:18s} {str(report['hessian']['is_hessian']):8s} "
              f"{str(report['integrability']['integrable']):11s} {report['agreement']}")
    print(f"agreement: {sum(report['agreement'] for report in reports)}/{len(reports)}")
    failed = [report for report in reports if report["status"] != "ok"]
    for report in failed:
        print(f"{report['spec']['name']}: {'; '.join(report['failures'])}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_affine_chart(args) -> int:
    spec = load_spec(args.spec)
    try:  # no --at: ChartMap's default, the box center
        x0 = None if args.at is None else tuple(float(v) for v in args.at.split(","))
    except ValueError:
        raise SpecError(f"--at must be comma-separated numbers, not {args.at!r}") from None
    out = {"spec": spec.name,
           **affine_chart_witness(spec, x0, args.probes, args.steps, args.seed)}
    sys.stdout.write(report_to_json(out))
    return 0 if out["witnessed"] else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="bornbundle",
        description="Check the equivalence between the Hessian condition on a "
                    "manifold and integrability of the induced Born structure "
                    "on its tangent bundle, at sampled points.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-examples", help="list built-in example specs")

    p_check = sub.add_parser("check", help="run the full verdict suite on one spec")
    p_check.add_argument("spec", help="built-in example name or spec file path")
    _add_common(p_check)
    p_check.add_argument("--report", help="write the JSON report to this path")

    p_thm = sub.add_parser(
        "theorem", help="check's full suite, the chart witness included, on each spec of a "
                        "corpus: one hessian/integrable/agreement row per spec, and each "
                        "failing spec's failures on stderr")
    p_thm.add_argument("--corpus", default="builtin",
                       help="'builtin' or a directory of spec JSON files")
    _add_common(p_thm)

    p_chart = sub.add_parser("affine-chart", help="build and verify an affine chart")
    p_chart.add_argument("spec")
    p_chart.add_argument("--at", help="comma-separated base point (default: box center)")
    p_chart.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_chart.add_argument("--probes", type=int, default=DEFAULT_PROBES)
    p_chart.add_argument("--seed", type=int, default=42)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-examples":
            return _cmd_list_examples(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "theorem":
            return _cmd_theorem(args)
        return _cmd_affine_chart(args)
    # JetUsageError subclasses ValueError, but it is an internal fault
    except (InternalError, JetUsageError) as e:
        fault, code = e, 2
    # a domain error or an overflow outside expression evaluation, such as
    # inverting a metric whose pivot is nearly zero, is still the spec's fault
    except (SpecError, ParseError, EvalDomainError, JetDomainError,
            ValueError) as e:
        fault, code = e, 1
    error = {"error": {"kind": type(fault).__name__, "message": str(fault)},
             "status": "error"}
    sys.stdout.write(report_to_json(error))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
