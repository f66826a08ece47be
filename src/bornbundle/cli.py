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
measures the affine-chart witness on the chart at the box center and the
sweep's first fiber vector (:func:`~bornbundle.charts.chart_witness`),
with no gate points of its own.  The ``affine-chart`` command keeps its
gate.

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
disagreed, the two-of-four residual pattern was impossible, or the
Born construction broke in the adapted frame, which ``theorem`` checks
too and names on stderr) or internal fault (a jet misuse or a failed
linear solve, reported as a JSON error like a spec error).  A spec merely
being non-Hessian is a result, not a failure.  The threshold behind each
verdict, gate and exit code is in the table of :mod:`bornbundle.manifold`.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import corpus
# unused: bornbench's test_remove_restores_every_patched_attribute pins it (ROADMAP item 5)
from .bundle import born_at
from .charts import DEFAULT_STEPS, ChartMap, affine_chart_witness, chart_witness
from .errors import SpecError
from .expr import EvalDomainError, ParseError
from .integrability import integrability_verdict
from .jets import JetDomainError, JetUsageError
from .manifold import (CROSS_TOL, DEFAULT_TOL, FLATNESS_GATE_TOL, ManifoldSpec, build_spec,
                       pattern_violated, two_of_four_residuals)

REPORT_SCHEMA = 4  # layout version of the check report


@dataclass(frozen=True)
class RunConfig:
    source: str
    points: int = 32
    fiber_points: int = 8
    fiber_radius: float = 1.0
    tol: float = DEFAULT_TOL
    seed: int = 42

    def __post_init__(self):
        if self.points < 1 or self.fiber_points < 1:
            raise SpecError("sample counts must be at least 1")
        if not 0.0 < self.fiber_radius < math.inf:
            raise SpecError("fiber radius must be finite and positive")


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
        if len(components) != dimension or any(len(r) != dimension for r in components):
            raise SpecError(f"metric grid must be {dimension}x{dimension}")
    if potential is not None:
        _expect(potential, "string", "metric.potential")
    kind = _expect(connection, "object", "connection").get("kind", "flat")
    gamma = connection.get("gamma")
    _expect(kind, "string", "connection.kind")
    if gamma is not None:
        _expect_grid(gamma, 3, "connection.gamma")
    try:
        return build_spec(name or raw.get("name", ""), coordinates, sample_box,
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


def run(config: RunConfig) -> dict:
    """Full verdict suite for one spec.  Deterministic for a fixed (spec,
    config, seed); certifies behaviour on sampled points of this single
    chart only."""
    spec = load_spec(config.source)
    report: dict = {
        "report_schema": REPORT_SCHEMA,
        "spec": _spec_summary(spec),
        "config": {
            "points": config.points,
            "fiber_points": config.fiber_points,
            "fiber_radius": config.fiber_radius,
            "tol": config.tol,
            "cross_tol": CROSS_TOL,
            "seed": config.seed,
        },
        "scope": "verdicts certify sampled points of a single chart",
    }
    integ = integrability_verdict(spec, config.points, config.fiber_points,
                                  config.fiber_radius, config.tol, config.seed)
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
        # columnar: entry p*F + f of a residual's list is at
        # (base_points[p], fiber_vectors[f]), so each list takes the writer's
        # one-join path for floats
        "per_point": {
            "base_points": [list(x) for x in integ.bases.x],
            "fiber_vectors": integ.fibers.tolist(),
            **{name: m.ravel().tolist() for name, m in integ.born.per_point.items()},
        },
    }
    report["agreement"] = integ.agreement

    # the sweep's curvature and torsion are the chart's flatness gate; a
    # tolerance looser than the gate does not start the witness
    if max(hv.maxima["curvature"], hv.maxima["torsion"]) <= min(hv.tol, FLATNESS_GATE_TOL):
        x0 = tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)
        witness = chart_witness(ChartMap(spec, x0), 6, integ.fibers[0], config.seed)
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


_FLOAT_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def report_to_json(value) -> str:
    """``value`` as JSON text in the layout of ``json.dumps(value, indent=2)``,
    plus a trailing newline: the same bytes for every value ``json.dumps``
    accepts whose dict keys are str, as in every document the CLI writes,
    and a ``TypeError`` for any other, a key that ``json.dumps`` would
    coerce included (a circular container is not detected).  The pieces
    are appended to one list and joined once, and a list of floats is
    written with one join, which the stdlib encoder's indented, pure-Python
    path does not do."""
    out: list[str] = []
    _write(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_TEXT.get(text, text)


def _write(value, newline: str, out: list) -> None:
    """Append the pieces of ``value``; ``newline`` is a newline followed by
    the indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        try:  # succeeds exactly when every item is a float
            texts = list(map(float.__repr__, value))
        except TypeError:
            out.append("[")
            for item in value:
                out.append(inner)
                _write(item, inner, out)
                out.append(",")
            out[-1] = newline + "]"  # in place of the last item's comma
            return
        body = separator.join(texts)
        if "n" in body:  # only nan, inf and -inf spell an n
            body = separator.join(_FLOAT_TEXT.get(t, t) for t in texts)
        out += ("[", inner, body, newline, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out += (inner, encode_basestring_ascii(key), ": ")
            _write(item, inner, out)
            out.append(",")
        out[-1] = newline + "}"  # in place of the last item's comma
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


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


def _cmd_check(args) -> int:
    config = RunConfig(source=args.spec, points=args.points,
                       fiber_points=args.fiber_points,
                       fiber_radius=args.fiber_radius, tol=args.tol,
                       seed=args.seed)
    report = run(config)
    text = report_to_json(report)
    if args.report:
        try:
            Path(args.report).write_text(text)
        except OSError as e:  # its message names the path
            raise SpecError(f"cannot write report: {e}") from e
        print(f"{report['spec']['name'] or args.spec}: hessian="
              f"{report['hessian']['is_hessian']} integrable="
              f"{report['integrability']['integrable']} agreement="
              f"{report['agreement']} status={report['status']}")
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0 if report["status"] == "ok" else 2


def _cmd_theorem(args) -> int:
    if args.corpus == "builtin":
        specs = corpus.all_examples()
    else:
        files = sorted(Path(args.corpus).glob("*.json"))
        if not files:
            raise SpecError(f"no *.json specs found in {args.corpus!r}")
        specs = [load_spec(str(f)) for f in files]
    reports = [integrability_verdict(spec, args.points, args.fiber_points,
                                     args.fiber_radius, args.tol, args.seed)
               for spec in specs]
    print(f"{'spec':18s} {'hessian':8s} {'integrable':11s} agreement")
    for spec, rep in zip(specs, reports):
        print(f"{spec.name:18s} {str(rep.hessian.within):8s} "
              f"{str(rep.born.within):11s} {rep.agreement}")
    agree = sum(rep.agreement for rep in reports)
    print(f"agreement: {agree}/{len(reports)}")
    broken = [spec.name for spec, rep in zip(specs, reports)
              if not rep.construction.within]
    if broken:
        print(f"born construction identities broke: {', '.join(broken)}", file=sys.stderr)
    return 0 if agree == len(reports) and not broken else 2


def _cmd_affine_chart(args) -> int:
    spec = load_spec(args.spec)
    if args.at is not None:
        try:
            x0 = tuple(float(v) for v in args.at.split(","))
        except ValueError:
            raise SpecError(f"--at must be comma-separated numbers, not {args.at!r}") from None
    else:
        x0 = tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)
    out = {"spec": spec.name or args.spec,
           **affine_chart_witness(spec, x0, args.probes, args.fiber_radius,
                                  args.steps, args.seed)}
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

    p_thm = sub.add_parser("theorem", help="hessian vs integrability over a corpus")
    p_thm.add_argument("--corpus", default="builtin",
                       help="'builtin' or a directory of spec JSON files")
    _add_common(p_thm)

    p_chart = sub.add_parser("affine-chart", help="build and verify an affine chart")
    p_chart.add_argument("spec")
    p_chart.add_argument("--at", help="comma-separated base point (default: box center)")
    p_chart.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_chart.add_argument("--probes", type=int, default=6)
    p_chart.add_argument("--fiber-radius", type=float, default=1.0)
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
    # both subclass ValueError, but they are internal faults, not spec errors
    except (JetUsageError, np.linalg.LinAlgError) as e:
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
