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

``check`` takes the Hessian verdict, the two-of-four report, the
integrability residuals and its probe point from one sweep over the sample
points (:func:`~bornbundle.integrability.integrability_verdict`).  It runs
the affine-chart witness when that Hessian verdict finds the curvature and
torsion within its own tolerance (and within the chart's flatness gate,
where ``--tol`` is looser than that gate).

Exit codes: 0 all checks ran and no internal invariant failed, 1 spec or
configuration error (including a domain error or an overflow while
evaluating the spec's fields, a field value, first derivative or
residual that is not finite at a sample point, a fiber radius that is not
finite and positive, and a tolerance that is negative or not finite),
2 internal invariant failure (the Hessian and integrability verdicts
disagreed, the two-of-four residual pattern was impossible, or a
construction identity broke) or internal fault (a jet misuse or a failed
linear solve, reported as a JSON error like a spec error).  A spec merely
being non-Hessian is a result, not a failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import corpus
from .bundle import BundlePoint, born_at
from .charts import FLATNESS_GATE_TOL, affine_chart_witness
from .errors import SpecError
from .expr import EvalDomainError, ParseError
from .integrability import (CROSS_TOL, frame_bracket_residuals,
                            integrability_verdict,
                            nijenhuis_J_identity_residuals, theorem_crosscheck)
from .jets import JetDomainError, JetUsageError
from .manifold import DEFAULT_TOL, ManifoldSpec, TwoOfFourReport, build_spec

BORN_GATE = 1e-8  # construction identities must hold to this level


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
    return spec_from_dict(raw, name=path.stem)


def spec_from_dict(raw: dict, name: str = "") -> ManifoldSpec:
    try:
        dimension = int(raw["dimension"])
        coordinates = list(raw["coordinates"])
        metric = raw["metric"]
        connection = raw.get("connection", {"kind": "flat"})
        sample_box = raw["sample_box"]
    except (KeyError, TypeError) as e:
        raise SpecError(f"spec is missing required field: {e}") from e
    if len(coordinates) != dimension:
        raise SpecError(f"dimension is {dimension} but {len(coordinates)} "
                        f"coordinates were given")
    components = metric.get("components")
    potential = metric.get("potential")
    if components is not None:
        if len(components) != dimension or any(len(r) != dimension for r in components):
            raise SpecError(f"metric grid must be {dimension}x{dimension}")
    kind = connection.get("kind", "flat")
    gamma = connection.get("gamma")
    try:
        return build_spec(name or raw.get("name", ""), coordinates, sample_box,
                          metric=components, potential=potential,
                          connection=kind, gamma=gamma)
    except (ParseError, ValueError) as e:
        raise SpecError(f"bad spec: {e}") from e


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    return value


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
    failures = []

    integ = integrability_verdict(spec, config.points, config.fiber_points,
                                  config.fiber_radius, config.tol, config.seed)
    hv = integ.hessian
    report["hessian"] = asdict(hv)

    two = TwoOfFourReport.of(integ.bases, CROSS_TOL)
    report["two_of_four"] = asdict(two)
    if two.fact_violated:
        failures.append("two_of_four pattern (exactly two or three conditions hold)")

    report["born_compat"] = {
        "max_residuals": integ.max_born_compat,
        "k_signature_ok": integ.k_signature_ok,
        "gate": BORN_GATE,
    }
    if max(integ.max_born_compat.values()) > BORN_GATE or not integ.k_signature_ok:
        failures.append("born construction identities")

    report["integrability"] = {
        "max_nijenhuis_I": integ.max_nijenhuis_I,
        "max_nijenhuis_J": integ.max_nijenhuis_J,
        "max_nijenhuis_K": integ.max_nijenhuis_K,
        "max_d_omega": integ.max_d_omega,
        "integrable": integ.integrable,
        "tol": integ.tol,
        "per_point": integ.per_point,
    }
    report["agreement"] = integ.hessian_agreement
    if not integ.hessian_agreement:
        failures.append("hessian/integrability verdicts disagree")

    first = integ.per_point[0]  # the first bundle point of the sweep
    probe = BundlePoint(tuple(first["x"]), tuple(first["y"]))
    base = integ.bases[:1]  # the sweep's fields at probe.x
    frame = born_at(spec, probe, "bundle-coordinate", base)
    report["born_frame_sample"] = {
        "point": {"x": list(probe.x), "y": list(probe.y)},
        "frame": "bundle-coordinate",
        **{name: getattr(frame, name).tolist()
           for name in ("I", "J", "K", "h", "k", "omega")},
    }
    brackets = frame_bracket_residuals(spec, probe, base)
    nj = nijenhuis_J_identity_residuals(spec, probe, base)
    report["sign_conventions"] = {
        "bracket_HH": brackets["HH"]["sign"],
        "bracket_HV": brackets["HV"]["sign"],
        "nijenhuis_J_HH": nj["HH"]["sign"],
        "nijenhuis_J_VV": nj["VV"]["sign"],
        "nijenhuis_J_HV": nj["HV"]["sign"],
    }

    # the chart refuses curvature or torsion above its own gate, so a looser
    # tolerance does not start the witness
    if max(hv.max_curvature, hv.max_torsion) <= min(hv.tol, FLATNESS_GATE_TOL):
        x0 = tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)
        witness = affine_chart_witness(spec, x0, 6, config.fiber_radius,
                                       seed=config.seed)
        del witness["probes"]
        report["affine_chart"] = witness
        if not report["affine_chart"]["witnessed"]:
            failures.append("affine-chart witness residuals")

    report["status"] = "ok" if not failures else "invariant-failure"
    if failures:
        report["failures"] = failures
    return _jsonable(report)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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
        Path(args.report).write_text(text)
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
    rep = theorem_crosscheck(specs, args.points, args.fiber_points,
                             args.fiber_radius, args.tol, args.seed)
    print(f"{'spec':18s} {'hessian':8s} {'integrable':11s} agreement")
    for row in rep.rows:
        print(f"{row['name']:18s} {str(row['hessian']):8s} "
              f"{str(row['integrable']):11s} {row['agreement']}")
    print(f"agreement: {sum(r['agreement'] for r in rep.rows)}/{len(rep.rows)}")
    return 0 if rep.all_agree else 2


def _cmd_affine_chart(args) -> int:
    spec = load_spec(args.spec)
    if args.at:
        x0 = tuple(float(v) for v in args.at.split(","))
    else:
        x0 = tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)
    out = {"spec": spec.name or args.spec,
           **affine_chart_witness(spec, x0, args.probes, args.fiber_radius,
                                  args.steps, args.seed)}
    sys.stdout.write(report_to_json(_jsonable(out)))
    return 0 if out["witnessed"] else 2


def main(argv=None) -> int:
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
    p_chart.add_argument("--steps", type=int, default=64)
    p_chart.add_argument("--probes", type=int, default=6)
    p_chart.add_argument("--fiber-radius", type=float, default=1.0)
    p_chart.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
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
