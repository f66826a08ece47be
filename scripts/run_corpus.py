#!/usr/bin/env python3
"""Run the full verdict suite over the built-in corpus and print the
Hessian/integrability agreement table, optionally writing one JSON report
per spec.  The last column names the largest of the curvature, torsion,
nabla g asymmetry and d omega maxima with its margin log10(residual / tol),
e.g. ``curvature (+9.0)``, or ``-`` when all are within the tolerance.

Usage:
    python3 scripts/run_corpus.py
    python3 scripts/run_corpus.py --points 64 --out reports/

A sample count below 1 or a fiber radius that is not finite and positive
exits 2 with one argparse error line.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bornbundle import corpus
from bornbundle.cli import RunConfig, report_to_json, run
from bornbundle.integrability import log_margin


def _cannot_write(error: OSError) -> int:
    print(f"run_corpus.py: cannot write report: {error}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=32)
    parser.add_argument("--fiber-points", type=int, default=8)
    parser.add_argument("--fiber-radius", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="directory for per-spec JSON reports")
    args = parser.parse_args(argv)
    try:
        configs = [RunConfig(source=name, points=args.points,
                             fiber_points=args.fiber_points,
                             fiber_radius=args.fiber_radius, seed=args.seed)
                   for name in corpus.BUILTIN_BUILDERS]
    except ValueError as e:  # a sample count or the fiber radius is out of range
        parser.error(str(e))

    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as e:  # its message names the path
            return _cannot_write(e)

    header = f"{'spec':18s} {'hessian':8s} {'integrable':11s} {'agreement':10s} dominant residual"
    print(header)
    print("-" * len(header))
    all_ok = True
    for config in configs:
        name = config.source
        report = run(config)
        residuals = {
            "curvature": report["hessian"]["max_curvature"],
            "torsion": report["hessian"]["max_torsion"],
            "nabla_g_asym": report["hessian"]["max_nabla_g_asymmetry"],
            "d_omega": report["integrability"]["max_d_omega"],
        }
        dominant = max(residuals, key=residuals.get)
        tol = report["hessian"]["tol"]
        if residuals[dominant] <= tol:
            dominant = "-"
        else:
            dominant += f" ({log_margin(residuals[dominant], tol):+.1f})"
        print(f"{name:18s} {str(report['hessian']['is_hessian']):8s} "
              f"{str(report['integrability']['integrable']):11s} "
              f"{str(report['agreement']):10s} {dominant}")
        all_ok = all_ok and report["agreement"] and report["status"] == "ok"
        if args.out:
            try:
                Path(args.out, f"{name}.json").write_text(report_to_json(report))
            except OSError as e:
                return _cannot_write(e)
    print()
    print("all agree and no invariant failures" if all_ok
          else "DISAGREEMENT OR INVARIANT FAILURE (see reports)")
    return 0 if all_ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
