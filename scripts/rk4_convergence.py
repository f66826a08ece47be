#!/usr/bin/env python3
"""Step-halving study of the geodesic integrator.

Prints the endpoint differences |x(steps) - x(2*steps)| for a sphere
geodesic; each halving should shrink the difference by roughly 16x
(fourth-order method).  The flat corpus connections have polynomial
geodesics that the integrator reproduces exactly, so the sphere is the
interesting case: its Levi-Civita connection has no structurally zero
coefficient, so every term of the geodesic acceleration is summed.

Exits 1 if a contraction falls outside [12, 20].  Above 256 steps the
differences reach round-off and stop contracting, so keep --max-steps at
256 or below.

Usage:
    python3 scripts/rk4_convergence.py [--spec sphere2] [--x0 1.0,1.0] [--v 0.35,0.5]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bornbundle import corpus
from bornbundle.charts import geodesic_integrate

CONTRACTION = (12.0, 20.0)  # fourth order gives about 16x per halving


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="sphere2")
    parser.add_argument("--x0", default="1.0,1.0")
    parser.add_argument("--v", default="0.35,0.5")
    parser.add_argument("--max-steps", type=int, default=256)
    args = parser.parse_args()

    spec = corpus.example(args.spec)
    x0 = tuple(float(c) for c in args.x0.split(","))
    v = tuple(float(c) for c in args.v.split(","))

    steps = 4
    prev = geodesic_integrate(spec, x0, v, steps)
    print(f"{'steps':>8s} {'|x(n) - x(2n)|':>16s} {'contraction':>12s}")
    last_diff = None
    off = []
    while steps < args.max_steps:
        nxt = geodesic_integrate(spec, x0, v, steps * 2)
        diff = float(np.max(np.abs(prev - nxt)))
        ratio = ""
        if last_diff and diff > 0:
            contraction = last_diff / diff
            ratio = f"{contraction:10.1f}x"
            if not CONTRACTION[0] <= contraction <= CONTRACTION[1]:
                off.append(f"{contraction:.1f}x at {steps} steps")
        print(f"{steps:8d} {diff:16.3e} {ratio:>12s}")
        last_diff = diff
        prev = nxt
        steps *= 2
    if off:
        print(f"contraction outside [{CONTRACTION[0]:g}, {CONTRACTION[1]:g}]: "
              f"{', '.join(off)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
