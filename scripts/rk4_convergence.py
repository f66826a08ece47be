#!/usr/bin/env python3
"""Step-halving study of the geodesic integrator.

Prints the endpoint differences |x(steps) - x(2*steps)| for a sphere
geodesic; each halving should shrink the difference by roughly 16x
(fourth-order method).  The flat corpus connections have polynomial
geodesics that the integrator reproduces up to round-off, so the sphere is
the interesting case: its Levi-Civita connection has no structurally zero
coefficient, so every term of the geodesic acceleration is summed.

A difference within the round-off of the finer run, ``ROUNDOFF_ULPS``
units in the last place of the endpoint's largest coordinate per step, is
printed as converged to round-off, and neither it nor the next difference
gets a ratio.  Exits 1 if a ratio falls outside [12, 20], and 2 with a
one-line error (after argparse's usage line) for an argument that does not
fit: an unknown --spec, an --x0 or --v that is not comma-separated numbers
or has the wrong length, a start point outside the sample box or a
geodesic that leaves it, or a --max-steps below 16, which measures no
contraction (that takes the runs at 4, 8 and 16 steps).  Above 256 steps
the sphere's differences reach round-off.

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
from bornbundle.errors import SpecError

CONTRACTION = (12.0, 20.0)  # fourth order gives about 16x per halving
# each step of a run rounds its position and velocity sums: a difference
# within this many ulps per step of the finer run is round-off (the flat
# specs' differences stay under a tenth of it; the sphere's reach it only
# beyond 256 steps)
ROUNDOFF_ULPS = 1


def _numbers(text: str) -> tuple:
    try:
        return tuple(float(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, not {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="sphere2", choices=corpus.BUILTIN_BUILDERS,
                        metavar="NAME", help="built-in spec (default: sphere2)")
    parser.add_argument("--x0", type=_numbers, default="1.0,1.0")
    parser.add_argument("--v", type=_numbers, default="0.35,0.5")
    parser.add_argument("--max-steps", type=int, default=256)
    args = parser.parse_args(argv)
    if args.max_steps < 16:
        parser.error(f"--max-steps must be at least 16 to measure a contraction, "
                     f"not {args.max_steps}")

    spec = corpus.example(args.spec)
    counts = [4]
    while counts[-1] < args.max_steps:
        counts.append(2 * counts[-1])
    try:
        ends = [geodesic_integrate(spec, args.x0, args.v, steps) for steps in counts]
    except (SpecError, ValueError) as e:  # the start, velocity or path does not fit
        parser.error(str(e))

    print(f"{'steps':>8s} {'|x(n) - x(2n)|':>16s} {'contraction':>12s}")
    last_diff = None
    off = []
    for steps, prev, nxt in zip(counts, ends, ends[1:]):
        diff = float(np.max(np.abs(prev - nxt)))
        ratio = ""
        if diff <= ROUNDOFF_ULPS * 2 * steps * float(np.spacing(np.max(np.abs(nxt)))):
            ratio = "round-off"
        elif last_diff is not None:
            contraction = last_diff / diff
            ratio = f"{contraction:10.1f}x"
            if not CONTRACTION[0] <= contraction <= CONTRACTION[1]:
                off.append(f"{contraction:.1f}x at {steps} steps")
        print(f"{steps:8d} {diff:16.3e} {ratio:>12s}")
        last_diff = None if ratio == "round-off" else diff
    if off:
        print(f"contraction outside [{CONTRACTION[0]:g}, {CONTRACTION[1]:g}]: "
              f"{', '.join(off)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
