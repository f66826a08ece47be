#!/usr/bin/env python3
"""Golden outputs: the exact stdout and exit code of fixed command lines.

Each case is one ``bornbundle`` command line, run in process through
``bornbundle.cli.main``.  Its stdout is kept in ``tests/golden/<case>`` and
its exit code in ``tests/golden/exit_codes.json``; ``tests/test_golden.py``
runs every case and compares both.  The cases:

* ``check`` at 4 x 2 points on the built-ins, on ``scripts/specs`` and on
  the generated specs in ``tests/golden/specs`` (the benchmark's lc3,
  potential4 and twisted5 at spec seed 1, kept as files);
* ``check`` at the benchmark's sizes: ``sphere2`` and ``pullback-flat`` at
  16 x 8, lc3 at 12 x 4 and potential4 at 4 x 4, whose Gamma vanishes, so
  its sweep builds one fiber per base point;
* ``check`` on lc3 at the default 32 x 8 points and ``--fiber-radius
  0.37``, whose fiber norms a BLAS dot product would round differently
  under different CPU kernels;
* ``check`` at 4 x 2 points and ``affine-chart`` at its defaults on
  ``tests/golden/specs/huge-box.json``, a flat spec on [1e308, 1.5e308] x
  [-1, 1], whose box center 1.25e308 is finite though ``lo + hi`` is not;
* ``theorem --corpus builtin`` at its defaults, and ``theorem`` on
  ``scripts/specs`` at 4 x 2 points;
* ``affine-chart pullback-flat`` at ``--probes 4 --steps 16``, at
  ``--probes 3 --steps 130`` (two chunk boundaries of the position scan and
  a 2-step tail) and from ``--at 0.9,0.9`` at ``--probes 30 --steps 400``
  (a box exit at step 319/400, inside the fifth chunk, exit 1);
* ``affine-chart scripts/specs/pullback-chain3.json``, a constant Gamma
  that is not uniform, integrated stage by stage one step at a time, at
  ``--probes 3 --steps 130`` and from ``--at 0.8,0.8,0.8`` at ``--probes
  20 --steps 200`` (a box exit at step 150/200, exit 1);
* the error reports of an unknown spec and of a malformed one.

A change that alters a golden file on purpose (a defect fix or a schema
change) regenerates them with ``--write`` and names the reason.

Usage:
    python3 scripts/golden.py            # compare; exit 1 naming each case that differs
    python3 scripts/golden.py --write    # regenerate tests/golden
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bornbundle import cli, corpus

GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
SMALL = ["--points", "4", "--fiber-points", "2"]


def cases() -> dict[str, list[str]]:
    """Golden file name -> command line."""
    out = {f"check-{name}.json": ["check", name, *SMALL] for name in corpus.BUILTIN_BUILDERS}
    for path in [*sorted((ROOT / "scripts" / "specs").glob("*.json")),
                 *(GOLDEN / "specs" / f"{stem}.json"
                   for stem in ("lc3", "potential4", "twisted5"))]:
        out[f"check-{path.stem}.json"] = ["check", str(path), *SMALL]
    for name, points, fibers in (("sphere2", 16, 8), ("pullback-flat", 16, 8),
                                 (str(GOLDEN / "specs" / "lc3.json"), 12, 4),
                                 (str(GOLDEN / "specs" / "potential4.json"), 4, 4)):
        out[f"check-{Path(name).stem}-{points}x{fibers}.json"] = [
            "check", name, "--points", str(points), "--fiber-points", str(fibers)]
    out["check-lc3-radius-0.37.json"] = ["check", str(GOLDEN / "specs" / "lc3.json"),
                                          "--fiber-radius", "0.37"]
    huge = str(GOLDEN / "specs" / "huge-box.json")
    out["check-huge-box.json"] = ["check", huge, *SMALL]
    out["theorem-builtin.txt"] = ["theorem", "--corpus", "builtin"]
    out["theorem-specs.txt"] = ["theorem", "--corpus", str(ROOT / "scripts" / "specs"), *SMALL]
    out["affine-chart-pullback-flat.json"] = ["affine-chart", "pullback-flat",
                                              "--probes", "4", "--steps", "16"]
    out["affine-chart-pullback-flat-130.json"] = ["affine-chart", "pullback-flat",
                                                  "--probes", "3", "--steps", "130"]
    out["affine-chart-pullback-flat-box-exit.json"] = [
        "affine-chart", "pullback-flat", "--at", "0.9,0.9", "--probes", "30", "--steps", "400"]
    out["affine-chart-huge-box.json"] = ["affine-chart", huge]
    chain3 = str(ROOT / "scripts" / "specs" / "pullback-chain3.json")
    out["affine-chart-pullback-chain3-130.json"] = ["affine-chart", chain3,
                                                    "--probes", "3", "--steps", "130"]
    out["affine-chart-pullback-chain3-box-exit.json"] = [
        "affine-chart", chain3, "--at", "0.8,0.8,0.8", "--probes", "20", "--steps", "200"]
    out["error-unknown-spec.json"] = ["check", "nosuch"]
    out["error-malformed-spec.json"] = ["check", str(GOLDEN / "specs" / "malformed.json")]
    return out


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``bornbundle <argv>``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    args = parser.parse_args(argv)

    results = {name: run_case(command) for name, command in cases().items()}
    codes = {name: code for name, (code, _) in results.items()}
    if args.write:
        for name, (_, text) in results.items():
            (GOLDEN / name).write_text(text)
        EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")
        print(f"wrote {len(results)} golden files to {GOLDEN}")
        return 0
    want = json.loads(EXIT_CODES.read_text())
    differ = [name for name, (code, text) in results.items()
              if code != want.get(name) or not (GOLDEN / name).is_file()
              or (GOLDEN / name).read_text() != text]
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
