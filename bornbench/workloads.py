"""The benchmark's workloads: the operations of one round and how to check them.

An operation is one ``bornbundle`` command line (``check``, ``theorem`` or
``affine-chart``) with the exit code and verdicts it must produce.  A round
runs every operation of the workload once, in a fixed order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import specgen

WORKLOADS = ("check-corpus", "theorem-ndim", "chart-witness")

# built-in spec -> (hessian, integrable), as documented in the README table
BUILTIN_VERDICTS = {
    "euclidean2": (True, True),
    "hessian-exp2": (True, True),
    "flat-skew-metric": (False, False),
    "sphere2": (False, False),
    "flat-torsionful": (False, False),
    "pullback-flat": (True, True),
}
# flat torsion-free built-ins: `check` adds the affine-chart witness for them
CHART_BUILTINS = ("euclidean2", "hessian-exp2", "flat-skew-metric", "pullback-flat")
CHART_WITNESS_BUILTINS = ("pullback-flat", "euclidean2", "hessian-exp2")
GENERATED_DIMS = (3, 4)  # the sampler rejects n >= 5 (at most 8 Halton primes for 2n)
# affine-chart probes per dimension: a probe costs about 0.1 s at n = 2,
# 0.4 s at n = 3 and 1.4 s at n = 4, so every operation takes about the same
# time and the median and tail of a run fall among like operations
CHART_PROBES = {2: 12, 3: 3, 4: 1}


@dataclass(frozen=True)
class Sizes:
    points: int         # check: base points
    fiber_points: int   # check: fiber points
    theorem_points: tuple[int, ...]  # theorem: base points, per GENERATED_DIMS
    theorem_fiber_points: int
    chart_steps: int


# Half the CLI's default 32 base points for `check`, and fewer base points at
# n = 4 than at n = 3 for `theorem`: every operation then takes about the
# same time, so a run holds enough operations for a median and a tail.
FULL = Sizes(points=16, fiber_points=8, theorem_points=(12, 4),
             theorem_fiber_points=4, chart_steps=64)
TINY = Sizes(points=2, fiber_points=1, theorem_points=(2, 2),
             theorem_fiber_points=1, chart_steps=8)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    n: int
    bundle_points: int   # bundle points whose Born structure the operation verifies
    probes: int          # affine-chart probes; each checks the Born blocks at one bundle point
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    spec_sources: tuple[str, ...]  # what `setup_s` loads: built-in names or files
    nominal_round_s: float         # one round, in reference seconds (run.py)
    warm_ops: tuple[Op, ...] = ()  # the same operations at tiny sizes


def _verdict_error(got: tuple, want: tuple, what: str) -> str | None:
    if got != want:
        return f"{what}: (hessian, integrable) = {got}, expected {want}"
    return None


def _check_report(name: str, chart: bool):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        report = json.loads(out)
        got = (report["hessian"]["is_hessian"], report["integrability"]["integrable"])
        err = _verdict_error(got, BUILTIN_VERDICTS[name], name)
        if err:
            return err
        if report["status"] != "ok" or report["agreement"] is not True:
            return f"status {report['status']!r}, agreement {report['agreement']!r}"
        if ("affine_chart" in report) != chart:
            return f"affine_chart section present={not chart}, expected {chart}"
        if chart and report["affine_chart"]["witnessed"] is not True:
            return "affine chart not witnessed"
        return None
    return check


def _check_theorem(expected: dict[str, tuple[bool, bool]]):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        lines = out.splitlines()
        rows = {}
        for line in lines[1:-1]:
            name, hess, integ, agree = line.split()
            rows[name] = (hess == "True", integ == "True", agree == "True")
        if set(rows) != set(expected):
            return f"rows {sorted(rows)}, expected {sorted(expected)}"
        for name, want in expected.items():
            err = _verdict_error(rows[name][:2], want, name)
            if err or not rows[name][2]:
                return err or f"{name}: no agreement"
        if lines[-1] != f"agreement: {len(expected)}/{len(expected)}":
            return f"summary line {lines[-1]!r}"
        return None
    return check


def _check_chart(spec_name: str):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        report = json.loads(out)
        if report["spec"] != spec_name:
            return f"spec {report['spec']!r}, expected {spec_name!r}"
        if report["witnessed"] is not True:
            return "affine chart not witnessed"
        return None
    return check


def _generate(directory: Path, family: str, n: int, seed: int) -> Path:
    gen = specgen.make_spec(family, n, seed)
    reason = specgen.precheck(gen)
    if reason:
        raise ValueError(f"generated {family} spec at n={n}, seed {seed}: {reason}")
    return specgen.write_spec(directory, gen)


def build(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Workload:
    """The workload's operations for ``seed``, with their tiny-size twins for
    warming up.  Generated spec files are written under ``workdir`` and
    prechecked before anything is timed."""
    full = _build(name, seed, workdir, sizes)
    return Workload(full.name, full.ops, full.spec_sources, full.nominal_round_s,
                    _build(name, seed, workdir, TINY).ops)


def _build(name: str, seed: int, workdir: Path, sizes: Sizes) -> Workload:
    s = str(seed)
    ops = []
    if name == "check-corpus":
        common = ("--points", str(sizes.points), "--fiber-points",
                  str(sizes.fiber_points), "--seed", s)
        for spec in BUILTIN_VERDICTS:
            ops.append(Op(f"check {spec}", ("check", spec) + common, 2,
                          sizes.points * sizes.fiber_points, 0,
                          _check_report(spec, spec in CHART_BUILTINS)))
        return Workload(name, tuple(ops), tuple(BUILTIN_VERDICTS), 9.4)
    if name == "theorem-ndim":
        sources = []
        for n, points in zip(GENERATED_DIMS, sizes.theorem_points):
            for family in ("lc", "potential"):
                corpus = workdir / f"{family}-n{n}"
                path = _generate(corpus, family, n, seed)
                sources.append(str(path))
                ops.append(Op(f"theorem {path.stem}",
                              ("theorem", "--corpus", str(corpus),
                               "--points", str(points),
                               "--fiber-points", str(sizes.theorem_fiber_points),
                               "--seed", s),
                              n, points * sizes.theorem_fiber_points, 0,
                              _check_theorem({path.stem: specgen.EXPECTED[family]})))
        return Workload(name, tuple(ops), tuple(sources), 5.3)
    if name == "chart-witness":
        targets = [(spec, spec, 2, CHART_PROBES[2]) for spec in CHART_WITNESS_BUILTINS]
        for n in GENERATED_DIMS:
            for family in ("twisted", "potential"):
                path = _generate(workdir / "chart", family, n, seed)
                targets.append((str(path), path.stem, n, CHART_PROBES[n]))
        for source, spec_name, n, probes in targets:
            ops.append(Op(f"affine-chart {spec_name}",
                          ("affine-chart", source, "--probes", str(probes),
                           "--steps", str(sizes.chart_steps), "--seed", s),
                          n, probes, probes, _check_chart(spec_name)))
        return Workload(name, tuple(ops), tuple(t[0] for t in targets), 8.9)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")
