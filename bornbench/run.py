"""bornbundle benchmark: a single-process, closed-loop harness.

    python3 bornbench/run.py --workload check-corpus --seed 1 --seconds 30 --trace 0

One client runs one operation at a time through ``bornbundle.cli.main``,
in-process, and captures its stdout; the next operation starts only after
the previous one finished.  A round runs every operation of the workload
once.  Every run is checked, and every repeat of an operation must give the
bytes of its first run.  The number of rounds depends only on the workload
and ``--seconds`` (see :func:`rounds_for`), so every run, on every commit,
does the same work.

Between operations the harness times a fixed pure-Python loop, the
reference.  Every operation time of a run is scaled by the reference's time
on the baseline machine over its mean time in the run, which gives
reference seconds (``ref_s``): what the run would have taken on the
baseline machine.  The timing metrics are in these units, so that the slow
and fast phases of a shared host cancel out; the wall-clock figures are
printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation once untraced and then once traced, checks that both give
identical bytes, prints the per-layer metrics and writes the spans to
``.bornbench/<workload>-<seed>/spans.json``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.  The last
stdout line is the result object; the line before it repeats every metric
with its sample count, adds ``failed_frac``, the percentile ``op_s.tail``
stands for, the wall-clock figures and the reference times.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bornbench"
MIN_ROUNDS = 2  # so that every operation is repeated
SETUP_REPEATS = 7
REF_ITERATIONS = 100_000
REF_REPEATS = 5
# A fixed scale: the reference loop's typical time on the baseline machine
# (baseline.json).  One reference second is one wall second at that speed.
REF_BASELINE_S = 0.010

SETUP_CODE = """
import sys
src = sys.argv[1]
sys.path.insert(0, src)
from bornbundle import cli
if not cli.__file__.startswith(src):
    raise SystemExit(f"imported {cli.__file__}, not the checkout's program")
for source in sys.argv[2:]:
    cli.load_spec(source)
"""


def import_cli():
    if not (SRC / "bornbundle" / "__init__.py").is_file():
        print(f"bornbench: no program at {SRC / 'bornbundle'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from bornbundle import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bornbench: imported {cli.__file__}, not the checkout's program",
              file=sys.stderr)
        raise SystemExit(2)
    return cli


# -- operations --------------------------------------------------------------

@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    stdout: str
    error: str | None  # why the operation failed, or None


def execute(cli, op: workloads.Op) -> Outcome:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
    except SystemExit as e:  # argparse rejects a command line this way
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crash is a failed operation, not a failed run
        seconds = time.perf_counter() - start
        return Outcome(op, seconds, buf.getvalue(), f"raised {type(e).__name__}: {e}")
    seconds = time.perf_counter() - start
    out = buf.getvalue()
    try:
        error = op.check(code, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        error = f"unparseable output ({type(e).__name__}: {e})"
    return Outcome(op, seconds, out, error)


class Ledger:
    """Attempted and failed operations, with the reason for each failure.
    The first clean stdout of each operation is the reference its repeats
    must match byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[workloads.Op, str] = {}

    def record(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.error:
            self.fail(outcome.op, outcome.error)
        elif self.reference.setdefault(outcome.op, outcome.stdout) != outcome.stdout:
            self.fail(outcome.op, "report bytes differ from the operation's first run")

    def fail(self, op: workloads.Op, reason: str) -> None:
        self.failures.append(f"{op.label}: {reason}")
        print(f"bornbench: FAILED {op.label}: {reason}", file=sys.stderr)


def rounds_for(workload: workloads.Workload, seconds: float) -> int:
    """Rounds per run: as many as fill ``seconds`` at the workload's nominal
    round time, and at least two, so that every operation is repeated.  The
    count never depends on how fast this run went, so ``op_s.tail`` is the
    same order statistic on every commit."""
    return max(MIN_ROUNDS, round(seconds / workload.nominal_round_s))


def reference_s() -> list[float]:
    """Times of a fixed pure-Python loop.  Timed between operations, they
    track how fast the shared host runs over the run."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(REF_ITERATIONS):
            acc += (i % 7) * 0.5
        times.append(time.perf_counter() - start)
    return times


# -- end-to-end metrics --------------------------------------------------------

def measure_setup(sources: tuple[str, ...]) -> list[float]:
    """Wall time of fresh interpreters that import ``bornbundle.cli`` and load
    the workload's specs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *sources],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return times


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    name; with fewer than 21 samples, the upper median."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], f"p{100.0 * (index + 1) / len(ordered):.1f}"


def warm_up(cli, workload: workloads.Workload) -> None:
    """One untimed, unchecked pass of the workload at tiny sizes, so that the
    program's caches (jet index tables, for one) are filled before timing."""
    for op in workload.warm_ops:
        execute(cli, op)


def throughput(outcomes: list[Outcome], seconds: list[float], per_op) -> float:
    """``per_op(op)`` summed over the whole run, over the run's total time."""
    return sum(per_op(o.op) for o in outcomes) / sum(seconds)


def timings(outcomes: list[Outcome], seconds: list[float]) -> dict:
    """Throughput, median and tail of one set of operation times."""
    tail_value, tail_name = tail(seconds)
    return {"points_per_s": throughput(outcomes, seconds, lambda op: op.bundle_points),
            "op_s.p50": statistics.median(seconds),
            "op_s.tail": tail_value, "op_s.tail_percentile": tail_name}


def end_to_end(cli, workload: workloads.Workload, seconds: float, ledger: Ledger):
    setup = measure_setup(workload.spec_sources)
    warm_up(cli, workload)
    outcomes: list[Outcome] = []
    refs = reference_s()
    rounds = rounds_for(workload, seconds)
    for _ in range(rounds):
        for op in workload.ops:
            outcomes.append(execute(cli, op))
            ledger.record(outcomes[-1])
            refs += reference_s()
    scale = REF_BASELINE_S / statistics.fmean(refs)
    scaled = [o.seconds * scale for o in outcomes]
    ref = timings(outcomes, scaled)
    wall = timings(outcomes, [o.seconds for o in outcomes])
    n = len(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "points_per_s": (ref["points_per_s"], "1/ref_s", n),
        "op_s.p50": (ref["op_s.p50"], "ref_s", n),
        "op_s.tail": (ref["op_s.tail"], "ref_s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    by_op = defaultdict(list)
    for o, t in zip(outcomes, scaled):
        by_op[o.op.label].append(t)
    detail = {"rounds": rounds, "op_s.tail_percentile": ref["op_s.tail_percentile"],
              "op_s.p50_by_operation": {k: statistics.median(v) for k, v in by_op.items()},
              "wall": wall, "setup_s_samples": setup,
              "reference_s": {"mean": statistics.fmean(refs), "min": min(refs),
                              "max": max(refs), "samples": len(refs)}}
    chart = [(o, t) for o, t in zip(outcomes, scaled) if o.op.probes]
    if chart:
        detail["probes_per_s"] = (throughput(*zip(*chart), lambda op: op.probes),
                                  "1/ref_s", len(chart))
    return metrics, detail


# -- per-layer metrics -----------------------------------------------------------

def per_layer(tracer: Tracer, traced: list[Outcome], plain_s: float, traced_s: float) -> dict:
    """Per-operation layer figures from the spans of the traced pass."""
    ops = len(traced)
    points = sum(o.op.bundle_points for o in traced)
    self_ns = tracer.self_times()
    layer_self = defaultdict(int)
    calls = defaultdict(int)
    name_self = defaultdict(int)
    incl = defaultdict(lambda: [0, 0])  # (name, dim or None) -> [calls, ns]
    root_ns = 0
    for span, own in zip(tracer.spans, self_ns):
        name_id, start, end, parent, op = span
        name = tracer.names[name_id]
        layer_self[name.split(".", 1)[0]] += own
        calls[name] += 1
        name_self[name] += own
        for key in ((name, None), (name, traced[op].op.n)):
            incl[key][0] += 1
            incl[key][1] += end - start
        if parent < 0:
            root_ns += end - start

    def call_ms(name, dim=None):
        count, ns = incl[(name, dim)]
        return ns / count / 1e6 if count else 0.0

    m = {f"{layer}.self_s": (layer_self[layer] / 1e9 / ops, "s/op") for layer in LAYERS}
    for name in ("bundle.born_jets", "bundle.born_at", "fields.connection_args",
                 "fields.metric_dg_args", "fields.jet_inv", "expr.evaluate",
                 "charts.ChartMap.jets"):
        m[f"{name}.calls"] = (calls[name] / ops, "calls/op")
    for name in ("bundle.born_jets", "fields.connection_args"):
        m[f"{name}.per_point"] = (calls[name] / points if points else 0.0, "calls/point")
    for name in ("bundle.born_compatibility_residuals", "expr.evaluate",
                 "manifold.hessian_verdict", "manifold.two_of_four_residuals"):
        m[f"{name}.self_s"] = (name_self[name] / 1e9 / ops, "s/op")
    for name in ("bundle.born_jets", "integrability.point_residuals", "charts.ChartMap.jets"):
        m[f"{name}.call_ms"] = (call_ms(name), "ms")
        for dim in workloads.GENERATED_DIMS:
            m[f"{name}.call_ms.n{dim}"] = (call_ms(name, dim), "ms")
    m["jets.Jet.created"] = (tracer.jets_created / ops, "jets/op")
    m["cli.report_bytes"] = (sum(len(o.stdout.encode()) for o in traced) / ops, "B/op")
    m["trace.overhead_s"] = ((traced_s - plain_s) / ops, "s/op")
    m["trace.coverage"] = (root_ns / 1e9 / sum(o.seconds for o in traced), "fraction")
    return m


def traced_run(cli, workload: workloads.Workload, ledger: Ledger, spans_path: Path):
    """One pass over the workload in which every operation runs untraced and
    then traced.  The pass is fixed, whatever ``--seconds`` says, so that the
    counts are those of exactly one round."""
    tracer = Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    warm_up(cli, workload)
    for op in workload.ops:
        plain.append(execute(cli, op))
        ledger.record(plain[-1])
        tracer.op = len(traced)
        tracer.install()
        try:
            traced.append(execute(cli, op))
        finally:
            tracer.remove()
        ledger.record(traced[-1])
    tracer.write(spans_path, [{"id": i, "argv": list(o.op.argv), "seconds": o.seconds}
                              for i, o in enumerate(traced)])
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics = {k: (v, unit, len(traced)) for k, (v, unit) in
               per_layer(tracer, traced, plain_s, traced_s).items()}
    return metrics, {"rounds": 1, "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT))}


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, workdir / "specs")
    ledger = Ledger()
    if args.trace:
        metrics, detail = traced_run(cli, workload, ledger, workdir / "spans.json")
    else:
        metrics, detail = end_to_end(cli, workload, args.seconds, ledger)
    failed = len(ledger.failures)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **detail, "failed_frac": (failed / ledger.attempted, "1", ledger.attempted),
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()}}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
