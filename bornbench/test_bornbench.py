"""The benchmark's own tests: ``python -m pytest bornbench``.

They run the workloads at tiny sizes, so they check the harness, not the
timings.
"""
from __future__ import annotations

import re
import shutil
import sys

import numpy as np
import pytest

import run
import specgen
import workloads
from tracer import Tracer

cli = run.import_cli()


@pytest.fixture
def tmp_path(request):
    """A fresh directory inside the checkout's ignored output directory."""
    path = run.OUT / "tests" / re.sub(r"[^\w.-]", "_", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.fixture(params=workloads.WORKLOADS)
def tiny(request, tmp_path):
    return workloads.build(request.param, 3, tmp_path, workloads.TINY)


def test_smoke_end_to_end(tiny):
    ledger = run.Ledger()
    metrics, detail = run.end_to_end(cli, tiny, 0.0, ledger)
    assert ledger.failures == []
    assert detail["rounds"] == run.rounds_for(tiny, 0.0) == run.MIN_ROUNDS
    assert ledger.attempted == len(tiny.ops) * detail["rounds"]
    assert set(metrics) == {"setup_s", "points_per_s", "op_s.p50", "op_s.tail", "peak_rss_mb"}
    assert all(value > 0 for value, _, _ in metrics.values())
    # one reference sample set before the first operation and after each one
    assert detail["reference_s"]["samples"] == run.REF_REPEATS * (ledger.attempted + 1)
    # the timing metrics are the wall-clock figures times one scale factor
    scale = metrics["op_s.p50"][0] / detail["wall"]["op_s.p50"]
    assert metrics["op_s.tail"][0] == pytest.approx(scale * detail["wall"]["op_s.tail"])
    assert metrics["points_per_s"][0] == pytest.approx(detail["wall"]["points_per_s"] / scale)


def test_rounds_depend_only_on_workload_and_seconds(tiny):
    assert run.rounds_for(tiny, 10 * tiny.nominal_round_s) == 10
    assert run.rounds_for(tiny, 0.4 * tiny.nominal_round_s) == run.MIN_ROUNDS


def program_attributes() -> dict:
    """Every attribute of the program's modules and of the classes they
    define, keyed by (owner name, attribute)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("bornbundle"):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(f"{name}.{attr}", a): v for a, v in vars(value).items()})
    return out


def test_traced_run_matches_untraced_and_restores(tiny, tmp_path):
    before = program_attributes()
    ledger = run.Ledger()
    metrics, detail = run.traced_run(cli, tiny, ledger, tmp_path / "spans.json")
    # every traced operation was compared byte for byte with an untraced one
    assert ledger.failures == []
    assert ledger.attempted == 2 * len(tiny.ops)
    assert metrics["jets.Jet.created"][0] > 0
    assert 0.99 < metrics["trace.coverage"][0] <= 1.0
    assert (tmp_path / "spans.json").stat().st_size > 0
    after = program_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_op_gives_identical_bytes(tmp_path):
    op = workloads.build("theorem-ndim", 5, tmp_path, workloads.TINY).ops[0]
    plain = run.execute(cli, op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.execute(cli, op)
    finally:
        tracer.remove()
    assert plain.error is None and traced.error is None
    assert traced.stdout == plain.stdout
    assert tracer.spans and tracer.jets_created > 0


def test_remove_restores_every_patched_attribute():
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    tracer.remove()
    owners = {type(owner).__name__ for owner, _, _ in patched}
    assert {"module", "type"} <= owners
    names = {getattr(owner, "__name__", "") + "." + attr for owner, attr, _ in patched}
    # re-exports are patched where they are looked up, not only where defined
    assert {"bornbundle.bundle.born_jets", "bornbundle.integrability.born_jets",
            "bornbundle.cli.born_at", "ChartMap.jets", "Jet.__init__"} <= names
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_counts_repeat_exactly(tmp_path):
    wl = workloads.build("chart-witness", 4, tmp_path, workloads.TINY)
    first, second = ({k: v for k, (v, _, _) in
                      run.traced_run(cli, wl, run.Ledger(), tmp_path / f"s{i}.json")[0].items()
                      if k.endswith(".calls") or k == "jets.Jet.created"} for i in range(2))
    assert first == second


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345, -3])
@pytest.mark.parametrize("family", specgen.FAMILIES)
@pytest.mark.parametrize("n", workloads.GENERATED_DIMS)
def test_generated_specs_pass_precheck(seed, family, n):
    assert specgen.precheck(specgen.make_spec(family, n, seed)) is None


def test_precheck_rejects_a_spec_that_does_not_match_its_family():
    lc = specgen.make_spec("lc", 3, 0)
    mislabelled = specgen.Generated("potential", lc.doc, lc.metric, None)
    assert "expected flat" in specgen.precheck(mislabelled)
    flat = specgen.make_spec("twisted", 3, 0)
    assert "expected a curved" in specgen.precheck(
        specgen.Generated("lc", flat.doc, flat.metric, flat.gamma))


def test_generated_specs_depend_only_on_seed():
    assert specgen.make_spec("twisted", 4, 9).doc == specgen.make_spec("twisted", 4, 9).doc
    assert specgen.make_spec("twisted", 4, 9).doc != specgen.make_spec("twisted", 4, 10).doc


def test_tail_has_ten_samples_beyond_it():
    times = list(np.arange(1.0, 25.0))
    value, name = run.tail(times)
    assert sum(t > value for t in times) == 10 and name == "p58.3"
    assert run.tail(list(np.arange(1.0, 22.0)))[0] == 11.0
    # too few samples for ten beyond the median: the upper median
    assert run.tail(list(np.arange(1.0, 13.0)))[0] == 7.0
