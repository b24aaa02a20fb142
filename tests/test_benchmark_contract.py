"""The benchmark's program calls still work and still pass its own oracles.

``perfbench/workloads.py`` calls the library the way the benchmark does
(including ``SpectrumTruncation(by_index=...)`` by keyword), and
``perfbench/oracles.py`` checks the outputs against scipy and closed forms.
One task of each workload runs here, with no timing bound, so a refactor
that breaks a call or an output the benchmark relies on fails Tier-1.  The
same tasks also run under ``perfbench/tracer.py``, as ``run.py --trace 1``
runs them, so a module or name the tracer wraps cannot go missing unseen.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ["count-scan", "trace-scan", "fourier-spectrum", "chart-limits"]


@pytest.fixture(scope="module")
def bench():
    # Imported in place, without writing bytecode into the benchmark's tree.
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import oracles
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return workloads, oracles, tracer


def first_task(workloads, name):
    generate, run, digest, _ = workloads.WORKLOADS[name]
    return run, digest, next(t for t in generate(0, 0) if not t.get("known_fault"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_task_passes_oracle(bench, name):
    workloads, oracles, _ = bench
    run, digest, task = first_task(workloads, name)
    assert oracles.CHECKS[name](task, digest(run(task))) == []


def test_fault_task_passes_oracle(bench):
    # The small-p trace task the benchmark keeps as a known fault: its
    # windowed traces now pass the oracle unchanged.
    workloads, oracles, _ = bench
    task = dict(workloads.FAULT_TASK)
    assert oracles.check_trace(task, workloads.run_scan(task)) == []


def test_traced_tasks_give_every_per_layer_metric(bench):
    workloads, _, tracer = bench
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = tracer.Tracer()
    spans.install()
    try:
        for name in WORKLOADS:
            run, _, task = first_task(workloads, name)
            spans.span("task", run, task)
    finally:
        spans.uninstall()
    assert spans.totals["task"]["calls"] == len(WORKLOADS)
    assert len(spans.totals) > 1  # the library's own functions were wrapped
    metrics = tracer.per_layer_metrics(spans.snapshot(), len(WORKLOADS), per_layer)
    assert set(metrics) == {m["name"] for m in per_layer}
    assert all(math.isfinite(v["value"]) for v in metrics.values())
