"""The benchmark's program calls still work and still pass its own oracles.

``perfbench/workloads.py`` calls the library the way the benchmark does
(including ``SpectrumTruncation(by_index=...)`` by keyword), and
``perfbench/oracles.py`` checks the outputs against scipy and closed forms.
One task of each workload runs here, with no timing bound, so a refactor
that breaks a call or an output the benchmark relies on fails Tier-1.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # Imported in place, without writing bytecode into the benchmark's tree.
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import oracles
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return workloads, oracles


@pytest.mark.parametrize("name", ["count-scan", "trace-scan", "fourier-spectrum", "chart-limits"])
def test_first_task_passes_oracle(bench, name):
    workloads, oracles = bench
    generate, run, digest, _ = workloads.WORKLOADS[name]
    task = next(t for t in generate(0, 0) if not t.get("known_fault"))
    assert oracles.CHECKS[name](task, digest(run(task))) == []
