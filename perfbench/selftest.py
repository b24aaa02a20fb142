"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute and a half.  It
1. runs one round of every workload in-process and checks that every output
   passes its checks, except the known-fault trace task, which must fail;
2. perturbs real outputs and checks that each check rejects them;
3. runs the benchmark command on every workload for one round, untraced and
   traced (twice), and checks the shape of its result, the failed share and
   that the traced count metrics repeat exactly;
4. runs the command in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.
Prints one PASS/FAIL line per check; exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

SEED = 7
RESULTS = []


def expect(label: str, ok: bool, detail: str = ""):
    RESULTS.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail and not ok else ""))


def one_round(name):
    generate, run, digest, _ = workloads.WORKLOADS[name]
    return [(task, digest(run(task))) for task in generate(SEED, 0)]


def rejects(label, check, task, out):
    fails = check(task, out)
    expect(f"rejects {label}", bool(fails), "check accepted a perturbed output")


def scan_rows(rows, index, **changes):
    rows = list(rows)
    rows[index] = dataclasses.replace(rows[index], **changes)
    return rows


def test_count():
    done = one_round("count-scan")
    kinds = {(t["kind"], t["t2"] == workloads.norm_bound_one(t["r"])) for t, _ in done}
    expect("count round has golden, norm-bound and interior tasks",
           {("golden", True), ("count", True), ("count", False)} <= kinds, str(kinds))
    for task, rows in done:
        fails = oracles.check_count(task, rows)
        expect(f"count {task.get('table', '')} r={task['r']:.4f} passes", not fails, "; ".join(fails))
    golden = next((t, r) for t, r in done if t["kind"] == "golden")
    seeded = next((t, r) for t, r in done if t["kind"] == "count")
    t, rows = golden
    rejects("golden count + 1", oracles.check_count, t, scan_rows(rows, 3, count_n=rows[3].count_n + 1))
    rejects("golden predicted + 0.01", oracles.check_count, t,
            scan_rows(rows, 2, rhs_asymptotic_count=rows[2].rhs_asymptotic_count + 0.01))
    t, rows = seeded
    rejects("seeded count - 1", oracles.check_count, t, scan_rows(rows, 6, count_n=rows[6].count_n - 1))
    rejects("count limit * (1 + 1e-9)", oracles.check_count, t,
            scan_rows(rows, 0, rhs_limit=rows[0].rhs_limit * (1 + 1e-9)))
    rejects("a missing row", oracles.check_count, t, rows[:-1])


def test_trace():
    done = one_round("trace-scan")
    kinds = {t["phi"][0] for t, _ in done}
    expect("trace round has pow and poly tasks", kinds == {"pow", "poly"}, str(kinds))
    for task, rows in done:
        fails = oracles.check_trace(task, rows)
        if task.get("known_fault"):
            expect("pow:0.05 task fails its trace check only by falling short",
                   bool(fails) and oracles.truncated_trace_only(task, rows), "; ".join(fails))
            fault = (task, rows)
        else:
            expect(f"trace {task['phi']} r={task['r']:.4f} passes", not fails, "; ".join(fails))
    t, rows = fault
    for label, changed in (("limit * (1 + 1e-10)", scan_rows(rows, 2, rhs_limit=rows[2].rhs_limit * (1 + 1e-10))),
                           ("trace above the sum", scan_rows(rows, 3, lhs_scaled=rows[3].lhs_scaled * (1 + 1e-2))),
                           ("trace 2% short", scan_rows(rows, 5, lhs_scaled=rows[5].lhs_scaled * 0.98)),
                           ("a missing row", rows[:-1])):
        expect(f"known fault rejects {label}", not oracles.truncated_trace_only(t, changed),
               "accepted as the known truncation")
    t, rows = next((t, r) for t, r in done if t["phi"][0] == "poly")
    rejects("trace * (1 + 1e-7)", oracles.check_trace, t, scan_rows(rows, 4, lhs_scaled=rows[4].lhs_scaled * (1 + 1e-7)))
    rejects("trace limit * (1 + 1e-10)", oracles.check_trace, t,
            scan_rows(rows, 1, rhs_limit=rows[1].rhs_limit * (1 + 1e-10)))


def test_fourier():
    done = one_round("fourier-spectrum")
    expect("fourier round has K = 1 and K = 2", {len(t["fourier"]) - 1 for t, _ in done} == {1, 2})
    for task, out in done:
        fails = oracles.check_fourier(task, out)
        expect(f"fourier K={len(task['fourier']) - 1} alpha={task['alpha']:.4g} passes", not fails, "; ".join(fails))
    task, out = done[0]

    def changed(**kw):
        return {**out, **kw}

    band = dict(out["band"])
    band[1] = band[1] * (1 + 1e-8)
    rejects("matrix band * (1 + 1e-8)", oracles.check_fourier, task, changed(band=band))
    rejects("entry outside the band", oracles.check_fourier, task, changed(outside_band=1e-3))
    eig = np.array(out["eig"])
    eig[len(eig) // 3] += 1e-8 * eig[0]
    rejects("one eigenvalue moved by 1e-8 of the top", oracles.check_fourier, task, changed(eig=eig))
    rejects("eigenvalues * (1 + 1e-8)", oracles.check_fourier, task, changed(eig=out["eig"] * (1 + 1e-8)))
    rejects("composition trace m=3 * (1 + 1e-5)", oracles.check_fourier, task,
            changed(comp={2: out["comp"][2], 3: out["comp"][3] * (1 + 1e-5)}))
    rejects("count + 1", oracles.check_fourier, task, changed(count=out["count"] + 1))
    rejects("power trace * (1 + 1e-8)", oracles.check_fourier, task, changed(power_trace=out["power_trace"] * (1 + 1e-8)))
    rejects("szego_rhs * (1 + 1e-8)", oracles.check_fourier, task, changed(rhs=out["rhs"] * (1 + 1e-8)))


def test_chart():
    done = one_round("chart-limits")
    expect("chart round has both curves and all four charts",
           {t["curve"] for t, _ in done} == {"radial", "arc"}
           and {t["chart"] for t, _ in done} == set(workloads.CHART_NAMES))
    for task, out in done:
        fails = oracles.check_chart(task, out)
        expect(f"chart {task['curve']} + {task['chart']} d={task['G'].shape[0]} passes", not fails, "; ".join(fails))
    task, out = next((t, o) for t, o in done if t["chart"] == "sphere3")

    def changed(**kw):
        return {**out, **kw}

    rejects("szego_rhs_chart * (1 + 1e-5)", oracles.check_chart, task, changed(rhs=out["rhs"] * (1 + 1e-5)))
    rejects("curve tagged isotropic", oracles.check_chart, task,
            changed(curve_cls=[dataclasses.replace(out["curve_cls"][0], tag="isotropic")]))
    rejects("sphere3 tagged neither", oracles.check_chart, task,
            changed(chart_cls=[dataclasses.replace(out["chart_cls"][0], tag="neither")]))
    rejects("sphere3 lambda 1.001", oracles.check_chart, task,
            changed(chart_cls=[dataclasses.replace(out["chart_cls"][0], lambda_spectrum=(1.001,))]))
    d = list(out["dets"])
    d[1] *= 1 + 1e-8
    rejects("one determinant * (1 + 1e-8)", oracles.check_chart, task, changed(dets=tuple(d)))
    rejects("all determinants * (1 + 1e-8)", oracles.check_chart, task,
            changed(dets=tuple(x * (1 + 1e-8) for x in out["dets"])))


def run_command(cwd, workload, trace, seed=SEED):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_command():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        proc = run_command(".", name, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        expect(f"{name}: untraced run reports every end-to-end metric",
               set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
               and set(result["metrics"]) == e2e and all(v["value"] > 0 for v in result["metrics"].values()),
               proc.stderr[-2000:])
        share = result.get("failed", -1) / max(result.get("attempted", 1), 1)
        round0 = workloads.WORKLOADS[name][0](SEED, 0)
        want = sum(bool(t.get("known_fault")) for t in round0) / len(round0)
        expect(f"{name}: failed share {share} is the known-fault share {want}", math.isclose(share, want))
        traced = [run_command(".", name, 1) for _ in range(2)]
        metrics = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] if p.returncode == 0 else {}
                   for p in traced]
        expect(f"{name}: traced run reports every per-layer metric", set(metrics[0]) == layer)
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] != "s"} for m in metrics]
        expect(f"{name}: traced count metrics repeat exactly", counts[0] == counts[1] and bool(counts[0]))


def test_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run_command(bare, "count-scan", 0)
    expect("fails without a source tree", proc.returncode != 0 and "{" not in proc.stdout, proc.stdout)
    shutil.rmtree(bare)


def main() -> int:
    for test in (test_count, test_trace, test_fourier, test_chart, test_command, test_bare_directory):
        test()
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
