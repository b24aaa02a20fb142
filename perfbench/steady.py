"""Steadiness of the end-to-end metrics: two sets of runs of one commit.

    python3 perfbench/steady.py

Run from the repository root.  Each of SETS sets runs the command of
BENCHMARK.json once per seed on every workload of that file, with its
``run_seconds``, one run at a time (set 1 uses seeds 1..SEEDS, set 2 seeds
1001..1000+SEEDS).  For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (quartile distance over the median),
and how far the later set's median is worse than the first set's, both
against the metric's bound.  Raw results go to perfbench/out/steady.json.
Exits 1 if a spread or a shift exceeds its bound or the failed shares of
the runs differ.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "steady.json")
SEEDS = 10
SETS = 2


def run_once(command, workload, seed, seconds) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {}   # workload -> set index -> list of run results
    for s in range(SETS):
        for workload in workloads:
            runs = results.setdefault(workload, {}).setdefault(s, [])
            for i in range(SEEDS):
                runs.append(run_once(bench["command"], workload, 1000 * s + 1 + i, bench["run_seconds"]))
                print(f"set {s + 1} {workload} seed {1000 * s + 1 + i}: "
                      f"{json.dumps(runs[-1]['metrics'])}", file=sys.stderr, flush=True)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    ok = True
    print(f"{SETS} sets x {SEEDS} seeds, run_seconds {bench['run_seconds']}")
    print("| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median [q1, q3] | spread" for s in range(SETS))
        + " | worst shift | verdict |")
    print("|---|---|---|" + "---|---|" * SETS + "---|---|")
    for workload in workloads:
        sets = results[workload]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets.values() for r in runs}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            cells, verdict = [], "steady"
            medians = []
            for s in range(SETS):
                q1, med, q3 = summary([r["metrics"][name]["value"] for r in sets[s]])
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f}")
                if spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3 and verdict == "steady":
                    verdict = "within bound"
            shifts = [((m - medians[0]) if lower else (medians[0] - m)) / medians[0] for m in medians[1:]]
            worst = max(shifts, default=0.0)
            if worst > bound:
                verdict, ok = "SHIFT OVER BOUND", False
            print(f"| {workload} | {name} | {bound} | " + " | ".join(cells) + f" | {worst:+.3f} | {verdict} |")
        if len(shares) > 1:
            ok = False
        print(f"| {workload} | failed share | exact | "
              + ", ".join(str(f) for f in sorted(shares))
              + f" | {'same in every run' if len(shares) == 1 else 'DIFFERENT'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
