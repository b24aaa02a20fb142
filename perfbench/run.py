"""Benchmark of szegolab: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload count-scan --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (``src/szegolab`` is imported from
there).  The run's last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics by name with their units.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run and writes its spans to ``perfbench/out/``.

The loop runs in a child process with one BLAS thread and SZEGOLAB_THREADS
unset.  Set-up time is the time from starting a fresh interpreter until it
has imported szegolab and generated its first round of inputs.  An untraced
run takes SETUP_SAMPLES of them and reports the median: the measured run's
own start, and fresh processes that the loop starts between rounds, spread
evenly over ``--seconds`` (the loop stands still while one runs), so the
samples see the same changes in machine speed as the task times.
Workload and metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
SETUP_SAMPLES = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: runs in the child process.

def worker(args) -> int:
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import szegolab
    if not os.path.abspath(szegolab.__file__).startswith(src + os.sep):
        print(f"szegolab was imported from {szegolab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    generate, run, digest, trace_rounds = WORKLOADS[args.workload]
    tasks = generate(args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records = []          # (task, digested output or None, error or None, seconds)
    digest_s = 0.0
    setups = []           # set-up times of fresh processes started between rounds
    setup_gap = args.seconds / (SETUP_SAMPLES - 1)
    paused_s = 0.0
    prefix = None
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        for task in tasks:
            t0 = time.perf_counter()
            try:
                out = run(task) if tracer is None else tracer.span("task", run, task)
                err = None
            except Exception:  # a program error fails this task; the run goes on
                out, err = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if out is not None:
                out = digest(out)
            digest_s += time.perf_counter() - t1
            records.append((task, out, err, t1 - t0))
        rounds += 1
        if tracer is not None and rounds == trace_rounds:
            prefix = (tracer.snapshot(), len(records))
            tracer.keep_spans = False
        elapsed = time.perf_counter() - loop_start - paused_s
        while tracer is None and len(setups) < SETUP_SAMPLES - 1 and elapsed >= len(setups) * setup_gap:
            t0 = time.perf_counter()
            setups.append(time_setup(args))
            paused_s += time.perf_counter() - t0
        if elapsed >= args.seconds and (tracer is None or rounds >= trace_rounds):
            break
        tasks = generate(args.seed, rounds)
    loop_s = time.perf_counter() - loop_start - paused_s - digest_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    import oracles
    check = oracles.CHECKS[args.workload]
    failed = 0
    unexpected = []
    for task, out, err, _ in records:
        fails = [err] if err is not None else check(task, out)
        if fails:
            failed += 1
            # A known-fault task may fail only by the known fault.
            if not task.get("known_fault") or err is not None or not oracles.KNOWN_FAULTS[args.workload](task, out):
                unexpected.append((task, fails))
    for task, fails in unexpected[:5]:
        print(f"FAILED {task.get('kind')} task {task}:", file=sys.stderr)
        for line in fails[:5]:
            print(f"    {line}", file=sys.stderr)
    ambiguous = sum(oracles.ambiguous_rows(t) for t, *_ in records if t["kind"] in ("count", "golden"))
    times = [dt for *_, dt in records]
    e2e = {
        "task_s.p50": statistics.median(times),
        "task_s.p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "tasks_per_s": len(records) / loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"rounds {rounds}, tasks {len(records)}, loop {loop_s:.3f} s, "
          f"ambiguous count rows {ambiguous}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": len(records), "failed": failed}
    if tracer is None:
        result["metrics"] = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
        result["setup_samples_s"] = setups
    else:
        from tracer import per_layer_metrics
        totals, prefix_tasks = prefix
        result["metrics"] = per_layer_metrics(totals, prefix_tasks, BENCH["per_layer"])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "prefix_tasks": prefix_tasks,
                       "traced_e2e": e2e, "tasks": len(records),
                       "prefix_totals": totals, "run_totals": tracer.snapshot(),
                       "spans_fields": ["id", "parent", "name", "start_s", "duration_s"],
                       "spans": tracer.spans}, fh)
        print(f"trace written to {os.path.relpath(path)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Launcher: measures set-up in fresh processes and runs the worker.

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SZEGOLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, setup_only: bool):
    """Start a worker; return (seconds until it is ready, the rest of its stdout, exit code).

    With ``setup_only`` the worker stops once it is ready."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if first.strip() != "ready":
        return None, first + rest, code or 1
    return ready_s, rest, code


def time_setup(args) -> float:
    ready_s, out, code = spawn(args, setup_only=True)
    if ready_s is None or code != 0:
        raise RuntimeError(f"set-up sample failed (exit {code}):\n{out}")
    return ready_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not os.path.isfile(os.path.join("src", "szegolab", "__init__.py")):
        print("run from the root of a szegolab source tree: src/szegolab not found", file=sys.stderr)
        return 2
    ready_s, out, code = spawn(args, setup_only=False)
    if ready_s is None or code != 0:
        print(f"worker failed (exit {code}):\n{out}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups = [ready_s] + result.pop("setup_samples_s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<45} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
