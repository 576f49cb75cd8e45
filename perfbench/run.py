#!/usr/bin/env python3
"""bertfit benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload finetune-short --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; the package is imported from `src/`
next to this directory, never from an installed copy. With `--trace 0`
the last line of standard output is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
Lines before it, starting with '#', give the environment, the output
checks and every metric with its unit and sample count. `--workload all`
runs each workload untraced and traced in its own fresh process, one after
another, and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from benchlib import env  # noqa: E402  (imports no numpy)

BERTFIT_MODULES = ("autodiff", "checkpoint", "config", "data", "longtext",
                   "model", "optim", "pretraining", "rng", "tokenizer",
                   "toytask", "training")
WORKLOAD_NAMES = ("finetune-short", "pretrain-readme", "longdoc-hier")
EXIT_NO_SOURCE = 2
EXIT_NO_MEMORY = 3


def import_bertfit():
    """Import bertfit from this checkout's `src/`, or exit."""
    if not os.path.isfile(os.path.join(SRC, "bertfit", "__init__.py")):
        print(f"error: no bertfit sources at {SRC}; run from a checkout "
              f"that has src/bertfit", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, SRC)
    import importlib
    mods = {name: importlib.import_module(f"bertfit.{name}")
            for name in BERTFIT_MODULES}
    origin = os.path.realpath(mods["autodiff"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: bertfit was imported from {origin}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    return mods


def end_to_end(out, stats):
    Metric, median = stats.Metric, stats.median
    steps_ms = [1000.0 * s for s in out.step_s]
    return [
        Metric("setup_s", median(out.setup_s), "s", len(out.setup_s)),
        Metric("step_ms_p50", median(steps_ms), "ms", len(steps_ms)),
        Metric("train_samples_per_s", out.train_samples / out.train_phase_s,
               "1/s", len(steps_ms)),
        Metric("eval_docs_per_s", median(out.eval_rates), "1/s",
               len(out.eval_rates)),
        Metric("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB", 1),
    ]


def informational(out, stats):
    """Reported in the table only: zero on the seed code, not on every
    workload, or too seed-dependent to bound (final_loss on finetune-short
    spreads ~25% across seeds); the output checks guard quality instead."""
    steps_ms = [1000.0 * s for s in out.step_s]
    extra = [m for m in stats.timing_metrics("step_ms", steps_ms, "ms")
             if m.name != "step_ms_p50"]
    extra.append(stats.Metric("final_loss", out.final_loss, "nats",
                              out.n_loss))
    extra.append(stats.Metric("failed_frac", out.failed / out.attempted,
                              "ratio", out.attempted))
    if out.time_to_target_s is not None:
        extra.append(stats.Metric("time_to_target_s", out.time_to_target_s,
                                  "s", out.n_validations))
    return extra


def run_one(args):
    env.pin_blas_threads(1)
    bf = import_bertfit()
    from benchlib import instrument, stats, workloads
    from benchlib.tracing import Patcher

    load_start = env.loadavg()
    record = env.record()
    need = workloads.memory_needed_mb(args.workload, args.size)
    have = record["mem_available_mb"]
    if need and have is not None and have < need:
        print(f"error: {args.workload} needs {need:.0f} MiB available but "
              f"MemAvailable is {have:.0f} MiB (short by {need - have:.0f} "
              f"MiB); refusing rather than swapping. Run workloads one "
              f"after another on an otherwise idle machine.",
              file=sys.stderr)
        sys.exit(EXIT_NO_MEMORY)

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    run = workloads.Run(bf, bool(args.trace), work_dir)
    patcher = Patcher()
    try:
        span_cost = 0.0
        if run.tracer is not None:
            span_cost = instrument.span_cost_seconds()
            instrument.install(run.tracer, patcher, bf)
        try:
            out = workloads.WORKLOADS[args.workload](
                run, args.seed, args.seconds, args.size)
        finally:
            patcher.restore()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    if run.tracer is not None:
        metrics = instrument.per_layer_metrics(run.tracer, out, span_cost)
        shown = metrics
    else:
        metrics = end_to_end(out, stats)
        shown = metrics + informational(out, stats)

    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  loadavg_start=load_start, loadavg_end=env.loadavg())
    print("# env " + json.dumps(record, sort_keys=True))
    print("# checks " + json.dumps(out.checks, sort_keys=True))
    print("# losses " + json.dumps(out.losses))
    for m in shown:
        print(f"# metric {m.name:<30} {m.value:>14.6g} {m.unit:<6} n={m.n}")
    print("# table " + json.dumps([[m.name, m.value, m.unit, m.n]
                                   for m in shown]))
    finite = all(math.isfinite(m.value) for m in metrics)
    result = {
        "correct": out.failed == 0 and finite,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {m.name: {"value": m.value if math.isfinite(m.value)
                             else None, "unit": m.unit} for m in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def parse_child(stdout):
    """(result object, {name: (value, unit, n)}) of a child run."""
    lines = stdout.strip().splitlines()
    table = next(json.loads(line[len("# table "):]) for line in lines
                 if line.startswith("# table "))
    return json.loads(lines[-1]), {row[0]: tuple(row[1:]) for row in table}


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    rows, combined = [], {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} --trace {trace} exited with "
                      f"{proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[trace] = parse_child(proc.stdout)
        (plain, plain_table), (traced, traced_table) = results[0], results[1]
        correct &= plain["correct"] and traced["correct"]
        attempted += plain["attempted"]
        failed += plain["failed"]
        for key, m in plain["metrics"].items():
            combined[f"{name}.{key}"] = m
        for key in ("trace.overhead_frac", "trace.layer_sum_frac"):
            plain_table[key] = traced_table[key]
            combined[f"{name}.{key}"] = traced["metrics"][key]
        rows += [(name, key) + row for key, row in plain_table.items()]
    for name, key, value, unit, n in rows:
        print(f"# {name:<16} {key:<26} {value:>14.6g} {unit:<6} n={n}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time per run on the reference box; "
                         "sizes the work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every workload for self-tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
