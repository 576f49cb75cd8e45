"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from benchlib import stats  # noqa: E402
from benchlib.tracing import (Patcher, Span, StepClock, Tracer,  # noqa: E402
                              covered, self_times)

WORKLOADS = ("finetune-short", "pretrain-readme", "longdoc-hier")


# -- percentiles and sample counts -------------------------------------------

def test_percentile_interpolates_like_numpy_linear():
    assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 25) == pytest.approx(1.75)
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_timing_metrics_carry_sample_counts():
    few = stats.timing_metrics("step_ms", list(range(99)), "ms")
    assert [(m.name, m.n) for m in few] == [("step_ms_p50", 99)]
    many = stats.timing_metrics("step_ms", list(range(100)), "ms")
    assert [(m.name, m.n) for m in many] == [("step_ms_p50", 100),
                                             ("step_ms_p90", 100)]
    assert many[1].value == pytest.approx(89.1)
    # p90 is the only tail reported, however many samples there are
    lots = stats.timing_metrics("step_ms", list(range(10000)), "ms")
    assert [m.name for m in lots] == ["step_ms_p50", "step_ms_p90"]


# -- metric names -------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "autodiff.fwd_ms.matmul",
                                  "0x", "a-b_c.d", "x" * 64])
def test_metric_name_pattern_accepts(name):
    assert stats.check_name(name) == name


@pytest.mark.parametrize("name", ["", ".x", "_x", "a b", "a/b", "ms%",
                                  "x" * 65, "naïve"])
def test_metric_name_pattern_rejects(name):
    with pytest.raises(ValueError):
        stats.check_name(name)


def test_benchmark_json_names_and_units_are_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        stats.check_name(name)
    for m in spec["end_to_end"] + spec["per_layer"]:
        stats.check_unit(m["unit"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- spans and self time ------------------------------------------------------

def test_covered_is_the_clipped_union():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_what_children_cover():
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 3.0, 0),
             Span("b", 2.0, 5.0, 0), Span("c", 8.0, 9.0, 0),
             Span("leaf", 1.5, 2.5, 1)]
    assert self_times(spans) == [pytest.approx(5.0), pytest.approx(1.0),
                                 pytest.approx(3.0), pytest.approx(1.0),
                                 pytest.approx(1.0)]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_parents_and_counts():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: x + 1,
                        count=lambda tr, i, a, k, out: setattr(
                            tr.spans[i], "counts", {"x": a[0]}))
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert [s.counts for s in tracer.spans[1:]] == [{"x": 1}, {"x": 2}]
    # outer: 1..6 (5 ticks), inner spans 2..3 and 4..5
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert_span_tree(tracer.spans)


def assert_span_tree(spans):
    """Every span is closed, and lies inside its parent."""
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def test_installed_spans_nest_around_bertfit_calls():
    import numpy as np
    import run as bench_run
    from benchlib import instrument
    bf = bench_run.import_bertfit()
    ad = bf["autodiff"]
    tracer, patcher = Tracer(), Patcher()
    instrument.install(tracer, patcher, bf)
    try:
        with tracer.span("phase.train"):
            x = ad.Tensor(np.ones((2, 3)))
            w = ad.Tensor(np.ones((3, 3)))
            with ad.Tape() as tape:
                loss = ad.tsum(ad.add(ad.gelu(ad.matmul(x, w)), x))
            ad.backward(tape, loss, parameters=[w])
    finally:
        patcher.restore()
    assert [s.name for s in tracer.spans] == [
        "phase.train", "autodiff.matmul", "autodiff.gelu", "autodiff.add",
        "autodiff.tsum", "autodiff.backward"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0, 0, 0]
    assert_span_tree(tracer.spans)
    assert [instrument.op_kind(s.name) for s in tracer.spans[1:5]] == [
        "matmul", "gelu", "add", "other"]


def test_patcher_restores_every_replaced_attribute():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bertfit import autodiff, model, pretraining, training
    original = (autodiff.matmul, training.encode_batch, model.encode_batch,
                pretraining.encode_batch)
    patcher = Patcher()
    # defined in model, imported by name into training and pretraining
    assert patcher.replace_function(model.encode_batch, lambda *a: None) == 3
    assert training.encode_batch is not original[1]
    patcher.set(autodiff, "matmul", None)
    patcher.restore()
    assert (autodiff.matmul, training.encode_batch, model.encode_batch,
            pretraining.encode_batch) == original


def test_step_clock_subtracts_validation():
    clock = StepClock(clock=FakeClock())
    clock.begin()                          # t=1
    clock.ends.append(clock.clock())       # step 1 ends at 2
    clock.evals.append((3.0, 5.0))         # validation inside step 2
    clock.ends.append(6.0)
    assert clock.step_durations() == [1.0, 2.0]


def test_longdoc_check_catches_wrong_pooling(tmp_path):
    # max pooling in place of attention pooling keeps every logit finite;
    # the comparison with the reference forward pass must still fail
    import run as bench_run
    from benchlib import workloads
    bf = bench_run.import_bertfit()
    ad = bf["autodiff"]

    def max_pool(cls_vectors, combiner, return_weights=False):
        return ad.tmax(cls_vectors, axis=0)

    patcher = Patcher()
    patcher.replace_function(bf["longtext"].combine, max_pool)
    try:
        out = workloads.longdoc_hier(
            workloads.Run(bf, False, str(tmp_path)), 3, 2, "tiny")
    finally:
        patcher.restore()
    assert out.checks["finite_losses"]
    assert out.checks["docs_ok"] < out.checks["docs_scored"]
    assert out.failed > 0


# -- the benchmark end to end, at tiny size ----------------------------------

def run_bench(workload, trace, cwd=ROOT, seconds="2"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    losses = next(json.loads(line[len("# losses "):]) for line in lines
                  if line.startswith("# losses "))
    return json.loads(lines[-1]), losses


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_the_arithmetic(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plain, plain_losses = parsed(run_bench(workload, 0))
    traced, traced_losses = parsed(run_bench(workload, 1))
    assert plain_losses and plain_losses == traced_losses
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert plain["attempted"] >= 1
    for m in spec["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("finetune-short", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no bertfit sources" in proc.stderr


def test_pretrain_refuses_when_memory_is_short():
    # run.py with MemAvailable reported as 100 MiB: refused before set-up
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "from benchlib import env\n"
        "env.mem_available_mb = lambda: 100.0\n"
        f"sys.argv = ['run.py', '--workload', 'pretrain-readme', '--seed',"
        f" '1', '--seconds', '20']\n"
        f"runpy.run_path({os.path.join(BENCH, 'run.py')!r},"
        f" run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stdout.strip() == ""
    assert "short by 4200 MiB" in proc.stderr
