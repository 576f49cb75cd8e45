"""Spans around calls into bertfit's public functions, recorded from outside.

Nothing under the package is edited: the benchmark replaces module
attributes (and one method) with timing wrappers for the duration of a run
and puts the originals back afterwards. Functions that other bertfit
modules imported by name are replaced in every module that holds them, so
`training.encode_batch` and `model.encode_batch` are both traced.

A span is (name, start, end, parent). Spans stay in memory and are
aggregated when the run ends. A span's self time is its duration minus
the part of it covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index into Tracer.spans, -1 for a root
    counts: dict | None = None  # work counted at this boundary

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread.

    While `enabled` is false, wrapped functions run without recording, so
    one process can alternate traced and untraced steps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = True

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of "
                               f"order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(tracer, idx, args, kwargs, out)`
        runs after the span closes, so its cost is not in the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer, idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def ancestors(spans, idx):
    """Names of the spans enclosing span `idx`, innermost first."""
    out = []
    p = spans[idx].parent
    while p >= 0:
        out.append(spans[p].name)
        p = spans[p].parent
    return out


class Patcher:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def replace_function(self, fn, replacement, package="bertfit"):
        """Point every `package.*` module attribute that is `fn` at
        `replacement`; returns how many were replaced."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or
                                   modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.set(mod, attr, replacement)
                    n += 1
        return n

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class StepClock:
    """Marks training-step boundaries from outside the training loop.

    A step ends when `Adam.step` returns; it starts where the previous one
    ended (or at `begin()`). Time spent in `training.evaluate` inside the
    training phase (validation) is recorded separately and subtracted from
    the step it falls in. Installed in traced and untraced runs alike: it
    costs one clock read per step and two per validation round.
    `on_step(n)` is called after step n ends.
    """

    def __init__(self, clock=time.perf_counter, on_step=None):
        self.clock = clock
        self.on_step = on_step
        self.t_begin = None
        self.ends: list[float] = []
        self.evals: list[tuple] = []

    def begin(self):
        self.t_begin = self.clock()

    def install(self, patcher, adam_cls, training_mod):
        clock_self = self
        step = adam_cls.step

        @functools.wraps(step)
        def clocked_step(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            clock_self.ends.append(clock_self.clock())
            if clock_self.on_step is not None:
                clock_self.on_step(len(clock_self.ends))
            return out

        evaluate = training_mod.evaluate

        @functools.wraps(evaluate)
        def clocked_evaluate(*args, **kwargs):
            t0 = clock_self.clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                clock_self.evals.append((t0, clock_self.clock()))

        patcher.set(adam_cls, "step", clocked_step)
        patcher.replace_function(evaluate, clocked_evaluate)

    def step_durations(self):
        """Every completed step, validation inside it excluded."""
        starts = [self.t_begin] + self.ends[:-1]
        return [(b - a) - covered(self.evals, a, b)
                for a, b in zip(starts, self.ends)]

    def eval_durations(self):
        return tuple(b - a for a, b in self.evals)

    def eval_rates(self, docs_per_eval):
        """Docs/s of each validation round of `docs_per_eval` documents."""
        return [docs_per_eval / d for d in self.eval_durations()]
