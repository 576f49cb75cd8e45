"""Adam with layer-wise decreasing learning rates and the slanted
triangular schedule.

Parameters are grouped by depth: embeddings at 0, block i at i+1, heads
and task classifiers at L+1. `build_optimizer` trains group l at
`StlrSchedule.rate(step) * xi^(L+1-l)`: adjacent depths differ by exactly
xi, and xi=1 (pre-training) is plain Adam. `train_step`, the step of
`training.train_steps`, trains what its loss reaches: Adam skips a tensor
that got no gradient. A step that diverges raises `ad.NumericalError`
and changes nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import depth_of, named_tensors

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's moment decays and epsilon


@dataclass
class ParameterGroup:
    depth: int
    params: list


@dataclass
class LayerwiseLrSchedule:
    # never read: the peak rate comes from StlrSchedule.peak_lr; the field
    # stays because acceptance test_2 constructs it
    base_lr: float = 2e-5
    decay_factor: float = 0.95      # xi, in (0, 1]

    def __post_init__(self):
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")

    def multiplier(self, depth: int, top_depth: int) -> float:
        return self.decay_factor ** (top_depth - depth)


@dataclass
class StlrSchedule:
    total_steps: int
    peak_lr: float = 2e-5
    warmup_proportion: float = 0.1

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0.0 < self.warmup_proportion < 1.0:
            raise ValueError("warmup proportion must be in (0, 1)")

    def rate(self, step: int) -> float:
        """Piecewise-linear: 0 -> peak over the warm-up, peak -> 0 after."""
        total, warmup = self.total_steps, self.warmup_proportion
        cut = warmup * total
        if step > total:
            warnings.warn(f"step {step} past total_steps {total}; rate 0")
            return 0.0
        if step <= cut:
            return self.peak_lr * step / cut
        return self.peak_lr * (total - step) / ((1.0 - warmup) * total)


def group_parameters(model, extra_heads=None) -> list[ParameterGroup]:
    """Partition `named_tensors(model, extra_heads)` by `depth_of`; task
    classifiers and fraction combiners join the heads at depth L+1."""
    L = model.config.n_layers
    groups = {d: [] for d in range(L + 2)}
    for name, p in named_tensors(model, extra_heads or ()).items():
        groups[depth_of(name, L)].append(p)
    return [ParameterGroup(depth=d, params=groups[d]) for d in sorted(groups)]


def effective_rate(group: ParameterGroup, layerwise: LayerwiseLrSchedule,
                   schedule: StlrSchedule, step: int, top_depth: int) -> float:
    return schedule.rate(step) * layerwise.multiplier(group.depth, top_depth)


class Adam:
    """Standard Adam with bias correction; one rate per parameter group.
    A tensor with no gradient (the loss did not reach it) is skipped, its
    moments included, as the heads of tasks not in a batch are."""

    def __init__(self, groups: list[ParameterGroup],
                 clip_norm: float | None = None):
        self.groups = groups
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {id(p): np.zeros_like(p.data)
                  for g in groups for p in g.params}
        self.v = {id(p): np.zeros_like(p.data)
                  for g in groups for p in g.params}

    def step(self, rates: dict[int, float]):
        """Apply one update; `rates` maps group depth -> learning rate. A
        NaN or inf gradient raises NumericalError before anything moves:
        no parameter, moment or `t` changes."""
        for g in self.groups:
            for p in g.params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    kind = "NaN" if np.isnan(p.grad).any() else "inf"
                    raise ad.NumericalError(
                        f"{kind} gradient in parameter {p.name or id(p)}")
        if self.clip_norm is not None:
            self._clip()
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for g in self.groups:
            lr = rates[g.depth]
            for p in g.params:
                grad = p.grad
                if grad is None:
                    continue
                # lr * (m / c1) / (sqrt(v / c2) + eps), built in place
                m = self.m[id(p)]
                v = self.v[id(p)]
                buf = np.multiply(1.0 - BETA1, grad)
                m *= BETA1
                m += buf
                np.multiply(1.0 - BETA2, grad, out=buf)
                buf *= grad
                v *= BETA2
                v += buf
                np.divide(v, c2, out=buf)
                np.sqrt(buf, out=buf)
                buf += EPS
                upd = np.divide(m, c1)
                upd *= lr
                upd /= buf
                p.data -= upd.astype(p.data.dtype, copy=False)

    def _clip(self):
        total = 0.0
        for g in self.groups:
            for p in g.params:
                if p.grad is not None:
                    g64 = p.grad.astype(np.float64)
                    total += float((g64 * g64).sum())
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for g in self.groups:     # out of place: a grad may be shared
                for p in g.params:
                    if p.grad is not None:
                        p.grad = np.multiply(p.grad, scale,
                                             out=np.empty_like(p.grad))

    def zero_grad(self):
        for g in self.groups:
            for p in g.params:
                p.grad = None


def build_optimizer(model, heads, schedule, decay_factor=1.0, clip_norm=None):
    """Adam over `group_parameters(model, heads)`, and `rates_at(step)`,
    which maps each group's depth to its `effective_rate`."""
    groups = group_parameters(model, heads)
    lw = LayerwiseLrSchedule(decay_factor=decay_factor)
    top = max(g.depth for g in groups)
    return (Adam(groups, clip_norm=clip_norm),
            lambda step: {g.depth: effective_rate(g, lw, schedule, step, top)
                          for g in groups})


def train_step(opt: Adam, loss_fn, rates: dict[int, float]):
    """Forward on a tape, backward, one `Adam.step(rates)`; only the
    tensors the loss reaches get a gradient, so only they train.

    `loss_fn()` runs the forward pass and returns a tuple whose first item
    is the scalar loss; the tuple is returned. A non-finite loss, softmax
    input or gradient raises `ad.NumericalError`, with no parameter
    updated. The previous step's gradients are released before the forward
    pass, so it does not hold them. `backward` consumes the tape, freeing
    each op's saved activations once its rule has run, so a returned
    Tensor keeps none of the step's graph.
    """
    opt.zero_grad()
    with ad.Tape() as tape:
        out = loss_fn()
    loss = out[0]
    if not np.isfinite(loss.data):
        raise ad.NumericalError(
            f"non-finite loss {float(loss.data)} at step {opt.t + 1}")
    ad.backward(tape, loss)
    opt.step(rates)
    return out
