"""Multi-task fine-tuning: shared encoder, private per-task classifiers.

Every step draws a single-task batch (proportional to dataset size by
default, or round-robin), computes that task's classification loss, and
updates the shared encoder plus only that task's head. Optional per-task
refinement continues from the multi-task checkpoint at a lower rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .config import TrainingRecipe
from .model import ClassifierHead, EncoderModel
from .optim import DivergedError, train_step
from .rng import Rng
from .training import BatchCursor, batch_logits, finetune, recipe_optimizer


@dataclass
class MixingStrategy:
    kind: str = "proportional"      # proportional | round-robin
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("proportional", "round-robin"):
            raise ValueError(f"unknown mixing kind {self.kind!r}")


@dataclass
class MultiTaskModel:
    encoder: EncoderModel           # shared storage across all tasks
    heads: dict[str, ClassifierHead]

    @classmethod
    def init(cls, encoder: EncoderModel, tasks: dict[str, int],
             feature_width: int, rng: Rng):
        """`tasks` maps task name -> class count."""
        heads = {
            name: ClassifierHead.init(feature_width, n_classes,
                                      rng.derive(i),
                                      dtype=encoder.config.np_dtype,
                                      name=f"task.{name}")
            for i, (name, n_classes) in enumerate(sorted(tasks.items()))}
        return cls(encoder=encoder, heads=heads)


@dataclass
class MultiTaskResult:
    steps_per_task: dict
    history: list
    diverged: bool


def _pick_task(names, sizes, mixing: MixingStrategy, rng: Rng, step: int):
    if mixing.kind == "round-robin":
        return names[step % len(names)]
    total = sum(sizes[n] for n in names)
    r = rng.uniform() * total
    acc = 0.0
    for n in names:
        acc += sizes[n]
        if r < acc:
            return n
    return names[-1]


def multitask_finetune(mt: MultiTaskModel, task_inputs: dict[str, list],
                       recipe: TrainingRecipe,
                       mixing: MixingStrategy | None = None,
                       step_hook=None) -> MultiTaskResult:
    """Joint fine-tuning over >= 2 tasks, one task per batch.

    `task_inputs` maps task name -> prepared train inputs (see
    training.prepare_inputs). Layer-wise decay applies exactly as in
    single-task fine-tuning.
    """
    if len(task_inputs) < 2:
        raise ValueError("multi-task fine-tuning needs at least two tasks")
    if recipe.combiner_kind:
        raise ValueError(
            f"long-text strategy {recipe.long_text!r} is hierarchical; "
            "multi-task fine-tuning has no fraction combiner")
    for name, inputs in task_inputs.items():
        if not inputs:
            raise ValueError(f"task {name!r} has an empty dataset")
    mixing = mixing or MixingStrategy(seed=recipe.seed)
    names = sorted(task_inputs)
    sizes = {n: len(task_inputs[n]) for n in names}
    rng = Rng(recipe.seed)
    mt.encoder.dropout_rng = rng.derive(0xD0)
    task_rng = Rng(mixing.seed).derive(0x7A)
    cursors = {n: BatchCursor(task_inputs[n], rng.derive(0x0E ^ hash_name(n)))
               for n in names}
    opt, rates_at = recipe_optimizer(mt.encoder, list(mt.heads.values()),
                                     recipe)
    counts = {n: 0 for n in names}
    history = []
    diverged = False
    for step in range(1, recipe.train_steps + 1):
        task = _pick_task(names, sizes, mixing, task_rng, step - 1)
        counts[task] += 1
        batch = cursors[task].next(recipe.batch_size)
        labels = np.array([b.label for b in batch])

        def loss_fn():
            logits = batch_logits(mt.encoder, mt.heads[task], batch, recipe,
                                  None, mode="train")
            return ad.cross_entropy(logits, labels), logits

        # only the shared encoder and the sampled task's head receive
        # gradients; the other heads stay bitwise-unchanged this step
        params = mt.encoder.parameters() + mt.heads[task].parameters()
        try:
            loss, _ = train_step(opt, loss_fn, params, rates_at(step))
        except DivergedError:
            diverged = True
            break
        if step % 50 == 0:
            history.append({"step": step, "task": task,
                            "loss": float(loss.data)})
        if step_hook:
            step_hook(step, task, mt)
    return MultiTaskResult(steps_per_task=counts, history=history,
                           diverged=diverged)


def per_task_refine(mt: MultiTaskModel, task: str, train_inputs,
                    val_inputs, recipe: TrainingRecipe,
                    lower_rate: float | None = None):
    """Single-task fine-tuning from the multi-task checkpoint.

    Default rate is half the multi-task base rate; only the shared encoder
    and the named task's head are touched. Zero refine steps return the
    checkpoint unchanged.
    """
    rate = lower_rate if lower_rate is not None else recipe.base_lr / 2
    if rate >= recipe.base_lr:
        raise ValueError("refinement rate must be below the base rate")
    if recipe.train_steps == 0:
        return None
    refine_recipe = replace(recipe, base_lr=rate)
    return finetune(mt.encoder, mt.heads[task], train_inputs, val_inputs,
                    refine_recipe)


def hash_name(name: str) -> int:
    """Stable small hash (builtin hash is salted per process)."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0xFFFFFFFF
    return h
