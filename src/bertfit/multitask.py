"""Multi-task fine-tuning: shared encoder, private per-task classifiers.

Every step draws a single-task batch (tasks drawn in proportion to their
dataset sizes), computes that task's loss, and updates the shared encoder
and `hier_*` fraction combiner plus only that task's head. Optional
per-task refinement continues from the multi-task checkpoint at half the
base rate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

from .config import TrainingRecipe
from .longtext import FractionCombiner
from .model import ClassifierHead, EncoderModel
from .rng import CURSOR, MULTITASK, TASK, Rng
from .training import (batch_at, batch_loss, finetune, recipe_optimizer,
                       train_steps)


@dataclass
class MultiTaskModel:
    encoder: EncoderModel           # shared storage across all tasks
    heads: dict[str, ClassifierHead]
    combiner: FractionCombiner | None = None    # shared, like the encoder

    @classmethod
    def init(cls, encoder: EncoderModel, tasks: dict[str, int],
             feature_width: int, rng: Rng):
        """`tasks` maps task name -> class count; head i of the sorted
        names draws from `rng.at(i)`."""
        heads = {
            name: ClassifierHead.init(feature_width, n_classes,
                                      rng.at(i),
                                      dtype=encoder.config.np_dtype,
                                      name=f"task.{name}")
            for i, (name, n_classes) in enumerate(sorted(tasks.items()))}
        return cls(encoder=encoder, heads=heads)


@dataclass
class MultiTaskResult:
    steps_per_task: dict
    diverged: bool


def _pick_task(names, sizes, rng: Rng):
    """A task name drawn with probability proportional to its size."""
    ends = list(accumulate(sizes[n] for n in names))
    # uniform() < 1, so the draw stays below ends[-1] and the index in range
    return names[bisect_right(ends, rng.uniform() * ends[-1])]


def multitask_finetune(mt: MultiTaskModel, task_inputs: dict[str, list],
                       recipe: TrainingRecipe,
                       step_hook=None) -> MultiTaskResult:
    """Joint fine-tuning over >= 2 tasks, one task per batch.

    `task_inputs` maps task name -> prepared train inputs (see
    training.prepare_inputs). Layer-wise decay applies as in `finetune`;
    the loop is keyed (0, MULTITASK), apart from `per_task_refine`'s.
    """
    if len(task_inputs) < 2:
        raise ValueError("multi-task fine-tuning needs at least two tasks")
    for name, inputs in task_inputs.items():
        if not inputs:
            raise ValueError(f"task {name!r} has an empty dataset")
    names = sorted(task_inputs)
    sizes = {n: len(task_inputs[n]) for n in names}
    rng = Rng(recipe.seed).at(0, MULTITASK)
    cursors = {n: rng.at(0, CURSOR, i) for i, n in enumerate(names)}
    opt, rates_at = recipe_optimizer(
        mt.encoder, [*mt.heads.values(), mt.combiner], recipe)
    counts = {n: 0 for n in names}     # steps applied, so picks before t

    def next_batch(step):
        task = _pick_task(names, sizes, rng.at(0, TASK, step))
        return task, batch_at(task_inputs[task], cursors[task],
                              recipe.batch_size, counts[task] + 1)

    # only the shared encoder and combiner and the sampled task's head
    # receive gradients; the other heads stay bitwise-unchanged this step
    for step, (task, _), _, _ in train_steps(
            opt, rates_at, recipe.train_steps, rng, next_batch,
            lambda tb, dropout: batch_loss(mt.encoder, mt.heads[tb[0]], tb[1],
                                           recipe, mt.combiner, dropout)):
        counts[task] += 1
        if step_hook:
            step_hook(step, task, mt)
    return MultiTaskResult(counts, opt.t < recipe.train_steps)


def per_task_refine(mt: MultiTaskModel, task: str, train_inputs,
                    val_inputs, recipe: TrainingRecipe):
    """Single-task fine-tuning from the multi-task checkpoint at half the
    multi-task base rate; only the shared encoder and the named task's
    head are touched."""
    refine_recipe = replace(recipe, base_lr=recipe.base_lr / 2)
    return finetune(mt.encoder, mt.heads[task], train_inputs, val_inputs,
                    refine_recipe, combiner=mt.combiner)

