"""Hyperparameter grid and learning-rate sweep harnesses.

`run_grid` trains one seeded run per (base_lr, decay_factor) cell and
emits a TSV report; `run_lr_sweep` produces per-epoch train/test learning
curves for a list of learning rates. Diverged runs (NaN loss) are recorded
as "diverged", never raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .config import TrainingRecipe
from .model import ClassifierHead, EncoderConfig, init_model
from .rng import Rng
from .training import evaluate, finetune, prepare_inputs

TABLE4_LRS = (2.5e-5, 2.0e-5)
TABLE4_XIS = (1.00, 0.95, 0.90, 0.85)
FIGURE2_LRS = (2e-5, 5e-5, 1e-4, 4e-4)


@dataclass
class GridCell:
    base_lr: float
    decay_factor: float
    val_error: float | None
    test_error: float | None
    diverged: bool


def _run_cell(model_config: EncoderConfig, recipe: TrainingRecipe, vocab,
              train_inputs, val_inputs, test_inputs, eval_hook=None):
    rng = Rng(recipe.seed)
    model = init_model(model_config, rng.derive(1))
    width = recipe.layer_selection.feature_width(
        model_config.hidden, model_config.n_layers)
    n_classes = max(s.label for s in train_inputs) + 1
    head = ClassifierHead.init(width, n_classes, rng.derive(2),
                               dtype=model_config.np_dtype)
    return finetune(model, head, train_inputs, val_inputs, recipe,
                    test_inputs=test_inputs, eval_hook=eval_hook)


def run_grid(model_config: EncoderConfig, recipe: TrainingRecipe, vocab,
             train_ds, val_ds, test_ds, lrs=TABLE4_LRS, xis=TABLE4_XIS,
             out_tsv=None) -> list[GridCell]:
    if not lrs or not xis:
        raise ValueError("lr and decay-factor lists must be non-empty")
    train_inputs = prepare_inputs(train_ds, vocab, recipe)
    val_inputs = prepare_inputs(val_ds, vocab, recipe)
    test_inputs = prepare_inputs(test_ds, vocab, recipe) if test_ds else None
    cells = []
    for lr in lrs:
        for xi in xis:
            cell_recipe = replace(recipe, base_lr=lr, decay_factor=xi)
            res = _run_cell(model_config, cell_recipe, vocab, train_inputs,
                            val_inputs, test_inputs)
            cells.append(GridCell(
                base_lr=lr, decay_factor=xi,
                val_error=None if res.diverged else res.best_val_error,
                test_error=None if res.diverged else res.test_error,
                diverged=res.diverged))
    if out_tsv:
        write_grid_tsv(cells, out_tsv)
    return cells


def write_grid_tsv(cells, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("base_lr\tdecay_factor\tval_error\ttest_error\n")
        for c in cells:
            if c.diverged:
                fh.write(f"{c.base_lr:g}\t{c.decay_factor:g}\t"
                         "diverged\tdiverged\n")
            else:
                te = "" if c.test_error is None else f"{c.test_error:.4f}"
                fh.write(f"{c.base_lr:g}\t{c.decay_factor:g}\t"
                         f"{c.val_error:.4f}\t{te}\n")


def run_lr_sweep(model_config: EncoderConfig, recipe: TrainingRecipe, vocab,
                 train_ds, val_ds, test_ds, lrs=FIGURE2_LRS,
                 out_jsonl=None) -> dict:
    """Catastrophic-forgetting sweep: per-epoch train/test error per lr."""
    train_inputs = prepare_inputs(train_ds, vocab, recipe)
    val_inputs = prepare_inputs(val_ds, vocab, recipe)
    test_inputs = prepare_inputs(test_ds, vocab, recipe)
    curves = {}
    for lr in lrs:
        cell_recipe = replace(recipe, base_lr=lr)
        series = []

        def hook(epoch, step, model, head):
            tr_err, tr_loss = evaluate(model, head, train_inputs,
                                       cell_recipe)
            te_err, te_loss = evaluate(model, head, test_inputs, cell_recipe)
            series.append({"lr": lr, "epoch": epoch, "step": step,
                           "train_error": tr_err, "test_error": te_err,
                           "train_loss": tr_loss, "test_loss": te_loss})

        res = _run_cell(model_config, cell_recipe, vocab, train_inputs,
                        val_inputs, test_inputs, eval_hook=hook)
        curves[lr] = {"diverged": res.diverged, "epochs": series}
    if out_jsonl:
        with open(out_jsonl, "w", encoding="utf-8") as fh:
            for lr in lrs:
                for rec in curves[lr]["epochs"]:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                if curves[lr]["diverged"]:
                    fh.write(json.dumps({"lr": lr, "diverged": True},
                                        sort_keys=True) + "\n")
    return curves
