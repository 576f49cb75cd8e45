"""The one training loop; fine-tuning, evaluation and metrics logging.

Training follows the paper-style recipe: slanted triangular schedule with
layer-wise decreasing rates, best-model selection on the validation split
across up to `epochs` evaluation rounds (ties go to the earliest), and
JSON-lines metrics. Divergence (NaN loss/gradient) ends the run with a
`diverged` flag instead of crashing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import install, load_into
from .config import TrainingRecipe
from .data import Dataset
from .longtext import FractionCombiner, chunk, combine, truncate
from .model import (ClassifierHead, EncoderConfig, EncoderModel,
                    class_logits, encode_batch, init_model, named_tensors,
                    select_features, stack_inputs)
from .optim import (Adam, DivergedError, StlrSchedule, build_optimizer,
                    train_step)
from .rng import COMBINER, CURSOR, HEAD, INIT, Rng
from .tokenizer import Vocabulary, encode, tokenize


@dataclass
class MetricsRecord:
    step: int
    split: str
    loss: float
    error_rate: float               # percent, 100 * (1 - accuracy)
    lr: float
    wall_clock: float

    def to_json(self) -> str:
        return json.dumps(
            {"step": self.step, "split": self.split,
             "loss": round(self.loss, 8),
             "error_rate": round(self.error_rate, 6),
             "lr": self.lr, "wall_clock": self.wall_clock},
            sort_keys=True)


class MetricsLog:
    def __init__(self, path=None, strict=False):
        self.path = path
        self.strict = strict        # strict mode zeroes wall-clock fields
        self.records: list[MetricsRecord] = []
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self._t0 = time.monotonic()

    def add(self, step, split, loss, error_rate, lr):
        wall = 0.0 if self.strict else time.monotonic() - self._t0
        rec = MetricsRecord(step, split, float(loss), float(error_rate),
                            float(lr), wall)
        self.records.append(rec)
        if self._fh:
            self._fh.write(rec.to_json() + "\n")
            self._fh.flush()
        return rec

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None


def prepare_inputs(dataset: Dataset, vocab: Vocabulary,
                   recipe: TrainingRecipe):
    """Tokenize and route every example through the long-text strategy.

    Truncation strategies yield one TokenizedSequence per example;
    hierarchical ones a ChunkedDocument.
    """
    strat = recipe.truncation()
    out = []
    for ex in dataset.examples:
        tokens = tokenize(ex.text, vocab)
        if strat is not None:
            kept = truncate(tokens, strat)
            out.append(encode(kept, None, recipe.max_len, vocab,
                              label=ex.label))
        else:
            out.append(chunk(tokens, vocab, capacity=recipe.capacity,
                             label=ex.label))
    return out


def batch_logits(model: EncoderModel, head: ClassifierHead, batch,
                 recipe: TrainingRecipe, combiner: FractionCombiner | None,
                 rng: Rng | None = None):
    """Class logits for a batch of prepared inputs (either route); the
    recipe's combiner kind must be `combiner`'s (None when flat). One
    encoder call computes only the [CLS] rows the head reads, with dropout
    keyed by `rng` if given: flat, up to the top selected layer;
    hierarchical, at layer L for every fraction, pooled per document."""
    kind = combiner.kind if combiner else None
    if kind != recipe.combiner_kind:
        raise ValueError(f"recipe {recipe.long_text!r} needs combiner "
                         f"{recipe.combiner_kind!r}, got {kind!r}")
    if combiner is None:
        seqs = batch
        layer = recipe.layer_selection.layer_indices(model.config.n_layers)[-1]
    else:
        seqs = [frac for doc in batch for frac in doc.fractions]
        layer = model.config.n_layers
    outs = encode_batch(model, *stack_inputs(seqs), rng=rng,
                        read=(layer, np.zeros((len(seqs), 1), dtype=np.intp)))
    if combiner is None:
        return class_logits(select_features(outs, recipe.layer_selection), head)
    # outs[-1] is (sum_k, 1, H): row i is fraction i's [CLS]
    feats = []
    offset = 0
    for doc in batch:
        rows = np.arange(offset, offset + doc.k)
        feats.append(combine(ad.embedding(outs[-1], rows), combiner))
        offset += doc.k
    feats = ad.concat(feats, axis=0)                    # (D H,)
    return class_logits(ad.reshape(feats, (len(batch), -1)), head)


def batch_loss(model: EncoderModel, head: ClassifierHead, batch,
               recipe: TrainingRecipe, combiner: FractionCombiner | None,
               rng: Rng | None = None):
    """(mean cross-entropy, logits, labels) of a batch of prepared inputs;
    see :func:`batch_logits`."""
    labels = np.array([b.label for b in batch])
    logits = batch_logits(model, head, batch, recipe, combiner, rng)
    return ad.cross_entropy(logits, labels), logits, labels


def batch_at(items, rng: Rng, size: int, n: int) -> list:
    """Batch n (from 1) of `size` items of consecutive passes over `items`,
    pass e ordered by `rng.at(e).gen.permutation(len(items))`; a batch
    that runs past the end of a pass continues into the next one."""
    start, N = (n - 1) * size, len(items)
    passes = range(start // N, (start + size - 1) // N + 1)
    order = np.concatenate([rng.at(e).gen.permutation(N) for e in passes])
    offset = start - passes[0] * N
    return [items[i] for i in order[offset:offset + size]]


def build_encoder(model_config: EncoderConfig, recipe: TrainingRecipe,
                  vocab: Vocabulary, init_checkpoint=None):
    """(model, feature width, combiner) every run starts from, keyed under
    `Rng(recipe.seed)`: the model from (0, INIT), then `init_checkpoint`
    installed into it if set; a `hier_*` recipe's combiner from
    (0, COMBINER), pooling top [CLS] vectors (width H), else None."""
    rng = Rng(recipe.seed)
    H, kind = model_config.hidden, recipe.combiner_kind
    width = H if kind else recipe.layer_selection.feature_width(
        H, model_config.n_layers)
    combiner = kind and FractionCombiner.init(
        kind, H, rng.at(0, COMBINER), dtype=model_config.np_dtype)
    model = init_model(model_config, rng.at(0, INIT))
    if init_checkpoint:
        install(init_checkpoint, named_tensors(model), model_config, vocab)
    return model, width, combiner


def build_run(model_config: EncoderConfig, recipe: TrainingRecipe,
              vocab: Vocabulary, n_classes: int, init_checkpoint=None):
    """(model, head, combiner) a classifier run starts from:
    :func:`build_encoder` plus a head from `Rng(recipe.seed).at(0, HEAD)`."""
    model, width, combiner = build_encoder(model_config, recipe, vocab,
                                           init_checkpoint)
    head = ClassifierHead.init(width, n_classes,
                               Rng(recipe.seed).at(0, HEAD),
                               dtype=model_config.np_dtype)
    return model, head, combiner


def recipe_optimizer(model: EncoderModel, heads, recipe: TrainingRecipe):
    """`build_optimizer` at the recipe's STLR, decay factor and clip norm."""
    schedule = StlrSchedule(total_steps=recipe.train_steps,
                            peak_lr=recipe.base_lr,
                            warmup_proportion=recipe.warmup_proportion)
    return build_optimizer(model, heads, schedule, recipe.decay_factor,
                           recipe.clip_norm)


@dataclass
class FinetuneResult:
    best_val_error: float
    best_epoch: int
    test_error: float | None
    diverged: bool
    history: list
    model: EncoderModel
    head: ClassifierHead
    combiner: FractionCombiner | None


def evaluate(model: EncoderModel, head: ClassifierHead, inputs,
             recipe: TrainingRecipe, combiner=None, batch_size=64):
    """Error rate (%) and mean loss with dropout off, recording no tape."""
    n_wrong, loss_sum = 0, 0.0
    for i in range(0, len(inputs), batch_size):
        batch = inputs[i:i + batch_size]
        loss, logits, labels = batch_loss(model, head, batch, recipe,
                                          combiner)
        n_wrong += int((logits.data.argmax(axis=-1) != labels).sum())
        loss_sum += float(loss.data) * len(batch)
    return 100.0 * n_wrong / len(inputs), loss_sum / len(inputs)


def train_steps(opt: Adam, rates_at, steps: int, rng: Rng, next_batch,
                loss_of):
    """The one training loop: steps 1..`steps`, each a `train_step` of
    `loss_of(batch := next_batch(step), rng.at(step))` at `rates_at(step)`,
    so step t's dropout is keyed (seed, t, site). Yields (step, batch, out,
    rates) once each step applies. A step that diverges changes nothing,
    `opt.t` included, and ends the run: it diverged if `opt.t < steps`."""
    for step in range(1, steps + 1):
        batch = next_batch(step)
        rates = rates_at(step)
        try:
            out = train_step(opt, lambda: loss_of(batch, rng.at(step)), rates)
        except DivergedError:
            return
        yield step, batch, out, rates


def finetune(model: EncoderModel, head: ClassifierHead,
             train_inputs, val_inputs, recipe: TrainingRecipe,
             combiner: FractionCombiner | None = None,
             test_inputs=None, metrics: MetricsLog | None = None,
             eval_hook=None):
    """Train with STLR + layer-wise rates; keep the best validation model.

    `train_inputs` etc. come from :func:`prepare_inputs`. Validation
    round e of E = `recipe.epochs` ends at step ceil(e T / E) of T =
    `recipe.train_steps`, a step ending at most one round: E rounds when
    T >= E, one per step otherwise. Returns a FinetuneResult whose model,
    head and combiner hold the best-validation parameters.
    """
    rng = Rng(recipe.seed)
    cursor = rng.at(0, CURSOR)
    heads = [head, combiner]
    opt, rates_at = recipe_optimizer(model, heads, recipe)
    named = named_tensors(model, heads)
    top = model.config.n_layers + 1
    T, E = recipe.train_steps, recipe.epochs
    ends = dict.fromkeys(-(-e * T // E) for e in range(1, E + 1))
    round_at = {step: n for n, step in enumerate(ends, 1)}

    best = {"error": float("inf"), "epoch": -1, "params": None}
    history = []
    for step, _, (loss, logits, labels), rates in train_steps(
            opt, rates_at, recipe.train_steps, rng,
            lambda step: batch_at(train_inputs, cursor, recipe.batch_size,
                                  step),
            lambda batch, dropout: batch_loss(model, head, batch, recipe,
                                              combiner, dropout)):
        if metrics and step % 10 == 0:
            wrong = logits.data.argmax(axis=-1) != labels
            metrics.add(step, "train", loss.data, 100.0 * wrong.mean(),
                        rates[top])
        epoch = round_at.get(step)
        if epoch and val_inputs:
            val_err, val_loss = evaluate(model, head, val_inputs, recipe,
                                         combiner)
            history.append({"epoch": epoch, "step": step,
                            "val_error": val_err, "val_loss": val_loss})
            if metrics:
                metrics.add(step, "validation", val_loss, val_err,
                            rates[top])
            if eval_hook:
                eval_hook(epoch, step, model, head, combiner)
            if val_err < best["error"]:   # strict <: ties keep the earliest
                best.update(error=val_err, epoch=epoch, params={
                    k: p.data.copy() for k, p in named.items()})
    diverged = opt.t < recipe.train_steps
    if best["params"] is not None:
        load_into(named, best["params"])
    test_error = None
    if test_inputs is not None and not diverged:
        test_error, test_loss = evaluate(model, head, test_inputs, recipe,
                                         combiner)
        if metrics:
            metrics.add(recipe.train_steps, "test", test_loss, test_error, 0.0)
    return FinetuneResult(
        best_val_error=best["error"], best_epoch=best["epoch"],
        test_error=test_error, diverged=diverged, history=history,
        model=model, head=head, combiner=combiner)

