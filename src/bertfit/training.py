"""Single-task fine-tuning loop, evaluation, and metrics logging.

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
                    class_logits, cls_states, encode_batch, init_model,
                    named_tensors, select_features)
from .optim import (Adam, DivergedError, LayerwiseLrSchedule, StlrSchedule,
                    group_parameters, layer_rates, train_step)
from .rng import Rng
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


def _stack(seqs):
    ids = np.array([s.token_ids for s in seqs])
    segs = np.array([s.segment_ids for s in seqs])
    mask = np.array([s.attention_mask for s in seqs])
    return ids, segs, mask


def _cls_rows(n):                   # position 0 of each of n sequences
    return np.zeros((n, 1), dtype=np.intp)


def batch_logits(model: EncoderModel, head: ClassifierHead, batch,
                 recipe: TrainingRecipe, combiner: FractionCombiner | None,
                 rng: Rng | None = None):
    """Class logits for a batch of prepared inputs (either route); the
    recipe's combiner kind must be `combiner`'s (None when flat). The
    encoder computes only the [CLS] rows the head reads, with dropout
    drawn from `rng` if given."""
    kind = combiner.kind if combiner else None
    if kind != recipe.combiner_kind:
        raise ValueError(f"recipe {recipe.long_text!r} needs combiner "
                         f"{recipe.combiner_kind!r}, got {kind!r}")
    if combiner is None:
        sel = recipe.layer_selection
        ids, segs, mask = _stack(batch)
        top = sel.layer_indices(model.config.n_layers)[-1]
        outs = encode_batch(model, ids, segs, mask,
                            read=(top, _cls_rows(len(batch))), rng=rng)
        return class_logits(select_features(outs, sel), head)
    # hierarchical: encode all fractions of all documents as one batch,
    # then pool per document in fraction order
    flat = [frac for doc in batch for frac in doc.fractions]
    ids, segs, mask = _stack(flat)
    outs = encode_batch(model, ids, segs, mask,
                        read=(model.config.n_layers, _cls_rows(len(flat))),
                        rng=rng)
    cls_all = cls_states(outs[-1])               # (sum_k, H)
    feats = []
    offset = 0
    for doc in batch:
        rows = np.arange(offset, offset + doc.k)
        feats.append(combine(ad.embedding(cls_all, rows), combiner))
        offset += doc.k
    stacked = ad.concat(
        [ad.reshape(f, (1, f.shape[0])) for f in feats], axis=0)
    return class_logits(stacked, head)


class BatchCursor:
    """Batches of `n` items drawn through reshuffled passes over `items`.

    Each pass reshuffles the index order in place with `rng`; a batch that
    runs past the end of a pass continues into the next one.
    """

    def __init__(self, items, rng: Rng):
        self.items = items
        self.rng = rng
        self.order = list(range(len(items)))
        self.pos = len(self.order)      # forces a shuffle on first use

    def next(self, n: int) -> list:
        batch = []
        while len(batch) < n:
            if self.pos >= len(self.order):
                self.rng.shuffle(self.order)
                self.pos = 0
            batch.append(self.items[self.order[self.pos]])
            self.pos += 1
        return batch


def build_encoder(model_config: EncoderConfig, recipe: TrainingRecipe,
                  rng: Rng):
    """(model, feature width, combiner) from `rng.derive(1)` and `(3)`; a
    `hier_*` recipe pools top [CLS] vectors (width H), else no combiner."""
    H, kind = model_config.hidden, recipe.combiner_kind
    width = H if kind else recipe.layer_selection.feature_width(
        H, model_config.n_layers)
    combiner = FractionCombiner.init(
        kind, H, rng.derive(3), dtype=model_config.np_dtype) if kind else None
    return init_model(model_config, rng.derive(1)), width, combiner


def build_model(model_config: EncoderConfig, recipe: TrainingRecipe,
                n_classes: int, rng: Rng):
    """(model, head, combiner): :func:`build_encoder` plus a head from
    `rng.derive(2)`."""
    model, width, combiner = build_encoder(model_config, recipe, rng)
    head = ClassifierHead.init(width, n_classes, rng.derive(2),
                               dtype=model_config.np_dtype)
    return model, head, combiner


def install_encoder(model: EncoderModel, vocab: Vocabulary, init_checkpoint):
    """Install `init_checkpoint`, if set, into the encoder `model`."""
    if init_checkpoint:
        install(init_checkpoint, named_tensors(model), model.config, vocab)


def build_run(model_config: EncoderConfig, recipe: TrainingRecipe,
              vocab: Vocabulary, n_classes: int, init_checkpoint=None):
    """(model, head, combiner) a classifier run starts from: build_model
    from `Rng(recipe.seed)`, the encoder from `init_checkpoint` if set."""
    run = build_model(model_config, recipe, n_classes, Rng(recipe.seed))
    install_encoder(run[0], vocab, init_checkpoint)
    return run


def recipe_optimizer(model: EncoderModel, heads, recipe: TrainingRecipe):
    """Adam over the model and `heads`, and the recipe's rates at a step."""
    groups = group_parameters(model, extra_heads=heads)
    layerwise = LayerwiseLrSchedule(base_lr=recipe.base_lr,
                                    decay_factor=recipe.decay_factor)
    schedule = StlrSchedule(total_steps=recipe.train_steps,
                            peak_lr=recipe.base_lr,
                            warmup_proportion=recipe.warmup_proportion)
    return (Adam(groups, clip_norm=recipe.clip_norm),
            lambda step: layer_rates(groups, layerwise, schedule, step))


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
    n_total, n_wrong, loss_sum = 0, 0, 0.0
    for i in range(0, len(inputs), batch_size):
        batch = inputs[i:i + batch_size]
        labels = np.array([b.label for b in batch])
        logits = batch_logits(model, head, batch, recipe, combiner)
        loss = ad.cross_entropy(logits, labels)
        pred = logits.data.argmax(axis=-1)
        n_wrong += int((pred != labels).sum())
        n_total += len(batch)
        loss_sum += float(loss.data) * len(batch)
    return 100.0 * n_wrong / n_total, loss_sum / n_total


def finetune(model: EncoderModel, head: ClassifierHead,
             train_inputs, val_inputs, recipe: TrainingRecipe,
             combiner: FractionCombiner | None = None,
             test_inputs=None, metrics: MetricsLog | None = None,
             eval_hook=None):
    """Train with STLR + layer-wise rates; keep the best validation model.

    `train_inputs` etc. come from :func:`prepare_inputs`. Returns a
    FinetuneResult whose model, head and combiner hold the best-validation
    parameters.
    """
    rng = Rng(recipe.seed)
    dropout_rng = rng.derive(0xD0)
    cursor = BatchCursor(train_inputs, rng.derive(0x0E))
    heads = [head, combiner]
    opt, rates_at = recipe_optimizer(model, heads, recipe)
    named = named_tensors(model, heads)
    params = list(named.values())
    top = model.config.n_layers + 1
    steps_per_epoch = max(1, recipe.train_steps // recipe.epochs)

    best = {"error": float("inf"), "epoch": -1, "params": None}
    history = []
    diverged = False
    step = 0
    for step in range(1, recipe.train_steps + 1):
        batch = cursor.next(recipe.batch_size)
        labels = np.array([b.label for b in batch])

        def loss_fn():
            logits = batch_logits(model, head, batch, recipe, combiner,
                                  dropout_rng)
            return ad.cross_entropy(logits, labels), logits

        rates = rates_at(step)
        try:
            loss, logits = train_step(opt, loss_fn, params, rates)
        except DivergedError:
            diverged = True
            break
        pred = logits.data.argmax(axis=-1)
        train_err = 100.0 * float((pred != labels).mean())
        if metrics and step % 10 == 0:
            metrics.add(step, "train", float(loss.data), train_err,
                        rates[top])
        end_of_epoch = step % steps_per_epoch == 0 or \
            step == recipe.train_steps
        if end_of_epoch and val_inputs:
            epoch = step // steps_per_epoch
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
    if best["params"] is not None:
        load_into(named, best["params"])
    test_error = None
    if test_inputs is not None and not diverged:
        test_error, test_loss = evaluate(model, head, test_inputs, recipe,
                                         combiner)
        if metrics:
            metrics.add(step, "test", test_loss, test_error, 0.0)
    return FinetuneResult(
        best_val_error=best["error"], best_epoch=best["epoch"],
        test_error=test_error, diverged=diverged, history=history,
        model=model, head=head, combiner=combiner)

