"""A model's dtype holds end to end: every recorded output and every
gradient of a train-mode step has it, float32 as well as float64."""

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.autodiff import Tape
from bertfit.config import TrainingRecipe
from bertfit.longtext import ChunkedDocument, FractionCombiner
from bertfit.model import (ClassifierHead, EncoderConfig, LayerSelection,
                           encode_batch, init_model, mlm_logits, nsp_logits)
from bertfit.rng import Rng
from bertfit.tokenizer import TokenizedSequence
from bertfit.training import batch_logits
from conftest import tape_dtypes


@pytest.fixture(params=["f4", "f8"])
def model(request):
    cfg = EncoderConfig(n_layers=2, hidden=8, n_heads=2, vocab_size=30,
                        max_positions=16, dropout=0.1, dtype=request.param)
    m = init_model(cfg, Rng(0))
    m.dropout_rng = Rng(1)
    return m


def _seqs(toy_batch):
    ids, segs, mask, labels = toy_batch
    return [TokenizedSequence(list(i), list(s), list(m), int(lab))
            for i, s, m, lab in zip(ids, segs, mask, labels)]


def _step_dtypes(loss_fn, params):
    with Tape() as tape:
        loss = loss_fn()
    return tape_dtypes(tape, loss, params)


def test_pretraining_path(model, toy_batch):
    ids, segs, mask, _ = toy_batch

    def loss_fn():
        outs = encode_batch(model, ids, segs, mask, mode="train")
        mlm = mlm_logits(model, outs, rows=np.array([1, 2, 8]))
        nsp = nsp_logits(model, outs)
        return ad.add(ad.cross_entropy(mlm, np.array([4, 9, 11])),
                      ad.cross_entropy(nsp, np.array([0, 1])))

    dt = np.dtype(model.config.np_dtype)
    assert _step_dtypes(loss_fn, model.parameters()) == {dt}


@pytest.mark.parametrize("combiner", ["concat", "mean", "max"])
def test_classifier_path(model, toy_batch, combiner):
    cfg = model.config
    sel = LayerSelection("last4", combiner=combiner)
    recipe = TrainingRecipe(long_text="head_only", layer_selection=sel)
    head = ClassifierHead.init(sel.feature_width(cfg.hidden, cfg.n_layers),
                               3, Rng(2), dtype=cfg.np_dtype)
    seqs = _seqs(toy_batch)

    def loss_fn():
        logits = batch_logits(model, head, seqs, recipe, None, mode="train")
        return ad.cross_entropy(logits, toy_batch[3])

    params = model.parameters() + head.parameters()
    assert _step_dtypes(loss_fn, params) == {np.dtype(cfg.np_dtype)}


@pytest.mark.parametrize("kind", ["attn", "mean", "max"])
def test_hierarchical_path(model, toy_batch, kind):
    cfg = model.config
    recipe = TrainingRecipe(long_text=f"hier_{kind}")
    comb = FractionCombiner.init(kind, cfg.hidden, Rng(3),
                                 dtype=cfg.np_dtype)
    head = ClassifierHead.init(cfg.hidden, 3, Rng(2), dtype=cfg.np_dtype)
    a, b = _seqs(toy_batch)
    docs = [ChunkedDocument([a, b], n_content=7),
            ChunkedDocument([b], n_content=4)]

    def loss_fn():
        logits = batch_logits(model, head, docs, recipe, comb, mode="train")
        return ad.cross_entropy(logits, np.array([0, 2]))

    params = model.parameters() + head.parameters() + comb.parameters()
    assert _step_dtypes(loss_fn, params) == {np.dtype(cfg.np_dtype)}
