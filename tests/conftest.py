import weakref

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.model import EncoderConfig, init_model
from bertfit.rng import Rng


@pytest.fixture
def toy_config():
    return EncoderConfig(n_layers=2, hidden=8, n_heads=2, vocab_size=30,
                         max_positions=16, dropout=0.0, dtype="f8")


@pytest.fixture
def toy_model(toy_config):
    return init_model(toy_config, Rng(0))


@pytest.fixture
def toy_batch():
    ids = np.array([[2, 5, 6, 3, 0, 0], [2, 7, 8, 9, 10, 3]])
    segs = np.zeros_like(ids)
    mask = (ids != 0).astype(int)
    labels = np.array([0, 2])
    return ids, segs, mask, labels


def attention_probs(monkeypatch):
    """A list that gets a weak reference to the pre-dropout probabilities
    of each `attention_core` call: the (B, heads, R, S) buffer its backward
    rule keeps, so alive while a tape holds that rule."""
    make = ad._make
    refs = []

    def spy(out_data, backward_fn):
        if backward_fn.__qualname__.startswith("attention_core."):
            cells = dict(zip(backward_fn.__code__.co_freevars,
                             backward_fn.__closure__))
            refs.append(weakref.ref(cells["probs"].cell_contents))
        return make(out_data, backward_fn)
    monkeypatch.setattr(ad, "_make", spy)
    return refs


def spy_gradients(tape):
    """Wrap the backward rule of every record on `tape` so that it keeps
    the gradient it is handed, since `backward` releases a record output's
    gradient once its rule has run. Returns a dict, filled in by
    `backward`, from each output's node_id to that gradient."""
    handed = {}
    for rec in tape.records:
        def spy(g, rule=rec.backward_fn, node=rec.out.node_id):
            handed[node] = g
            rule(g)
        rec.backward_fn = spy
    return handed


def tape_dtypes(tape, loss, parameters):
    """Run backward from `loss` and return the set of dtypes of every
    recorded output, every gradient handed to a backward rule and every
    parameter gradient afterwards (the only leaves a model step has)."""
    handed = spy_gradients(tape)
    ad.backward(tape, loss, parameters=parameters)
    dtypes = {rec.out.data.dtype for rec in tape.records}
    dtypes.update(g.dtype for g in handed.values())
    dtypes.update(p.grad.dtype for p in parameters)
    return dtypes
