import sys
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
    """Two lists that get, for each attention forward (`_attention`, which
    `attention_core` and `self_attention` share), a copy of its
    pre-dropout probabilities (B, heads, R, S) and a weak reference to the
    buffer that held them, read as `_softmax` returns them there."""
    softmax, core = ad._softmax, ad._attention.__code__
    copies, refs = [], []

    def spy(s, out=None):
        res = softmax(s, out=out)
        if sys._getframe(1).f_code is core:
            copies.append(res[0].copy())
            refs.append(weakref.ref(res[0]))
        return res
    monkeypatch.setattr(ad, "_softmax", spy)
    return copies, refs


def spy_gradients(tape):
    """Wrap the backward rule of every record on `tape` so that it keeps
    the gradient it is handed, since `backward` releases a record's
    gradient once its rule has run. Returns a dict, filled in by
    `backward`, from each record (an output's `node`) to that gradient."""
    handed = {}
    for rec in tape.records:
        def spy(g, rule=rec.backward_fn, node=rec):
            handed[node] = g
            rule(g)
        rec.backward_fn = spy
    return handed


def tape_dtypes(tape, loss, parameters):
    """Run backward from `loss` and return the set of dtypes of every
    recorded output, every gradient handed to a backward rule and every
    parameter gradient afterwards (the only leaves a model step has).
    The outputs' dtypes are read off their records before `backward`
    consumes the tape."""
    dtypes = {rec.dtype for rec in tape.records}
    handed = spy_gradients(tape)
    ad.backward(tape, loss, parameters=parameters)
    dtypes.update(g.dtype for g in handed.values())
    dtypes.update(p.grad.dtype for p in parameters)
    return dtypes
