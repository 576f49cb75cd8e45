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


def weighted_sum(y, w):
    """The scalar loss sum(y * w), for `w` an array that broadcasts to y's
    shape, as one `linear` of y's flattened values. Its backward hands y
    the array w exactly, but a -0.0 in w arrives as +0.0 (the GEMM adds
    1.0 * w to a zero)."""
    n = y.data.size
    w = np.broadcast_to(np.asarray(w, y.dtype), y.shape).reshape(n, 1)
    b = ad.Tensor(np.zeros(1, y.dtype))
    return ad.reshape(ad.linear(ad.reshape(y, (1, n)), ad.Tensor(w), b), ())


def first_words(rng):
    """The first raw 64-bit words of the stream `rng` started as, which
    tell two streams apart."""
    return tuple(Rng(rng.seed, rng.key).gen.bit_generator.random_raw(4)
                 .tolist())


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


class ReadMasks(Rng):
    """A full-width run's dropout stream that drops, at the rows a read
    keeps, what the read drops. At a key in `keys`, a (B, ..., S, W) mask
    holds at row positions[b, r] of item b row r of the mask `Rng(seed)`
    draws there at the read's (B, ..., R, W) shape (the first r of a
    repeated position); every other mask is `Rng(seed)`'s. So a full op
    read at `positions` should equal the op on those rows alone."""

    def __init__(self, seed, positions, keys, key=()):
        super().__init__(seed, key)
        self.positions, self.keys = np.asarray(positions), keys

    def at(self, *key):
        return ReadMasks(self.seed, self.positions, self.keys,
                         self.key + key)

    def keep_mask(self, shape, p):
        kept = super().keep_mask(shape, p)
        if self.key in self.keys:
            B, R = self.positions.shape
            read = Rng(self.seed, self.key).keep_mask(
                (*shape[:-2], R, shape[-1]), p)
            for b in range(B):
                for r in reversed(range(R)):
                    kept[b, ..., self.positions[b, r], :] = read[b, ..., r, :]
        return kept


def top_block_keys(layer):
    """The dropout keys of the top block of a read at `layer` (block
    layer - 1's sites, 3 layer - 2 to 3 layer); none at layer 0."""
    return {(3 * layer - j,) for j in range(3)} if layer else set()
