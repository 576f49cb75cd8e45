import numpy as np
import pytest

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


def tape_dtypes(tape):
    """The set of dtypes of every recorded output and, after backward, of
    every gradient held by a recorded output or input (parameters
    included)."""
    dtypes = set()
    for rec in tape.records:
        dtypes.add(rec.out.data.dtype)
        for t in (rec.out, *rec.inputs):
            if t.grad is not None:
                dtypes.add(t.grad.dtype)
    return dtypes
