"""Keyed streams: a dropout mask (`rng.Rng.keep_mask`) is a function of
its stream's seed and key, its shape and its rate, and its bits are
pinned; a training loop's streams have keys of their own. These tests use
numpy's SeedSequence and PCG64 alone, no BLAS."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertfit.rng import (COMBINER, CURSOR, EXAMPLE, HEAD, INIT,
                        MULTITASK, PRETRAIN, TASK, Rng)
from conftest import first_words

# name: (seed, step, site, shape, p, md5 of the mask's bool bytes)
GOLDEN = {
    "full-hidden": (7, 1, 0, (2, 5, 8), 0.1,
                    "5c9d33dcaeb01b087b5744179c33c0f5"),
    "full-attention": (7, 2, 4, (2, 2, 6, 6), 0.1,
                       "c735b0065a09094ef931c26fc5361c07"),
    "odd-width": (41, 5, 2, (3, 4, 13), 0.5,
                  "e2543bc61f6e4b8ea659906873e64920"),
}


def _mask(seed, step, site, shape, p):
    return Rng(seed).at(step, site).keep_mask(shape, p)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_masks(name):
    """A change to the mask's definition moves every dropout bit of every
    run; it must show here."""
    *case, want = GOLDEN[name]
    mask = _mask(*case)
    assert mask.dtype == bool and mask.shape == case[3]
    assert hashlib.md5(mask.tobytes()).hexdigest() == want


@pytest.mark.parametrize("width", [8, 13])
def test_is_its_definition(width):
    """Each row of W takes the next ceil(W / 2) raw words of a new PCG64
    keyed (seed, step, site), low 32-bit half first; a half at least
    floor(p * 2**32) keeps its element."""
    shape, p = (3, 2, width), 0.3
    words = np.random.PCG64(np.random.SeedSequence(
        9, spawn_key=(4, 2))).random_raw(6 * ((width + 1) // 2))
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1)
    halves = halves.reshape(6, -1)[:, :width].reshape(shape)
    want = halves >= int(p * 2 ** 32)
    assert np.array_equal(_mask(9, 4, 2, shape, p), want)


def test_a_mask_is_a_function_of_its_key():
    masks = [rng.keep_mask((4, 9), 0.5) for rng in
             (Rng(3).at(1, 2), Rng(3).at(1).at(2), Rng(3).at(1, 2))]
    assert all(np.array_equal(m, masks[0]) for m in masks)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_step_and_site_are_not_interchangeable(seed):
    # nested `derive` would give (3, 5) the stream of (5, 3)
    shape = (4, 64)
    assert not np.array_equal(_mask(seed, 3, 5, shape, 0.5),
                              _mask(seed, 5, 3, shape, 0.5))


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_keep_rate_is_one_minus_p(p):
    # within 4 sigma of the binomial, over masks at eight keys
    shape = (16, 32, 129)
    kept = sum(int(_mask(5, step, 1, shape, p).sum()) for step in range(8))
    n = 8 * np.prod(shape)
    assert abs(kept - n * (1 - p)) < 4 * np.sqrt(n * p * (1 - p))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       *(st.integers(1, n) for n in (30, 4, 4, 8, 4)))
@settings(max_examples=20, deadline=None)
def test_a_loops_streams_are_pairwise_distinct(seed, T, L, tasks, B, E):
    """The key table, for every command at once: under `Rng(seed)`, the
    unkeyed stream (the splits', when `seed` is also `recipe.seed`), the
    initial weights, the head, each multitask head and the combiner, and
    three loops of T steps each: finetune's at the root, multitask's under
    (0, MULTITASK) and pretrain's under (0, PRETRAIN). In a loop, step
    t >= 1 keys its dropout (t, site) for the sites 0 to 3L + 3 (the
    encoder's are 0 to 3L), and every other stream is keyed 0 and then its
    purpose: E passes of the batch order and of each task's, the task of
    each step, and each pre-training example. No two of them share a key
    or a stream."""
    steps = range(1, T + 1)

    def loop(root, *streams):
        dropout = ((t, site) for t in steps for site in range(3 * L + 4))
        return [root + key for key in (*streams, *dropout)]

    keys = [(), (0, INIT), (0, HEAD), (0, COMBINER),
            *((0, HEAD, i) for i in range(tasks))]
    keys += loop((), *((0, CURSOR, e) for e in range(E)))
    keys += loop((0, MULTITASK), *((0, TASK, t) for t in steps),
                 *((0, CURSOR, i, e) for i in range(tasks) for e in range(E)))
    keys += loop((0, PRETRAIN),
                 *((0, EXAMPLE, t, i) for t in steps for i in range(B)))
    assert len(set(keys)) == len(keys)
    rng = Rng(seed)
    assert len({first_words(rng.at(*key)) for key in keys}) == len(keys)
