"""Deterministic random number generation.

All stochastic choices in the toolkit (initialization, dropout, masking,
sampling) flow through :class:`Rng`, a thin wrapper around numpy's PCG64
bit generator. PCG64 is a fixed, documented algorithm whose stream depends
only on the seed, so the same seed produces bitwise-identical results on
every platform. `at` keys a sub-stream by a `np.random.SeedSequence`
spawn key, so every batch and mask of a run is a function of its seed
and its key.

The key rule: under a training loop's `rng`, step t's dropout at site s
is keyed (t, s), t >= 1; every other stream of the loop is keyed 0, a
step that never runs, then its purpose: pass e of the batch order
(0, CURSOR, e), and of multi-task's task i (0, CURSOR, i, e); the task of
step t (0, TASK, t); pre-training example i of step t (0, EXAMPLE, t, i).
So no two of a run's streams share a key.
"""

from __future__ import annotations

import math

import numpy as np

# purposes of a training loop's streams keyed (0, purpose, ...)
CURSOR, TASK, EXAMPLE = 1, 2, 3


class Rng:
    """Seeded PCG64 stream with cheap derived sub-streams."""

    def __init__(self, seed: int, key=(), rows=None):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.key = tuple(key)
        self.rows = rows                    # see keep_mask
        self.gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(self.seed, spawn_key=self.key)))

    def derive(self, index: int) -> "Rng":
        """Independent stream for item `index` (seed XOR index), so that
        per-document example construction does not depend on order. Only
        the indices of one parent are independent: `derive(a).derive(b)` is
        `derive(b).derive(a)`, and `derive(100).derive(0)` is
        `derive(101).derive(1)`; key nested streams with `at`."""
        return Rng(self.seed ^ (int(index) + 0x9E3779B97F4A7C15))

    def at(self, *key: int, rows=None) -> "Rng":
        """The stream keyed by this one's key and then `key` (`at(3, 5)` is
        `at(3).at(5)`, and independent of `at(5, 3)`), with `rows`."""
        return Rng(self.seed, self.key + key, rows)

    def keep_mask(self, shape, p: float):
        """Dropout's boolean keep mask of `shape` at rate p: each row (the
        last axis) takes the next raw 64-bit words of the stream, in C
        order, as little-endian 32-bit halves, and keeps an element iff its
        half is at least floor(p * 2**32), with probability within 2**-32 of
        1 - p. An op on R of the S rows of each of B items sets `rows` to
        (positions, S), `positions` a (B, R) int array: its (B, ..., R, W)
        mask is rows positions[b] of item b of the (B, ..., S, W) one."""
        *lead, width = shape
        if self.rows is not None:
            positions, lead[-1] = self.rows
        n = (width + 1) // 2                # words per row
        words = self.gen.bit_generator.random_raw(math.prod(lead) * n)
        halves = words.astype("<u8", copy=False).view("<u4")
        kept = halves.reshape(*lead, 2 * n)[..., :width] >= int(p * 2**32)
        if self.rows is None:
            return kept
        idx = np.expand_dims(positions, (*range(1, len(shape) - 2), -1))
        return np.take_along_axis(kept, idx, axis=-2)

    # -- convenience passthroughs ------------------------------------------

    def truncated_normal(self, shape, std=0.02, dtype=np.float32):
        """Normal(0, std) clipped at two standard deviations."""
        x = self.gen.normal(0.0, std, size=shape)
        return np.clip(x, -2.0 * std, 2.0 * std).astype(dtype)

    def uniform(self):
        return self.gen.random()

    def randint(self, low, high=None):
        return int(self.gen.integers(low, high))
