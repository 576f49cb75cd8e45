"""Deterministic random number generation: every draw of the toolkit is
from an :class:`Rng`, a PCG64 stream (a fixed algorithm, so the same bits
on every platform) of a seed and a `np.random.SeedSequence` spawn key.

The key table. A command draws its run under `Rng(recipe.seed)`, each
stream keyed 0 (a step that never runs) and then its purpose, except that
step t >= 1 of a loop keys its dropout at site s (t, s) under the loop's
key; so no two of a command's streams share a key:

    (0, INIT)               initial weights, every command
    (0, COMBINER)           a `hier_*` recipe's fraction combiner
    (0, HEAD)               the head of finetune, eval and grid
    (0, HEAD, i)            multitask's task i head, of the sorted names
    () + (t, s)             finetune's loop (per-task refinement's too)
       + (0, CURSOR, e)       pass e of its batch order
    (0, MULTITASK) + (t, s) multitask's loop
       + (0, TASK, t)         the task of step t
       + (0, CURSOR, i, e)    pass e of task i's batch order
    (0, PRETRAIN) + (t, s)  pretrain's loop
       + (0, EXAMPLE, t, i)   example i of step t

The splits draw from the unkeyed `Rng(seed)` of the experiment's `seed`.
"""

from __future__ import annotations

import math

import numpy as np

# purposes: a loop's streams keyed (0, purpose, ...), then a command's
CURSOR, TASK, EXAMPLE, INIT, HEAD, COMBINER, MULTITASK, PRETRAIN = range(1, 9)


class Rng:
    """Seeded PCG64 stream with cheap derived sub-streams."""

    def __init__(self, seed: int, key=(), rows=None):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.key = tuple(key)
        self.rows = rows                    # see keep_mask
        self.gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(self.seed, spawn_key=self.key)))

    def derive(self, index: int) -> "Rng":
        """The stream of seed XOR index, kept for acceptance tests 6 and 8
        and perfbench; nested indices collide (a then b is b then a, 100
        then 0 is 101 then 1), so the package keys its streams with `at`."""
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

    def truncated_normal(self, shape, std=0.02, dtype=np.float32):
        """Normal(0, std) clipped at two standard deviations."""
        x = self.gen.normal(0.0, std, size=shape)
        return np.clip(x, -2.0 * std, 2.0 * std).astype(dtype)

    def uniform(self):
        return self.gen.random()

    def randint(self, low, high=None):
        return int(self.gen.integers(low, high))
