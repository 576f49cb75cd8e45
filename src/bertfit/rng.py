"""Deterministic random number generation.

All stochastic choices in the toolkit (initialization, dropout, masking,
sampling) flow through :class:`Rng`, a thin wrapper around numpy's PCG64
bit generator. PCG64 is a fixed, documented algorithm whose stream depends
only on the seed, so the same seed produces bitwise-identical results on
every platform.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Seeded PCG64 stream with cheap derived sub-streams."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, index: int) -> "Rng":
        """Independent stream for item `index` (seed XOR index).

        Used for per-document example construction so that parallel order
        cannot change the output.
        """
        return Rng(self.seed ^ (int(index) + 0x9E3779B97F4A7C15))

    # -- convenience passthroughs ------------------------------------------

    def truncated_normal(self, shape, std=0.02, dtype=np.float32):
        """Normal(0, std) clipped at two standard deviations."""
        x = self.gen.normal(0.0, std, size=shape)
        return np.clip(x, -2.0 * std, 2.0 * std).astype(dtype)

    def uniform(self, shape=None):
        return self.gen.random(size=shape)

    def randint(self, low, high=None):
        return int(self.gen.integers(low, high))

    def shuffle(self, seq):
        """In-place Fisher-Yates shuffle of a list."""
        for i in range(len(seq) - 1, 0, -1):
            j = int(self.gen.integers(0, i + 1))
            seq[i], seq[j] = seq[j], seq[i]


class RowDraws:
    """An Rng for an op that runs on R of the S rows of each item.

    `uniform` of an (..., R, W) shape returns the values that `rng.uniform`
    of the full (..., S, W) shape holds at the rows `positions`, a (B, R)
    int array of row indices into the S rows of each of the B leading
    items, and leaves `rng` where that full draw would. It draws only rows
    [0, positions.max()] of each leading item and skips the rest of the
    item's S rows with `bit_generator.advance`, one step per float64.
    `advance` also drops a buffered 32-bit half of the generator, so this
    is exact only for a stream that draws nothing but doubles, as the
    dropout stream a training loop passes to `model.encode_batch` does.
    """

    def __init__(self, rng: Rng, positions, n_rows: int):
        self.rng = rng
        self.positions = positions
        self.n_rows = n_rows

    def uniform(self, shape):
        *lead, _, width = shape
        top = int(self.positions.max()) + 1
        gen = self.rng.gen
        skip = (self.n_rows - top) * width
        draw = np.empty((*lead, top, width))
        for item in draw.reshape(-1, top, width):
            gen.random(out=item)
            gen.bit_generator.advance(skip)
        B, R = self.positions.shape
        idx = self.positions.reshape((B,) + (1,) * (len(shape) - 3) + (R, 1))
        return np.take_along_axis(draw, idx, axis=-2)
