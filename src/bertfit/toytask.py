"""Synthetic desk-scale benchmark tasks.

The marker-order task: each document contains the two marker words
"alpha" and "beta" among random filler words; the label says which marker
appears first. Solvable only through position information, so it exercises
embeddings, attention, and the classifier end to end.
"""

from __future__ import annotations

from .config import TrainingRecipe
from .data import Dataset, Example
from .model import EncoderConfig
from .rng import Rng

FILLERS = ["red", "blue", "green", "gold", "stone", "river", "cloud",
           "light", "paper", "glass", "north", "south", "field", "crane",
           "maple", "owl"]
MARKERS = ("alpha", "beta")


def make_marker_example(rng: Rng) -> Example:
    """One document of 8 to 24 words; the markers are kept at least 6 words
    apart. The order is unambiguous in the full text, but a truncation can
    drop both markers (see `marker_benchmark`), leaving a coin flip."""
    while True:
        n = rng.randint(8, 25)
        # one call draws the same values as n scalar randint calls
        words = [FILLERS[k] for k in rng.gen.integers(len(FILLERS), size=n)]
        i = rng.randint(n)
        j = rng.randint(n - 1)
        if j >= i:
            j += 1
        if abs(i - j) < 6:
            continue
        words[i] = MARKERS[0]
        words[j] = MARKERS[1]
        return Example(label=0 if i < j else 1, text=" ".join(words))


def make_marker_task(n_train: int, n_test: int, seed: int = 0):
    """Balanced train/test datasets for the marker-order task."""
    rng = Rng(seed)
    def build(n, split):
        examples = []
        while len(examples) < n:
            ex = make_marker_example(rng)
            # keep the classes balanced by construction
            want = len(examples) % 2
            if ex.label == want:
                examples.append(ex)
        return Dataset(name="marker-order", examples=examples, n_classes=2,
                       split=split)
    return build(n_train, "train"), build(n_test, "test")


def marker_vocab_corpus():
    return [" ".join(FILLERS + list(MARKERS))]


def marker_benchmark(vocab_size: int):
    """Known-good encoder config + recipe for the marker-order task.

    Reaches <=5% test error in 1200 steps (about 24 s on one CPU core)
    with 1800 training documents (2000 before the validation split). Its
    `head_only` truncation at `max_len` 32 keeps neither marker in about
    7.6% of documents (78 of the 1024 test documents of
    `make_marker_task(2000, 1024, seed=972)`, 79 at seed 7), whose labels
    no model can read: a floor of about 3.8% error under the 5% gate.
    """
    config = EncoderConfig(n_layers=2, hidden=64, n_heads=4,
                           vocab_size=vocab_size, max_positions=32,
                           dropout=0.1)
    recipe = TrainingRecipe(long_text="head_only", base_lr=1e-3,
                            decay_factor=0.95, train_steps=1200,
                            batch_size=32, max_len=32, epochs=4, seed=0)
    return config, recipe
