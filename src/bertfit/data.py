"""Dataset ingestion, validation splits, and few-shot subsampling.

Datasets arrive in the character-level-benchmark CSV layout: a 1-based
label index followed by one text field, or by title and body fields which
get joined with a space.
"""

from __future__ import annotations

import csv
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .rng import Rng


@dataclass
class Example:
    label: int
    text: str


@dataclass
class Dataset:
    name: str
    examples: list[Example]
    n_classes: int
    split: str = "train"

    def __len__(self):
        return len(self.examples)


FORMATS = ("csv-label-text", "csv-label-title-body")


class InputError(ValueError):
    """An input file that cannot be read or does not fit; names the path."""


@contextmanager
def open_input(path, what, *args, **kw):
    """`with open(path, *args, **kw)` to read; InputError names `path` and
    the `what` it holds if it cannot be opened, or if text read in the
    with-block is not in its encoding."""
    try:
        fh = open(path, *args, **kw)
    except OSError as e:
        raise InputError(f"{path}: cannot open {what}: {e.strerror}") \
            from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: cannot read {what}: not "
                             f"{e.encoding} text ({e.reason})") from None


def load_dataset(path, fmt: str = "csv-label-text", name: str = "",
                 n_classes: int | None = None,
                 split: str = "train") -> Dataset:
    """Load a labeled CSV; labels shift from 1-based to 0-based. InputError
    names `path`, and the line of a row that does not fit."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    want = 2 if fmt == "csv-label-text" else 3
    examples = []
    max_label = -1
    with open_input(path, "dataset", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != want:
                raise InputError(
                    f"{path}:{lineno}: expected {want} fields, got {len(row)}")
            try:
                label = int(row[0]) - 1
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: label {row[0]!r} is not an integer")
            if label < 0:
                raise InputError(
                    f"{path}:{lineno}: label must be >= 1 (1-based)")
            text = row[1] if want == 2 else (row[1] + " " + row[2]).strip()
            text = text.strip()
            if not text:
                raise InputError(f"{path}:{lineno}: empty text")
            max_label = max(max_label, label)
            examples.append(Example(label=label, text=text))
    if not examples:
        raise InputError(f"{path}: no examples")
    if n_classes is None:
        n_classes = max_label + 1
    elif max_label >= n_classes:
        raise InputError(
            f"{path}: label {max_label + 1} outside declared {n_classes} "
            "classes")
    return Dataset(name=name or str(path), examples=examples,
                   n_classes=n_classes, split=split)


def _stratified(dataset: Dataset, seed: int, count) -> list[int]:
    """Ascending indices of a seeded stratified pick: each class's indices
    are permuted by `Rng(seed)`, classes in order of first appearance, and
    the first `count(label, size)` of each are taken, in label order."""
    rng = Rng(seed)
    by_class = defaultdict(list)
    for i, ex in enumerate(dataset.examples):
        by_class[ex.label].append(i)
    perms = {label: rng.gen.permutation(idxs).tolist()
             for label, idxs in by_class.items()}
    return sorted(i for label in sorted(perms)
                  for i in perms[label][:count(label, len(perms[label]))])


def split_validation(dataset: Dataset, fraction: float, seed: int):
    """Stratified, seeded train/validation split; disjoint and exhaustive.
    Every class keeps at least one example in each split."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")

    def n_val(label, size):
        if size < 2:
            raise ValueError(
                f"class {label} has {size} example(s); cannot split")
        return min(max(1, round(fraction * size)), size - 1)

    val_idx = set(_stratified(dataset, seed, n_val))
    train, val = [], []
    for i, ex in enumerate(dataset.examples):
        (val if i in val_idx else train).append(ex)
    return (replace(dataset, examples=train, split="train"),
            replace(dataset, examples=val, split="validation"))


def subsample(dataset: Dataset, proportion: float, seed: int) -> Dataset:
    """Stratified few-shot subset of round(proportion * N) examples."""
    if not 0.0 < proportion <= 1.0:
        raise ValueError("proportion must be in (0, 1]")
    if proportion == 1.0:
        return dataset

    def n_keep(label, size):
        n = round(proportion * size)
        if n == 0:
            warnings.warn(
                f"proportion {proportion} rounds to 0 in class {label}; "
                "keeping 1 example")
        return max(n, 1)

    keep = _stratified(dataset, seed, n_keep)
    return replace(dataset, examples=[dataset.examples[i] for i in keep])
