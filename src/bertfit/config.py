"""Experiment configuration: one tree of dataclasses read from a JSON
config by `ExperimentConfig.from_dict`."""

from __future__ import annotations

import math
import typing
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields, \
    is_dataclass

import numpy as np

from .data import FORMATS, load_dataset
from .longtext import STRATEGIES, TruncationStrategy
from .model import EncoderConfig, LayerSelection

TABLE4_LRS = (2.5e-5, 2.0e-5)
TABLE4_XIS = (1.00, 0.95, 0.90, 0.85)
FIGURE2_LRS = (2e-5, 5e-5, 1e-4, 4e-4)


class ConfigError(ValueError):
    """A config the schema rejects; the message names the dotted key."""


def _require(ok: bool, key, value, rule):
    """Reject `value` of `key` unless `ok`; `rule` says what it must be."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value}")


# the largest rate a float32 update can hold: above it (or at inf) the
# update overflows to inf, and 0 x inf makes NaN of untouched rows
_MAX_RATE = float(np.finfo(np.float32).max)


def _rate_fits(key, value):
    _require(value <= _MAX_RATE, key, value,
             f"at most float32's largest value {_MAX_RATE!r}")


def _at_least_1(key, value):
    _require(value >= 1, key, value, "at least 1")


@dataclass
class TrainingRecipe:
    """Everything a fine-tuning run needs beyond model and data."""

    long_text: str = "head_tail"    # one of longtext.STRATEGIES
    layer_selection: LayerSelection = field(default_factory=LayerSelection)
    base_lr: float = 2e-5
    decay_factor: float = 1.0       # xi; 1.0 = plain Adam
    warmup_proportion: float = 0.1
    train_steps: int = 200
    batch_size: int = 24
    max_len: int = 128
    epochs: int = 4                 # evaluation/selection epochs
    clip_norm: float | None = None
    seed: int = 0                   # draws weights, dropout, batch order

    def __post_init__(self):
        if self.long_text not in STRATEGIES:
            raise ValueError(f"long_text: unknown strategy {self.long_text!r}")
        _at_least_1("train_steps", self.train_steps)
        _at_least_1("batch_size", self.batch_size)
        _at_least_1("epochs", self.epochs)
        # two specials and at least one token; `chunk` divides by capacity
        _require(self.max_len >= 3, "max_len", self.max_len, "at least 3")
        # rate 0 is a run that leaves the model as it is
        _require(self.base_lr >= 0, "base_lr", self.base_lr, "at least 0")
        _rate_fits("base_lr", self.base_lr)
        _require(0.0 < self.decay_factor <= 1.0, "decay_factor",
                 self.decay_factor, "in (0, 1]")
        _require(0.0 < self.warmup_proportion < 1.0, "warmup_proportion",
                 self.warmup_proportion, "in (0, 1)")
        _require(self.clip_norm is None or self.clip_norm > 0, "clip_norm",
                 self.clip_norm, "above 0")

    @property
    def capacity(self) -> int:
        return self.max_len - 2

    def truncation(self) -> TruncationStrategy | None:
        if self.combiner_kind:
            return None
        return TruncationStrategy(kind=self.long_text, capacity=self.capacity)

    @property
    def combiner_kind(self) -> str | None:
        return self.long_text[5:] if self.long_text.startswith("hier_") \
            else None


@dataclass
class DataSection:
    """A labelled dataset: a train file and an optional test file."""

    train: str
    test: str | None = None
    format: str = "csv-label-text"
    name: str = ""
    n_classes: int | None = None    # None: the largest train label

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format: unknown format {self.format!r}")

    def load(self):
        """(train, test) Datasets; test is None without a test file."""
        kw = dict(fmt=self.format, name=self.name)
        train = load_dataset(self.train, n_classes=self.n_classes, **kw)
        test = load_dataset(self.test, n_classes=train.n_classes,
                            split="test", **kw) if self.test else None
        return train, test


@dataclass(kw_only=True)
class TaskSection(DataSection):     # a multitask.tasks entry
    name: str = field()             # required: field() drops the "" default


@dataclass
class PretrainSection:
    corpus: str
    steps: int = 1000
    lr: float = 5e-5
    warmup_proportion: float = 0.1
    batch_size: int = 32
    max_len: int | None = None      # None: model.max_positions
    mask_prob: float = 0.15
    checkpoint_every: int | None = None

    def __post_init__(self):
        _at_least_1("steps", self.steps)
        _at_least_1("batch_size", self.batch_size)
        # a pair: three specials and at least one token per segment
        _require(self.max_len is None or self.max_len >= 5, "max_len",
                 self.max_len, "None or at least 5")
        _require(0.0 < self.mask_prob <= 1.0, "mask_prob", self.mask_prob,
                 "in (0, 1]")
        _require(self.lr > 0, "lr", self.lr, "above 0")
        _rate_fits("lr", self.lr)
        _require(0.0 < self.warmup_proportion < 1.0, "warmup_proportion",
                 self.warmup_proportion, "in (0, 1)")
        _require(self.checkpoint_every is None or self.checkpoint_every >= 1,
                 "checkpoint_every", self.checkpoint_every, "at least 1")


@dataclass
class MultitaskSection:
    tasks: list[TaskSection]
    refine_steps: int | None = None

    def __post_init__(self):
        names = [t.name for t in self.tasks]
        if len(names) < 2:
            raise ValueError(f"tasks: multi-task training needs at least "
                             f"two tasks, got {len(names)}")
        if len(set(names)) < len(names):
            raise ValueError(f"tasks: two tasks share a name: {names}")
        _require(self.refine_steps is None or self.refine_steps >= 1,
                 "refine_steps", self.refine_steps, "at least 1")


@dataclass
class GridSection:
    lrs: Sequence[float] = TABLE4_LRS
    decay_factors: Sequence[float] = TABLE4_XIS
    sweep_lrs: Sequence[float] = FIGURE2_LRS

    def __post_init__(self):
        for key, top, rule in (("lrs", math.inf, "above 0"),
                               ("decay_factors", 1.0, "in (0, 1]"),
                               ("sweep_lrs", math.inf, "above 0")):
            values = getattr(self, key)
            _require(len(values) > 0, key, values, "non-empty")
            for i, v in enumerate(values):
                _require(0 < v <= top, f"{key}[{i}]", v, rule)
                _rate_fits(f"{key}[{i}]", v)    # a decay factor always does


# a plain value's JSON types and how a message names them; a bool is not
# a number, and a float field takes a JSON integer
_PLAIN = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string"), bool: ((bool,), "true or false")}


def _read(hint, v, path=""):
    """Build `hint` (a section dataclass, a list of sections or of plain
    values, a plain value, or `X | None` of one) from the JSON value `v`;
    ConfigError names the dotted key `path` of an unknown or missing key, a
    value of the wrong type, or a section that rejects a value."""
    args = typing.get_args(hint)
    if type(None) in args:                      # X | None
        if v is None:
            return v
        hint, = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin in (list, Sequence):
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {v!r}")
        items = [_read(args[0], x, f"{path}[{i}]") for i, x in enumerate(v)]
        return items if origin is list else v
    if not is_dataclass(hint):
        kinds, kind_name = _PLAIN[hint]
        if isinstance(v, bool) != (hint is bool) or not isinstance(v, kinds):
            raise ConfigError(f"{path} must be {kind_name}, got {v!r}")
        return v
    if not isinstance(v, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {v!r}")
    where, hints = f"{path}." if path else "", typing.get_type_hints(hint)
    for key in v:
        if key not in hints:
            raise ConfigError(f"unknown key {where}{key}")
    for f in fields(hint):
        if f.name not in v and f.default is f.default_factory is MISSING:
            raise ConfigError(f"missing key {where}{f.name}")
    kw = {k: _read(hints[k], x, where + k) for k, x in v.items()}
    try:
        return hint(**kw)
    except ValueError as e:
        raise ConfigError(f"{where}{e}") from None


@dataclass
class ExperimentConfig:
    """The whole JSON config; a section or path left None is absent."""

    model: EncoderConfig = field(default_factory=EncoderConfig)
    recipe: TrainingRecipe = field(default_factory=TrainingRecipe)
    seed: int = 0                   # draws the few-shot and validation splits
    validation_fraction: float = 0.1
    few_shot_proportion: float = 1.0
    strict_deterministic: bool = False
    vocab: str | None = None
    data: DataSection | None = None
    init_checkpoint: str | None = None
    pretrain: PretrainSection | None = None
    multitask: MultitaskSection | None = None
    grid: GridSection | None = None

    def __post_init__(self):
        _require(0.0 < self.validation_fraction < 1.0, "validation_fraction",
                 self.validation_fraction, "in (0, 1)")
        _require(0.0 < self.few_shot_proportion <= 1.0, "few_shot_proportion",
                 self.few_shot_proportion, "in (0, 1]")
        self.check_max_len("pretrain")
        if self.pretrain and self.pretrain.max_len is None:
            _require(self.model.max_positions >= 5, "model.max_positions",
                     self.model.max_positions,
                     "at least 5 when pretrain.max_len is unset")
            self.pretrain.max_len = self.model.max_positions
        try:
            self.recipe.layer_selection.layer_indices(self.model.n_layers)
        except ValueError as e:
            raise ValueError(f"recipe.layer_selection.{e}") from None

    def check_max_len(self, section: str):
        """ConfigError if the `section` ("recipe" or "pretrain") sets a
        max_len above model.max_positions; the commands that read
        `recipe.max_len` check it, `pretrain.max_len` is checked here."""
        max_len = getattr(getattr(self, section), "max_len", None)
        if max_len and max_len > self.model.max_positions:
            raise ConfigError(
                f"{section}.max_len {max_len} exceeds "
                f"model.max_positions {self.model.max_positions}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return _read(cls, d)
