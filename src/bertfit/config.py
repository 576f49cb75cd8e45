"""Experiment configuration dataclasses and JSON config files."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .longtext import STRATEGIES, TruncationStrategy
from .model import EncoderConfig, LayerSelection


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
    seed: int = 0

    def __post_init__(self):
        if self.long_text not in STRATEGIES:
            raise ValueError(f"unknown long-text strategy {self.long_text!r}")

    @property
    def capacity(self) -> int:
        return self.max_len - 2

    def truncation(self) -> TruncationStrategy | None:
        if self.combiner_kind:
            return None
        cap = self.capacity
        # scale the paper's 128/382 split to the configured capacity
        head = round(cap * 128 / 510)
        return TruncationStrategy(kind=self.long_text, head_budget=head,
                                  tail_budget=cap - head, capacity=cap)

    @property
    def combiner_kind(self) -> str | None:
        return self.long_text[5:] if self.long_text.startswith("hier_") \
            else None

    def to_dict(self):
        d = asdict(self)
        d["layer_selection"] = asdict(self.layer_selection)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if isinstance(d.get("layer_selection"), dict):
            d["layer_selection"] = LayerSelection(**d["layer_selection"])
        return cls(**d)


@dataclass
class ExperimentConfig:
    model: EncoderConfig = field(default_factory=EncoderConfig)
    recipe: TrainingRecipe = field(default_factory=TrainingRecipe)
    seed: int = 0
    validation_fraction: float = 0.1
    few_shot_proportion: float = 1.0
    strict_deterministic: bool = False

    def to_dict(self):
        return {
            "model": self.model.to_dict(),
            "recipe": self.recipe.to_dict(),
            "seed": self.seed,
            "validation_fraction": self.validation_fraction,
            "few_shot_proportion": self.few_shot_proportion,
            "strict_deterministic": self.strict_deterministic,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if isinstance(d.get("model"), dict):
            d["model"] = EncoderConfig.from_dict(d["model"])
        if isinstance(d.get("recipe"), dict):
            d["recipe"] = TrainingRecipe.from_dict(d["recipe"])
        return cls(**d)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
