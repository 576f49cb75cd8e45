"""Long-document handling: truncation and hierarchical fraction pooling.

Capacity is 510 content tokens at paper scale (512 minus [CLS] and [SEP]);
head+tail keeps the first 128 and last 382. Over-length documents can
instead be chunked into ceil(L/510) fractions whose [CLS] representations
are pooled by mean, max, or a single-query self-attention combiner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import Rng
from .tokenizer import encode

STRATEGIES = ("head_only", "tail_only", "head_tail",
              "hier_mean", "hier_max", "hier_attn")


@dataclass
class TruncationStrategy:
    kind: str = "head_tail"         # head_only | tail_only | head_tail
    capacity: int = 510

    def __post_init__(self):
        if self.kind not in ("head_only", "tail_only", "head_tail"):
            raise ValueError(f"unknown truncation kind {self.kind!r}")


def truncate(tokens: list, strategy: TruncationStrategy) -> list:
    """At most `capacity` tokens; head_tail keeps the paper's 128/382
    split scaled to the capacity (exactly 128 + 382 at 510)."""
    cap = strategy.capacity
    if len(tokens) <= cap:
        return list(tokens)
    if strategy.kind == "head_only":
        return list(tokens[:cap])
    if strategy.kind == "tail_only":
        return list(tokens[-cap:])
    head = round(cap * 128 / 510)   # < cap, so the tail keeps >= 1
    return list(tokens[:head]) + list(tokens[-(cap - head):])


@dataclass
class ChunkedDocument:
    fractions: list                 # list of TokenizedSequence
    n_content: int

    @property
    def k(self):
        return len(self.fractions)

    @property
    def label(self):
        return self.fractions[0].label


def chunk(tokens: list, vocab, capacity: int = 510,
          label=None) -> ChunkedDocument:
    """Split into ceil(L/capacity) contiguous fractions, each wrapped with
    [CLS]/[SEP] and padded to capacity+2."""
    n = len(tokens)
    k = max(1, -(-n // capacity))
    max_len = capacity + 2
    fractions = []
    for i in range(k):
        part = tokens[i * capacity:(i + 1) * capacity]
        fractions.append(encode(part, None, max_len, vocab, label=label))
    return ChunkedDocument(fractions=fractions, n_content=n)


@dataclass
class FractionCombiner:
    """Pools k fraction [CLS] vectors into one width-H vector."""

    kind: str                       # mean | max | attn
    query: Tensor | None = None     # (H,) learned query, attn only
    wk: Tensor | None = None        # (H, H)
    wv: Tensor | None = None        # (H, H)

    @classmethod
    def init(cls, kind: str, hidden: int = 0, rng: Rng | None = None,
             dtype=np.float32):
        if kind in ("mean", "max"):
            return cls(kind=kind)
        if kind != "attn":
            raise ValueError(f"unknown combiner kind {kind!r}")
        # value projection starts at identity so a single fraction passes
        # through unchanged
        return cls(
            kind="attn",
            query=Tensor(rng.truncated_normal((hidden,), 0.02, dtype=dtype),
                         name="combiner.q"),
            wk=Tensor(rng.truncated_normal((hidden, hidden), 0.02,
                                           dtype=dtype), name="combiner.wk"),
            wv=Tensor(np.eye(hidden, dtype=dtype), name="combiner.wv"),
        )

    def parameters(self):
        if self.kind == "attn":
            return [self.query, self.wk, self.wv]
        return []


def combine(cls_vectors: Tensor, combiner: FractionCombiner) -> Tensor:
    """Pool (k, H) fraction representations into (H,).

    attn: weights = softmax_k(q . (W_k c_i) / sqrt(H)), output
    sum_i w_i (W_v c_i): one single-head `attention_core` of the query
    over the k fractions.
    """
    k, H = cls_vectors.shape
    if combiner.kind == "mean":
        return ad.tmean(cls_vectors, axis=0)
    if combiner.kind == "max":
        return ad.tmax(cls_vectors, axis=0)
    keys, vals = (ad.reshape(ad.matmul(cls_vectors, w), (1, k, H))
                  for w in (combiner.wk, combiner.wv))
    q = ad.reshape(combiner.query, (1, 1, H))
    return ad.reshape(ad.attention_core(q, keys, vals, 1, 0.0, 0.0, None),
                      (H,))
