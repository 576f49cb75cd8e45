"""Mini BERT-style encoder: embeddings, transformer blocks, heads.

Parameters live in a flat name -> Tensor dict. Names are prefixed by depth
("emb.", "block0.", ... , "head.") which is what the layer-wise optimizer
groups on. The classifier reads the raw final [CLS] hidden state; there is
no extra pooling layer. The MLM projection is tied to the input embedding
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import Rng


@dataclass
class EncoderConfig:
    n_layers: int = 2
    hidden: int = 64
    n_heads: int = 2
    ffn: int | None = None          # defaults to 4*hidden
    vocab_size: int = 8000
    max_positions: int = 128
    dropout: float = 0.1
    n_segments: int = 2
    dtype: str = "f4"               # "f8" for gradient checking

    def __post_init__(self):
        if self.ffn is None:
            self.ffn = 4 * self.hidden
        if self.n_layers < 1:
            raise ValueError("need at least one block")
        if self.hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "f8" else np.float32

    def to_dict(self):
        return {
            "n_layers": self.n_layers, "hidden": self.hidden,
            "n_heads": self.n_heads, "ffn": self.ffn,
            "vocab_size": self.vocab_size,
            "max_positions": self.max_positions, "dropout": self.dropout,
            "n_segments": self.n_segments, "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class LayerSelection:
    """Which hidden states feed the classifier, and how to combine them.

    Layer index 0 is the embedding output; index l is the output of block
    l. "last4"/"first4" use up to four block outputs (fewer when the model
    is shallower).
    """

    strategy: str = "single"        # single | first4 | last4 | all
    layer: int = -1                 # for "single"; -1 means topmost block
    combiner: str = "concat"        # concat | mean | max (unused for single)

    def layer_indices(self, n_layers: int) -> list[int]:
        if self.strategy == "single":
            l = self.layer if self.layer >= 0 else n_layers
            if not 0 <= l <= n_layers:
                raise ValueError(f"layer {l} out of range [0, {n_layers}]")
            return [l]
        if self.strategy == "first4":
            return list(range(1, min(4, n_layers) + 1))
        if self.strategy == "last4":
            return list(range(max(1, n_layers - 3), n_layers + 1))
        if self.strategy == "all":
            return list(range(1, n_layers + 1))
        raise ValueError(f"unknown strategy {self.strategy!r}")

    def feature_width(self, hidden: int, n_layers: int) -> int:
        n = len(self.layer_indices(n_layers))
        if self.strategy == "single" or self.combiner in ("mean", "max"):
            return hidden
        if self.combiner == "concat":
            return n * hidden
        raise ValueError(f"unknown combiner {self.combiner!r}")


class EncoderModel:
    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.dropout_rng: Rng | None = None

    def parameters(self):
        return list(self.params.values())

    def named_parameters(self):
        return dict(self.params)

    def param_count(self):
        return sum(p.size for p in self.params.values())


def init_model(config: EncoderConfig, rng: Rng) -> EncoderModel:
    """Truncated-normal(0, 0.02) weights, zero biases, unit LN gains."""
    dt = config.np_dtype
    H, F, V = config.hidden, config.ffn, config.vocab_size
    p: dict[str, Tensor] = {}

    def w(name, shape):
        p[name] = Tensor(rng.truncated_normal(shape, 0.02, dtype=dt), name=name)

    def zeros(name, shape):
        p[name] = Tensor(np.zeros(shape, dtype=dt), name=name)

    def ones(name, shape):
        p[name] = Tensor(np.ones(shape, dtype=dt), name=name)

    w("emb.tok", (V, H))
    w("emb.pos", (config.max_positions, H))
    w("emb.seg", (config.n_segments, H))
    ones("emb.ln_g", (H,))
    zeros("emb.ln_b", (H,))
    for i in range(config.n_layers):
        b = f"block{i}."
        for nm in ("wq", "wk", "wv", "wo"):
            w(b + nm, (H, H))
        for nm in ("bq", "bk", "bv", "bo"):
            zeros(b + nm, (H,))
        ones(b + "attn_ln_g", (H,))
        zeros(b + "attn_ln_b", (H,))
        w(b + "ffn_w1", (H, F))
        zeros(b + "ffn_b1", (F,))
        w(b + "ffn_w2", (F, H))
        zeros(b + "ffn_b2", (H,))
        ones(b + "ffn_ln_g", (H,))
        zeros(b + "ffn_ln_b", (H,))
    # MLM transform + tied output bias, NSP head
    w("head.mlm_w", (H, H))
    zeros("head.mlm_b", (H,))
    ones("head.mlm_ln_g", (H,))
    zeros("head.mlm_ln_b", (H,))
    zeros("head.mlm_out_b", (V,))
    w("head.nsp_w", (H, 2))
    zeros("head.nsp_b", (2,))
    return EncoderModel(config, p)


def _attention(p, prefix, x, mask_bias, cfg, train, rng):
    B, S, H = x.shape
    A = cfg.n_heads
    hd = H // A

    def proj(wname, bname):
        y = ad.add(ad.matmul(x, p[prefix + wname]), p[prefix + bname])
        y = ad.reshape(y, (B, S, A, hd))
        return ad.transpose(y, (0, 2, 1, 3))          # (B, A, S, hd)

    q = proj("wq", "bq")
    k = proj("wk", "bk")
    v = proj("wv", "bv")
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                      1.0 / np.sqrt(hd))
    scores = ad.add_const(scores, mask_bias)          # -inf at [PAD] keys
    probs = ad.softmax(scores, axis=-1)
    if train and cfg.dropout > 0:
        probs = ad.dropout(probs, cfg.dropout, rng)
    ctx = ad.matmul(probs, v)                          # (B, A, S, hd)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, S, H))
    out = ad.add(ad.matmul(ctx, p[prefix + "wo"]), p[prefix + "bo"])
    return out, probs


def encode_batch(model: EncoderModel, token_ids, segment_ids, attention_mask,
                 mode: str = "eval", return_attn: bool = False):
    """Forward pass over a batch; returns the L+1 hidden states.

    token_ids / segment_ids / attention_mask: (B, S) int arrays.
    Index 0 of the result is the embedding output, index l the output of
    block l; every entry has shape (B, S, H).
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(token_ids)
    segs = np.asarray(segment_ids)
    mask = np.asarray(attention_mask)
    B, S = ids.shape
    if S > cfg.max_positions:
        raise ValueError(
            f"sequence length {S} exceeds max positions {cfg.max_positions}")
    train = mode == "train"
    rng = model.dropout_rng
    if train and cfg.dropout > 0 and rng is None:
        raise ValueError("train mode with dropout needs model.dropout_rng")

    pos = np.broadcast_to(np.arange(S), (B, S))
    x = ad.add(ad.add(ad.embedding(p["emb.tok"], ids),
                      ad.embedding(p["emb.pos"], pos)),
               ad.embedding(p["emb.seg"], segs))
    x = ad.layer_norm(x, p["emb.ln_g"], p["emb.ln_b"])
    if train and cfg.dropout > 0:
        x = ad.dropout(x, cfg.dropout, rng)

    mask_bias = ((1.0 - mask[:, None, None, :]) * -1e9).astype(cfg.np_dtype)
    outputs = [x]
    attn_probs = []
    for i in range(cfg.n_layers):
        b = f"block{i}."
        attn_out, probs = _attention(p, b, x, mask_bias, cfg, train, rng)
        attn_probs.append(probs)
        if train and cfg.dropout > 0:
            attn_out = ad.dropout(attn_out, cfg.dropout, rng)
        x = ad.layer_norm(ad.add(x, attn_out),
                          p[b + "attn_ln_g"], p[b + "attn_ln_b"])
        h = ad.gelu(ad.add(ad.matmul(x, p[b + "ffn_w1"]), p[b + "ffn_b1"]))
        h = ad.add(ad.matmul(h, p[b + "ffn_w2"]), p[b + "ffn_b2"])
        if train and cfg.dropout > 0:
            h = ad.dropout(h, cfg.dropout, rng)
        x = ad.layer_norm(ad.add(x, h),
                          p[b + "ffn_ln_g"], p[b + "ffn_ln_b"])
        outputs.append(x)
    if return_attn:
        return outputs, attn_probs
    return outputs


def encode(model: EncoderModel, seq, mode: str = "eval"):
    """Single-sequence wrapper; returns L+1 states of shape (S, H)."""
    outs = encode_batch(
        model, np.asarray(seq.token_ids)[None, :],
        np.asarray(seq.segment_ids)[None, :],
        np.asarray(seq.attention_mask)[None, :], mode=mode)
    return [ad.select(o, 0, 0) for o in outs]


def select_features(outputs, sel: LayerSelection) -> Tensor:
    """[CLS] vector(s) from the selected layers, combined per `sel`.

    `outputs` holds L+1 states of shape (B, S, H); returns (B, width).
    """
    n_layers = len(outputs) - 1
    idx = sel.layer_indices(n_layers)
    cls_vecs = [ad.select(outputs[l], 0, 1) for l in idx]   # (B, H) each
    if len(cls_vecs) == 1:
        return cls_vecs[0]
    if sel.combiner == "concat":
        return ad.concat(cls_vecs, axis=-1)
    stacked = ad.concat(
        [ad.reshape(v, (v.shape[0], 1, v.shape[1])) for v in cls_vecs], axis=1)
    if sel.combiner == "mean":
        return ad.tmean(stacked, axis=1)
    if sel.combiner == "max":
        return ad.tmax(stacked, axis=1)
    raise ValueError(f"unknown combiner {sel.combiner!r}")


@dataclass
class ClassifierHead:
    W: Tensor
    b: Tensor

    @classmethod
    def init(cls, in_width: int, n_classes: int, rng: Rng, dtype=np.float32,
             name="cls"):
        return cls(
            W=Tensor(rng.truncated_normal((in_width, n_classes), 0.02,
                                          dtype=dtype), name=f"{name}.W"),
            b=Tensor(np.zeros(n_classes, dtype=dtype), name=f"{name}.b"))

    def parameters(self):
        return [self.W, self.b]

    @property
    def n_classes(self):
        return self.W.shape[1]


def class_logits(features: Tensor, head: ClassifierHead) -> Tensor:
    if features.shape[-1] != head.W.shape[0]:
        raise ValueError(
            f"feature width {features.shape[-1]} does not match classifier "
            f"input width {head.W.shape[0]}")
    return ad.add(ad.matmul(features, head.W), head.b)


def classify(features: Tensor, head: ClassifierHead) -> Tensor:
    """softmax(W.features + b); rows sum to 1."""
    return ad.softmax(class_logits(features, head), axis=-1)


def mlm_logits(model: EncoderModel, outputs, rows=None) -> Tensor:
    """Vocab logits from the final hidden state; the output projection is
    tied to the token embeddings.

    Returns (B, S, V) logits at every position. With `rows`, an int array
    of flat indices into the B*S positions (index b*S + s), returns
    (len(rows), V) logits for those positions only: the transform and the
    V-wide projection then run on those rows alone.
    """
    p = model.params
    x = outputs[-1]
    if rows is not None:
        B, S, H = x.shape
        x = ad.embedding(ad.reshape(x, (B * S, H)), rows)
    x = ad.gelu(ad.add(ad.matmul(x, p["head.mlm_w"]), p["head.mlm_b"]))
    x = ad.layer_norm(x, p["head.mlm_ln_g"], p["head.mlm_ln_b"])
    emb_t = ad.transpose(p["emb.tok"], (1, 0))
    return ad.add(ad.matmul(x, emb_t), p["head.mlm_out_b"])


def nsp_logits(model: EncoderModel, outputs) -> Tensor:
    """2-class logits over the final [CLS] state; shape (B, 2)."""
    p = model.params
    cls_vec = ad.select(outputs[-1], 0, 1)
    return ad.add(ad.matmul(cls_vec, p["head.nsp_w"]), p["head.nsp_b"])
