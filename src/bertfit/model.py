"""Mini BERT-style encoder: embeddings, transformer blocks, heads.

Parameters live in a flat name -> Tensor dict. Names are prefixed by depth
("emb.", "block0.", ... , "head.") which is what the layer-wise optimizer
groups on. The classifier reads the raw final [CLS] hidden state; there is
no extra pooling layer. The MLM projection is tied to the input embedding
matrix.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

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
    dtype: str = "f4"               # "f4", or "f8" for gradient checking

    def __post_init__(self):
        if self.ffn is None:
            self.ffn = 4 * self.hidden
        for key in ("n_layers", "hidden", "n_heads", "ffn"):
            if getattr(self, key) < 1:
                raise ValueError(
                    f"{key} must be at least 1, got {getattr(self, key)}")
        if self.dtype not in ("f4", "f8"):
            raise ValueError(f"dtype must be 'f4' or 'f8', got {self.dtype!r}")
        if self.hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "f8" else np.float32

    def to_dict(self):
        return asdict(self)


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

    def __post_init__(self):
        if self.strategy not in ("single", "first4", "last4", "all"):
            raise ValueError(f"strategy: unknown strategy {self.strategy!r}")
        if self.combiner not in ("concat", "mean", "max"):
            raise ValueError(f"combiner: unknown combiner {self.combiner!r}")

    def layer_indices(self, n_layers: int) -> list[int]:
        """The selected layers, in ascending order."""
        if self.strategy == "single":
            l = n_layers if self.layer == -1 else self.layer
            if not 0 <= l <= n_layers:
                raise ValueError(f"layer {l} out of range [0, {n_layers}]")
            return [l]
        if self.strategy == "first4":
            return list(range(1, min(4, n_layers) + 1))
        if self.strategy == "last4":
            return list(range(max(1, n_layers - 3), n_layers + 1))
        return list(range(1, n_layers + 1))

    def feature_width(self, hidden: int, n_layers: int) -> int:
        if self.strategy == "single" or self.combiner != "concat":
            return hidden
        return len(self.layer_indices(n_layers)) * hidden


class EncoderModel:
    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self):
        return list(self.params.values())

    def named_parameters(self):
        return named_tensors(self)


def named_tensors(model: EncoderModel, heads=()) -> dict[str, Tensor]:
    """Every trained tensor by its own name: the model's, then those of each
    head or combiner in `heads` (None skipped); ValueError on a repeat."""
    named = {}
    for owner in filter(None, (model, *heads)):
        for p in owner.parameters():
            if p.name in named:
                raise ValueError(f"two trained tensors are named {p.name!r}")
            named[p.name] = p
    return named


def depth_of(name: str, n_layers: int) -> int:
    """Embeddings at depth 0, block i at i+1, every other tensor on top."""
    if name.startswith("emb."):
        return 0
    m = re.match(r"block(\d+)\.", name)
    return int(m.group(1)) + 1 if m else n_layers + 1


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
    w("emb.seg", (2, H))            # segment ids are 0 (A) and 1 (B)
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


def stack_inputs(seqs):
    """The (B, S) token, segment and mask arrays of B equal-length
    sequences, as `encode_batch` takes them."""
    return (np.array([s.token_ids for s in seqs]),
            np.array([s.segment_ids for s in seqs]),
            np.array([s.attention_mask for s in seqs]))


def encode_batch(model: EncoderModel, token_ids, segment_ids, attention_mask,
                 read=None, rng: Rng | None = None):
    """Forward pass over a batch; returns the L+1 hidden states.

    token_ids / segment_ids / attention_mask: (B, S) int arrays.
    Index 0 of the result is the embedding output, index l the output of
    block l; every entry has shape (B, S, H). Dropout runs if and only if
    `rng` is given, site i drawing its masks keyed `rng.at(i)`: site 0 is
    the embedding's, and block i's are 3i + 1 to 3i + 3 (the attention
    probabilities, attention output and FFN output), whatever runs.

    `read=(layer, positions)` computes only what a head reads there: the
    blocks above `layer` do not run, so the result has layer + 1 entries,
    and the last is (B, R, H) even at layer 0, row r of sequence b being
    position positions[b, r] of a (B, R) int array. In that top block keys
    and values still cover all S positions; the queries, attention rows,
    output projection, norms and FFN (one `ad.ffn` op) run on the R rows.
    A position outside [0, S) raises ValueError. Its dropout masks are
    the rows at `positions` of the full block's (`Rng.keep_mask`).
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
    p_drop = cfg.dropout if rng is not None else 0.0

    def site(i, rows=False):        # dropout site i's masks, if any
        return rng and rng.at(i, rows=(positions, S) if rows else None)

    # position rows [0, S), broadcast over the batch; add's backward sums
    # the batch in order, so the gradient has a row scatter's bits
    x = ad.add_layer_norm(ad.add(ad.embedding(p["emb.tok"], ids),
                                 ad.embedding(p["emb.pos"], np.arange(S))),
                          ad.embedding(p["emb.seg"], segs),
                          p["emb.ln_g"], p["emb.ln_b"])
    x = ad.dropout(x, p_drop, site(0))

    top = cfg.n_layers
    if read is not None:
        top, positions = read
        if not 0 <= top <= cfg.n_layers:
            raise ValueError(
                f"read layer {top} out of range [0, {cfg.n_layers}]")
        positions = np.asarray(positions)
        outside = positions[(positions < 0) | (positions >= S)]
        if outside.size:
            raise ValueError(
                f"read position {outside[0]} out of range [0, {S})")
        flat = positions + S * np.arange(B)[:, None]      # into the B*S rows

    mask_bias = (1.0 - mask[:, None, None, :]) * -1e9   # -1e9 at [PAD] keys
    outputs = [x]
    for i in range(top):
        b = f"block{i}."
        rows = read is not None and i == top - 1
        xq = ad.embedding(x, flat) if rows else x
        ctx = ad.self_attention(
            xq, x, *(p[b + n] for n in ("wq", "bq", "wk", "bk", "wv", "bv")),
            cfg.n_heads, mask_bias, p_drop, site(3 * i + 1, rows))
        attn_out = ad.linear(ctx, p[b + "wo"], p[b + "bo"])
        x = ad.add_layer_norm(
            xq, ad.dropout(attn_out, p_drop, site(3 * i + 2, rows)),
            p[b + "attn_ln_g"], p[b + "attn_ln_b"])
        h = ad.dropout(ad.ffn(x, p[b + "ffn_w1"], p[b + "ffn_b1"],
                              p[b + "ffn_w2"], p[b + "ffn_b2"]),
                       p_drop, site(3 * i + 3, rows))
        x = ad.add_layer_norm(x, h, p[b + "ffn_ln_g"], p[b + "ffn_ln_b"])
        outputs.append(x)
    if read is not None and top == 0:
        outputs[0] = ad.embedding(x, flat)
    return outputs


def encode(model: EncoderModel, seq):
    """Single-sequence wrapper without dropout; returns L+1 states of
    shape (S, H)."""
    outs = encode_batch(model, *stack_inputs([seq]))
    return [ad.reshape(o, o.shape[1:]) for o in outs]


def cls_states(x: Tensor) -> Tensor:
    """The (B, H) [CLS] rows (row 0 of each sequence) of a (B, N, H)
    state."""
    B, N, _ = x.shape
    return ad.embedding(x, np.arange(B) * N)


def select_features(outputs, sel: LayerSelection) -> Tensor:
    """[CLS] vector(s) from the selected layers, combined per `sel`.

    `outputs` holds L+1 states of shape (B, *, H) with [CLS] at row 0;
    returns (B, width).
    """
    n_layers = len(outputs) - 1
    idx = sel.layer_indices(n_layers)
    cls_vecs = [cls_states(outputs[l]) for l in idx]   # (B, H) each
    if len(cls_vecs) == 1:
        return cls_vecs[0]
    joined = ad.concat(cls_vecs, axis=-1)               # (B, n H)
    if sel.combiner == "concat":
        return joined
    B, H = cls_vecs[0].shape
    stacked = ad.reshape(joined, (B, len(cls_vecs), H))
    if sel.combiner == "mean":
        return ad.tmean(stacked, axis=1)
    return ad.tmax(stacked, axis=1)


@dataclass
class ClassifierHead:
    W: Tensor
    b: Tensor

    @classmethod
    def init(cls, in_width: int, n_classes: int, rng: Rng, dtype=np.float32,
             name="classifier"):
        return cls(
            W=Tensor(rng.truncated_normal((in_width, n_classes), 0.02,
                                          dtype=dtype), name=f"{name}.W"),
            b=Tensor(np.zeros(n_classes, dtype=dtype), name=f"{name}.b"))

    def parameters(self):
        return [self.W, self.b]


def class_logits(features: Tensor, head: ClassifierHead) -> Tensor:
    if features.shape[-1] != head.W.shape[0]:
        raise ValueError(
            f"feature width {features.shape[-1]} does not match classifier "
            f"input width {head.W.shape[0]}")
    return ad.linear(features, head.W, head.b)


def classify(features: Tensor, head: ClassifierHead) -> Tensor:
    """softmax(W.features + b); rows sum to 1."""
    return ad.softmax(class_logits(features, head))


def mlm_logits(model: EncoderModel, outputs, rows) -> Tensor:
    """Vocab logits from the final hidden state; the output projection is
    tied to the token embeddings.

    `rows` is an int array of flat indices into the B*N rows of the
    (B, N, H) top state `outputs[-1]` (index b*N + n); returns
    (len(rows), V) logits for those rows only, so the transform and the
    V-wide projection run on those rows alone.
    """
    p = model.params
    x = ad.embedding(outputs[-1], rows)
    x = ad.gelu(ad.linear(x, p["head.mlm_w"], p["head.mlm_b"]))
    x = ad.layer_norm(x, p["head.mlm_ln_g"], p["head.mlm_ln_b"])
    emb_t = ad.transpose(p["emb.tok"], (1, 0))
    return ad.linear(x, emb_t, p["head.mlm_out_b"])


def nsp_logits(model: EncoderModel, outputs) -> Tensor:
    """2-class logits over the final [CLS] state (row 0); shape (B, 2)."""
    p = model.params
    return ad.linear(cls_states(outputs[-1]), p["head.nsp_w"],
                     p["head.nsp_b"])
