"""An independent float64 forward pass for checking scored logits.

Plain numpy, written from the model's definition rather than through
bertfit's tape ops: the encoder in eval mode (no dropout), attention
pooling over a document's fraction [CLS] vectors, and the classifier
head. `longdoc-hier` compares the logits it scored against these, so a
faster forward pass must still compute the same function.
"""

from __future__ import annotations

import numpy as np

GELU_C = np.sqrt(2.0 / np.pi)


def _layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x ** 3)))


def _f64(tensor):
    return np.asarray(tensor.data, dtype=np.float64)


def cls_vectors(p: dict, n_layers: int, n_heads: int, ids, segs, mask):
    """Last-layer [CLS] vectors (B, H) of a padded batch.

    `p` maps parameter names to float64 arrays."""
    B, S = ids.shape
    x = p["emb.tok"][ids] + p["emb.pos"][np.arange(S)] + p["emb.seg"][segs]
    x = _layer_norm(x, p["emb.ln_g"], p["emb.ln_b"])
    H = x.shape[-1]
    hd = H // n_heads
    bias = (1.0 - mask[:, None, None, :]) * -1e9
    for i in range(n_layers):
        b = f"block{i}."

        def heads(name):
            y = x @ p[b + "w" + name] + p[b + "b" + name]
            return y.reshape(B, S, n_heads, hd).transpose(0, 2, 1, 3)

        q, k, v = heads("q"), heads("k"), heads("v")
        probs = _softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd) + bias)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, S, H)
        x = _layer_norm(x + ctx @ p[b + "wo"] + p[b + "bo"],
                        p[b + "attn_ln_g"], p[b + "attn_ln_b"])
        h = _gelu(x @ p[b + "ffn_w1"] + p[b + "ffn_b1"])
        x = _layer_norm(x + h @ p[b + "ffn_w2"] + p[b + "ffn_b2"],
                        p[b + "ffn_ln_g"], p[b + "ffn_ln_b"])
    return x[:, 0]


def hier_forward(model, head, combiner, docs):
    """Pooled features (len(docs), H) and logits (len(docs), n_classes) of
    prepared long documents. Each document's fractions are encoded as a
    batch of their own and pooled by attention: softmax_k(q . (W_k c_i) /
    sqrt(H)) weights over W_v c_i."""
    cfg = model.config
    p = {name: _f64(t) for name, t in model.params.items()}
    query, wk, wv = _f64(combiner.query), _f64(combiner.wk), _f64(combiner.wv)
    W, b = _f64(head.W), _f64(head.b)
    pooled = []
    for doc in docs:
        fr = doc.fractions
        cls = cls_vectors(p, cfg.n_layers, cfg.n_heads,
                          np.array([f.token_ids for f in fr]),
                          np.array([f.segment_ids for f in fr]),
                          np.array([f.attention_mask for f in fr]))
        weights = _softmax((cls @ wk) @ query / np.sqrt(cls.shape[1]))
        pooled.append(weights @ (cls @ wv))
    pooled = np.array(pooled)
    return pooled, pooled @ W + b
