"""Tape-based reverse-mode automatic differentiation over numpy arrays.

Tensors are thin wrappers around row-major numpy arrays (float32 for
training, float64 for gradient checking). Forward ops executed inside an
active :class:`Tape` record a backward rule; :func:`backward` replays the
tape in reverse and accumulates gradients into ``Tensor.grad``. Every op
keeps its tensor input's dtype; constant operands are cast to it.

Gradient contract: each gradient collects in a sink. A recorded output's
sink is its tape record (``Tensor.node``), which holds the gradient, the
backward rule and the output's shape and dtype, but not its data; a leaf
-- a parameter, or another tensor no op produced -- is its own sink. So
after :func:`backward` only leaves hold a gradient, and a record's
gradient lives only until its rule has run. Every gradient is
C-contiguous, whatever the layout of its output. A gradient may be a
borrowed array -- the very array an op's backward rule passed on, which
can be shared with other sinks' gradients (``add`` hands one array to
both inputs; ``reshape``, ``transpose`` and ``_unbroadcast`` pass views
of theirs). So no backward rule or optimizer writes into a gradient it
was handed: `_accum` adds a later contribution in place only into an
array it allocated for that record, and replaces any other gradient -- a
borrowed one, or a leaf's, which outlives backward -- with a new sum.

Only the operations the encoder needs are provided; broadcasting is
limited to trailing-dimension bias adds and batched matmul.

What the tape keeps alive: a backward rule holds the arrays it reads and
the sinks of its inputs, never an op's output Tensor, and the tape holds
no output. So an activation no rule reads (a linear output that only
dropout reads, a dropout output, the MLM logits) is freed as soon as the
forward pass drops it, and `backward` frees each record's rule, with
what it holds, once the rule has run. Every dropout mask, ``dropout``'s
and attention's, is drawn by its `rng` argument (`rng.Rng.keep_mask`)
and kept bit-packed along its last axis (one uint8 per 8 elements);
``cross_entropy`` keeps one (N, C) array, its log-probabilities. The
transformer block runs on four fused ops with hand-written backward
rules, which hold less than the chain of single ops they replace; where
an array is one GEMM away from an input the rule keeps anyway, backward
rebuilds it:

- ``linear(x, w, b)`` folds an n-d activation's leading axes into rows:
  one 2-d GEMM forward and one per weight and input gradient, the bias
  added in place;
- ``self_attention(xq, x, wq, bq, wk, bk, wv, bv, ...)`` is the q, k and
  v projections and the attention core (head split, scores, scale, mask
  bias, softmax, dropout and context) as one record. It keeps xq and x,
  no q, k or v, and no float array of the (B, heads, R, S) attention
  size, for R query rows over S keys: only softmax's row max and row sum
  and the packed dropout mask. Its backward rebuilds q, k and v with the
  forward's GEMMs, then the probabilities one batch slice at a time.
  ``attention_core(q, k, v, ...)`` is the same core on given projections,
  keeping them: the single-query pooling of a document's fractions
  (`longtext.combine`);
- ``add_layer_norm(x, h, ...)`` is the residual add and its layer norm,
  without keeping the sum;
- ``ffn(x, w1, b1, w2, b2)`` is linear, gelu, linear, and keeps only x:
  its backward rebuilds the (rows, F) pre-activation u with the forward's
  GEMM, then gelu's tanh term t, gelu(u) and gelu's slope from u. Its
  elementwise passes run over row chunks that stay in cache, which pays
  for those passes.

A rule that rebuilds from a parameter reads the parameter's array again
in backward, as ``linear`` reads its weight, so a parameter must not
change between forward and backward. Each op computes the same
expressions, on operands of the same layout and in the same order, as the
chain of single ops it replaces, so it gives the same bits; so does each
rebuilt array and each pass over row chunks or batch slices.
``softmax``, ``dropout``, ``attention_core`` and ``self_attention`` share
one softmax forward (`_softmax`), one softmax backward (`_softmax_grad`)
and one dropout kernel (`_dropout`); the two attention ops share one
forward and backward (`_attention`), and ``linear``, ``ffn`` and
``self_attention`` one projection (`_project`); ``gelu`` and ``ffn``
share gelu's kernels (`_gelu_tanh`, `_gelu_value`, `_gelu_slope`).

Freed memory stays in the process: on glibc, importing this module sets
the mmap threshold to 32 MB (the largest glibc takes on 64-bit; a set
value also stops the dynamic threshold) and the heap trim threshold to
1 GB, for the whole process. By default glibc unmaps every large freed
array and trims the heap top, so each step and each scoring batch faulted
its activation pages in again (~1,200 minor faults per marker fine-tuning
step, ~2,400 per 64-document scoring batch). Resident memory therefore
stays at its high-water mark, and `MALLOC_MMAP_THRESHOLD_` and
`MALLOC_TRIM_THRESHOLD_` in the environment are overridden.
"""

from __future__ import annotations

import ctypes
import platform

import numpy as np

DEFAULT_DTYPE = np.float32

LN_EPS = 1e-5                   # layer norm's variance floor

# sqrt(2/pi), for the tanh gelu approximation
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715

# bytes per row chunk (`_row_chunks`) of the elementwise passes of `ffn`
# and `cross_entropy` and of attention's backward batch slices, so
# that a chunk and its temporaries stay in a core's L2 cache
_CHUNK_BYTES = 128 << 10

if platform.libc_ver()[0] == "glibc":     # see the module docstring
    _libc = ctypes.CDLL(None)
    # ctypes passes each value as a C int, silently masked to 32 bits
    _libc.mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)            # M_TRIM_THRESHOLD


class NumericalError(ValueError):
    """Non-finite values where finite ones are required (e.g. NaN logits)."""


class Tensor:
    """n-d array participating in a recorded computation graph.

    `node` is the tape record of the op that produced the tensor, its
    gradient sink; it is None for a leaf (a parameter, or a constant
    created outside a tape), which is its own sink and never receives a
    gradient unless the loss reaches it.
    """

    __slots__ = ("data", "grad", "node", "name")
    _owned = None           # a leaf's gradient outlives backward: see _accum

    def __init__(self, data, dtype=None, name=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.node = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _new_grad(self):
        return np.empty(self.shape, self.dtype)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, name={self.name})"


class _Record:
    """The gradient sink of one recorded output: its gradient, the rule
    that passes that gradient on to the sinks of the op's inputs, and the
    output's shape and dtype; the output's data is not kept."""

    __slots__ = ("grad", "_owned", "backward_fn", "shape", "dtype")

    def __init__(self, data, backward_fn):
        self.grad = self._owned = None
        self.backward_fn = backward_fn
        self.shape = data.shape
        self.dtype = data.dtype

    def _new_grad(self):
        """An empty C-contiguous array, owned by this record."""
        g = self._owned = np.empty(self.shape, self.dtype)
        return g


_ACTIVE_TAPE = None


class Tape:
    """Topologically ordered list of recorded operations.

    Confined to one training thread; use as a context manager around the
    forward pass. `backward` consumes it: afterwards `records` is None.
    """

    def __init__(self):
        self.records = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active")
        if self.records is None:
            raise ValueError("this Tape was consumed by backward")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out_data, backward_fn):
        rec = _Record(out_data, backward_fn)
        self.records.append(rec)
        return rec


def _accum(sink, g):
    """Add `g` into the gradient of `sink`, a record or a leaf Tensor.

    Every gradient is C-contiguous: the first gradient is `g` itself when
    it is C-contiguous and has the sink's dtype (`g` may be a view shared
    with other sinks' gradients); otherwise it is copied into a new
    C-contiguous array, since a gradient's layout decides the summation
    path of every later matmul and sum over it. A later `g` is added in
    place into an array `_accum` allocated for this record (checked by
    identity), and otherwise into a new one, so a borrowed gradient, a
    leaf's or one set from outside is never written into. Elementwise
    addition gives the same bits either way.
    """
    grad = sink.grad
    if grad is None:
        if g.flags.c_contiguous and g.dtype == sink.dtype:
            sink.grad = g
        else:
            sink.grad = grad = sink._new_grad()
            np.copyto(grad, g)
    elif grad is sink._owned:
        grad += g
    else:
        sink.grad = np.add(grad, g, out=sink._new_grad())


def backward(tape: Tape, loss: Tensor, parameters=None):
    """Populate the grads of the leaves reachable from `loss` on `tape`.

    Consumes the tape: each record is taken off it and its rule cleared
    before the rule runs, so every activation and intermediate gradient a
    rule holds is freed once that rule has run (also for a tensor kept
    past the step, whose `node` would otherwise hold its whole graph). A
    second `backward` on the tape raises ValueError. Parameters passed
    explicitly that the loss does not reach get exact zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if tape.records is None:
        raise ValueError("backward already consumed this tape; record the "
                         "forward pass again on a new Tape")
    if loss.node is None:
        raise ValueError("loss is not recorded on the tape")
    records, tape.records = tape.records, None
    loss.node.grad = np.ones_like(loss.data)
    while records:
        rec = records.pop()
        g, rule = rec.grad, rec.backward_fn
        rec.grad = rec._owned = rec.backward_fn = None
        if g is not None:
            rule(g)
    if parameters is not None:
        for p in parameters:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def _unbroadcast(grad, shape):
    """Sum-reduce `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(out_data, backward_fn):
    """The output Tensor of an op; on an active tape its record is its
    `node`. `backward_fn` must hold no input Tensor, only the arrays it
    reads and the sinks (`t.node or t`) of the inputs it passes gradients
    to, so that the tape keeps no more than backward reads."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.name = None
    tape = _ACTIVE_TAPE
    out.node = None if tape is None else tape.record(out_data, backward_fn)
    return out


# -- arithmetic ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    sa, sb = a.node or a, b.node or b

    def bwd(g):
        _accum(sa, _unbroadcast(g, sa.shape))
        _accum(sb, _unbroadcast(g, sb.shape))

    return _make(out_data, bwd)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    da, db = a.data, b.data
    if da.shape[-1] != db.shape[-2 if db.ndim > 1 else 0]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(da, db)
    sa, sb = a.node or a, b.node or b

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(db, -1, -2)) if db.ndim > 1 \
            else np.multiply.outer(g, db)
        gb = np.matmul(np.swapaxes(da, -1, -2), g)
        _accum(sa, _unbroadcast(ga, sa.shape))
        _accum(sb, _unbroadcast(gb, sb.shape))

    return _make(out_data, bwd)


def _project(xd, wd, bd):
    """xd @ wd + bd for an (..., K) array, a (K, N) weight and an (N,)
    bias: the leading axes fold into rows, so it is one 2-d GEMM, the bias
    added in place."""
    K, N = wd.shape
    out = np.matmul(xd.reshape(-1, K), wd)
    out += bd
    return out.reshape(xd.shape[:-1] + (N,))


def _project_grads(g, xd, wd, sx, sw, sb):
    """`_project`'s backward for the output gradient `g`: the bias sum into
    sink `sb`, then the input gradient GEMM into `sx`, then the weight
    gradient GEMM into `sw`."""
    K, N = wd.shape
    _accum(sb, _unbroadcast(g, sb.shape))
    g2 = g.reshape(-1, N)
    _accum(sx, np.matmul(g2, wd.T).reshape(sx.shape))
    _accum(sw, np.matmul(xd.reshape(-1, K).T, g2))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for an (..., K) activation, a (K, N) weight and an (N,)
    bias: the leading axes fold into rows, so the forward pass and each
    weight and input gradient is one 2-d GEMM. The rule keeps x and reads
    w again in backward."""
    xd, wd = x.data, w.data
    K, N = wd.shape
    if xd.shape[-1] != K or b.data.shape != (N,):
        raise ValueError(
            f"linear shapes disagree: {x.shape} x {w.shape} + {b.shape}")
    out_data = _project(xd, wd, b.data)
    sx, sw, sb = x.node or x, w.node or w, b.node or b

    def bwd(g):
        _project_grads(g, xd, wd, sx, sw, sb)

    return _make(out_data, bwd)


def _attention(q, k, v, n_heads, mask_bias, p, rng):
    """Multi-head scaled dot-product attention of (B, R, H) query arrays
    over (B, S, H) key and value arrays: the forward of `attention_core`
    and `self_attention`.

    Per head, probs = softmax(q k^T / sqrt(H / n_heads) + mask_bias) with
    `mask_bias` (broadcast to (B, n_heads, R, S), e.g. -1e9 at padded keys)
    cast to q's dtype, then inverted dropout at rate `p` drawn by `rng`;
    the context probs @ v is merged back to (B, R, H). Scores, scale, mask
    and softmax are built in place in one (B, n_heads, R, S) buffer, freed
    on return.

    Returns the context and `grads(g, q, k, v)`, the backward for the
    context gradient `g`. It holds the cast bias, softmax's row max and row
    sum (two (B, n_heads, R, 1) arrays) and the bit-packed dropout mask, and
    takes q, k and v again as arguments, so it keeps none of them. It
    rebuilds the probabilities one batch slice of about `_CHUNK_BYTES` at a
    time with the forward's own expressions, in the forward's order
    (matmul, scale, bias, minus the max, exp, over the sum), so every bit is
    the forward's, and returns the gradients of q, k and v, each shaped
    like its array.
    """
    B, R, H = q.shape
    S = k.shape[1]
    hd = H // n_heads

    def heads(a):                   # (B, n, H) -> (B, A, n, hd) view
        return a.reshape(B, a.shape[1], n_heads, hd).transpose(0, 2, 1, 3)

    def merged(gh, axes):           # a head-split gradient as (B, n, H)
        gh = np.ascontiguousarray(gh.transpose(axes))
        return gh.reshape(B, gh.shape[1], H)

    c = float(1.0 / np.sqrt(hd))
    probs = np.matmul(heads(q), np.swapaxes(heads(k), -1, -2))
    probs *= c
    bias = np.asarray(mask_bias, dtype=probs.dtype)
    probs += bias
    _, mx, total = _softmax(probs, out=probs)
    drop = _dropout(probs, p, rng, out=probs)[1] if p > 0.0 else None
    out = np.matmul(probs, heads(v)).transpose(0, 2, 1, 3).reshape(B, R, H)

    def grads(g, q, k, v):
        qh, kh, vh = heads(q), heads(k), heads(v)
        gctx = np.ascontiguousarray(heads(g))
        gqh = np.empty_like(gctx)                       # (B, n, R, hd)
        gkh = np.empty((B, n_heads, hd, S), gctx.dtype)
        gvh = np.empty((B, n_heads, S, hd), gctx.dtype)
        full_bias = np.broadcast_to(bias, (B, n_heads, R, S))
        for b in _row_chunks(B, n_heads * R * S * gctx.itemsize):
            probs = np.matmul(qh[b], np.swapaxes(kh[b], -1, -2))
            probs *= c
            probs += full_bias[b]
            probs -= mx[b]
            np.exp(probs, out=probs)
            probs /= total[b]
            gs = np.matmul(gctx[b], np.swapaxes(vh[b], -1, -2))
            if drop is not None:
                mask = drop(b)             # this slice's, unpacked once
                mask(gs, out=gs)
            gp = _softmax_grad(gs, probs)
            if drop is not None:
                mask(probs, out=probs)                  # the dropped probs
            np.matmul(np.swapaxes(probs, -1, -2), gctx[b], out=gvh[b])
            gp *= c
            np.matmul(gp, kh[b], out=gqh[b])
            np.matmul(np.swapaxes(qh[b], -1, -2), gp, out=gkh[b])
        return (merged(gqh, (0, 2, 1, 3)), merged(gkh, (0, 3, 1, 2)),
                merged(gvh, (0, 2, 1, 3)))

    return out, grads


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask_bias,
                   p: float, rng):
    """Multi-head scaled dot-product attention of (B, R, H) query
    projections over (B, S, H) key and value projections (`_attention`):
    the single-query pooling of a document's fractions
    (`longtext.combine`), whose R is 1.

    The rule keeps q, k and v and what `_attention`'s backward holds: no
    float array of the (B, n_heads, R, S) attention size.

    Returns the context Tensor (one tape record).
    """
    qd, kd, vd = q.data, k.data, v.data
    out_data, grads = _attention(qd, kd, vd, n_heads, mask_bias, p, rng)
    sinks = (q.node or q, k.node or k, v.node or v)

    def bwd(g):
        for s, gx in zip(sinks, grads(g, qd, kd, vd)):
            _accum(s, gx)

    return _make(out_data, bwd)


def self_attention(xq: Tensor, x: Tensor, wq: Tensor, bq: Tensor,
                   wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor,
                   n_heads: int, mask_bias, p: float, rng):
    """The encoder's self-attention: the query projection xq @ wq + bq of
    the (B, R, K) rows `xq`, the key and value projections of the (B, S, K)
    activation `x`, and `_attention` over them, as one tape record. In a
    full block xq is x; in the top block of a read it is the rows read.

    The rule keeps xq and x, the parameter arrays, and what `_attention`'s
    backward holds; no q, k or v. Backward rebuilds q, k and v with the
    forward's three GEMMs and bias adds, so they have the forward's bits,
    and it reads the parameter arrays again, as `linear` reads its weight:
    a parameter must not change between forward and backward. After the
    attention backward it hands the gradients on as three `linear` rules
    would in the tape's order: v's, then k's, then q's, each its bias sum,
    then the input gradient, then the weight gradient.

    Returns the (B, R, N) context Tensor.
    """
    K, N = wq.shape
    if xq.shape[-1] != K or x.shape[-1] != K \
            or wk.shape != (K, N) or wv.shape != (K, N) \
            or not bq.shape == bk.shape == bv.shape == (N,):
        raise ValueError(
            f"self_attention shapes disagree: {xq.shape} and {x.shape} x "
            f"{wq.shape}/{wk.shape}/{wv.shape} + "
            f"{bq.shape}/{bk.shape}/{bv.shape}")
    xqd, xd = xq.data, x.data
    projections = ((xqd, wq.data, bq.data), (xd, wk.data, bk.data),
                   (xd, wv.data, bv.data))
    out_data, grads = _attention(*(_project(*a) for a in projections),
                                 n_heads, mask_bias, p, rng)
    sinks = tuple(tuple(t.node or t for t in ts)
                  for ts in ((xq, wq, bq), (x, wk, bk), (x, wv, bv)))

    def bwd(g):
        gqkv = grads(g, *(_project(*a) for a in projections))
        for gy, (a, w, _), s in zip(gqkv[::-1], projections[::-1],
                                    sinks[::-1]):
            _project_grads(gy, a, w, *s)

    return _make(out_data, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)
    sa = a.node or a

    def bwd(g):
        _accum(sa, np.transpose(g, inv))

    return _make(out_data, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    sa = a.node or a

    def bwd(g):
        _accum(sa, g.reshape(sa.shape))

    return _make(out_data, bwd)


def concat(tensors, axis=-1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    sinks = [t.node or t for t in tensors]

    def bwd(g):
        for s, piece in zip(sinks, np.split(g, splits, axis=axis)):
            _accum(s, piece)

    return _make(out_data, bwd)


# -- reductions ------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """Sum of every element: a scalar."""
    out_data = a.data.sum()
    sa = a.node or a

    def bwd(g):
        _accum(sa, np.broadcast_to(g, sa.shape).copy())

    return _make(out_data, bwd)


def tmean(a: Tensor, axis) -> Tensor:
    n = a.data.shape[axis]
    out_data = a.data.mean(axis=axis)
    sa = a.node or a

    def bwd(g):
        _accum(sa, np.broadcast_to(np.expand_dims(g, axis), sa.shape) / n)

    return _make(out_data, bwd)


def tmax(a: Tensor, axis) -> Tensor:
    """Max over one axis; gradient routed to the (first) argmax."""
    out_data = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)
    sa = a.node or a

    def bwd(g):
        ga = np.zeros(sa.shape, sa.dtype)
        np.put_along_axis(
            ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        _accum(sa, ga)

    return _make(out_data, bwd)


# -- nonlinearities --------------------------------------------------------

def _softmax(s, out=None):
    """Softmax of array `s` over its last axis, into `out` (which may be
    `s` itself) or a new array; NumericalError if a row holds a NaN.
    Returns the softmax with its row max and the row sum of exp(s - max)
    it was divided by, both keeping the last axis as 1."""
    mx = s.max(axis=-1, keepdims=True)
    if np.isnan(mx).any():          # max propagates a NaN anywhere in a row
        raise NumericalError("softmax input contains NaN")
    out = np.subtract(s, mx, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=-1, keepdims=True)
    out /= total
    return out, mx, total


def _softmax_grad(g, probs):
    """The gradient of a softmax's input, (g - sum(g * probs)) * probs
    over the last axis, in a new array built in place."""
    gx = g * probs
    dot = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= probs
    return gx


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out_data, _, _ = _softmax(x.data)
    sx = x.node or x

    def bwd(g):
        _accum(sx, _softmax_grad(g, out_data))

    return _make(out_data, bwd)


def _gelu_tanh(x):
    """gelu's t = tanh(C (x + A x^3)) of array `x`, built in place in a new
    array, in that operation order."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_value(x, t, out=None):
    """gelu(x) = 0.5 x (1 + t) from its tanh term `t`, in `out` or a new
    array."""
    out = np.multiply(x, 0.5, out=out)
    out *= t + 1.0
    return out


def _gelu_slope(x, t):
    """gelu's derivative 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2) at
    `x` from its tanh term `t`, built in place in a new array, in that
    operation order."""
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    dt = t * t
    np.subtract(1.0, dt, out=dt)
    dt *= du
    np.multiply(x, 0.5, out=du)
    du *= dt                        # 0.5 x dt
    out = np.add(t, 1.0, out=dt)
    out *= 0.5
    out += du
    return out


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate gelu.

    0.5 x (1 + t), t = tanh(C (x + A x^3)); the backward pass is g times
    gelu's slope (`_gelu_slope`). Only `t` is kept for the backward.
    """
    xd = x.data
    t = _gelu_tanh(xd)
    out_data = _gelu_value(xd, t)
    sx = x.node or x

    def bwd(g):
        gx = _gelu_slope(xd, t)
        gx *= g
        _accum(sx, gx)

    return _make(out_data, bwd)


def _row_chunks(n, row_bytes):
    """Slices of `n` rows of `row_bytes` bytes each, each slice about
    `_CHUNK_BYTES` bytes and at least one row; the last may be short."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 for an (..., K) activation, (K, F) and
    (F, N) weights and (F,) and (N,) biases: linear, gelu, linear as one
    op, with the leading axes folded into rows as `linear` folds them.

    The rule keeps x alone. The forward makes the (rows, F) pre-activation
    u into gelu(u) in place, so it holds one F-wide array. Backward first
    rebuilds u with the forward's GEMM and bias add, so u has the forward's
    bits, and forms the gradient of gelu(u) with the w2 GEMM; then, chunk
    by chunk, it builds gelu's tanh term t once, multiplies that gradient
    by gelu's slope and makes u into gelu(u) in place, for the w2 weight
    gradient. So it holds two F-wide arrays. Backward reads the parameter
    arrays again, as `linear` reads its weight: a parameter must not change
    between forward and backward.
    Each GEMM runs on every row at once, as in the chain, and gelu's
    elementwise passes run chunk by chunk over u's rows (`_row_chunks`), so
    that a chunk's temporaries stay in cache; they are gelu's expressions
    in gelu's order, so every bit is the chain's.
    """
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    K, F = w1d.shape
    N = w2d.shape[-1]
    if xd.shape[-1] != K or b1d.shape != (F,) \
            or w2d.shape != (F, N) or b2.data.shape != (N,):
        raise ValueError(
            f"ffn shapes disagree: {x.shape} x {w1.shape} + {b1.shape}, "
            f"then x {w2.shape} + {b2.shape}")
    lead = xd.shape[:-1]
    h = _project(xd.reshape(-1, K), w1d, b1d)       # u, made gelu(u)
    chunks = _row_chunks(len(h), F * h.itemsize)
    for c in chunks:
        _gelu_value(h[c], _gelu_tanh(h[c]), out=h[c])
    out_data = _project(h, w2d, b2.data).reshape(lead + (N,))
    sx, sw1, sb1 = x.node or x, w1.node or w1, b1.node or b1
    sw2, sb2 = w2.node or w2, b2.node or b2

    def bwd(g):
        _accum(sb2, _unbroadcast(g, sb2.shape))
        g2 = g.reshape(-1, N)
        h = _project(xd.reshape(-1, K), w1d, b1d)   # u, made gelu(u)
        gu = np.matmul(g2, w2d.T)
        for c in chunks:                # one tanh term per chunk for both
            t = _gelu_tanh(h[c])
            gu[c] *= _gelu_slope(h[c], t)
            _gelu_value(h[c], t, out=h[c])
        _accum(sw2, np.matmul(h.T, g2))
        del h
        _accum(sb1, _unbroadcast(gu.reshape(lead + (F,)), sb1.shape))
        _accum(sx, np.matmul(gu, w1d.T).reshape(sx.shape))
        _accum(sw1, np.matmul(xd.reshape(-1, K).T, gu))

    return _make(out_data, bwd)


def _normalize(xd, gamma: Tensor, beta: Tensor):
    """Layer norm of array `xd` over its last axis, then affine.

    Returns the output and the backward rule, which accumulates the gamma
    and beta gradients and returns the gradient of `xd`.
    """
    if gamma.shape != (xd.shape[-1],) or beta.shape != (xd.shape[-1],):
        raise ValueError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not "
            f"match feature width {xd.shape[-1]}")
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    gd = gamma.data
    out_data = gd * xhat + beta.data
    sg, sb = gamma.node or gamma, beta.node or beta

    def bwd(g):
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), built in place
        gg = g * gd
        prod = gg * xhat
        gg_xhat = prod.mean(axis=-1, keepdims=True)
        gx = np.subtract(gg, gg.mean(axis=-1, keepdims=True), out=gg)
        gx -= np.multiply(xhat, gg_xhat, out=prod)
        gx *= inv
        red = tuple(range(g.ndim - 1))
        _accum(sg, np.multiply(g, xhat, out=prod).sum(axis=red))
        _accum(sb, g.sum(axis=red))
        return gx

    return out_data, bwd


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out_data, norm_bwd = _normalize(x.data, gamma, beta)
    sx = x.node or x

    def bwd(g):
        _accum(sx, norm_bwd(g))

    return _make(out_data, bwd)


def add_layer_norm(x: Tensor, h: Tensor, gamma: Tensor,
                   beta: Tensor) -> Tensor:
    """layer_norm(x + h): a residual add and its norm as one op, which
    does not keep the sum."""
    if x.shape != h.shape:
        raise ValueError(
            f"add_layer_norm shapes disagree: {x.shape} + {h.shape}")
    out_data, norm_bwd = _normalize(x.data + h.data, gamma, beta)
    sx, sh = x.node or x, h.node or h

    def bwd(g):
        gx = norm_bwd(g)
        _accum(sx, gx)
        _accum(sh, gx)

    return _make(out_data, bwd)


def _keep(a, kept, scale, out=None):
    """(a * kept) * scale, into `out` or a new array. A bool factor is
    exactly 1 or 0."""
    out = np.multiply(a, kept, out=out)
    out *= scale
    return out


def _dropout(a, p: float, rng, out=None):
    """Inverted dropout at rate p > 0 of array `a`: draws the boolean
    `kept = rng.keep_mask(a.shape, p)` (`rng.Rng.keep_mask`), applies it
    as drawn, (a * kept) * (f(1) / f(1 - p)), f being a's dtype, into
    `out` or a new array, and keeps it bit-packed along its last axis
    (`np.packbits`, one uint8 per 8 elements).

    Returns the output and `unpack(rows=slice(None))`, which unpacks the
    mask at a slice `rows` of the leading axis, once, and returns
    `apply(b, out=None)`, the same product for that slice. The unpacked
    bytes are the booleans drawn, so backward's bits are those of the drawn
    mask."""
    kept = rng.keep_mask(a.shape, p)
    scale = a.dtype.type(1) / a.dtype.type(1 - p)
    out = _keep(a, kept, scale, out)
    packed = np.packbits(kept, axis=-1)
    width = a.shape[-1]

    def unpack(rows=slice(None)):
        mask = np.unpackbits(packed[rows], axis=-1, count=width).view(bool)
        return lambda b, out=None: _keep(b, mask, scale, out)

    return out, unpack


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout; identity when p == 0. Keeps only the draw,
    bit-packed (see `_dropout`)."""
    if p <= 0.0:
        return x
    out_data, drop = _dropout(x.data, p, rng)
    sx = x.node or x

    def bwd(g):
        _accum(sx, drop()(g))

    return _make(out_data, bwd)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup into `weight` by an integer id array.

    A (..., H) `weight` is read as the table of its rows, so id b*N + n of
    a (B, N, H) activation is its row [b, n]: embeddings and gathers of
    activation rows are one op. The backward rule keeps the ids and the
    table's size, not its data, and scatters into the flat table with
    one 1-d `np.add.at` over the element indices id * H + column:
    each table element still receives its contributions in row order, so
    the gradient has the bits of a row-wise `np.add.at`, at a fraction of
    its cost.
    """
    ids = np.asarray(ids)
    H = weight.shape[-1]
    out_data = weight.data.reshape(-1, H)[ids]
    size = weight.data.size
    sw = weight.node or weight

    def bwd(g):
        gw = np.zeros(size, sw.dtype)
        flat = ids.reshape(-1, 1).astype(np.intp) * H + np.arange(H)
        np.add.at(gw, flat.reshape(-1), g.reshape(-1))
        _accum(sw, gw.reshape(sw.shape))

    return _make(out_data, bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over the rows of `logits`.

    logits: (N, C); labels: (N,) ints. Fused log-softmax keeps the backward
    rule exact; the rule keeps only the log-probabilities, and backward
    turns them into the probabilities in place.

    Besides the logits, one (N, C) array is built: z = logits - max, made
    the log-probabilities z - log(sum(exp(z))) in place. exp(z) is summed
    over row chunks (`_row_chunks`), so it is never whole; a row's sum
    does not depend on the rows beside it, so the bits are the unchunked
    expression's.
    """
    labels = np.asarray(labels)
    n = logits.data.shape[0]
    if n == 0:
        raise ValueError("cross_entropy: no rows")
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.empty((n, 1), logp.dtype)
    for c in _row_chunks(n, logp.shape[-1] * logp.itemsize):
        np.exp(logp[c]).sum(axis=-1, keepdims=True, out=lse[c])
    np.log(lse, out=lse)
    logp -= lse
    rows = np.arange(n)
    nll = -logp[rows, labels].sum() / n
    out_data = np.asarray(nll, dtype=logits.dtype)
    inv_n = logits.dtype.type(1) / n
    sl = logits.node or logits

    def bwd(g):                     # the rule runs once
        p = np.exp(logp, out=logp)
        p[rows, labels] -= 1.0
        np.multiply(g, p, out=p)
        p *= inv_n
        _accum(sl, p)

    return _make(out_data, bwd)


# -- gradient oracle -------------------------------------------------------

def grad_check(f, params, h=1e-3, samples=200, order=2):
    """Max relative error between reverse-mode and central-difference grads.

    `f()` runs a fresh forward pass over `params` under its own Tape and
    returns the scalar loss Tensor together with that tape. Up to `samples`
    coordinates per tensor are probed (all of them for small tensors),
    drawn from a fixed `PCG64(0)` stream.

    order=2 uses (f(x+h)-f(x-h))/2h; order=4 the five-point stencil, which
    trades two extra evaluations for an O(h^4) truncation error -- needed
    to resolve tensors whose gradients sit near the roundoff floor.

    The relative-error denominator is floored at the tensor's own gradient
    scale (max |analytic|): coordinates much smaller than their tensor's
    gradient are compared against that scale, not against themselves,
    since finite differences cannot resolve them in isolation.

    Callers should put params in float64 for headroom.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    rng = np.random.Generator(np.random.PCG64(0))
    for p in params:
        p.zero_grad()
    loss, tape = f()
    backward(tape, loss, parameters=params)
    analytic = [p.grad.copy() for p in params]

    def value():
        out, _ = f()
        return float(out.data)

    max_rel = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        scale = max(float(np.abs(an).max()), 1e-8)
        n = flat.size
        if n <= samples:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples, replace=False)
        for i in coords:
            old = flat[i]
            flat[i] = old + h
            fp = value()
            flat[i] = old - h
            fm = value()
            if order == 2:
                num = (fp - fm) / (2.0 * h)
            else:
                flat[i] = old + 2 * h
                fp2 = value()
                flat[i] = old - 2 * h
                fm2 = value()
                num = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
            flat[i] = old
            a = an.reshape(-1)[i]
            denom = max(abs(a), abs(num), scale)
            max_rel = max(max_rel, abs(a - num) / denom)
    return max_rel
