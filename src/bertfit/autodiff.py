"""Tape-based reverse-mode automatic differentiation over numpy arrays.

Tensors are thin wrappers around row-major numpy arrays (float32 for
training, float64 for gradient checking). Forward ops executed inside an
active :class:`Tape` record a backward rule; :func:`backward` replays the
tape in reverse and accumulates gradients into ``Tensor.grad``. Every op
keeps its tensor input's dtype; constant operands are cast to it.

Gradient contract: after :func:`backward`, only leaves hold a gradient --
parameters and other tensors no op produced. A recorded output's gradient
is taken off it just before its backward rule runs, so an intermediate
gradient lives only until the rule that consumes it has run. A
``Tensor.grad`` may be a borrowed array -- the very array an op's backward
rule passed on, which can be shared with other tensors' gradients (``add``
hands one array to both inputs; ``reshape``, ``transpose`` and
``_unbroadcast`` pass views of theirs). So neither a backward rule nor an
optimizer ever writes into a gradient in place: a second contribution
replaces ``grad`` with a new sum. A first gradient keeps the layout
(strides) of the tensor's data; one in another layout is copied into it.

Only the operations the encoder needs are provided; broadcasting is
limited to trailing-dimension bias adds and batched matmul.

What the tape keeps alive: every recorded output lives until the tape is
dropped (a training step's tape lives until `optim.train_step` returns),
together with whatever its backward rule holds -- but not its gradient
(see above), and dropout's rule holds a boolean mask. So the transformer
block runs on three fused ops with hand-written backward rules, which
record one output where the unfused chain recorded several:

- ``linear(x, w, b)`` folds an n-d activation's leading axes into rows:
  one 2-d GEMM forward and one per weight and input gradient, the bias
  added in place;
- ``attention_core(q, k, v, ...)`` covers head split, scores, scale, mask
  bias, softmax, dropout and context, and keeps only the probabilities
  and a boolean dropout mask of the (B, heads, R, S) attention size, for
  R query rows over S keys;
- ``add_layer_norm(x, h, ...)`` is the residual add and its layer norm,
  without keeping the sum.

Each computes the same expressions, on operands of the same layout and in
the same order, as the chain of single ops it replaces, so it gives the
same bits.

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

if platform.libc_ver()[0] == "glibc":     # see the module docstring
    _libc = ctypes.CDLL(None)
    # ctypes passes each value as a C int, silently masked to 32 bits
    _libc.mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)            # M_TRIM_THRESHOLD


class NumericalError(ValueError):
    """Non-finite values where finite ones are required (e.g. NaN logits)."""


class ShapeMismatchError(ValueError):
    pass


class Tensor:
    """n-d array participating in a recorded computation graph.

    `node_id` is the tensor's position on the tape; constants created
    outside a tape have node_id None and never receive gradients unless
    registered as parameters.
    """

    __slots__ = ("data", "grad", "node_id", "name")

    def __init__(self, data, dtype=None, name=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.node_id = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, name={self.name})"


class _Record:
    __slots__ = ("out", "backward_fn")

    def __init__(self, out, backward_fn):
        self.out = out
        self.backward_fn = backward_fn


_ACTIVE_TAPE = None


class Tape:
    """Topologically ordered list of recorded operations.

    Confined to one training thread; use as a context manager around the
    forward pass.
    """

    def __init__(self):
        self.records = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, backward_fn):
        out.node_id = len(self.records)
        self.records.append(_Record(out, backward_fn))


def _accum(t: Tensor, g):
    """Add `g` into `t.grad` without writing into either array.

    The first gradient is `g` itself when it has the layout of `t.data`
    (`g` may be a view shared with other tensors' gradients); otherwise it
    is copied into that layout, since a gradient's strides decide the
    summation path of every later matmul and sum over it.
    """
    if t.grad is not None:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.data))
    elif g.strides == t.data.strides and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)


def backward(tape: Tape, loss: Tensor, parameters=None):
    """Populate the grads of the leaves reachable from `loss` on `tape`.

    Each record's output gradient is taken off the output before its rule
    runs, so every recorded output ends with grad None and an intermediate
    gradient is freed once consumed; records and their activations stay on
    the tape. Parameters passed explicitly that the loss does not reach
    get exact zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss.node_id is None:
        raise ValueError("loss is not recorded on the tape")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g, rec.out.grad = rec.out.grad, None
        if g is not None:
            rec.backward_fn(g)
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
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node_id = None
    out.name = None
    tape = _ACTIVE_TAPE
    if tape is not None:
        tape.record(out, backward_fn)
    return out


# -- arithmetic ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)                    # a Python float keeps a's dtype
    out_data = a.data * c

    def bwd(g):
        _accum(a, g * c)

    return _make(out_data, bwd)


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def bwd(g):
        _accum(a, 2.0 * a.data * g)

    return _make(out_data, bwd)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if b.data.ndim > 1 \
            else np.multiply.outer(g, b.data)
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _make(out_data, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for an (..., K) activation, a (K, N) weight and an (N,)
    bias: the leading axes fold into rows, so the forward pass and each
    weight and input gradient is one 2-d GEMM."""
    K, N = w.data.shape
    if x.data.shape[-1] != K or b.data.shape != (N,):
        raise ShapeMismatchError(
            f"linear shapes disagree: {x.shape} x {w.shape} + {b.shape}")
    out_data = np.matmul(x.data.reshape(-1, K), w.data)
    out_data += b.data
    out_data = out_data.reshape(x.data.shape[:-1] + (N,))

    def bwd(g):
        _accum(b, _unbroadcast(g, b.shape))
        g2 = g.reshape(-1, N)
        _accum(x, np.matmul(g2, w.data.T).reshape(x.shape))
        _accum(w, np.matmul(x.data.reshape(-1, K).T, g2))

    return _make(out_data, bwd)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask_bias,
                   p: float, rng):
    """Multi-head scaled dot-product attention of (B, R, H) query
    projections over (B, S, H) key and value projections.

    Per head, probs = softmax(q k^T / sqrt(H / n_heads) + mask_bias) with
    `mask_bias` (broadcast to (B, n_heads, R, S), e.g. -1e9 at padded keys)
    cast to q's dtype, then inverted dropout at rate `p` drawn from `rng`;
    the context probs @ v is merged back to (B, R, H). Scores, scale, mask
    and softmax are built in place in one (B, n_heads, R, S) buffer; the
    backward rule keeps it and the boolean dropout mask, and rebuilds the
    dropped-out probabilities from them. R is S for self-attention over
    every position, or fewer rows when only those are read.

    Returns the context Tensor (one tape record).
    """
    B, R, H = q.shape
    hd = H // n_heads

    def heads(a):                   # (B, n, H) -> (B, A, n, hd) view
        return a.reshape(B, a.shape[1], n_heads, hd).transpose(0, 2, 1, 3)

    def merged(gh, axes):           # a head-split gradient as (B, n, H)
        gh = np.ascontiguousarray(gh.transpose(axes))
        return gh.reshape(B, gh.shape[1], H)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    c = float(1.0 / np.sqrt(hd))
    probs = np.matmul(qh, np.swapaxes(kh, -1, -2))
    probs *= c
    probs += np.asarray(mask_bias, dtype=probs.dtype)
    mx = probs.max(axis=-1, keepdims=True)
    if np.isnan(mx).any():          # max propagates a NaN anywhere in a row
        raise NumericalError("attention scores contain NaN")
    probs -= mx
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    f = probs.dtype.type
    keep_scale = f(1) / f(1 - p)
    kept = rng.uniform(probs.shape) >= p if p > 0.0 else None

    def dropped():                  # probs with inverted dropout applied
        if kept is None:
            return probs
        d = probs * kept            # a bool factor is exactly 1 or 0
        d *= keep_scale
        return d

    out_data = np.matmul(dropped(), vh).transpose(0, 2, 1, 3).reshape(B, R, H)

    def bwd(g):
        gctx = np.ascontiguousarray(heads(g))
        d = dropped()
        gv = np.matmul(np.swapaxes(d, -1, -2), gctx)
        del d
        gs = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        if kept is not None:
            gs *= kept
            gs *= keep_scale
        gp = gs * probs             # softmax backward, as in `softmax`
        dot = gp.sum(axis=-1, keepdims=True)
        np.subtract(gs, dot, out=gp)
        gp *= probs
        gp *= c
        del gs
        _accum(q, merged(np.matmul(gp, kh), (0, 2, 1, 3)))
        _accum(k, merged(np.matmul(np.swapaxes(qh, -1, -2), gp), (0, 3, 1, 2)))
        _accum(v, merged(gv, (0, 2, 1, 3)))

    return _make(out_data, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    return _make(out_data, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _make(out_data, bwd)


def concat(tensors, axis=-1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, bwd)


# -- reductions ------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(out_data, bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape) / n)

    return _make(out_data, bwd)


def tmax(a: Tensor, axis) -> Tensor:
    """Max over one axis; gradient routed to the (first) argmax."""
    out_data = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(
            ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        _accum(a, ga)

    return _make(out_data, bwd)


# -- nonlinearities --------------------------------------------------------

def softmax(x: Tensor, axis=-1) -> Tensor:
    mx = x.data.max(axis=axis, keepdims=True)
    if np.isnan(mx).any():          # max propagates a NaN anywhere in a row
        raise NumericalError("softmax input contains NaN")
    out_data = np.subtract(x.data, mx)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def bwd(g):
        gx = g * out_data
        dot = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= out_data
        _accum(x, gx)

    return _make(out_data, bwd)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate gelu.

    0.5 x (1 + t), t = tanh(C (x + A x^3)); the backward pass is
    g (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2)). Both are built in
    place in that operation order, so only `t` is kept for the backward.
    """
    xd = x.data
    t = xd * xd
    t *= xd
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = xd * 0.5
    out_data *= t + 1.0

    def bwd(g):
        du = xd * xd
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        dt *= du
        np.multiply(xd, 0.5, out=du)
        du *= dt                    # 0.5 x dt
        np.add(t, 1.0, out=dt)
        dt *= 0.5
        dt += du
        dt *= g
        _accum(x, dt)

    return _make(out_data, bwd)


def _normalize(xd, gamma: Tensor, beta: Tensor):
    """Layer norm of array `xd` over its last axis, then affine.

    Returns the output and the backward rule, which accumulates the gamma
    and beta gradients and returns the gradient of `xd`.
    """
    if gamma.shape != (xd.shape[-1],) or beta.shape != (xd.shape[-1],):
        raise ShapeMismatchError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not "
            f"match feature width {xd.shape[-1]}")
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out_data = gamma.data * xhat + beta.data

    def bwd(g):
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), built in place
        gg = g * gamma.data
        prod = gg * xhat
        gg_xhat = prod.mean(axis=-1, keepdims=True)
        gx = np.subtract(gg, gg.mean(axis=-1, keepdims=True), out=gg)
        gx -= np.multiply(xhat, gg_xhat, out=prod)
        gx *= inv
        red = tuple(range(g.ndim - 1))
        _accum(gamma, np.multiply(g, xhat, out=prod).sum(axis=red))
        _accum(beta, g.sum(axis=red))
        return gx

    return out_data, bwd


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out_data, norm_bwd = _normalize(x.data, gamma, beta)

    def bwd(g):
        _accum(x, norm_bwd(g))

    return _make(out_data, bwd)


def add_layer_norm(x: Tensor, h: Tensor, gamma: Tensor,
                   beta: Tensor) -> Tensor:
    """layer_norm(x + h): a residual add and its norm as one op, which
    does not keep the sum."""
    if x.shape != h.shape:
        raise ShapeMismatchError(
            f"add_layer_norm shapes disagree: {x.shape} + {h.shape}")
    out_data, norm_bwd = _normalize(x.data + h.data, gamma, beta)

    def bwd(g):
        gx = norm_bwd(g)
        _accum(x, gx)
        _accum(h, gx)

    return _make(out_data, bwd)


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout; identity when p == 0.

    Keeps the boolean draw and the scale f(1) / f(1 - p) in x's dtype, and
    builds output and gradient as (a * kept) * scale.
    """
    if p <= 0.0:
        return x
    kept = rng.uniform(x.shape) >= p
    keep_scale = x.dtype.type(1) / x.dtype.type(1 - p)

    def masked(a):                  # a bool factor is exactly 1 or 0
        out = a * kept
        out *= keep_scale
        return out

    def bwd(g):
        _accum(x, masked(g))

    return _make(masked(x.data), bwd)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup into `weight` by an integer id array.

    A (..., H) `weight` is read as the table of its rows, so id b*N + n of
    a (B, N, H) activation is its row [b, n]: embeddings and gathers of
    activation rows are one op. The backward scatters into the flat table
    with one 1-d `np.add.at` over the element indices id * H + column:
    each table element still receives its contributions in row order, so
    the gradient has the bits of a row-wise `np.add.at`, at a fraction of
    its cost.
    """
    ids = np.asarray(ids)
    H = weight.shape[-1]
    out_data = weight.data.reshape(-1, H)[ids]

    def bwd(g):
        gw = np.zeros(weight.data.size, weight.dtype)
        flat = ids.reshape(-1, 1).astype(np.intp) * H + np.arange(H)
        np.add.at(gw, flat.reshape(-1), g.reshape(-1))
        _accum(weight, gw.reshape(weight.shape))

    return _make(out_data, bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over the rows of `logits`.

    logits: (N, C); labels: (N,) ints. Fused log-softmax keeps the backward
    rule exact.
    """
    labels = np.asarray(labels)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = logits.data.shape[0]
    if n == 0:
        raise ValueError("cross_entropy: no rows")
    rows = np.arange(n)
    nll = -logp[rows, labels].sum() / n
    out_data = np.asarray(nll, dtype=logits.dtype)
    inv_n = logits.dtype.type(1) / n

    def bwd(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        np.multiply(g, p, out=p)
        p *= inv_n
        _accum(logits, p)

    return _make(out_data, bwd)


# -- gradient oracle -------------------------------------------------------

def grad_check(f, params, h=1e-3, samples=200, rng=None, order=2):
    """Max relative error between reverse-mode and central-difference grads.

    `f()` runs a fresh forward pass over `params` under its own Tape and
    returns the scalar loss Tensor together with that tape. Up to `samples`
    coordinates per tensor are probed (all of them for small tensors).

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
    rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0))
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
