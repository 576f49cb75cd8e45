"""Tape-based reverse-mode automatic differentiation over numpy arrays.

Tensors are thin wrappers around row-major numpy arrays (float32 for
training, float64 for gradient checking). Forward ops executed inside an
active :class:`Tape` record a backward rule; :func:`backward` replays the
tape in reverse and accumulates gradients into ``Tensor.grad``.

Only the operations the encoder needs are provided; broadcasting is
limited to trailing-dimension bias adds and batched matmul. A matmul of an
n-d activation by a 2-d weight folds the leading axes into rows, so its
forward pass and each of its two gradients is a single 2-d GEMM.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

# sqrt(2/pi), for the tanh gelu approximation
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


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

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, name={self.name})"


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
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

    def record(self, out, inputs, backward_fn):
        out.node_id = len(self.records)
        self.records.append(_Record(out, inputs, backward_fn))


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(tape: Tape, loss: Tensor, parameters=None):
    """Populate grads of everything reachable from `loss` on `tape`.

    Parameters passed explicitly that the loss does not reach get exact
    zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss.node_id is None:
        raise ValueError("loss is not recorded on the tape")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        if rec.out.grad is None:
            continue
        rec.backward_fn(rec.out.grad)
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


def _make(out_data, inputs, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.node_id = None
    out.name = None
    tape = _ACTIVE_TAPE
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


# -- arithmetic ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, -_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def bwd(g):
        _accum(a, g * c)

    return _make(out_data, (a,), bwd)


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def bwd(g):
        _accum(a, 2.0 * a.data * g)

    return _make(out_data, (a,), bwd)


def add_const(a: Tensor, c) -> Tensor:
    """Add a non-differentiable constant array (e.g. an attention mask bias)."""
    out_data = a.data + c

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))

    return _make(out_data, (a,), bwd)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        return _matmul_rows(a, b)
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if b.data.ndim > 1 \
            else np.multiply.outer(g, b.data)
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), bwd)


def _matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """(..., K) activation times (K, N) weight as one (rows, K) GEMM."""
    K = a.data.shape[-1]
    out_data = np.matmul(a.data.reshape(-1, K), b.data).reshape(
        a.data.shape[:-1] + (b.data.shape[1],))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(a, np.matmul(g2, b.data.T).reshape(a.shape))
        _accum(b, np.matmul(a.data.reshape(-1, K).T, g2))

    return _make(out_data, (a, b), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    return _make(out_data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _make(out_data, (a,), bwd)


def concat(tensors, axis=-1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, tuple(tensors), bwd)


# -- reductions ------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape) / n)

    return _make(out_data, (a,), bwd)


def tmax(a: Tensor, axis) -> Tensor:
    """Max over one axis; gradient routed to the (first) argmax."""
    out_data = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(
            ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        _accum(a, ga)

    return _make(out_data, (a,), bwd)


def slice_rows(a: Tensor, offset: int, k: int) -> Tensor:
    """Contiguous slice of k leading-axis rows starting at `offset`."""
    out_data = a.data[offset:offset + k]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[offset:offset + k] = g
        _accum(a, ga)

    return _make(out_data, (a,), bwd)


def select(a: Tensor, index: int, axis: int) -> Tensor:
    """Take one slice along `axis` (e.g. the [CLS] position)."""
    out_data = np.take(a.data, index, axis=axis)

    def bwd(g):
        ga = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        ga[tuple(sl)] = g
        _accum(a, ga)

    return _make(out_data, (a,), bwd)


# -- nonlinearities --------------------------------------------------------

def softmax(x: Tensor, axis=-1) -> Tensor:
    if np.isnan(x.data).any():
        raise NumericalError("softmax input contains NaN")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(x, out_data * (g - dot))

    return _make(out_data, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate gelu."""
    x2 = x.data * x.data
    u = _GELU_C * (x.data + _GELU_A * (x2 * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def bwd(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        dt = (1.0 - t * t) * du
        _accum(x, g * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return _make(out_data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - out_data * out_data))

    return _make(out_data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeMismatchError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not "
            f"match feature width {x.shape[-1]}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gamma.data * xhat + beta.data

    def bwd(g):
        H = x.shape[-1]
        gg = g * gamma.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        _accum(x, gx)
        red = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=red))
        _accum(beta, g.sum(axis=red))

    return _make(out_data, (x, gamma, beta), bwd)


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return x
    keep = (rng.uniform(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def bwd(g):
        _accum(x, g * keep)

    return _make(x.data * keep, (x,), bwd)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup into `weight` by an integer id array."""
    ids = np.asarray(ids)
    out_data = weight.data[ids]

    def bwd(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.ravel(), g.reshape(-1, weight.shape[-1]))
        _accum(weight, gw)

    return _make(out_data, (weight,), bwd)


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
        _accum(logits, g * p * inv_n)

    return _make(out_data, (logits,), bwd)


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
