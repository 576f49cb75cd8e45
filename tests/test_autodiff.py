import inspect
import weakref

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.autodiff import ShapeMismatchError, Tape, Tensor
from bertfit.rng import Rng
from conftest import attention_probs, spy_gradients, weighted_sum


def _rand(shape, seed=0):
    return np.random.Generator(np.random.PCG64(seed)).normal(size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])

    def test_dot(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        a, b = _rand((5, 7), 1), _rand((7, 3), 2)
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(Tensor(a, np.float64), Tensor(b, np.float64))
        assert np.abs(out.data - expected).max() < 1e-6

    @pytest.mark.parametrize("shape", [(2, 3, 5), (2, 2, 3, 5)])
    def test_activation_times_weight_grad(self, shape):
        x = Tensor(_rand(shape, 3), np.float64)
        w = Tensor(_rand((5, 4), 4), np.float64)
        b = Tensor(_rand((4,), 5), np.float64)
        c = _rand(shape[:-1] + (4,), 6)

        def f():
            with Tape() as tape:
                y = ad.add(ad.matmul(x, w), b)
                loss = weighted_sum(ad.gelu(y), c)
            return loss, tape

        np.testing.assert_allclose(
            ad.matmul(x, w).data, np.einsum("...k,kn->...n", x.data, w.data),
            rtol=1e-12)
        assert ad.grad_check(f, [x, w, b], h=1e-5) < 1e-6

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_ln2(self):
        out = ad.softmax(Tensor([np.log(2.0), 0.0], np.float64))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance(self):
        x = _rand((4, 5), 3)
        a = ad.softmax(Tensor(x, np.float64)).data
        b = ad.softmax(Tensor(x + 1000.0, np.float64)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rows_sum_to_one(self):
        out = ad.softmax(Tensor(_rand((3, 7), 4) * 50))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data > 0).all()

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ad.softmax(Tensor([np.nan, 0.0]))

    def test_nan_off_the_row_max_rejected(self):
        x = Tensor([[0.0, 5.0, 1.0], [2.0, np.nan, 9.0]])
        with pytest.raises(ad.NumericalError, match="NaN"):
            ad.softmax(x)


class TestLayerNorm:
    def test_constant_slice_collapses(self):
        out = ad.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]),
                            Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_already_normalized(self):
        out = ad.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_moments(self):
        x = Tensor(_rand((6, 16), 5), np.float64)
        out = ad.layer_norm(x, Tensor(np.ones(16), np.float64),
                            Tensor(np.zeros(16), np.float64))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-3


class TestGelu:
    def test_zero(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(ad.gelu(Tensor([10.0], np.float64)).data[0] - 10.0) < 1e-4
        assert abs(ad.gelu(Tensor([-10.0], np.float64)).data[0]) < 1e-4


def _old_gelu_parts(x):
    x2 = x * x
    u = 0.7978845608028654 * (x + 0.044715 * (x2 * x))
    return x2, np.tanh(u)


def _old_gelu(x):
    _, t = _old_gelu_parts(x)
    return 0.5 * x * (1.0 + t)


def _old_gelu_grad(x, g):
    x2, t = _old_gelu_parts(x)
    du = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * x2)
    dt = (1.0 - t * t) * du
    return g * (0.5 * (1.0 + t) + 0.5 * x * dt)


def _old_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _old_softmax_grad(x, g):
    out = _old_softmax(x)
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def _old_keep(x):  # at p = 0.15, f4(1 / (1 - p)) != f4(1) / f4(1 - p)
    return Rng(11).keep_mask(x.shape, 0.15).astype(x.dtype) / (1.0 - 0.15)


# each: (op, and the forward and backward expressions it had before it was
# built in place, of the input array x and the upstream gradient g)
_REWRITTEN_OPS = {
    "gelu": (ad.gelu, _old_gelu, _old_gelu_grad),
    "softmax": (ad.softmax, _old_softmax, _old_softmax_grad),
    "dropout": (lambda x: ad.dropout(x, 0.15, Rng(11)),
                lambda x: x * _old_keep(x), lambda x, g: g * _old_keep(x)),
}


@pytest.mark.parametrize("name", sorted(_REWRITTEN_OPS))
class TestRewrittenOps:
    """gelu, softmax and dropout keep the bits of their former expressions."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_as_before(self, name, dtype):
        op, old_fwd, old_bwd = _REWRITTEN_OPS[name]
        x = Tensor(_rand((2, 3, 16), 1) * 3.0, dtype)
        w = Tensor(_rand((2, 3, 16), 2), dtype)
        with Tape() as tape:
            y = op(x)
            loss = weighted_sum(y, w.data)
        ad.backward(tape, loss)
        assert y.dtype == dtype and x.grad.dtype == dtype
        assert np.array_equal(y.data, old_fwd(x.data))
        assert np.array_equal(x.grad, old_bwd(x.data, w.data))

    def test_float64_grad_check(self, name):
        op = _REWRITTEN_OPS[name][0]
        x = Tensor(_rand((2, 3, 8), 3), np.float64)
        w = _rand((2, 3, 8), 4)

        def f():
            with Tape() as tape:
                loss = weighted_sum(op(x), w)
            return loss, tape

        assert ad.grad_check(f, [x], h=1e-5) < 1e-6


def _bits(a):
    """dtype, shape and bytes: unlike array_equal, tells -0.0 from 0.0."""
    return a.dtype.str, a.shape, a.tobytes()


def _spread(shape, seed):
    """Normal values scaled over six decades, so float32 sums round."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.normal(size=shape) * 10.0 ** gen.integers(-3, 4, size=shape)


def _input_grads(dtype, inputs, op, g):
    """Gradients of leaf tensors `inputs` (arrays) under upstream gradient
    `g` of op(*tensors): op's last rule is handed g itself, bit for bit,
    -0.0 included, which no loss built of ops hands it."""
    xs = [Tensor(a, dtype) for a in inputs]
    with Tape() as tape:
        y = op(*xs)
        loss = weighted_sum(y, g)
    rule = y.node.backward_fn
    y.node.backward_fn = lambda _: rule(g.astype(dtype))
    ad.backward(tape, loss, parameters=xs)
    return [x.grad for x in xs]


def _row_scatter(table, ids, g):
    """The former embedding backward: a row-wise np.add.at."""
    gw = np.zeros_like(table)
    np.add.at(gw, ids.ravel(), g.reshape(-1, table.shape[-1]))
    return gw


def _old_layer_norm_grads(x, gamma, g, eps=1e-5):
    """The former layer-norm backward, one fresh array per expression:
    the gradients of x, gamma and beta."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gg = g * gamma
    gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    red = tuple(range(g.ndim - 1))
    return gx, (g * xhat).sum(axis=red), g.sum(axis=red)


_IDS = np.array([[1, 4, 1, 1], [0, 4, 5, 1], [1, 2, 1, 4]])

# each: (table rows V, ids, id whose upstream gradients are all -0.0)
_EMBEDDING_CASES = {
    "repeated-ids": (6, _IDS, None),
    "one-row-table": (1, np.zeros((3, 4), int), None),
    "negative-zero-gradient": (6, _IDS, 4),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestBackwardTail:
    """The embedding scatter, the broadcast position add and the in-place
    layer-norm backward keep the bits of what they replaced."""

    @pytest.mark.parametrize("case", sorted(_EMBEDDING_CASES))
    def test_embedding_grad_as_row_scatter(self, dtype, case):
        V, ids, zero_id = _EMBEDDING_CASES[case]
        table = _rand((V, 8), 1)
        g = _spread(ids.shape + (8,), 2).astype(dtype)
        if zero_id is not None:
            g[ids == zero_id] = -0.0
        gw, = _input_grads(dtype, [table], lambda w: ad.embedding(w, ids), g)
        assert _bits(gw) == _bits(_row_scatter(table.astype(dtype), ids, g))

    def test_position_add_as_gather(self, dtype):
        B, S, P, H = 9, 5, 7, 8
        tok, pos = _rand((B, S, H), 3), _rand((P, H), 4)
        g = _spread((B, S, H), 5).astype(dtype)
        g[:, 2] = -0.0
        rows = np.broadcast_to(np.arange(S), (B, S))

        def broadcast(t, p):
            return ad.add(t, ad.embedding(p, np.arange(S)))

        def gather(t, p):
            return ad.add(t, ad.embedding(p, rows))

        xs = [Tensor(a, dtype) for a in (tok, pos)]
        assert _bits(broadcast(*xs).data) == _bits(gather(*xs).data)
        got = _input_grads(dtype, [tok, pos], broadcast, g)
        want = _input_grads(dtype, [tok, pos], gather, g)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]

    def test_layer_norm_grads_as_before(self, dtype):
        x, gamma, beta = _rand((2, 3, 16), 6) * 3.0, _rand(16, 7), _rand(16, 8)
        g = _spread((2, 3, 16), 9).astype(dtype)
        got = _input_grads(dtype, [x, gamma, beta], ad.layer_norm, g)
        want = _old_layer_norm_grads(x.astype(dtype), gamma.astype(dtype), g)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]


def test_backward_tail_float64_grad_check():
    """Embedding with repeated ids, the broadcast position add, layer norm
    and a gather of rows of the normed (B, S, H) activation, chained."""
    S = 4
    tok, pos = _rand((6, 8), 10), _rand((5, 8), 11)
    gamma, beta = _rand(8, 12), _rand(8, 13)
    xs = [Tensor(a, np.float64) for a in (tok, pos, gamma, beta)]
    rows = np.array([[0, 5, 5], [11, 2, 7]])         # into the 3*S rows
    w = _rand((2, 3, 8), 14)

    def f():
        with Tape() as tape:
            h = ad.add(ad.embedding(xs[0], _IDS),
                       ad.embedding(xs[1], np.arange(S)))
            h = ad.embedding(ad.layer_norm(h, xs[2], xs[3]), rows)
            loss = weighted_sum(h, w)
        return loss, tape

    assert ad.grad_check(f, xs, h=1e-5) < 1e-6


# -- the former row pickers: embedding on an activation is each of them ----

def _old_select(a, index, axis):
    """The former `ad.select`: one slice along `axis`."""
    sink = a.node or a

    def bwd(g):
        ga = np.zeros(sink.shape, sink.dtype)
        sl = [slice(None)] * len(sink.shape)
        sl[axis] = index
        ga[tuple(sl)] = g
        ad._accum(sink, ga)

    return ad._make(np.take(a.data, index, axis=axis), bwd)


def _old_slice_rows(a, offset, k):
    """The former `ad.slice_rows`: k leading-axis rows from `offset`."""
    sink = a.node or a

    def bwd(g):
        ga = np.zeros(sink.shape, sink.dtype)
        ga[offset:offset + k] = g
        ad._accum(sink, ga)

    return ad._make(a.data[offset:offset + k], bwd)


_B, _N, _H = 3, 5, 8
_READ = np.array([[0, 3, 3], [5, 0, 1], [14, 14, 9]])   # into the B*N rows

# each: (the gather, the former expression it replaces)
_GATHER_CASES = {
    "cls": (lambda x: ad.embedding(x, np.arange(_B) * _N),
            lambda x: _old_select(x, 0, 1)),
    "positions": (lambda x: ad.embedding(x, np.arange(4)),
                  lambda x: _old_slice_rows(x, 0, 4)),
    "fractions": (lambda x: ad.embedding(x, np.arange(2, 5)),
                  lambda x: _old_slice_rows(x, 2, 3)),
    "read-rows": (lambda x: ad.embedding(x, _READ),
                  lambda x: ad.embedding(ad.reshape(x, (_B * _N, _H)), _READ)),
    "mlm-rows": (lambda x: ad.embedding(x, _READ[:, 0]),
                 lambda x: ad.embedding(ad.reshape(x, (_B * _N, _H)),
                                        _READ[:, 0])),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_GATHER_CASES))
def test_gather_as_the_former_row_pickers(dtype, case):
    """Same forward bits and same gradient bits, but for the sign of a
    zero: the gather's backward adds into +0, and 0 + -0 is +0."""
    gather, former = _GATHER_CASES[case]
    shape = (_B * _N, _H) if case in ("positions", "fractions") \
        else (_B, _N, _H)
    x = _rand(shape, 15)
    assert _bits(gather(Tensor(x, dtype)).data) == \
        _bits(former(Tensor(x, dtype)).data)
    g = _spread(gather(Tensor(x, dtype)).shape, 16).astype(dtype)
    g.reshape(-1)[::3] = -0.0
    got, = _input_grads(dtype, [x], gather, g)
    want, = _input_grads(dtype, [x], former, g)
    assert _bits(got) == _bits(want + dtype(0.0))


# -- fused ops: the chains of single ops they replace are the oracles ------

def unfused_linear(x, w, b):
    """add(matmul(x, w), b), with matmul's former fold of an n-d activation
    into one (rows, K) GEMM."""
    K, N = w.shape
    y = ad.matmul(ad.reshape(x, (-1, K)), w)
    return ad.add(ad.reshape(y, x.shape[:-1] + (N,)), b)


def _old_scale(a, c):
    """The former scale op, a product with a 0-d constant `c` of a's
    dtype, and its backward g * c."""
    c = np.asarray(c, a.dtype)
    sink = a.node or a

    def bwd(g):
        ad._accum(sink, g * c)

    return ad._make(a.data * c, bwd)


def unfused_attention(q, k, v, n_heads, mask_bias, p, rng):
    B, R, H = q.shape
    hd = H // n_heads

    def heads(t):
        return ad.transpose(ad.reshape(t, (B, t.shape[1], n_heads, hd)),
                            (0, 2, 1, 3))

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2)))
    scores = _old_scale(scores, 1.0 / np.sqrt(hd))
    # the former add_const: the bias cast to the scores' dtype, added
    scores = ad.add(scores, Tensor(mask_bias, scores.dtype))
    probs = ad.softmax(scores)
    ctx = ad.matmul(ad.dropout(probs, p, rng), vh)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, R, H))


def unfused_self_attention(xq, x, wq, bq, wk, bk, wv, bv, n_heads,
                           mask_bias, p, rng):
    """The three projections as `unfused_linear` records, q's first, then
    `unfused_attention`: the chain `self_attention` replaces."""
    q = unfused_linear(xq, wq, bq)
    k, v = unfused_linear(x, wk, bk), unfused_linear(x, wv, bv)
    return unfused_attention(q, k, v, n_heads, mask_bias, p, rng)


def unfused_add_layer_norm(x, h, gamma, beta):
    return ad.layer_norm(ad.add(x, h), gamma, beta)


def unfused_ffn(x, w1, b1, w2, b2):
    return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)


_MASK = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]])
_MASK_BIAS = (1.0 - _MASK[:, None, None, :]) * -1e9      # float64


def _attention_case(attention, p, mask_bias=_MASK_BIAS):
    def op(q, k, v):
        return attention(q, k, v, 2, mask_bias, p, Rng(11))
    return op


# B=9 sequences of S=60 keys (not a multiple of 8, so a packed mask row
# ends in a partial byte), 0 to 8 of them padded; one batch element's two
# (60, 60) heads take 28.8 KB in float32, so the backward rebuilds the
# probabilities in slices of 4, 4, 1 (float32) or 2, 2, 2, 2, 1 (float64)
# batch elements: see TestAttentionCore.test_batch_slices_case_is_sliced
_SLICE_SHAPE = (9, 60, 12)
_SLICE_MASK_BIAS = (np.arange(60) >= 60 - np.arange(9)[:, None])[
    :, None, None, :] * -1e9


def _self_attention_case(attention, p, mask_bias=_MASK_BIAS, read=False):
    """Inputs x and the six projection parameters, with xq = x; or, if
    `read`, xq first, then x and the parameters."""
    def op(*xs):
        xq, x, params = (xs[0], xs[1], xs[2:]) if read \
            else (xs[0], xs[0], xs[1:])
        return attention(xq, x, *params, 2, mask_bias, p, Rng(11))
    return op


def _projections(x_shape, xq_shape=None):
    H = x_shape[-1]
    return [*([xq_shape] if xq_shape else []), x_shape,
            *[(H, H), (H,)] * 3]


def _transposed_weight(linear):
    return lambda x, wt, b: linear(x, ad.transpose(wt, (1, 0)), b)


# each: (fused op, its oracle, input shapes); inputs are leaf Tensors. Two
# heads of width 6 make the score scale 1/sqrt(6), not an exact power of 2.
_FUSED_CASES = {
    "linear-2d": (ad.linear, unfused_linear, [(4, 5), (5, 3), (3,)]),
    "linear-3d": (ad.linear, unfused_linear, [(2, 3, 5), (5, 3), (3,)]),
    "linear-4d": (ad.linear, unfused_linear, [(2, 2, 3, 5), (5, 3), (3,)]),
    "linear-transposed-weight": (_transposed_weight(ad.linear),
                                 _transposed_weight(unfused_linear),
                                 [(2, 3, 5), (3, 5), (3,)]),
    "attention": (_attention_case(ad.attention_core, 0.0),
                  _attention_case(unfused_attention, 0.0), [(2, 6, 12)] * 3),
    "attention-dropout": (_attention_case(ad.attention_core, 0.15),
                          _attention_case(unfused_attention, 0.15),
                          [(2, 6, 12)] * 3),
    "attention-float64-bias": (
        _attention_case(ad.attention_core, 0.15, _rand((2, 1, 6, 6), 7)),
        _attention_case(unfused_attention, 0.15, _rand((2, 1, 6, 6), 7)),
        [(2, 6, 12)] * 3),
    "attention-batch-slices": (
        _attention_case(ad.attention_core, 0.15, _SLICE_MASK_BIAS),
        _attention_case(unfused_attention, 0.15, _SLICE_MASK_BIAS),
        [_SLICE_SHAPE] * 3),
    "self_attention": (_self_attention_case(ad.self_attention, 0.0),
                       _self_attention_case(unfused_self_attention, 0.0),
                       _projections((2, 6, 12))),
    "self_attention-dropout": (
        _self_attention_case(ad.self_attention, 0.15),
        _self_attention_case(unfused_self_attention, 0.15),
        _projections((2, 6, 12))),
    # R=2 query rows over S=6 keys: xq is not x
    "self_attention-read-rows": (
        _self_attention_case(ad.self_attention, 0.15, read=True),
        _self_attention_case(unfused_self_attention, 0.15, read=True),
        _projections((2, 6, 12), (2, 2, 12))),
    "self_attention-batch-slices": (
        _self_attention_case(ad.self_attention, 0.15, _SLICE_MASK_BIAS),
        _self_attention_case(unfused_self_attention, 0.15, _SLICE_MASK_BIAS),
        _projections(_SLICE_SHAPE)),
    "add_layer_norm": (ad.add_layer_norm, unfused_add_layer_norm,
                       [(2, 3, 8), (2, 3, 8), (8,), (8,)]),
    "ffn-2d": (ad.ffn, unfused_ffn, [(4, 5), (5, 8), (8,), (8, 3), (3,)]),
    "ffn-3d": (ad.ffn, unfused_ffn,
               [(2, 3, 5), (5, 8), (8,), (8, 3), (3,)]),
    # F so wide that the 80 rows run in several row chunks, the last short
    "ffn-row-chunks": (ad.ffn, unfused_ffn,
                       [(2, 40, 4), (4, 1100), (1100,), (1100, 3), (3,)]),
}


# the inputs of each case whose exact gradient is 0: self_attention's bk
# shifts each query row's scores by one constant, which softmax cancels,
# and central differences cannot resolve a 0 relative to itself
_ZERO_GRAD = {name: (5 if name.endswith("read-rows") else 4,)
              for name in _FUSED_CASES if name.startswith("self_attention")}


def _run(op, shapes, dtype):
    """Forward and backward of sum(op(*inputs) * w); returns the output
    and the input gradients."""
    xs = [Tensor(_rand(s, i) * 2.0, dtype) for i, s in enumerate(shapes)]
    with Tape() as tape:
        y = op(*xs)
        loss = weighted_sum(y, _rand(y.shape, 9))
    ad.backward(tape, loss, parameters=xs)
    return y, [x.grad for x in xs]


@pytest.mark.parametrize("name", sorted(_FUSED_CASES))
class TestFusedOps:
    """linear, attention_core, self_attention, add_layer_norm and ffn give
    the bits of the chains of single ops they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_as_unfused(self, name, dtype):
        fused, unfused, shapes = _FUSED_CASES[name]
        y, grads = _run(fused, shapes, dtype)
        y_ref, grads_ref = _run(unfused, shapes, dtype)
        assert y.dtype == dtype and all(g.dtype == dtype for g in grads)
        assert np.array_equal(y.data, y_ref.data)
        for g, g_ref in zip(grads, grads_ref):
            assert g.shape == g_ref.shape and np.array_equal(g, g_ref)

    def test_float64_grad_check(self, name):
        fused, _, shapes = _FUSED_CASES[name]
        xs = [Tensor(_rand(s, 20 + i), np.float64)
              for i, s in enumerate(shapes)]

        def f():
            with Tape() as tape:
                y = fused(*xs)
                loss = weighted_sum(ad.gelu(y), _rand(y.shape, 29))
            return loss, tape

        zero = _ZERO_GRAD.get(name, ())
        loss, tape = f()
        ad.backward(tape, loss)
        scale = max(np.abs(x.grad).max() for x in xs)
        assert all(np.abs(xs[i].grad).max() < 1e-12 * scale for i in zero)
        checked = [x for i, x in enumerate(xs) if i not in zero]
        assert ad.grad_check(f, checked, h=1e-5) < 1e-6


class TestFfn:
    def test_rule_keeps_x_alone(self):
        # no (rows, F) array: backward rebuilds u, then gelu's t and
        # gelu(u) from it
        x, w1, b1, w2, b2 = (Tensor(_rand(s, i)) for i, s in enumerate(
            [(2, 3, 5), (5, 16), (16,), (16, 4), (4,)]))
        with Tape() as tape:
            ad.ffn(x, w1, b1, w2, b2)
        params = {id(t.data) for t in (w1, b1, w2, b2)}
        held = [o for o in _held(tape.records[0].backward_fn)
                if isinstance(o, np.ndarray) and id(o) not in params]
        assert len(held) == 1 and held[0] is x.data

    def test_shape_mismatch_names_every_shape(self):
        x, w1, b1, w2, b2 = (Tensor(np.zeros(s)) for s in
                             [(2, 5), (5, 8), (8,), (7, 3), (3,)])
        with pytest.raises(ShapeMismatchError,
                           match=r"\(2, 5\) x \(5, 8\) \+ \(8,\), "
                                 r"then x \(7, 3\) \+ \(3,\)"):
            ad.ffn(x, w1, b1, w2, b2)


class TestSelfAttention:
    def test_shape_mismatch_names_every_shape(self):
        x, wq, bq, wk, bk, wv, bv = (Tensor(np.zeros(s)) for s in
                                     [(2, 6, 12), (12, 12), (12,), (12, 12),
                                      (12,), (12, 8), (12,)])
        with pytest.raises(ShapeMismatchError,
                           match=r"\(2, 6, 12\) and \(2, 6, 12\) x "
                                 r"\(12, 12\)/\(12, 12\)/\(12, 8\) \+ "
                                 r"\(12,\)/\(12,\)/\(12,\)"):
            ad.self_attention(x, x, wq, bq, wk, bk, wv, bv, 2, _MASK_BIAS,
                              0.0, None)


class TestAttentionCore:
    def test_probabilities_are_the_pre_dropout_softmax(self, monkeypatch):
        # of attention_core, then of self_attention, each one record
        copies, _ = attention_probs(monkeypatch)
        q, k, v = (Tensor(_rand((2, 6, 12), i), np.float64) for i in range(3))
        params = [Tensor(_rand(s, 3 + i) * 0.3, np.float64) for i, s in
                  enumerate(_projections((2, 6, 12))[1:])]
        for attend in (lambda: ad.attention_core(q, k, v, 2, _MASK_BIAS,
                                                 0.5, Rng(3)),
                       lambda: ad.self_attention(q, q, *params, 2,
                                                 _MASK_BIAS, 0.5, Rng(3))):
            with Tape() as tape:
                attend()
            assert len(tape.records) == 1
        assert len(copies) == 2
        for probs in copies:
            assert probs.shape == (2, 2, 6, 6)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
            assert probs[0, :, :, 4:].max() == 0.0      # padded keys

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_slices_case_is_sliced(self, dtype):
        B, S, _ = _SLICE_SHAPE
        sizes = [len(range(B)[b]) for b in
                 ad._row_chunks(B, 2 * S * S * np.dtype(dtype).itemsize)]
        assert len(sizes) >= 3 and sizes[-1] < sizes[0] and sum(sizes) == B

    def test_float64_mask_bias_keeps_float32(self):
        y, grads = _run(_attention_case(ad.attention_core, 0.15),
                           [(2, 6, 12)] * 3, np.float32)
        assert _MASK_BIAS.dtype == np.float64
        assert y.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * 3

    def test_nan_score_rejected(self):
        q, k, v = (Tensor(_rand((2, 6, 12), i)) for i in range(3))
        q.data[1, 2, 0] = np.nan
        with pytest.raises(ad.NumericalError, match="NaN"):
            ad.attention_core(q, k, v, 2, _MASK_BIAS, 0.0, None)

    def test_nan_score_diverges_a_training_step(self):
        from bertfit.optim import Adam, DivergedError, ParameterGroup, \
            train_step
        w = Tensor(_rand((12, 12), 1), name="w")
        x = Tensor(_rand((2, 6, 12), 2))
        x.data[0, 0, 0] = np.nan
        opt = Adam([ParameterGroup(depth=0, params=[w])])

        def loss_fn():
            h = ad.matmul(x, w)
            return (weighted_sum(ad.attention_core(h, h, h, 2, _MASK_BIAS,
                                                   0.0, None), 1.0),)

        with pytest.raises(DivergedError, match="NaN"):
            train_step(opt, loss_fn, {0: 1e-2})
        assert w.grad is None and opt.t == 0


class TestDropout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_the_drawn_mask_times_the_scale(self, dtype):
        # the last axis, 13, packs into two bytes, the second partial
        x = Tensor(_rand((3, 5, 13), 4), dtype)
        g = _rand(x.shape, 5).astype(dtype)
        p, scale = 0.3, dtype(1) / dtype(1 - 0.3)
        kept = Rng(6).keep_mask(x.shape, p)
        with Tape() as tape:
            y = ad.dropout(x, p, Rng(6))
            loss = weighted_sum(y, g)
        ad.backward(tape, loss)
        assert y.dtype == dtype and x.grad.dtype == dtype
        assert _bits(y.data) == _bits(x.data * kept * scale)
        assert _bits(x.grad) == _bits(g * kept * scale)

    def test_rule_keeps_the_mask_bit_packed(self):
        x = Tensor(_rand((3, 5, 13), 4))
        with Tape() as tape:
            ad.dropout(x, 0.3, Rng(6))
        held = [o for o in _held(tape.records[0].backward_fn)
                if isinstance(o, np.ndarray)]
        assert [(o.dtype, o.shape) for o in held] == [(np.uint8, (3, 5, 2))]
        assert np.array_equal(
            np.unpackbits(held[0], axis=-1, count=13).view(bool),
            Rng(6).keep_mask(x.shape, 0.3))


_ROWS = np.array([[0, 3], [5, 0]])      # the query rows read, R=2 of S=6


def _rows_of(a, axis=1):
    """The rows at _ROWS of array `a` along `axis` (S long)."""
    shape = [1] * a.ndim
    shape[0], shape[axis] = _ROWS.shape
    return np.take_along_axis(a, _ROWS.reshape(shape), axis)


def _at_rows(t):
    """(B, S, H) -> (B, R, H) rows of `t` at _ROWS, as a recorded op."""
    B, S, H = t.shape
    return ad.embedding(ad.reshape(t, (B * S, H)),
                        _ROWS + S * np.arange(B)[:, None])


class TestAttentionRows:
    """attention_core on R < S query rows gives the full-row op's output
    and gradients at those rows, dropout included: a stream with `rows`
    gives the full mask's rows."""

    def _pair(self, dtype, p):
        """(output, q/k/v grads) of the full op read at _ROWS, and of the
        op on those query rows only."""
        q, k, v = (_rand((2, 6, 12), i) * 2.0 for i in range(3))
        w = Tensor(_rand((2, 2, 12), 9), dtype)

        def run(qkv, rng, read):
            xs = [Tensor(a, dtype) for a in qkv]
            with Tape() as tape:
                y = read(ad.attention_core(*xs, 2, _MASK_BIAS, p, rng))
                loss = weighted_sum(y, w.data)
            ad.backward(tape, loss, parameters=xs)
            return y.data, [x.grad for x in xs]

        y, (gq, gk, gv) = run((q, k, v), Rng(11), _at_rows)
        rows = run((_rows_of(q), k, v), Rng(11, rows=(_ROWS, 6)),
                   lambda y: y)
        return (y, [_rows_of(gq), gk, gv]), rows

    @pytest.mark.parametrize("p", [0.0, 0.15])
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5),
                                            (np.float64, 1e-12)])
    def test_equals_full_rows(self, dtype, rtol, p):
        (y, grads), (y_r, grads_r) = self._pair(dtype, p)
        assert y_r.shape == (2, 2, 12) and y_r.dtype == dtype
        np.testing.assert_allclose(y_r, y, rtol=rtol, atol=rtol * 1e-3)
        for g_r, g in zip(grads_r, grads):
            assert g_r.shape == g.shape and g_r.dtype == dtype
            np.testing.assert_allclose(g_r, g, rtol=rtol,
                                       atol=rtol * np.abs(g).max())

    @pytest.mark.parametrize("p", [0.0, 0.15])
    def test_float64_grad_check(self, p):
        xs = [Tensor(_rand(s, 20 + i), np.float64)
              for i, s in enumerate([(2, 2, 12), (2, 6, 12), (2, 6, 12)])]

        def f():
            with Tape() as tape:
                y = ad.attention_core(*xs, 2, _MASK_BIAS, p,
                                      Rng(11, rows=(_ROWS, 6)))
                loss = weighted_sum(ad.gelu(y), _rand(y.shape, 29))
            return loss, tape

        assert ad.grad_check(f, xs, h=1e-5) < 1e-6


class TestBackward:
    def test_sum_of_softmax_is_constant(self):
        x = Tensor(_rand(5, 6), np.float64)
        with Tape() as tape:
            loss = weighted_sum(ad.softmax(x), 1.0)
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(_rand(3, 7), np.float64)
        with Tape() as tape:
            y = ad.gelu(x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, y)

    def test_shared_first_gradient_is_not_written_into(self):
        a, b = (Tensor(_rand((3, 4), i), np.float64) for i in range(2))
        v, w = _rand((3, 4), 2), _rand((3, 4), 3)
        with Tape() as tape:
            z = weighted_sum(a, v)  # a's second use, differentiated last
            y = ad.add(a, b)        # hands one array to both a and b
            loss = ad.add(weighted_sum(y, w), z)
        handed = spy_gradients(tape)
        ad.backward(tape, loss)
        assert np.array_equal(b.grad, w)
        assert np.array_equal(a.grad, w + v)
        assert np.array_equal(handed[y.node], w)
        assert y.grad is None

    def test_first_gradient_keeps_the_data_layout(self):
        x = Tensor(_rand((2, 3, 4), 1), np.float64)
        w = _rand((2, 4, 3), 2)
        with Tape() as tape:
            xt = ad.transpose(x, (0, 2, 1))
            loss = weighted_sum(xt, w)
        ad.backward(tape, loss)
        assert np.array_equal(x.grad, np.transpose(w, (0, 2, 1)))
        assert x.grad.strides == x.data.strides
        assert xt.grad is None

    def test_gradients_released_once_consumed(self):
        a, b, c = (Tensor(_rand(shape, i), np.float64)
                   for i, shape in enumerate([(3, 4), (4, 4), 4]))
        orphan = Tensor([1.0], np.float64)
        with Tape() as tape:
            y = ad.add(ad.linear(a, b, c), a)
            loss = weighted_sum(ad.gelu(y), _rand((3, 4), 3))
        records = list(tape.records)
        ad.backward(tape, loss, parameters=[a, b, orphan])
        assert all(rec.grad is None for rec in records)
        for leaf in (a, b, c):      # c is an untaped input, not a parameter
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        assert np.array_equal(orphan.grad, [0.0])

    def test_disconnected_parameter_gets_exact_zero(self):
        x = Tensor([2.0], np.float64)
        orphan = Tensor([1.0], np.float64)
        with Tape() as tape:
            loss = weighted_sum(x, 1.0)
        ad.backward(tape, loss, parameters=[x, orphan])
        assert orphan.grad is not None
        assert (orphan.grad == 0.0).all()


class TestGradCheck:
    def test_linear_is_exact(self):
        theta = Tensor(_rand(5, 8), np.float64)

        def f():
            with Tape() as tape:
                loss = weighted_sum(theta, _rand(5, 9))
            return loss, tape

        assert ad.grad_check(f, [theta], h=1e-3) < 1e-8

    def test_cubic_taylor_trend(self):
        # central difference of theta^3 at theta=2 is 12 + h^2 exactly;
        # theta^3 is two (1, 1) linears of theta by itself
        zero = Tensor(np.zeros(1), np.float64)
        for h in (1e-2, 1e-3):
            theta = Tensor([[2.0]], np.float64)

            def f():
                with Tape() as tape:
                    cube = ad.linear(ad.linear(theta, theta, zero), theta,
                                     zero)
                    loss = ad.reshape(cube, ())
                return loss, tape

            err = ad.grad_check(f, [theta], h=h)
            expected = h * h / 12.0   # |12 - (12 + h^2)| / 12
            assert err == pytest.approx(expected, rel=1e-3)

    def test_composite_graph(self):
        w = Tensor(_rand((6, 4), 7), np.float64)
        x = Tensor(_rand((3, 6), 8), np.float64)
        g = Tensor(np.ones(4), np.float64)
        b = Tensor(np.zeros(4), np.float64)

        def f():
            with Tape() as tape:
                h = ad.gelu(ad.matmul(x, w))
                h = ad.layer_norm(h, g, b)
                loss = ad.cross_entropy(h, np.array([0, 1, 2]))
            return loss, tape

        assert ad.grad_check(f, [w, x, g, b], h=1e-4) < 1e-6


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.uniform() for _ in range(100)] == \
            [b.uniform() for _ in range(100)]
        assert a.randint(1000) == b.randint(1000)

    def test_derive_independent(self):
        a, b = Rng(7).derive(0), Rng(7).derive(1)
        assert [a.uniform() for _ in range(10)] != \
            [b.uniform() for _ in range(10)]


# (B, R) rows read of S=7: [CLS] only; scattered with duplicates; and the
# last row
_READ_ROWS = {
    "cls-only": np.zeros((2, 1), int),
    "scattered-duplicates": np.array([[2, 0, 2], [1, 1, 4]]),
    "last-row": np.array([[0, 6], [3, 6]]),
}


class TestRowDraws:
    """A stream with `rows` gives the full mask's rows, and leaves the
    stream where the full mask does."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["hidden", "heads"])
    @pytest.mark.parametrize("case", sorted(_READ_ROWS))
    def test_rows_of_the_full_draw(self, case, lead):
        positions = _READ_ROWS[case]
        (B, R), S, W = positions.shape, 7, 5
        full, rows = Rng(11), Rng(11, rows=(positions, S))
        want = full.keep_mask((B, *lead, S, W), 0.3)
        got = rows.keep_mask((B, *lead, R, W), 0.3)
        idx = positions.reshape((B,) + (1,) * len(lead) + (R, 1))
        assert np.array_equal(got, np.take_along_axis(want, idx, axis=-2))
        assert rows.gen.bit_generator.state == full.gen.bit_generator.state
        assert rows.uniform() == full.uniform()


class TestTapeMisc:
    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_cross_entropy_uniform_is_log_c(self):
        logits = Tensor(np.zeros((4, 5)), np.float64)
        loss = ad.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert float(loss.data) == pytest.approx(np.log(5.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_over_row_chunks_as_unchunked(self, dtype):
        # 23 rows of 3000 classes: 3 row chunks in float32, 5 in float64
        n, C = 23, 3000
        assert len(ad._row_chunks(n, C * np.dtype(dtype).itemsize)) >= 3
        x = Tensor(_rand((n, C), 7) * 4.0, dtype)
        labels = np.arange(n) * 131 % C
        with Tape() as tape:
            loss = ad.cross_entropy(x, labels)
        ad.backward(tape, loss)
        z = x.data - x.data.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        nll = -logp[np.arange(n), labels].sum() / n
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        assert loss.dtype == dtype and x.grad.dtype == dtype
        assert _bits(loss.data) == _bits(np.asarray(nll, dtype))
        assert _bits(x.grad) == _bits(np.ones((), dtype) * p * (dtype(1) / n))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_grad_bitwise_as_before(self, dtype):
        # the gradient is built in place; before, it was g * p * inv_n
        x = Tensor(_rand((6, 9), 5) * 3.0, dtype)
        labels = np.array([0, 8, 3, 3, 1, 5])
        with Tape() as tape:
            loss = weighted_sum(ad.cross_entropy(x, labels), 0.37)
        ad.backward(tape, loss)
        z = x.data - x.data.max(axis=-1, keepdims=True)
        p = np.exp(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
        p[np.arange(6), labels] -= 1.0
        g = np.ones((), dtype) * 0.37
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, g * p * (dtype(1) / 6))


# -- what the tape keeps: records are gradient sinks -----------------------

_OPS = sorted(name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")
              and name not in ("backward", "grad_check"))


def _every_op(x, w, b, gamma, beta):
    """A scalar loss over a graph that runs every public op, on
    activations where an op takes one; `h` feeds five ops and `u` four,
    so their records collect several gradients."""
    rng = Rng(3)
    h = ad.linear(x, w, b)                                  # (2, 4, 6)
    u = ad.gelu(ad.add(h, x))
    a = ad.attention_core(h, u, h, 2, np.zeros((2, 1, 1, 4)), 0.25, rng)
    a = ad.self_attention(a, u, w, b, w, gamma, w, beta, 2,
                          np.zeros((2, 1, 1, 4)), 0.25, rng)
    n = ad.add_layer_norm(a, h, gamma, beta)
    n = ad.layer_norm(ad.dropout(n, 0.2, rng), gamma, beta)
    m = ad.add(n, ad.ffn(u, w, b, w, beta))
    t = ad.transpose(ad.reshape(m, (8, 6)), (1, 0))         # (6, 8) view
    rows = ad.softmax(ad.embedding(h, np.array([0, 5, 7, 2, 3, 1, 0, 6])))
    s = ad.matmul(t, ad.add(rows, ad.reshape(u, (8, 6))))
    pooled = ad.concat([ad.tmax(s, 0), ad.tmean(s, axis=1)], axis=-1)
    return ad.add(ad.cross_entropy(ad.reshape(pooled, (2, 6)), [1, 4]),
                  ad.tsum(s))


def _every_op_leaves():
    return [Tensor(_rand(shape, 40 + i), np.float64) for i, shape in
            enumerate([(2, 4, 6), (6, 6), (6,), (6,), (6,)])]


def _held(obj):
    """Every object a backward rule reaches through its closures (nested
    rules included), lists and tuples; sinks are not followed."""
    if isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _held(o)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            yield from _held(cell.cell_contents)
    yield obj


class TestSinks:
    def test_every_op_is_in_the_graph(self, monkeypatch):
        ran = set()
        for name in _OPS:
            def spy(*args, _op=getattr(ad, name), _name=name, **kw):
                ran.add(_name)
                return _op(*args, **kw)
            monkeypatch.setattr(ad, name, spy)
        _every_op(*_every_op_leaves())
        assert ran == set(_OPS) and len(_OPS) == 19

    def test_every_op_float64_grad_check(self):
        xs = _every_op_leaves()

        def f():
            with Tape() as tape:
                loss = _every_op(*xs)
            return loss, tape

        assert ad.grad_check(f, xs, h=1e-5) < 1e-6

    def test_no_rule_holds_a_recorded_tensor_and_the_tape_no_output(self):
        # a rule holds the leaves it passes gradients to (their own
        # sinks), never an op's output Tensor
        with Tape() as tape:
            _every_op(*_every_op_leaves())
        assert len(tape.records) >= 20
        for rec in tape.records:
            assert all(o.node is None for o in _held(rec.backward_fn)
                       if isinstance(o, Tensor))

    def test_every_gradient_is_c_contiguous(self):
        # the transpose's (6, 8) output is a non-contiguous view
        xs = _every_op_leaves()
        with Tape() as tape:
            loss = _every_op(*xs)
        handed = spy_gradients(tape)
        ad.backward(tape, loss)
        grads = list(handed.values()) + [x.grad for x in xs]
        assert len(grads) > 20
        assert all(g.flags.c_contiguous for g in grads)

    def test_a_rule_s_arrays_are_freed_once_it_has_run(self):
        xs = _every_op_leaves()
        with Tape() as tape:
            loss = _every_op(*xs)
        leaf_data = {id(t.data) for t in xs}
        first = tape.records[0]
        refs = [weakref.ref(o) for rec in tape.records[1:]
                for o in _held(rec.backward_fn)
                if isinstance(o, np.ndarray) and id(o) not in leaf_data]
        assert len(refs) > 20 and all(r() is not None for r in refs)
        alive = []
        rule = first.backward_fn

        def spy(g):                     # the first op's rule runs last
            alive.append(sum(r() is not None for r in refs))
            rule(g)
        first.backward_fn = spy
        ad.backward(tape, loss)
        assert alive == [0]

    def test_second_backward_on_a_tape_raises(self):
        x = Tensor(_rand((3,), 1), np.float64)
        with Tape() as tape:
            loss = weighted_sum(x, 1.0)
        ad.backward(tape, loss)
        grad = x.grad.copy()
        with pytest.raises(ValueError, match="already consumed this tape"):
            ad.backward(tape, loss)
        with pytest.raises(ValueError, match="consumed"):
            with tape:
                pass
        assert np.array_equal(x.grad, grad)

    def test_a_record_adds_in_place_only_into_its_own_sum(self):
        with Tape() as tape:
            y = ad.gelu(Tensor(_rand((3, 4), 1), np.float64))
        g1, g2, g3 = (_rand((3, 4), i) for i in (2, 3, 4))
        before = g1.copy()
        ad._accum(y.node, g1)
        assert y.node.grad is g1                    # borrowed
        ad._accum(y.node, g2)
        own = y.node.grad
        assert own is not g1 and np.array_equal(g1, before)
        ad._accum(y.node, g3)
        assert y.node.grad is own                   # added in place
        assert _bits(own) == _bits(np.add(np.add(g1, g2), g3))
        assert len(tape.records) == 1

    def test_a_leaf_gradient_is_never_added_into(self):
        x = Tensor(_rand((3, 4), 1), np.float64)
        g1, g2, g3 = (_rand((3, 4), i) for i in (2, 3, 4))
        outside = g1.copy()
        x.grad = outside
        ad._accum(x, g2)
        first = x.grad
        ad._accum(x, g3)
        assert np.array_equal(outside, g1) and np.array_equal(first, g1 + g2)
        assert x.grad is not first
        assert _bits(x.grad) == _bits(np.add(np.add(g1, g2), g3))
