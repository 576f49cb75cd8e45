import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertfit import autodiff as ad
from bertfit.autodiff import Tensor
from bertfit.longtext import (ChunkedDocument, FractionCombiner,
                              TruncationStrategy, chunk, combine, truncate)
from bertfit.rng import Rng
from bertfit.tokenizer import RESERVED, Vocabulary
from conftest import weighted_sum


@pytest.fixture
def vocab():
    return Vocabulary(RESERVED + ["x", "y"])


def toks(n):
    return [f"t{i}" for i in range(n)]


class TestTruncate:
    def test_head_tail_600(self):
        strat = TruncationStrategy(kind="head_tail")
        out = truncate(toks(600), strat)
        assert out == toks(600)[:128] + toks(600)[-382:]

    def test_fits_unchanged(self):
        for kind in ("head_only", "tail_only", "head_tail"):
            strat = TruncationStrategy(kind=kind)
            assert truncate(toks(510), strat) == toks(510)

    def test_511_drops_index_128(self):
        strat = TruncationStrategy(kind="head_tail")
        out = truncate(toks(511), strat)
        assert len(out) == 510
        assert "t128" not in out
        assert out == toks(511)[:128] + toks(511)[129:]

    def test_head_only_tail_only(self):
        t = toks(700)
        assert truncate(t, TruncationStrategy(kind="head_only")) == t[:510]
        assert truncate(t, TruncationStrategy(kind="tail_only")) == t[-510:]

    @pytest.mark.parametrize("cap, head", [(1, 0), (4, 1), (62, 16),
                                           (126, 32), (510, 128)])
    def test_head_tail_split_scales_with_capacity(self, cap, head):
        t = toks(cap + 7)
        out = truncate(t, TruncationStrategy(kind="head_tail", capacity=cap))
        assert out == t[:head] + t[-(cap - head):]

    @given(st.integers(min_value=0, max_value=1200))
    @settings(max_examples=60, deadline=None)
    def test_subsequence_order_preserved(self, n):
        strat = TruncationStrategy(kind="head_tail")
        out = truncate(toks(n), strat)
        assert len(out) <= 510
        it = iter(toks(n))
        assert all(tok in it for tok in out)   # ordered subsequence


class TestChunk:
    def test_1020_two_fractions(self, vocab):
        doc = chunk(["x"] * 1020, vocab)
        assert doc.k == 2

    def test_1021_three_fractions(self, vocab):
        doc = chunk(["x"] * 1021, vocab)
        assert doc.k == 3
        # [CLS] + 1 token + [SEP]
        assert sum(doc.fractions[-1].attention_mask) == 3

    def test_short_single_fraction(self, vocab):
        assert chunk(["x"] * 10, vocab).k == 1

    def test_label_is_the_fractions_label(self, vocab):
        doc = chunk(["x"] * 25, vocab, capacity=10, label=3)
        assert doc.k == 3
        assert doc.label == 3
        assert [f.label for f in doc.fractions] == [3, 3, 3]
        assert chunk(["x"], vocab).label is None

    def test_empty_input(self, vocab):
        doc = chunk([], vocab)
        assert doc.k == 1
        assert sum(doc.fractions[0].attention_mask) == 2  # [CLS] [SEP]

    def test_flatten_reproduces_stream(self, vocab):
        tokens = ["x", "y"] * 600
        doc = chunk(tokens, vocab)
        flat = []
        for frac in doc.fractions:
            for tid, real in zip(frac.token_ids, frac.attention_mask):
                if real and tid not in (vocab.cls_id, vocab.sep_id):
                    flat.append(vocab.id_to_token[tid])
        assert flat == tokens


def _scale(a, c):
    """The former `ad.scale` op: a times a Python float constant."""
    c = float(c)
    sink = a.node or a

    def bwd(g):
        ad._accum(sink, g * c)

    return ad._make(a.data * c, bwd)


def _former_attn_combine(cls_vectors, combiner):
    """`combine`'s attn route as it was built from single ops."""
    k, H = cls_vectors.shape
    keys = ad.matmul(cls_vectors, combiner.wk)
    vals = ad.matmul(cls_vectors, combiner.wv)
    q = ad.reshape(combiner.query, (H, 1))
    scores = _scale(ad.matmul(keys, q), 1.0 / np.sqrt(H))
    weights = ad.softmax(ad.reshape(scores, (1, k)))
    return ad.reshape(ad.matmul(weights, vals), (H,))


class TestCombine:
    def _vectors(self, rows):
        return Tensor(np.array(rows, dtype=np.float64), np.float64)

    def test_single_fraction_identity_all_kinds(self):
        v = self._vectors([[1.0, 2.0, 3.0, 4.0]])
        rng = Rng(0)
        for kind in ("mean", "max", "attn"):
            comb = FractionCombiner.init(kind, hidden=4, rng=rng,
                                         dtype=np.float64)
            out = combine(v, comb)
            np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0, 4.0])

    def test_mean_max_elementwise(self):
        v = self._vectors([[1.0, 3.0], [3.0, 1.0]])
        mean = combine(v, FractionCombiner.init("mean"))
        mx = combine(v, FractionCombiner.init("max"))
        np.testing.assert_allclose(mean.data, [2.0, 2.0])
        np.testing.assert_allclose(mx.data, [3.0, 3.0])

    def test_attention_weights_sum_to_one(self):
        # fractions that differ only where W_v is zero draw unequal weights
        # but give one value: the output is that value times their sum
        rng = Rng(1)
        comb = FractionCombiner.init("attn", hidden=8, rng=rng,
                                     dtype=np.float64)
        comb.wv.data[0, 0] = 0.0
        v = np.tile(rng.gen.normal(size=8), (5, 1))
        v[:, 0] = np.arange(5.0)
        out = combine(Tensor(v, np.float64), comb)
        assert out.shape == (8,)
        np.testing.assert_allclose(out.data, v[0] @ comb.wv.data,
                                   rtol=1e-12)

    def test_permutation_invariance_mean_max(self):
        rng = Rng(2)
        rows = rng.gen.normal(size=(4, 6))
        perm = rows[[2, 0, 3, 1]]
        for kind in ("mean", "max"):
            comb = FractionCombiner.init(kind)
            a = combine(Tensor(rows, np.float64), comb).data
            b = combine(Tensor(perm, np.float64), comb).data
            np.testing.assert_allclose(a, b)

    def test_attn_grad_check(self):
        rng = Rng(3)
        v = Tensor(rng.gen.normal(size=(3, 6)), np.float64)
        comb = FractionCombiner.init("attn", hidden=6, rng=rng,
                                     dtype=np.float64)
        params = [v] + comb.parameters()
        w = rng.gen.normal(size=6)

        def f():
            with ad.Tape() as tape:
                out = combine(v, comb)
                loss = weighted_sum(ad.gelu(out), w)
            return loss, tape

        assert ad.grad_check(f, params, h=1e-4) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("H", [6, 64])
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_attn_bitwise_as_former_chain(self, dtype, H, k):
        """Output and every gradient (fractions, query, W_k, W_v) have the
        bits of the former chain of matmul, scale and softmax."""
        rng = Rng(100 * H + k)
        v = rng.gen.normal(size=(k, H))
        comb = FractionCombiner.init("attn", H, rng, dtype=dtype)
        comb.wv.data += rng.gen.normal(0.0, 0.05, (H, H)).astype(dtype)
        w = rng.gen.normal(size=H).astype(dtype)

        def run(pool):
            x = Tensor(v, dtype)
            params = [x] + comb.parameters()
            with ad.Tape() as tape:
                out = pool(x, comb)
                loss = weighted_sum(out, w)
            ad.backward(tape, loss, parameters=params)
            grads = [p.grad for p in params]
            for p in params:
                p.zero_grad()
            return out.data, grads

        out, grads = run(combine)
        want, want_grads = run(_former_attn_combine)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        for g, g_ref in zip(grads, want_grads):
            assert g.dtype == dtype and g.tobytes() == g_ref.tobytes()
