import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertfit import autodiff as ad
from bertfit.autodiff import Tape, Tensor
from bertfit.longtext import FractionCombiner
from bertfit.model import (ClassifierHead, EncoderConfig, LayerSelection,
                           class_logits, classify, depth_of, encode_batch,
                           init_model, mlm_logits, named_tensors, nsp_logits,
                           select_features, stack_inputs)
from bertfit.optim import Adam, group_parameters, train_step
from bertfit.rng import Rng
from bertfit.tokenizer import TokenizedSequence
from conftest import attention_probs, spy_gradients, weighted_sum
from test_autodiff import (_held, unfused_add_layer_norm, unfused_attention,
                           unfused_linear)


class TestInit:
    def test_deterministic(self, toy_config):
        a = init_model(toy_config, Rng(5))
        b = init_model(toy_config, Rng(5))
        for k in a.params:
            assert (a.params[k].data == b.params[k].data).all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden=10, n_heads=3)
        with pytest.raises(ValueError):
            EncoderConfig(n_layers=0)
        with pytest.raises(ValueError):
            EncoderConfig(dropout=1.0)

    def test_zero_dropout_forward_deterministic(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        a = encode_batch(toy_model, ids, segs, mask, rng=Rng(1))
        b = encode_batch(toy_model, ids, segs, mask, rng=Rng(2))
        assert (a[-1].data == b[-1].data).all()


class TestEncode:
    def test_padding_invariance(self, toy_model):
        ids = np.array([[2, 5, 6, 3, 0, 0]])
        segs = np.zeros_like(ids)
        mask = (ids != 0).astype(int)
        out1 = encode_batch(toy_model, ids, segs, mask)[-1].data
        ids2 = ids.copy()
        ids2[0, 4] = 17   # change a padded position's token id
        out2 = encode_batch(toy_model, ids2, segs, mask)[-1].data
        np.testing.assert_array_equal(out1[0, :4], out2[0, :4])

    def test_eval_deterministic(self, toy_config, toy_batch):
        # the weights of a dropout-0 model, at dropout 0.5: without a
        # stream no dropout runs, so every forward is the dropout-0 one
        ids, segs, mask, _ = toy_batch
        want = encode_batch(init_model(toy_config, Rng(0)), ids, segs, mask)
        toy_config.dropout = 0.5
        model = init_model(toy_config, Rng(0))
        for _ in range(2):
            got = encode_batch(model, ids, segs, mask)
            assert all(a.data.tobytes() == b.data.tobytes()
                       for a, b in zip(got, want))

    def test_equal_streams_give_equal_forwards(self, toy_config, toy_batch):
        ids, segs, mask, _ = toy_batch
        toy_config.dropout = 0.5
        model = init_model(toy_config, Rng(0))
        a, b = (encode_batch(model, ids, segs, mask, rng=Rng(3))
                for _ in range(2))
        assert all(x.data.tobytes() == y.data.tobytes()
                   for x, y in zip(a, b))
        plain = encode_batch(model, ids, segs, mask)
        assert not np.array_equal(a[-1].data, plain[-1].data)

    def test_attention_rows_sum_to_one(self, toy_model, toy_batch,
                                       monkeypatch):
        ids, segs, mask, _ = toy_batch
        copies, _ = attention_probs(monkeypatch)
        with Tape():
            encode_batch(toy_model, ids, segs, mask)
        assert len(copies) == 2
        probs = copies[0]         # (B, A, S, S)
        sums = probs.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        # no weight on padded keys
        assert probs[0, :, :, 4:].max() < 1e-8

    def test_train_mode_attention_rows_sum_to_one(self, toy_config,
                                                  toy_batch, monkeypatch):
        ids, segs, mask, _ = toy_batch
        toy_config.dropout = 0.3
        model = init_model(toy_config, Rng(0))
        copies, _ = attention_probs(monkeypatch)
        with Tape():
            encode_batch(model, ids, segs, mask, rng=Rng(1))
        assert len(copies) == 2
        for probs in copies:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
            assert probs[0, :, :, 4:].max() < 1e-8

    def test_eval_keeps_no_attention_probs_unasked(self, toy_config,
                                                   toy_batch, monkeypatch):
        # without a tape, each block's probabilities are freed when its
        # attention returns
        toy_config.n_layers = 3
        model = init_model(toy_config, Rng(0))
        ids, segs, mask, _ = toy_batch
        (_, refs), alive = attention_probs(monkeypatch), []
        attend = ad.self_attention

        def spy(*args):
            ctx = attend(*args)
            alive.append(sum(r() is not None for r in refs))
            return ctx

        monkeypatch.setattr(ad, "self_attention", spy)
        encode_batch(model, ids, segs, mask)
        assert len(refs) == 3 and alive == [0, 0, 0]

    def test_too_long_rejected(self, toy_model):
        S = toy_model.config.max_positions + 1
        ids = np.zeros((1, S), dtype=int)
        with pytest.raises(ValueError, match="max positions"):
            encode_batch(toy_model, ids, ids, np.ones_like(ids))

    def test_layer_count(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        outs = encode_batch(toy_model, ids, segs, mask)
        assert len(outs) == toy_model.config.n_layers + 1
        assert all(o.shape == (2, 6, 8) for o in outs)


def _padded_seqs(lengths, S):
    """Sequences of real lengths `lengths` (0 for none), padded to S."""
    rows = []
    for b, n in enumerate(lengths):
        ids = [2 + (5 * b + j) % 27 for j in range(n)] + [0] * (S - n)
        mask = [1] * n + [0] * (S - n)
        rows.append(TokenizedSequence(ids, [int(j >= n // 2) for j in
                                            range(S)], mask))
    return rows


def _untrimmed(seqs):
    """`stack_inputs`' arrays without the cut: every padded column."""
    return tuple(np.array([getattr(s, k) for s in seqs]) for k in
                 ("token_ids", "segment_ids", "attention_mask"))


class TestStackInputs:
    @given(st.integers(1, 12).flatmap(lambda S: st.tuples(
        st.just(S), st.lists(st.integers(0, S), min_size=1, max_size=6))))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_width_is_the_longest_row(self, case):
        S, lengths = case
        seqs = _padded_seqs(lengths, S)
        full = _untrimmed(seqs)
        got = stack_inputs(seqs)
        width = max(lengths) or S       # no real token: nothing is cut
        for g, f in zip(got, full, strict=True):
            assert g.dtype == f.dtype
            np.testing.assert_array_equal(g, f[:, :width])
        assert not full[2][:, width:].any()     # no real token is cut
        if S in lengths:
            assert got[0].shape[1] == S

    def _model(self):
        cfg = EncoderConfig(n_layers=2, hidden=8, n_heads=2,
                            vocab_size=30, max_positions=16, dropout=0.1,
                            dtype="f8")
        return init_model(cfg, Rng(0))

    def test_trimmed_states_equal_the_padded(self):
        model = self._model()
        seqs = _padded_seqs([5, 3, 7, 1], 12)
        trimmed, padded = stack_inputs(seqs), _untrimmed(seqs)
        assert trimmed[0].shape == (4, 7)
        got = encode_batch(model, *trimmed)
        want = encode_batch(model, *padded)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (4, 7, 8)
            np.testing.assert_allclose(g.data, w.data[:, :7], rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_trimmed_read_equals_the_padded(self, layer):
        model = self._model()
        seqs = _padded_seqs([5, 3, 7, 2], 12)
        positions = np.array([[0, 4, 2], [0, 2, 2], [0, 6, 1], [0, 1, 0]])
        got = encode_batch(model, *stack_inputs(seqs),
                           read=(layer, positions))
        want = encode_batch(model, *_untrimmed(seqs),
                            read=(layer, positions))
        assert got[-1].shape == want[-1].shape == (4, 3, 8)
        np.testing.assert_allclose(got[-1].data, want[-1].data, rtol=0,
                                   atol=1e-12)


class TestReadRows:
    def test_classification_computes_only_what_the_head_reads(
            self, toy_config, toy_batch, monkeypatch):
        # layer 2 of 3: block 1 is the top block, on the [CLS] row only,
        # and block 2 makes no record, so its tensors get no gradient
        from bertfit.config import TrainingRecipe
        from bertfit.tokenizer import TokenizedSequence
        from bertfit.training import batch_logits
        toy_config.n_layers = 3
        model = init_model(toy_config, Rng(0))
        head = ClassifierHead.init(8, 3, Rng(1), dtype=np.float64)
        ids, segs, mask, labels = toy_batch
        batch = [TokenizedSequence(list(i), list(s), list(m), int(lab))
                 for i, s, m, lab in zip(ids, segs, mask, labels)]
        recipe = TrainingRecipe(
            layer_selection=LayerSelection("single", layer=2))
        shapes, (probs, _) = [], attention_probs(monkeypatch)
        attend = ad._attention

        def spy(q, k, v, *rest):
            ctx, grads = attend(q, k, v, *rest)
            shapes.append((q.shape, k.shape, v.shape, ctx.shape))
            return ctx, grads

        monkeypatch.setattr(ad, "_attention", spy)
        with Tape() as tape:
            logits = batch_logits(model, head, batch, recipe, None)
            loss = ad.cross_entropy(logits, labels)
        assert [a.shape for a in probs] == [(2, 2, 6, 6), (2, 2, 1, 6)]
        # after the top block's [CLS] gather, only its keys and values
        # span all 6 positions, inside its attention record (read before
        # backward consumes the tape)
        start = next(i for i, r in enumerate(tape.records)
                     if r.shape == (2, 1, 8))
        full = [r.shape for r in tape.records[start:]
                if len(r.shape) == 3 and r.shape[1] == 6]
        ad.backward(tape, loss)
        assert shapes == [((2, 6, 8),) * 4,
                          ((2, 1, 8), (2, 6, 8), (2, 6, 8), (2, 1, 8))]
        assert full == []
        for name, t in model.params.items():
            above = name.startswith("block2.") or name.startswith("head.")
            assert (t.grad is None) == above, name

    def test_rows_of_the_full_encoder(self, toy_config, toy_batch):
        ids, segs, mask, _ = toy_batch
        toy_config.n_layers = 3
        model = init_model(toy_config, Rng(0))
        full = encode_batch(model, ids, segs, mask)
        positions = np.array([[0, 3, 3], [5, 0, 1]])
        for layer in range(4):
            outs = encode_batch(model, ids, segs, mask,
                                read=(layer, positions))
            assert len(outs) == layer + 1
            for got, want in zip(outs[:-1], full):
                np.testing.assert_array_equal(got.data, want.data)
            want = np.take_along_axis(full[layer].data,
                                      positions[..., None], 1)
            np.testing.assert_allclose(outs[-1].data, want, rtol=1e-12,
                                       atol=1e-13)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_a_read_adds_one_gather_record(self, toy_config, toy_batch,
                                           dropout):
        # the top block runs on the gathered rows, so its records number
        # the full block's; the gather adds one
        ids, segs, mask, _ = toy_batch
        toy_config.dropout = 0.1
        model = init_model(toy_config, Rng(0))
        n_records = []
        for read in (None, (2, np.array([[0, 3], [5, 0]]))):
            with Tape() as tape:
                encode_batch(model, ids, segs, mask, read=read,
                             rng=Rng(1) if dropout else None)
            n_records.append(len(tape.records))
        assert n_records[1] == n_records[0] + 1

    @pytest.mark.parametrize("layer", [0, 2])
    def test_read_position_out_of_range_rejected(self, toy_model, toy_batch,
                                                 layer):
        # S=6: position 6 or -1 would read another sequence's row
        ids, segs, mask, _ = toy_batch
        full = encode_batch(toy_model, ids, segs, mask)[layer].data
        ends = np.array([[0, 5], [5, 0]])
        got = encode_batch(toy_model, ids, segs, mask, read=(layer, ends))
        np.testing.assert_allclose(
            got[-1].data, np.take_along_axis(full, ends[..., None], 1),
            rtol=1e-12, atol=1e-13)
        for bad in (6, -1):
            with pytest.raises(ValueError, match=rf"read position {bad} "
                                                 rf"out of range \[0, 6\)"):
                encode_batch(toy_model, ids, segs, mask,
                             read=(layer, np.array([[0, 3], [bad, 0]])))

    def test_read_layer_out_of_range_rejected(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        with pytest.raises(ValueError, match="read layer 3"):
            encode_batch(toy_model, ids, segs, mask,
                         read=(3, np.zeros((2, 1), dtype=int)))

    @pytest.mark.parametrize("layer", range(4))
    def test_a_read_of_every_row_is_the_full_encoder_with_dropout(
            self, toy_config, toy_batch, layer):
        # positions[b] = 0..S-1: the top block's masks are drawn at the
        # full shape, so they are the full encoder's by construction. The
        # gather's backward sums in another order, and a key bias's exact
        # gradient is 0: every gradient is held to the largest one
        ids, segs, mask, _ = toy_batch
        toy_config.n_layers, toy_config.dropout = 3, 0.1
        model = init_model(toy_config, Rng(0))
        every = np.tile(np.arange(ids.shape[1]), (ids.shape[0], 1))
        w = Rng(4).truncated_normal((2, 6, 8), 1.0, dtype=np.float64)

        def run(read):
            with Tape() as tape:
                outs = encode_batch(model, ids, segs, mask, read=read,
                                    rng=Rng(9))
                loss = weighted_sum(outs[layer], w)
            for t in model.parameters():
                t.zero_grad()
            ad.backward(tape, loss, parameters=model.parameters())
            return ([o.data for o in outs[:layer + 1]],
                    [t.grad for t in model.parameters()])

        (outs, grads), (full, full_grads) = run((layer, every)), run(None)
        for got, want in zip(outs, full):
            np.testing.assert_array_equal(got, want)
        largest = max(np.abs(g).max() for g in full_grads if g is not None)
        for got, want in zip(grads, full_grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.abs(got - want).max() <= 1e-12 * largest

    @pytest.mark.parametrize("layer", [1, 3])
    def test_the_top_block_draws_at_the_read_shape(
            self, toy_config, toy_batch, layer, monkeypatch):
        # each site draws once, in order, keyed by its index, at the shape
        # of the array it drops from: the read's R = 3 rows in the top
        # block, all S = 6 below it
        ids, segs, mask, _ = toy_batch
        toy_config.n_layers, toy_config.dropout = 3, 0.1
        model = init_model(toy_config, Rng(0))
        positions = np.array([[0, 3, 3], [5, 0, 1]])
        drawn, keep_mask = [], Rng.keep_mask

        def spy(rng, shape, p):
            drawn.append((rng.key, keep_mask(rng, shape, p)))
            return drawn[-1][1]

        monkeypatch.setattr(Rng, "keep_mask", spy)
        encode_batch(model, ids, segs, mask, read=(layer, positions),
                     rng=Rng(9))
        top = 3 * layer

        def shape(i):
            rows = 3 if i > top - 3 else 6
            return (2, 2, rows, 6) if i % 3 == 1 else (2, rows, 8)

        assert [key for key, _ in drawn] == [(i,) for i in range(top + 1)]
        for (i,), kept in drawn:
            want = keep_mask(Rng(9).at(i), shape(i), 0.1)
            assert np.array_equal(kept, want), i


class TestSelectFeatures:
    def _outputs(self, model, batch):
        ids, segs, mask, _ = batch
        return encode_batch(model, ids, segs, mask)

    def test_last4_concat_width(self):
        cfg = EncoderConfig(n_layers=4, hidden=16, n_heads=2, vocab_size=30,
                            max_positions=8, dropout=0.0)
        model = init_model(cfg, Rng(0))
        ids = np.array([[2, 5, 3, 0]])
        outs = encode_batch(model, ids, np.zeros_like(ids),
                            (ids != 0).astype(int))
        sel = LayerSelection(strategy="last4", combiner="concat")
        feats = select_features(outs, sel)
        assert feats.shape == (1, 64)
        assert sel.feature_width(768, 12) == 3072   # paper-scale width

    def test_identical_layers_degenerate(self):
        h = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
        outs = [Tensor(h.copy(), np.float64) for _ in range(5)]
        mean = select_features(outs, LayerSelection("last4", combiner="mean"))
        mx = select_features(outs, LayerSelection("last4", combiner="max"))
        single = select_features(outs, LayerSelection("single", layer=4))
        np.testing.assert_allclose(mean.data, single.data)
        np.testing.assert_allclose(mx.data, single.data)

    def test_max_equals_top_when_dominant(self):
        outs = [Tensor(np.full((1, 2, 4), float(i)), np.float64)
                for i in range(5)]
        mx = select_features(outs, LayerSelection("last4", combiner="max"))
        top = select_features(outs, LayerSelection("single", layer=4))
        np.testing.assert_allclose(mx.data, top.data)

    def test_widths(self, toy_model, toy_batch):
        outs = self._outputs(toy_model, toy_batch)
        H, L = 8, 2
        assert select_features(outs, LayerSelection("single")).shape == (2, H)
        assert select_features(
            outs, LayerSelection("all", combiner="mean")).shape == (2, H)
        assert select_features(
            outs, LayerSelection("all", combiner="concat")).shape == (2, L * H)

    def test_embedding_output_selectable(self, toy_model, toy_batch):
        outs = self._outputs(toy_model, toy_batch)
        feats = select_features(outs, LayerSelection("single", layer=0))
        np.testing.assert_array_equal(feats.data, outs[0].data[:, 0])


class TestClassify:
    def test_zero_weights_uniform(self):
        head = ClassifierHead(W=Tensor(np.zeros((8, 4))),
                              b=Tensor(np.zeros(4)))
        probs = classify(Tensor(np.ones((3, 8))), head)
        np.testing.assert_allclose(probs.data, 0.25)

    def test_identity_closed_form(self):
        head = ClassifierHead(W=Tensor(np.eye(2), np.float64),
                              b=Tensor(np.zeros(2), np.float64))
        probs = classify(Tensor([[1.0, 0.0]], np.float64), head)
        e = np.e
        np.testing.assert_allclose(probs.data, [[e / (e + 1), 1 / (e + 1)]])

    def test_argmax_monotone(self):
        feats = np.array([[0.3, 2.0, -1.0]])
        head = ClassifierHead(W=Tensor(np.eye(3)), b=Tensor(np.zeros(3)))
        for s in (0.5, 1.0, 7.0):
            probs = classify(Tensor(feats * s), head)
            assert probs.data.argmax() == 1

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        head = ClassifierHead.init(8, 5, rng)
        probs = classify(
            Tensor(rng.gen.normal(size=(6, 8)).astype(np.float32) * 30), head)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_width_mismatch_rejected(self):
        head = ClassifierHead.init(8, 3, Rng(0))
        with pytest.raises(ValueError, match="width"):
            classify(Tensor(np.zeros((2, 5))), head)

    def test_zero_classifier_loss_is_log_c(self, toy_model, toy_batch):
        ids, segs, mask, labels = toy_batch
        outs = encode_batch(toy_model, ids, segs, mask)
        feats = select_features(outs, LayerSelection())
        head = ClassifierHead(W=Tensor(np.zeros((8, 4)), np.float64),
                              b=Tensor(np.zeros(4), np.float64))
        loss = ad.cross_entropy(class_logits(feats, head), labels)
        assert float(loss.data) == pytest.approx(np.log(4.0))


class TestHeads:
    def test_mlm_shape(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        outs = encode_batch(toy_model, ids, segs, mask)
        assert mlm_logits(toy_model, outs, np.arange(12)).shape == (12, 30)

    def test_nsp_shape(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        outs = encode_batch(toy_model, ids, segs, mask)
        assert nsp_logits(toy_model, outs).shape == (2, 2)

    def test_tied_embedding_perturbation(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        outs = encode_batch(toy_model, ids, segs, mask)
        before = mlm_logits(toy_model, outs, np.arange(12)).data.copy()
        tok = 23
        assert tok not in ids  # perturbed row must not feed the forward pass
        toy_model.params["emb.tok"].data[tok, 0] += 0.5
        outs2 = encode_batch(toy_model, ids, segs, mask)
        after = mlm_logits(toy_model, outs2, np.arange(12)).data
        assert np.abs(after[..., tok] - before[..., tok]).max() > 1e-4
        np.testing.assert_allclose(
            np.delete(after, tok, axis=-1), np.delete(before, tok, axis=-1),
            atol=1e-12)


class TestGradCheckFullModel:
    def test_classification_loss_grad(self, toy_model, toy_batch):
        ids, segs, mask, labels = toy_batch
        head = ClassifierHead.init(8, 3, Rng(1), dtype=np.float64)
        params = toy_model.parameters() + head.parameters()

        def f():
            with Tape() as tape:
                outs = encode_batch(toy_model, ids, segs, mask)
                feats = select_features(outs, LayerSelection())
                loss = ad.cross_entropy(class_logits(feats, head), labels)
            return loss, tape

        err = ad.grad_check(f, params, h=2e-3, samples=40, order=4)
        assert err < 1e-6


def _unfused_encode(model, ids, segs, mask, rng):
    """encode_batch with dropout keyed by `rng`, on the chain of single
    ops it replaced: site 0 the embedding's, 3i + 1 to 3i + 3 block i's."""
    cfg, p = model.config, model.params
    pd = cfg.dropout
    B, S = ids.shape
    pos = np.broadcast_to(np.arange(S), (B, S))
    x = unfused_add_layer_norm(
        ad.add(ad.embedding(p["emb.tok"], ids),
               ad.embedding(p["emb.pos"], pos)),
        ad.embedding(p["emb.seg"], segs), p["emb.ln_g"], p["emb.ln_b"])
    x = ad.dropout(x, pd, rng.at(0))
    mask_bias = (1.0 - mask[:, None, None, :]) * -1e9
    outputs = [x]
    for i in range(cfg.n_layers):
        b = f"block{i}."
        q, k, v = (unfused_linear(x, p[b + "w" + n], p[b + "b" + n])
                   for n in "qkv")
        ctx = unfused_attention(q, k, v, cfg.n_heads, mask_bias, pd,
                                rng.at(3 * i + 1))
        a = ad.dropout(unfused_linear(ctx, p[b + "wo"], p[b + "bo"]), pd,
                       rng.at(3 * i + 2))
        x = unfused_add_layer_norm(x, a, p[b + "attn_ln_g"],
                                   p[b + "attn_ln_b"])
        h = ad.gelu(unfused_linear(x, p[b + "ffn_w1"], p[b + "ffn_b1"]))
        h = ad.dropout(unfused_linear(h, p[b + "ffn_w2"], p[b + "ffn_b2"]),
                       pd, rng.at(3 * i + 3))
        x = unfused_add_layer_norm(x, h, p[b + "ffn_ln_g"], p[b + "ffn_ln_b"])
        outputs.append(x)
    return outputs


class TestFusedBlock:
    """A block on the fused ops: few tape records, none of attention size,
    and the bits of the unfused block."""

    def _model(self, dtype, n_layers=2):
        cfg = EncoderConfig(n_layers=n_layers, hidden=12, n_heads=2,
                            vocab_size=30, max_positions=16, dropout=0.1,
                            dtype=dtype)
        return init_model(cfg, Rng(0))

    def test_at_most_7_ops_per_block_and_none_attention_sized(
            self, toy_batch):
        ids, segs, mask, _ = toy_batch
        n_records = []
        for n_layers in (1, 2):
            model = self._model("f4", n_layers)
            with Tape() as tape:
                encode_batch(model, ids, segs, mask, rng=Rng(1))
            n_records.append(len(tape.records))
            B, S = ids.shape
            attn_shape = (B, model.config.n_heads, S, S)
            assert all(r.shape != attn_shape for r in tape.records)
        assert n_records[1] - n_records[0] <= 7

    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    def test_bitwise_as_unfused(self, toy_batch, dtype):
        ids, segs, mask, labels = toy_batch
        model = self._model(dtype)
        params = model.parameters()
        runs = []
        for encode in (
                lambda: encode_batch(model, ids, segs, mask, rng=Rng(1)),
                lambda: _unfused_encode(model, ids, segs, mask, Rng(1))):
            for t in params:
                t.zero_grad()
            with Tape() as tape:
                outs = encode()
                mlm = mlm_logits(model, outs, rows=np.array([1, 2, 8]))
                loss = ad.add(
                    ad.cross_entropy(mlm, np.array([4, 9, 11])),
                    ad.cross_entropy(nsp_logits(model, outs), labels % 2))
            ad.backward(tape, loss, parameters=params)
            runs.append(([o.data for o in outs], [t.grad for t in params]))
        (outs, grads), (outs_ref, grads_ref) = runs
        assert all(np.array_equal(a, b) for a, b in zip(outs, outs_ref))
        assert all(np.array_equal(a, b) for a, b in zip(grads, grads_ref))


class TestBackwardMemory:
    """Backward releases each intermediate gradient once its consumer has
    run; only leaves keep theirs."""

    def _step(self, keep_gradients=False):
        """One pre-training step on the tape; if `keep_gradients`, every
        gradient handed to a rule is kept until backward ends."""
        cfg = EncoderConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=100,
                            max_positions=32, dropout=0.1, dtype="f8")
        model = init_model(cfg, Rng(0))
        unreached = ClassifierHead.init(32, 3, Rng(2), dtype=np.float64)
        g = np.random.default_rng(0)
        ids = g.integers(5, 100, size=(8, 32))
        rows = np.arange(0, ids.size, 7)
        tracemalloc.start()
        try:
            with Tape() as tape:
                outs = encode_batch(model, ids, np.zeros_like(ids),
                                    np.ones_like(ids), rng=Rng(1))
                mlm = mlm_logits(model, outs, rows=rows)
                loss = ad.add(
                    ad.cross_entropy(mlm, g.integers(0, 100, rows.size)),
                    ad.cross_entropy(nsp_logits(model, outs),
                                     np.arange(8) % 2))
            handed = spy_gradients(tape) if keep_gradients else None
            forward, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            params = model.parameters() + unreached.parameters()
            records = list(tape.records)
            ad.backward(tape, loss, parameters=params)
            _, peak = tracemalloc.get_traced_memory()
            del handed                  # alive until the peak is read
        finally:
            tracemalloc.stop()
        return records, params, unreached, forward, peak

    def test_only_leaves_keep_gradients(self):
        records, params, unreached, _, _ = self._step()
        assert all(rec.grad is None for rec in records)
        assert all(p.grad is not None and p.grad.shape == p.shape
                   for p in params)
        assert all((p.grad == 0.0).all() for p in unreached.parameters())

    def test_backward_peak_over_forward_is_bounded(self):
        # Measured against the same step with every handed gradient kept
        # until backward ends, since the rebuilt projections shrink the
        # forward level: backward's traced peak sits 0.97 MB above the
        # forward level (parameter gradients, the few intermediate ones
        # still live, one rebuilt block's q, k, v and FFN arrays, one
        # batch slice of probabilities), 0.59 of the 1.63 MB it sits
        # above with every gradient kept; a backward that keeps every
        # record's gradient reads about 1.
        _, _, _, forward, peak = self._step()
        _, _, _, kept_forward, kept_peak = self._step(keep_gradients=True)
        assert peak - forward < 0.75 * (kept_peak - kept_forward)


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestMemoryLedger:
    """The distinct base arrays that the tape's rules hold after a forward
    pass with dropout, parameters aside: backward rebuilds the FFN's
    (rows, F) pre-activation and attention's q, k and v, so no rule holds
    any of them."""

    F = 40                          # no other held array is this wide

    def _ledger(self, read=None):
        cfg = EncoderConfig(n_layers=2, hidden=12, n_heads=2, ffn=self.F,
                            vocab_size=30, max_positions=16, dropout=0.1)
        model = init_model(cfg, Rng(0))
        ids = np.random.default_rng(0).integers(4, 30, size=(3, 7))
        with Tape() as tape:
            encode_batch(model, ids, np.zeros_like(ids), np.ones_like(ids),
                         read=read, rng=Rng(1))
        params = {id(_base(p.data)) for p in model.parameters()}
        held = {id(b): b for rec in tape.records
                for o in _held(rec.backward_fn) if isinstance(o, np.ndarray)
                for b in [_base(o)] if id(b) not in params}
        return list(held.values())

    @pytest.mark.parametrize("read_rows", [None, 2])
    def test_no_rule_keeps_an_f_wide_or_projection_array(self, read_rows,
                                                         monkeypatch):
        projections, attend = [], ad._attention

        def spy(q, k, v, *rest):
            projections.extend(_base(a) for a in (q, k, v))
            return attend(q, k, v, *rest)

        monkeypatch.setattr(ad, "_attention", spy)
        read, rows = None, [7, 7]    # query rows per sequence and block
        if read_rows is not None:
            read, rows = (2, np.zeros((3, read_rows), int)), [7, read_rows]
        held = self._ledger(read)
        assert [a.shape for a in projections] == \
            [(3 * n, 12) for r in rows for n in (r, 7, 7)]
        assert held and not [a for a in held if a.shape[-1] == self.F]
        held_ids = {id(a) for a in held}
        assert not [a for a in projections if id(a) in held_ids]

    def test_attention_keeps_packed_masks_and_row_statistics(self):
        # B=3, 2 heads, S=7, H=12: no float array of the (B, heads, S, S)
        # attention shape; each block's attention keeps its softmax's row
        # max and row sum, and every dropout mask (the embedding's, and
        # two per block of width H; one per block's attention of width S)
        # is packed to ceil(W / 8) bytes along its last axis: 2 for H, 1
        # for S
        B, n, S = 3, 2, 7
        held = self._ledger()
        floats = [a for a in held if a.dtype.kind == "f"]
        assert not [a for a in floats if a.shape == (B, n, S, S)]
        masks = [a for a in held if a.dtype == np.uint8]
        assert sorted(a.shape for a in masks) == \
            sorted([(B, S, 2)] * 5 + [(B, n, S, 1)] * 2)
        assert sum(a.nbytes for a in masks) == 5 * B * S * 2 + 2 * B * n * S
        stats = [a for a in floats if a.shape == (B, n, S, 1)]
        assert len(stats) == 4
        assert sum(a.nbytes for a in stats) == 4 * B * n * S * 4
        assert not [a for a in held if a.dtype == bool]


class TestTapeKeepsWhatBackwardReads:
    """A rule holds only the arrays it reads, so an output no rule reads
    is freed during the forward pass, even on a live tape."""

    def _model(self):
        cfg = EncoderConfig(n_layers=2, hidden=16, n_heads=2, vocab_size=40,
                            max_positions=16, dropout=0.1)
        return init_model(cfg, Rng(0))

    def _spy(self, monkeypatch, name, keep=lambda *args: True, arg=None):
        """Weak references to the output data of each `ad.<name>` call for
        which `keep(*args)` holds, or to its argument `arg` if given."""
        op, refs = getattr(ad, name), []

        def spy(*args):
            out = op(*args)
            if keep(*args):
                refs.append(weakref.ref((out if arg is None
                                         else args[arg]).data))
            return out
        monkeypatch.setattr(ad, name, spy)
        return refs

    def test_unread_outputs_freed_on_a_live_tape(self, toy_batch,
                                                 monkeypatch):
        ids, segs, mask, labels = toy_batch
        model = self._model()
        wo = self._spy(monkeypatch, "linear",
                       lambda x, w, b: str(w.name).endswith(".wo"))
        dropped = self._spy(monkeypatch, "dropout")
        sums = self._spy(monkeypatch, "add", lambda a, b: a.data.ndim == 3)
        logits = self._spy(monkeypatch, "cross_entropy", arg=0)
        copies, probs = attention_probs(monkeypatch)
        with Tape() as tape:
            outs = encode_batch(model, ids, segs, mask, rng=Rng(1))
            loss = ad.add(
                ad.cross_entropy(mlm_logits(model, outs, np.array([1, 8])),
                                 np.array([4, 9])),
                ad.cross_entropy(nsp_logits(model, outs), labels % 2))
        assert (len(wo), len(dropped), len(sums), len(logits)) == \
            (2, 5, 1, 2)
        # the dropped embedding output is the held outs[0]; the logits
        # passed first are the MLM head's
        # so are the attention probabilities, which backward rebuilds: no
        # rule holds a float array of their (B, heads, S, S) shape
        for refs in (wo, dropped[1:], sums, logits[:1], probs):
            assert all(r() is None for r in refs)
        assert [a.shape for a in copies] == [(2, 2, 6, 6)] * 2
        assert not [o for rec in tape.records for o in _held(rec.backward_fn)
                    if isinstance(o, np.ndarray) and o.shape == (2, 2, 6, 6)
                    and o.dtype.kind == "f"]
        ad.backward(tape, loss)

    def test_held_step_outputs_keep_no_attention_probs(self, toy_batch,
                                                       monkeypatch):
        # a returned Tensor's node is a record whose rule backward cleared,
        # so the step's graph does not outlive the step
        ids, segs, mask, labels = toy_batch
        model = self._model()
        opt = Adam(group_parameters(model))
        _, probs = attention_probs(monkeypatch)

        def loss_fn():
            logits = nsp_logits(model, encode_batch(model, ids, segs, mask,
                                                    rng=Rng(1)))
            return ad.cross_entropy(logits, labels % 2), logits
        out = train_step(opt, loss_fn, {d: 1e-3 for d in range(4)})
        assert len(probs) == 2 and all(r() is None for r in probs)
        assert out[0].node is not None and out[1].node.backward_fn is None


class TestNamedTensors:
    def test_model_then_heads_in_order(self, toy_model):
        head = ClassifierHead.init(8, 3, Rng(1))
        comb = FractionCombiner.init("attn", 8, Rng(2))
        named = named_tensors(toy_model, [head, None, comb])
        assert list(named) == list(toy_model.params) + [
            "classifier.W", "classifier.b",
            "combiner.q", "combiner.wk", "combiner.wv"]
        assert all(named[k] is p for k, p in toy_model.params.items())
        assert named["classifier.W"] is head.W

    def test_duplicate_name_rejected(self, toy_model):
        heads = [ClassifierHead.init(8, 3, Rng(1)),
                 ClassifierHead.init(8, 2, Rng(2))]
        with pytest.raises(ValueError, match="classifier.W"):
            named_tensors(toy_model, heads)

    def test_depth_rule(self):
        assert [depth_of(n, 12) for n in (
            "emb.tok", "block0.wq", "block11.ffn_w1", "head.mlm_w",
            "classifier.W", "combiner.q", "task.a.W")] == \
            [0, 1, 12, 13, 13, 13, 13]
