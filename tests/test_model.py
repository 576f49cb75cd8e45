import tracemalloc

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.autodiff import Tape, Tensor
from bertfit.longtext import FractionCombiner
from bertfit.model import (ClassifierHead, EncoderConfig, LayerSelection,
                           class_logits, classify, depth_of, encode_batch,
                           init_model, mlm_logits, named_tensors, nsp_logits,
                           select_features)
from bertfit.rng import Rng
from conftest import attention_probs
from test_autodiff import (unfused_add_layer_norm, unfused_attention,
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
        refs = attention_probs(monkeypatch)
        with Tape() as tape:        # holds each block's probabilities
            encode_batch(toy_model, ids, segs, mask)
        assert len(refs) == 2
        probs = refs[0]()         # (B, A, S, S)
        sums = probs.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        # no weight on padded keys
        assert probs[0, :, :, 4:].max() < 1e-8

    def test_train_mode_attention_rows_sum_to_one(self, toy_config,
                                                  toy_batch, monkeypatch):
        ids, segs, mask, _ = toy_batch
        toy_config.dropout = 0.3
        model = init_model(toy_config, Rng(0))
        refs = attention_probs(monkeypatch)
        with Tape() as tape:        # holds each block's probabilities
            encode_batch(model, ids, segs, mask, rng=Rng(1))
        assert len(refs) == 2
        for ref in refs:
            probs = ref()
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
            assert probs[0, :, :, 4:].max() < 1e-8

    def test_eval_keeps_no_attention_probs_unasked(self, toy_config,
                                                   toy_batch, monkeypatch):
        # without a tape, each block's probabilities are freed when its
        # attention returns
        toy_config.n_layers = 3
        model = init_model(toy_config, Rng(0))
        ids, segs, mask, _ = toy_batch
        refs, alive = attention_probs(monkeypatch), []
        core = ad.attention_core

        def spy(*args):
            ctx = core(*args)
            alive.append(sum(r() is not None for r in refs))
            return ctx

        monkeypatch.setattr(ad, "attention_core", spy)
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
        shapes, probs = [], attention_probs(monkeypatch)
        core = ad.attention_core

        def spy(q, k, v, *rest):
            ctx = core(q, k, v, *rest)
            shapes.append((q.shape, k.shape, ctx.shape))
            return ctx

        monkeypatch.setattr(ad, "attention_core", spy)
        with Tape() as tape:
            logits = batch_logits(model, head, batch, recipe, None)
            loss = ad.cross_entropy(logits, labels)
        assert [r().shape for r in probs] == [(2, 2, 6, 6), (2, 2, 1, 6)]
        ad.backward(tape, loss)
        assert shapes == [((2, 6, 8), (2, 6, 8), (2, 6, 8)),
                          ((2, 1, 8), (2, 6, 8), (2, 1, 8))]
        # after the top block's [CLS] gather, only its keys and values
        # span all 6 positions
        start = next(i for i, r in enumerate(tape.records)
                     if r.out.shape == (2, 1, 8))
        full = [r.out.shape for r in tape.records[start:]
                if len(r.out.shape) == 3 and r.out.shape[1] == 6]
        assert full == [(2, 6, 8)] * 2
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

    def test_read_layer_out_of_range_rejected(self, toy_model, toy_batch):
        ids, segs, mask, _ = toy_batch
        with pytest.raises(ValueError, match="read layer 3"):
            encode_batch(toy_model, ids, segs, mask,
                         read=(3, np.zeros((2, 1), dtype=int)))


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
        probs = classify(Tensor(rng.normal((6, 8)) * 30), head)
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
    """encode_batch with dropout drawn from `rng`, on the chain of single
    ops it replaced."""
    cfg, p = model.config, model.params
    pd = cfg.dropout
    B, S = ids.shape
    pos = np.broadcast_to(np.arange(S), (B, S))
    x = unfused_add_layer_norm(
        ad.add(ad.embedding(p["emb.tok"], ids),
               ad.embedding(p["emb.pos"], pos)),
        ad.embedding(p["emb.seg"], segs), p["emb.ln_g"], p["emb.ln_b"])
    x = ad.dropout(x, pd, rng)
    mask_bias = (1.0 - mask[:, None, None, :]) * -1e9
    outputs = [x]
    for i in range(cfg.n_layers):
        b = f"block{i}."
        q, k, v = (unfused_linear(x, p[b + "w" + n], p[b + "b" + n])
                   for n in "qkv")
        ctx = unfused_attention(q, k, v, cfg.n_heads, mask_bias, pd, rng)
        a = ad.dropout(unfused_linear(ctx, p[b + "wo"], p[b + "bo"]), pd, rng)
        x = unfused_add_layer_norm(x, a, p[b + "attn_ln_g"],
                                   p[b + "attn_ln_b"])
        h = ad.gelu(unfused_linear(x, p[b + "ffn_w1"], p[b + "ffn_b1"]))
        h = ad.dropout(unfused_linear(h, p[b + "ffn_w2"], p[b + "ffn_b2"]),
                       pd, rng)
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

    def test_at_most_12_ops_per_block_and_none_attention_sized(
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
            assert all(r.out.shape != attn_shape for r in tape.records)
        assert n_records[1] - n_records[0] <= 12

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

    def _step(self):
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
            forward, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            params = model.parameters() + unreached.parameters()
            ad.backward(tape, loss, parameters=params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return tape, params, unreached, forward, peak

    def test_only_leaves_keep_gradients(self):
        tape, params, unreached, _, _ = self._step()
        assert all(rec.out.grad is None for rec in tape.records)
        assert all(p.grad is not None and p.grad.shape == p.shape
                   for p in params)
        assert all((p.grad == 0.0).all() for p in unreached.parameters())

    def test_backward_peak_over_forward_is_bounded(self):
        # Measured: backward's traced peak sits ~25% of the forward level
        # above it (parameter gradients plus the few intermediate ones
        # still live); keeping every intermediate gradient until the tape
        # is dropped put it ~69% above.
        _, _, _, forward, peak = self._step()
        assert peak - forward < 0.4 * forward


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
