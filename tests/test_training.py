import json
import platform
import resource
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit import training
from bertfit.config import TrainingRecipe
from bertfit.data import split_validation
from bertfit.longtext import ChunkedDocument, FractionCombiner, combine
from bertfit.model import (ClassifierHead, EncoderConfig, LayerSelection,
                           class_logits, cls_states, encode_batch, init_model,
                           named_tensors, select_features, stack_inputs)
from bertfit.rng import COMBINER, CURSOR, HEAD, INIT, Rng
from bertfit.tokenizer import TokenizedSequence, build_vocab
from bertfit.optim import train_step
from bertfit.toytask import (FILLERS, MARKERS, _Draws, make_marker_task,
                             marker_benchmark, marker_vocab_corpus)
from bertfit.training import (MetricsLog, MetricsRecord, build_run,
                              evaluate, finetune, prepare_inputs)
from conftest import ReadMasks, top_block_keys
from test_model import _untrimmed


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(marker_vocab_corpus(), 60)


@pytest.fixture(scope="module")
def tiny_config(vocab):
    return EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                         vocab_size=len(vocab), max_positions=16, dropout=0.0)


@pytest.fixture(scope="module")
def small_task(vocab):
    train_full, test = make_marker_task(120, 40, seed=3)
    train, val = split_validation(train_full, 0.1, 0)
    return train, val, test


def tiny_recipe(**overrides):
    kw = dict(long_text="head_only", base_lr=5e-4, train_steps=30,
              batch_size=8, max_len=16, epochs=3, seed=0)
    kw.update(overrides)
    return TrainingRecipe(**kw)


def fresh_pair(config, seed=0):
    rng = Rng(seed)
    model = init_model(config, rng.derive(1))
    head = ClassifierHead.init(config.hidden, 2, rng.derive(2),
                               dtype=config.np_dtype)
    return model, head


class TestMarkerTask:
    def test_labels_match_marker_order(self):
        train, test = make_marker_task(50, 10, seed=0)
        for ex in train.examples + test.examples:
            words = ex.text.split()
            assert abs(words.index("alpha") - words.index("beta")) >= 6
            expected = 0 if words.index("alpha") < words.index("beta") else 1
            assert ex.label == expected

    def test_balanced_by_construction(self):
        train, _ = make_marker_task(100, 10, seed=2)
        assert Counter(ex.label for ex in train.examples) == {0: 50, 1: 50}

    def test_deterministic(self):
        a, _ = make_marker_task(20, 5, seed=7)
        b, _ = make_marker_task(20, 5, seed=7)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]

    @staticmethod
    def scalar_task(n_train, n_test, seed):
        """The task from one scalar `Generator.integers` call per draw."""
        rng = Rng(seed)

        def example():
            while True:
                n = rng.randint(8, 25)
                words = [FILLERS[rng.randint(len(FILLERS))] for _ in range(n)]
                i = rng.randint(n)
                j = rng.randint(n - 1)
                j += j >= i
                if abs(i - j) >= 6:
                    words[i], words[j] = MARKERS
                    return 0 if i < j else 1, " ".join(words)

        def build(n):
            out = []
            while len(out) < n:
                label, text = example()
                if label == len(out) % 2:
                    out.append((label, text))
            return out
        return build(n_train), build(n_test)

    @pytest.mark.parametrize("n_train,n_test,seeds", [
        (60, 20, range(50)),
        (2000, 500, [1]),       # acceptance test 7's task
        (2000, 1024, [7]),      # the benchmark's task
    ], ids=["small", "acceptance", "benchmark"])
    def test_documents_as_scalar_draws(self, n_train, n_test, seeds):
        """The block-fetched draws give the documents, in order, of one
        scalar draw per integer."""
        for seed in seeds:
            got = [[(ex.label, ex.text) for ex in split.examples]
                   for split in make_marker_task(n_train, n_test, seed)]
            assert got == list(self.scalar_task(n_train, n_test, seed))

    def test_bounded_draw_as_generator_integers(self):
        for n in range(2, 26):
            gen = Rng(5).gen
            draws = _Draws(lambda: gen.integers(0, 2**32, size=999,
                                                dtype=np.uint32).tolist())
            assert [draws.below(n) for _ in range(10_000)] == \
                Rng(5).gen.integers(n, size=10_000).tolist()

    def test_bounded_draw_draws_again_below_the_threshold(self):
        # 0 * 17 mod 2**32 = 0 is below 2**32 mod 17 = 1: x = 0 is drawn
        # again, which real data does with probability below 2**-27
        h = 0xDEADBEEF
        assert _Draws(lambda: [0, h]).below(17) == (h * 17) >> 32


class TestPrepareInputs:
    def test_truncation_route(self, small_task, vocab):
        train, _, _ = small_task
        out = prepare_inputs(train, vocab, tiny_recipe())
        assert all(isinstance(s, TokenizedSequence) for s in out)
        assert all(len(s.token_ids) == 16 for s in out)
        assert [s.label for s in out] == [e.label for e in train.examples]

    def test_hierarchical_route(self, small_task, vocab):
        train, _, _ = small_task
        out = prepare_inputs(train, vocab,
                             tiny_recipe(long_text="hier_mean", max_len=10))
        assert all(isinstance(d, ChunkedDocument) for d in out)
        assert all(d.k >= 1 for d in out)


class TestBatchAt:
    def test_every_pass_is_a_permutation(self):
        items = list("abcdefg")
        drawn = [x for n in range(1, 8)                 # 3 passes
                 for x in training.batch_at(items, Rng(4), 3, n)]
        for k in range(3):
            assert sorted(drawn[7 * k:7 * (k + 1)]) == items
        assert drawn[:7] != drawn[7:14]
        assert drawn[7:14] == [items[i] for i in
                               Rng(4).at(1).gen.permutation(7)]

    def test_calls_out_of_order_return_the_same_batches(self):
        items = list(range(10))
        batches = [training.batch_at(items, Rng(11), 4, n)
                   for n in range(1, 10)]
        for n in (9, 3, 5, 1, 5):
            assert training.batch_at(items, Rng(11), 4, n) == batches[n - 1]

    def test_batch_larger_than_items_wraps(self):
        batch = training.batch_at([1, 2], Rng(0), 5, 1)
        assert sorted(batch[:4]) == [1, 1, 2, 2] and len(batch) == 5
        assert batch[4] == training.batch_at([1, 2], Rng(0), 1, 5)[0]


class TestEvaluate:
    def test_untrained_near_chance(self, tiny_config, small_task, vocab):
        train, _, _ = small_task
        model, head = fresh_pair(tiny_config)
        inputs = prepare_inputs(train, vocab, tiny_recipe())
        err, loss = evaluate(model, head, inputs, tiny_recipe())
        assert 0.0 <= err <= 100.0
        assert abs(loss - np.log(2)) < 0.2   # near-uniform logits at init

    def test_repeatable(self, tiny_config, small_task, vocab):
        train, _, _ = small_task
        model, head = fresh_pair(tiny_config)
        inputs = prepare_inputs(train, vocab, tiny_recipe())
        a = evaluate(model, head, inputs, tiny_recipe())
        b = evaluate(model, head, inputs, tiny_recipe())
        assert a == b

    @pytest.mark.parametrize("failure", ["raise", "nan loss"])
    def test_non_finite_batch_scores_none(self, tiny_config, small_task,
                                          vocab, monkeypatch, failure):
        # the second of several batches raises NumericalError or has a NaN
        # loss: the scoring has no error rate
        train, _, _ = small_task
        model, head = fresh_pair(tiny_config)
        inputs = prepare_inputs(train, vocab, tiny_recipe())
        loss_of, calls = training.batch_loss, []

        def second_fails(*args):
            calls.append(1)
            loss, logits, labels = loss_of(*args)
            if len(calls) != 2:
                return loss, logits, labels
            if failure == "raise":
                raise ad.NumericalError("softmax input contains NaN")
            return ad.Tensor(np.full_like(loss.data, np.nan)), logits, labels
        monkeypatch.setattr(training, "batch_loss", second_fails)
        assert evaluate(model, head, inputs, tiny_recipe(),
                        batch_size=8) is None
        n_batches = -(-len(inputs) // 8)
        assert len(calls) == (2 if failure == "raise" else n_batches)


class TestMetricsLog:
    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        log = MetricsLog(path)
        log.add(1, "train", 0.7, 50.0, 1e-4)
        log.add(2, "validation", 0.6, 40.0, 2e-4)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["split"] == "validation"
        assert rec["error_rate"] == 40.0

    def test_strict_zeroes_wall_clock(self):
        log = MetricsLog(strict=True)
        rec = log.add(1, "train", 0.5, 10.0, 1e-4)
        assert rec.wall_clock == 0.0

    def test_record_json_keys_sorted(self):
        rec = MetricsRecord(1, "train", 0.5, 10.0, 1e-4, 0.0)
        keys = list(json.loads(rec.to_json()))
        assert keys == sorted(keys)


class TestFinetune:
    def test_learns_above_chance(self, tiny_config, small_task, vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=60, epochs=3)
        model, head = fresh_pair(tiny_config)
        ti = prepare_inputs(train, vocab, recipe)
        vi = prepare_inputs(val, vocab, recipe)
        res = finetune(model, head, ti, vi, recipe)
        assert not res.diverged
        tr_err, tr_loss = evaluate(model, head, ti, recipe)
        assert tr_loss < np.log(2)           # moved off the uniform prior

    def test_best_model_restored(self, tiny_config, small_task, vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=45, epochs=3)
        model, head = fresh_pair(tiny_config)
        ti = prepare_inputs(train, vocab, recipe)
        vi = prepare_inputs(val, vocab, recipe)
        res = finetune(model, head, ti, vi, recipe)
        assert len(res.history) == 3
        best = min(h["val_error"] for h in res.history)
        assert res.best_val_error == best
        # returned parameters really are the best-epoch snapshot
        err, _ = evaluate(res.model, res.head, vi, recipe)
        assert err == pytest.approx(best)

    def test_best_model_restores_combiner(self, tiny_config, small_task,
                                          vocab, monkeypatch):
        train, val, _ = small_task
        recipe = tiny_recipe(long_text="hier_attn", max_len=10,
                             train_steps=9, epochs=3)
        model, head, comb = build_run(tiny_config, replace(recipe, seed=0),
                                      vocab, 2)
        errors = iter([10.0, 20.0, 30.0])       # epoch 1 is the best
        monkeypatch.setattr(training, "evaluate",
                            lambda *args: (next(errors), 1.0))
        seen = {}

        def hook(epoch, step, m, h, c):
            assert c is comb
            seen[epoch] = {p.name: p.data.copy() for p in comb.parameters()}

        res = finetune(model, head, prepare_inputs(train, vocab, recipe),
                       prepare_inputs(val, vocab, recipe), recipe,
                       combiner=comb, eval_hook=hook)
        assert res.best_epoch == 1
        assert not np.array_equal(seen[1]["combiner.wk"],
                                  seen[3]["combiner.wk"])
        for p in comb.parameters():
            assert p.data.tobytes() == seen[1][p.name].tobytes()

    @pytest.mark.parametrize("steps, epochs, rounds", [
        (10, 4, [(1, 3), (2, 5), (3, 8), (4, 10)]),
        (7, 2, [(1, 4), (2, 7)]),
        (9, 3, [(1, 3), (2, 6), (3, 9)]),
        (2, 4, [(1, 1), (2, 2)]),
    ])
    def test_validation_rounds_end_at_ceil_of_their_share(
            self, tiny_config, small_task, vocab, monkeypatch, steps, epochs,
            rounds):
        # round e of E ends at step ceil(e T / E), each step at most once
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=steps, epochs=epochs)
        monkeypatch.setattr(training, "evaluate", lambda *args: (50.0, 1.0))
        model, head = fresh_pair(tiny_config)
        res = finetune(model, head, prepare_inputs(train, vocab, recipe),
                       prepare_inputs(val, vocab, recipe), recipe)
        assert [(h["epoch"], h["step"]) for h in res.history] == rounds

    def test_tie_keeps_earliest_epoch(self, tiny_config, small_task, vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=30, epochs=3, base_lr=0.0)
        model, head = fresh_pair(tiny_config)
        ti = prepare_inputs(train, vocab, recipe)
        vi = prepare_inputs(val, vocab, recipe)
        res = finetune(model, head, ti, vi, recipe)
        # lr 0 never changes the model, so every epoch ties; keep the first
        assert res.best_epoch == 1

    def test_deterministic_across_runs(self, tiny_config, small_task, vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=20, epochs=2)
        outs = []
        for _ in range(2):
            model, head = fresh_pair(tiny_config)
            ti = prepare_inputs(train, vocab, recipe)
            vi = prepare_inputs(val, vocab, recipe)
            res = finetune(model, head, ti, vi, recipe)
            outs.append((res.best_val_error,
                         {k: v.data.tobytes()
                          for k, v in model.params.items()}))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_dropout_rng_drives_training(self, vocab, small_task):
        config = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                               vocab_size=len(vocab), max_positions=16,
                               dropout=0.3)
        train, val, _ = small_task
        losses = []
        for seed in (0, 1):
            recipe = tiny_recipe(train_steps=10, epochs=1, seed=seed)
            model, head = fresh_pair(config)
            ti = prepare_inputs(train, vocab, recipe)
            res = finetune(model, head, ti,
                           prepare_inputs(val, vocab, recipe), recipe)
            losses.append(res.history[-1]["val_loss"])
        assert losses[0] != losses[1]

    def test_divergence_flag_not_exception(self, tiny_config, small_task,
                                           vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=20, epochs=2, base_lr=1e30)
        model, head = fresh_pair(tiny_config)
        ti = prepare_inputs(train, vocab, recipe)
        vi = prepare_inputs(val, vocab, recipe)
        res = finetune(model, head, ti, vi, recipe)
        assert res.diverged
        assert res.test_error is None

    def test_diverging_run_warns_nothing(self, tiny_config, small_task,
                                         vocab):
        # 30 steps at a rate of 1e30: the checks end the run, and numpy's
        # overflow in the steps before them reaches no warning
        train, val, _ = small_task
        recipe = tiny_recipe(base_lr=1e30)
        model, head = fresh_pair(tiny_config)
        metrics = MetricsLog()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = finetune(model, head, prepare_inputs(train, vocab, recipe),
                           prepare_inputs(val, vocab, recipe), recipe,
                           metrics=metrics)
        assert res.diverged and res.history == [] and not metrics.records

    @pytest.mark.parametrize("fail_at", [2, 3])     # last round, test
    def test_scoring_non_finite_ends_run_diverged(
            self, tiny_config, small_task, vocab, monkeypatch, fail_at):
        # a scoring that meets weights that overflow after every step has
        # applied: the run is diverged, and that scoring neither kept nor
        # logged
        recipe = tiny_recipe(train_steps=4, epochs=2)
        model, head = fresh_pair(tiny_config)
        ti, vi, te = (prepare_inputs(d, vocab, recipe) for d in small_task)
        score, calls = training.evaluate, []

        def overflowing(*args, **kw):
            calls.append(1)
            return score(*args, **kw) if len(calls) < fail_at else None
        monkeypatch.setattr(training, "evaluate", overflowing)
        metrics = MetricsLog()
        res = finetune(model, head, ti, vi, recipe, test_inputs=te,
                       metrics=metrics)
        assert res.diverged and res.test_error is None
        assert len(calls) == fail_at
        kept = [2, 4][:fail_at - 1]
        assert [h["step"] for h in res.history] == kept
        assert [r.step for r in metrics.records] == kept
        assert {r.split for r in metrics.records} == {"validation"}

    def test_hierarchical_combiner_route(self, tiny_config, small_task,
                                         vocab):
        train, val, _ = small_task
        recipe = tiny_recipe(long_text="hier_mean", max_len=10,
                             train_steps=8, epochs=2)
        model, head = fresh_pair(tiny_config)
        combiner = FractionCombiner.init("mean", tiny_config.hidden, Rng(5),
                                         dtype=tiny_config.np_dtype)
        ti = prepare_inputs(train, vocab, recipe)
        vi = prepare_inputs(val, vocab, recipe)
        res = finetune(model, head, ti, vi, recipe, combiner=combiner)
        assert not res.diverged

    @pytest.mark.parametrize("long_text, kind", [("hier_mean", None),
                                                 ("hier_mean", "attn"),
                                                 ("head_tail", "mean")])
    def test_combiner_must_match_recipe(self, tiny_config, small_task,
                                        vocab, long_text, kind):
        train, val, _ = small_task
        recipe = tiny_recipe(long_text=long_text, max_len=10, train_steps=2)
        model, head = fresh_pair(tiny_config)
        combiner = kind and FractionCombiner.init(kind, tiny_config.hidden,
                                                  Rng(5))
        want = recipe.combiner_kind
        with pytest.raises(ValueError, match=f"{want!r}, got {kind!r}"):
            finetune(model, head, prepare_inputs(train, vocab, recipe),
                     prepare_inputs(val, vocab, recipe), recipe,
                     combiner=combiner)

    def test_metrics_written(self, tiny_config, small_task, vocab, tmp_path):
        train, val, _ = small_task
        recipe = tiny_recipe(train_steps=20, epochs=2)
        model, head = fresh_pair(tiny_config)
        log = MetricsLog(tmp_path / "metrics.jsonl")
        finetune(model, head, prepare_inputs(train, vocab, recipe),
                 prepare_inputs(val, vocab, recipe), recipe, metrics=log)
        log.close()
        records = [json.loads(l) for l in
                   (tmp_path / "metrics.jsonl").read_text().splitlines()]
        splits = {r["split"] for r in records}
        assert {"train", "validation"} <= splits


@pytest.mark.parametrize("long_text, selection", [
    ("head_only", LayerSelection()),
    ("head_only", LayerSelection("all", -1, "concat")),
    ("hier_attn", LayerSelection("all", -1, "concat"))])
def test_build_model_matches_inline_construction(vocab, long_text,
                                                 selection):
    """`build_run` keys model, head and combiner as inline calls do."""
    cfg = EncoderConfig(n_layers=2, hidden=16, n_heads=2,
                        vocab_size=len(vocab), max_positions=16, dropout=0.0)
    recipe = tiny_recipe(long_text=long_text, layer_selection=selection)
    built = build_run(cfg, replace(recipe, seed=7), vocab, 3)
    rng = Rng(7)
    hier = long_text.startswith("hier_")
    width = cfg.hidden if hier else selection.feature_width(cfg.hidden, 2)
    inline = (init_model(cfg, rng.at(0, INIT)),
              ClassifierHead.init(width, 3, rng.at(0, HEAD),
                                  dtype=np.float32),
              FractionCombiner.init("attn", cfg.hidden, rng.at(0, COMBINER))
              if hier else None)
    assert (built[2] is None) == (not hier)
    a, b = named_tensors(built[0], built[1:]), named_tensors(inline[0],
                                                             inline[1:])
    assert list(a) == list(b)
    assert all(a[k].data.dtype == b[k].data.dtype
               and a[k].data.tobytes() == b[k].data.tobytes() for k in a)


# -- batch_logits reads only the rows its head reads --------------------------

_READ_CFG = EncoderConfig(n_layers=5, hidden=8, n_heads=2, vocab_size=30,
                          max_positions=8, dropout=0.1, dtype="f8")


def _read_inputs():
    ids = np.array([[2, 5, 6, 3, 0, 0], [2, 7, 8, 9, 10, 3],
                    [2, 11, 3, 0, 0, 0], [2, 4, 4, 12, 3, 0]])
    mask = (ids != 0).astype(int)
    return [TokenizedSequence(list(i), [0] * 6, list(m), lab)
            for i, m, lab in zip(ids, mask, (0, 1, 1, 0))]


def _loss_and_grads(params, labels, logits_fn):
    """logits, loss and every parameter gradient, float64."""
    with ad.Tape() as tape:
        logits = logits_fn()
        loss = ad.cross_entropy(logits, labels)
    for p in params:
        p.zero_grad()
    ad.backward(tape, loss, parameters=params)
    return logits.data, float(loss.data), [p.grad.copy() for p in params]


def _assert_same_run(got, want):
    """Equal logits, loss and gradients to 1e-12. A key bias shifts a whole
    score row, so its gradient is zero up to roundoff: every gradient is
    held to the largest one."""
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-14)
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    largest = max(np.abs(w).max() for w in want[2])
    for g, w in zip(got[2], want[2]):
        assert np.abs(g - w).max() <= 1e-12 * largest


def _stream(mode):
    """The dropout stream of a "train" run (the same draws each call); none
    for "eval"."""
    return Rng(5) if mode == "train" else None


def _full_encoder(model, seqs, mode, layer):
    """Every state of the full encoder. In "train" mode its block
    layer - 1 drops at the [CLS] rows what a [CLS] read at `layer` drops
    there, and every other site draws `_stream`'s masks."""
    rng = ReadMasks(5, np.zeros((len(seqs), 1), int), top_block_keys(layer)) \
        if mode == "train" else None
    outs = encode_batch(model, *stack_inputs(seqs), rng=rng)
    assert len(outs) == model.config.n_layers + 1
    return outs


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("strategy,layer,combiner", [
    *(("single", layer, "concat") for layer in (-1, 0, 2)),
    *((s, -1, c) for s in ("first4", "last4", "all")
      for c in ("concat", "mean", "max"))])
def test_flat_route_equals_the_full_encoder(strategy, layer, combiner, mode):
    sel = LayerSelection(strategy, layer, combiner)
    recipe = tiny_recipe(layer_selection=sel)
    model = init_model(_READ_CFG, Rng(0))
    head = ClassifierHead.init(sel.feature_width(8, 5), 2, Rng(1),
                               dtype=np.float64)
    params = model.parameters() + head.parameters()
    seqs = _read_inputs()
    labels = np.array([s.label for s in seqs])

    def run(logits_fn):
        return _loss_and_grads(params, labels, logits_fn)

    got = run(lambda: training.batch_logits(model, head, seqs, recipe, None,
                                            _stream(mode)))
    layer = sel.layer_indices(5)[-1]
    want = run(lambda: class_logits(
        select_features(_full_encoder(model, seqs, mode, layer), sel), head))
    _assert_same_run(got, want)


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("kind", ["mean", "max", "attn"])
def test_hier_route_equals_the_full_encoder(kind, mode):
    recipe = tiny_recipe(long_text=f"hier_{kind}")
    model = init_model(_READ_CFG, Rng(0))
    head = ClassifierHead.init(8, 2, Rng(1), dtype=np.float64)
    combiner = FractionCombiner.init(kind, 8, Rng(2), dtype=np.float64)
    params = model.parameters() + head.parameters() + combiner.parameters()
    seqs = _read_inputs()
    docs = [ChunkedDocument(seqs[:1], 4), ChunkedDocument(seqs[1:], 9)]
    labels = np.array([0, 1])

    def full():
        outs = _full_encoder(model, seqs, mode, 5)
        cls = cls_states(outs[-1])
        pooled = [combine(ad.embedding(cls, [0]), combiner),
                  combine(ad.embedding(cls, [1, 2, 3]), combiner)]
        return class_logits(ad.concat(
            [ad.reshape(f, (1, 8)) for f in pooled], axis=0), head)

    def run(logits_fn):
        return _loss_and_grads(params, labels, logits_fn)

    got = run(lambda: training.batch_logits(model, head, docs, recipe,
                                            combiner, _stream(mode)))
    _assert_same_run(got, run(full))


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc settings are made on glibc only")
def test_freed_activation_memory_stays_in_the_process(vocab):
    """At the marker benchmark's shapes (B=32, S=32, H=64), glibc's default
    policy faults ~1,200 pages in per training step and ~2,400 per
    64-document scoring batch; kept in the process, the next step and the
    next batch reuse them."""
    config, recipe = marker_benchmark(len(vocab))
    train, test = make_marker_task(96, 64, seed=0)
    train_in = prepare_inputs(train, vocab, recipe)
    test_in = prepare_inputs(test, vocab, recipe)
    rng = Rng(0)
    model = init_model(config, rng.derive(1))
    dropout_rng = rng.derive(3)
    head = ClassifierHead.init(config.hidden, 2, rng.derive(2))
    opt, rates_at = training.recipe_optimizer(model, [head], recipe)

    def step(i):
        batch = training.batch_at(train_in, rng.at(0, CURSOR),
                                  recipe.batch_size, i)
        train_step(opt, lambda: training.batch_loss(
            model, head, batch, recipe, None, dropout_rng), rates_at(i))

    for i in (1, 2):
        step(i)
    before = _minor_faults()
    for i in range(3, 13):
        step(i)
    assert (_minor_faults() - before) / 10 < 50
    evaluate(model, head, test_in, recipe)      # warm-up at the eval shapes
    before = _minor_faults()
    evaluate(model, head, test_in, recipe)
    assert _minor_faults() - before < 200


def test_stack_inputs_equals_the_former_stackers():
    """The (B, S) arrays of the stacking code that training, pretraining
    and model.encode each used to hold."""
    seqs = _read_inputs()
    got = stack_inputs(seqs)
    former = [
        (np.array([s.token_ids for s in seqs]),         # training._stack
         np.array([s.segment_ids for s in seqs]),
         np.array([s.attention_mask for s in seqs])),
        (np.array([ex.token_ids for ex in seqs]),       # pretrain_batch_loss
         np.array([ex.segment_ids for ex in seqs]),
         np.array([ex.attention_mask for ex in seqs]))]
    one = seqs[1]
    encode_former = (np.asarray(one.token_ids)[None, :],  # model.encode
                     np.asarray(one.segment_ids)[None, :],
                     np.asarray(one.attention_mask)[None, :])
    for want, have in [*((f, got) for f in former),
                       (encode_former, stack_inputs([one]))]:
        for w, h in zip(want, have, strict=True):
            assert h.dtype == w.dtype and h.shape == w.shape
            assert h.tobytes() == w.tobytes()


def test_hier_logits_of_trimmed_fractions_equal_the_padded(monkeypatch):
    """`batch_logits` on the `hier_attn` route, in float64: fractions
    whose longest row ends short of their padded length give the logits
    of the untrimmed arrays."""
    recipe = tiny_recipe(long_text="hier_attn")
    model = init_model(_READ_CFG, Rng(0))
    head = ClassifierHead.init(8, 2, Rng(1), dtype=np.float64)
    combiner = FractionCombiner.init("attn", 8, Rng(2), dtype=np.float64)
    seqs = [TokenizedSequence(s.token_ids + [0, 0], s.segment_ids + [0, 0],
                              s.attention_mask + [0, 0], s.label)
            for s in _read_inputs()]
    docs = [ChunkedDocument(seqs[:2], 8), ChunkedDocument(seqs[2:], 6)]
    widths = []

    def logits():
        return training.batch_logits(model, head, docs, recipe,
                                     combiner).data

    def untrimmed(fractions):
        widths.append(len(fractions[0]))
        return _untrimmed(fractions)
    got = logits()
    assert stack_inputs(seqs)[0].shape == (4, 6)
    monkeypatch.setattr(training, "stack_inputs", untrimmed)
    want = logits()
    assert widths == [8]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("long_text", ["head_only", "hier_attn"])
@pytest.mark.parametrize("dtype", ["f4", "f8"])
def test_batch_loss_equals_the_former_chain(dtype, long_text, mode):
    """Loss and logits have the bits of the label stack, batch_logits and
    cross_entropy that finetune, multitask_finetune and evaluate each
    wrote out."""
    cfg = replace(_READ_CFG, dtype=dtype)
    recipe = tiny_recipe(long_text=long_text)
    model = init_model(cfg, Rng(0))
    head = ClassifierHead.init(8, 2, Rng(1), dtype=cfg.np_dtype)
    combiner = FractionCombiner.init(recipe.combiner_kind, 8, Rng(2),
                                     dtype=cfg.np_dtype) \
        if recipe.combiner_kind else None
    seqs = _read_inputs()
    batch = seqs if combiner is None else [
        ChunkedDocument(seqs[:1], 4), ChunkedDocument(seqs[1:], 9)]
    loss, logits, labels = training.batch_loss(
        model, head, batch, recipe, combiner, _stream(mode))
    want_labels = np.array([b.label for b in batch])
    want_logits = training.batch_logits(model, head, batch, recipe,
                                        combiner, _stream(mode))
    want_loss = ad.cross_entropy(want_logits, want_labels)
    assert np.array_equal(labels, want_labels)
    assert logits.data.tobytes() == want_logits.data.tobytes()
    assert loss.data.tobytes() == want_loss.data.tobytes()
    assert loss.data.dtype == cfg.np_dtype
