import json

import numpy as np
import pytest

from bertfit.config import TrainingRecipe
from bertfit.data import split_validation
from bertfit.longtext import ChunkedDocument, FractionCombiner
from bertfit.model import ClassifierHead, EncoderConfig, init_model
from bertfit.rng import Rng
from bertfit.tokenizer import TokenizedSequence, build_vocab
from bertfit.toytask import make_marker_task, marker_vocab_corpus
from bertfit.training import (BatchCursor, MetricsLog, MetricsRecord,
                              evaluate, finetune, prepare_inputs)


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
        assert train.class_histogram() == {0: 50, 1: 50}

    def test_deterministic(self):
        a, _ = make_marker_task(20, 5, seed=7)
        b, _ = make_marker_task(20, 5, seed=7)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]


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


class TestBatchCursor:
    def test_every_pass_is_a_permutation(self):
        items = list("abcdefg")
        cursor = BatchCursor(items, Rng(4))
        drawn = [x for _ in range(7) for x in cursor.next(3)]   # 3 passes
        for k in range(3):
            assert sorted(drawn[7 * k:7 * (k + 1)]) == items
        assert drawn[:7] != drawn[7:14]

    def test_same_order_as_inline_shuffle_loop(self):
        items = list(range(10))
        rng = Rng(11)
        order, pos, expected = list(range(10)), 10, []
        for _ in range(9):
            batch = []
            while len(batch) < 4:
                if pos >= len(order):
                    rng.shuffle(order)
                    pos = 0
                batch.append(items[order[pos]])
                pos += 1
            expected.append(batch)
        cursor = BatchCursor(items, Rng(11))
        assert [cursor.next(4) for _ in range(9)] == expected

    def test_batch_larger_than_items_wraps(self):
        assert sorted(BatchCursor([1, 2], Rng(0)).next(4)) == [1, 1, 2, 2]


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
