from dataclasses import replace

import numpy as np
import pytest

from bertfit.config import TrainingRecipe
from bertfit.data import Dataset, Example
from bertfit.longtext import FractionCombiner
from bertfit.model import EncoderConfig, init_model
from bertfit import multitask
from bertfit.multitask import (MultiTaskModel, _pick_task,
                               multitask_finetune, per_task_refine)
from bertfit.rng import HEAD, Rng
from bertfit.tokenizer import build_vocab
from bertfit.toytask import FILLERS, marker_vocab_corpus
from bertfit.training import prepare_inputs


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(marker_vocab_corpus(), 60)


@pytest.fixture(scope="module")
def tiny_config(vocab):
    return EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                         vocab_size=len(vocab), max_positions=16, dropout=0.0)


def tiny_recipe(**overrides):
    kw = dict(long_text="head_only", base_lr=5e-4, train_steps=20,
              batch_size=4, max_len=16, epochs=2, seed=0)
    kw.update(overrides)
    return TrainingRecipe(**kw)


def word_dataset(name, n, n_classes, seed):
    """Trivial keyword task: the label's filler word dominates the text."""
    rng = Rng(seed)
    exs = []
    for i in range(n):
        label = i % n_classes
        words = [FILLERS[label]] * 3 + \
            [FILLERS[rng.randint(len(FILLERS))] for _ in range(3)]
        exs.append(Example(label=label,
                           text=" ".join(rng.gen.permutation(words))))
    return Dataset(name=name, examples=exs, n_classes=n_classes)


def three_task_setup(tiny_config, vocab, recipe):
    rng = Rng(9)
    encoder = init_model(tiny_config, rng.derive(1))
    tasks = {"a": 2, "b": 3, "c": 2}
    mt = MultiTaskModel.init(encoder, tasks, tiny_config.hidden,
                             rng.derive(2))
    inputs = {name: prepare_inputs(word_dataset(name, 24, n, seed=i),
                                   vocab, recipe)
              for i, (name, n) in enumerate(sorted(tasks.items()))}
    return mt, inputs


class TestModelInit:
    def test_heads_match_class_counts(self, tiny_config):
        enc = init_model(tiny_config, Rng(0))
        mt = MultiTaskModel.init(enc, {"x": 4, "y": 2}, tiny_config.hidden,
                                 Rng(1))
        assert mt.heads["x"].W.shape == (tiny_config.hidden, 4)
        assert mt.heads["y"].W.shape == (tiny_config.hidden, 2)

    def test_encoder_shared_by_identity(self, tiny_config):
        enc = init_model(tiny_config, Rng(0))
        mt = MultiTaskModel.init(enc, {"x": 2, "y": 2}, tiny_config.hidden,
                                 Rng(1))
        assert mt.encoder is enc

    @pytest.mark.parametrize("seed", [0, 7, 41])
    def test_no_head_draws_the_runs_own_stream(self, tiny_config, seed):
        """`bertfit multitask` draws the heads under `Rng(seed).at(0, HEAD)`;
        keyed by `at(i)`, no head repeats the first draws of `Rng(seed)`,
        the stream a `--seed` run splits its data with."""
        enc = init_model(tiny_config, Rng(0))
        mt = MultiTaskModel.init(enc, {"a": 2, "b": 2, "c": 2},
                                 tiny_config.hidden, Rng(seed).at(0, HEAD))
        raw = Rng(seed).truncated_normal((tiny_config.hidden, 2))
        for name, head in mt.heads.items():
            assert not np.array_equal(head.W.data, raw), name


class TestMixing:
    def test_proportional_fraction(self):
        rng = Rng(0)
        sizes = {"big": 300, "small": 100}
        names = ["big", "small"]
        hits = sum(_pick_task(names, sizes, rng) == "big"
                   for _ in range(4000))
        assert abs(hits / 4000 - 0.75) < 0.03


class TestMultitaskFinetune:
    def test_needs_two_tasks(self, tiny_config, vocab):
        mt, inputs = three_task_setup(tiny_config, vocab, tiny_recipe())
        with pytest.raises(ValueError, match="two tasks"):
            multitask_finetune(mt, {"a": inputs["a"]}, tiny_recipe())

    def test_hierarchical_recipe_rejected(self, tiny_config, vocab):
        recipe = tiny_recipe(long_text="hier_mean")
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        with pytest.raises(ValueError, match="'hier_mean' needs combiner "
                                             "'mean', got None"):
            multitask_finetune(mt, inputs, recipe)

    def test_empty_task_rejected(self, tiny_config, vocab):
        mt, inputs = three_task_setup(tiny_config, vocab, tiny_recipe())
        inputs["b"] = []
        with pytest.raises(ValueError, match="'b'"):
            multitask_finetune(mt, inputs, tiny_recipe())

    def test_gradient_isolation_100_steps(self, tiny_config, vocab):
        recipe = tiny_recipe(train_steps=100)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        state = {"prev": {n: [p.data.copy() for p in h.parameters()]
                          for n, h in mt.heads.items()},
                 "prev_enc": {k: v.data.copy()
                              for k, v in mt.encoder.params.items()},
                 "violations": 0, "encoder_frozen": 0}

        def hook(step, task, model):
            for name, head in model.heads.items():
                changed = any(
                    not np.array_equal(p.data, q)
                    for p, q in zip(head.parameters(), state["prev"][name]))
                if name != task and changed:
                    state["violations"] += 1
                state["prev"][name] = [p.data.copy()
                                       for p in head.parameters()]
            if all(np.array_equal(v.data, state["prev_enc"][k])
                   for k, v in model.encoder.params.items()):
                state["encoder_frozen"] += 1
            state["prev_enc"] = {k: v.data.copy()
                                 for k, v in model.encoder.params.items()}

        res = multitask_finetune(mt, inputs, recipe, step_hook=hook)
        assert not res.diverged
        assert state["violations"] == 0          # other heads bitwise-fixed
        # encoder moves every step except the last, where the triangular
        # schedule reaches rate 0
        assert state["encoder_frozen"] <= 1
        assert sum(res.steps_per_task.values()) == 100
        assert all(v > 0 for v in res.steps_per_task.values())

    def test_hier_attn_isolates_heads_and_trains_combiner(self, tiny_config,
                                                           vocab):
        recipe = tiny_recipe(long_text="hier_attn", max_len=6, train_steps=8)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        mt.combiner = FractionCombiner.init("attn", tiny_config.hidden,
                                            Rng(3))
        assert max(len(doc.fractions) for doc in inputs["a"]) > 1
        state = {"heads": {n: [p.data.tobytes() for p in h.parameters()]
                           for n, h in mt.heads.items()},
                 "comb": [p.data.tobytes() for p in mt.combiner.parameters()]}

        def hook(step, task, model):
            for name, head in model.heads.items():
                now = [p.data.tobytes() for p in head.parameters()]
                if name != task:
                    assert now == state["heads"][name], (step, name)
                state["heads"][name] = now
            comb = [p.data.tobytes() for p in model.combiner.parameters()]
            if step < recipe.train_steps:   # STLR's last rate is 0
                assert comb != state["comb"], step
            state["comb"] = comb

        res = multitask_finetune(mt, inputs, recipe, step_hook=hook)
        assert not res.diverged
        assert sum(res.steps_per_task.values()) == 8

    def test_sampled_head_actually_trains(self, tiny_config, vocab):
        recipe = tiny_recipe(train_steps=12)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        before = {n: h.W.data.copy() for n, h in mt.heads.items()}
        res = multitask_finetune(mt, inputs, recipe)
        for name, count in res.steps_per_task.items():
            if count:
                assert not np.array_equal(mt.heads[name].W.data,
                                          before[name])

    def test_deterministic(self, tiny_config, vocab):
        outs = []
        for _ in range(2):
            recipe = tiny_recipe(train_steps=15)
            mt, inputs = three_task_setup(tiny_config, vocab, recipe)
            multitask_finetune(mt, inputs, recipe)
            outs.append({k: v.data.tobytes()
                         for k, v in mt.encoder.params.items()})
        assert outs[0] == outs[1]


class TestPerTaskRefine:
    def test_default_half_rate(self, tiny_config, vocab, monkeypatch):
        recipe = tiny_recipe(train_steps=6)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        multitask_finetune(mt, inputs, recipe)
        rates, finetune = [], multitask.finetune

        def spy(*args, **kw):
            rates.append(args[4].base_lr)
            return finetune(*args, **kw)

        monkeypatch.setattr(multitask, "finetune", spy)
        res = per_task_refine(mt, "a", inputs["a"], inputs["a"], recipe)
        assert not res.diverged and rates == [recipe.base_lr / 2]

    def test_zero_base_rate_leaves_encoder(self, tiny_config, vocab):
        # rate 0 is a run that leaves the model as it is, refinement too
        recipe = tiny_recipe(train_steps=6, base_lr=0.0)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        before = {k: v.data.tobytes() for k, v in mt.encoder.params.items()}
        multitask_finetune(mt, inputs, recipe)
        res = per_task_refine(mt, "a", inputs["a"], inputs["a"], recipe)
        assert not res.diverged
        assert before == {k: v.data.tobytes()
                          for k, v in mt.encoder.params.items()}

    def test_zero_steps_rejected_by_the_recipe(self):
        # no recipe takes 0 steps, so a refinement always trains
        with pytest.raises(ValueError,
                           match="train_steps must be at least 1, got 0"):
            tiny_recipe(train_steps=0)

    def test_replays_no_multitask_dropout_mask(self, tiny_config, vocab,
                                               monkeypatch):
        """Refinement runs `finetune` at the multi-task recipe's seed; no
        mask it draws may be one the multi-task loop drew, as (key, shape,
        bits), so each phase's dropout is its own."""
        config = replace(tiny_config, dropout=0.1)
        recipe = tiny_recipe(train_steps=6)
        mt = MultiTaskModel.init(init_model(config, Rng(0)),
                                 {"a": 2, "b": 2}, config.hidden, Rng(1))
        inputs = {name: prepare_inputs(word_dataset(name, 24, 2, seed=i),
                                       vocab, recipe)
                  for i, name in enumerate("ab")}
        drawn, keep_mask = [], Rng.keep_mask

        def spy(rng, shape, p):
            kept = keep_mask(rng, shape, p)
            drawn.append((rng.seed, rng.key, kept.shape, kept.tobytes()))
            return kept

        monkeypatch.setattr(Rng, "keep_mask", spy)
        multitask_finetune(mt, inputs, recipe)
        joint = set(drawn)
        drawn.clear()
        per_task_refine(mt, "a", inputs["a"], inputs["a"], recipe)
        assert len(drawn) == 6 * 4          # 6 steps, 4 sites of 1 block
        assert not joint.intersection(drawn)

    def test_touches_only_named_head(self, tiny_config, vocab):
        recipe = tiny_recipe(train_steps=6)
        mt, inputs = three_task_setup(tiny_config, vocab, recipe)
        multitask_finetune(mt, inputs, recipe)
        others = {n: h.W.data.copy() for n, h in mt.heads.items()
                  if n != "a"}
        per_task_refine(mt, "a", inputs["a"], inputs["a"], recipe)
        for n, w in others.items():
            np.testing.assert_array_equal(mt.heads[n].W.data, w)
