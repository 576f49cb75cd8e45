"""The one training loop, `training.train_steps`, and the three recipes
that step through it: `finetune`, `multitask_finetune` and
`further_pretrain`."""

import ast
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import bertfit
from bertfit import training
from bertfit.config import TrainingRecipe
from bertfit.longtext import FractionCombiner
from bertfit.model import (ClassifierHead, EncoderConfig, LayerSelection,
                           init_model, named_tensors)
from bertfit.multitask import MultiTaskModel, _pick_task, multitask_finetune
from bertfit.optim import (Adam, DivergedError, StlrSchedule,
                           group_parameters, train_step)
from bertfit.pretraining import (MaskingPolicy, further_pretrain,
                                 make_pretrain_example, pretrain_batch_loss)
from bertfit.rng import CURSOR, EXAMPLE, MULTITASK, TASK, Rng
from bertfit.tokenizer import build_vocab
from bertfit.toytask import make_marker_task, marker_vocab_corpus
from bertfit.training import (MetricsLog, batch_at, batch_loss, finetune,
                              prepare_inputs, recipe_optimizer)

RECIPES = ["finetune-head_only", "finetune-hier_attn", "multitask",
           "pretrain"]


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(marker_vocab_corpus(), 60)


def _config(vocab):                 # dropout on, so its stream is exercised
    return EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                         vocab_size=len(vocab), max_positions=16,
                         dropout=0.1, dtype="f4")


def _recipe(long_text="head_only"):     # hier_attn: several fractions
    return TrainingRecipe(long_text=long_text, base_lr=1e-3, train_steps=4,
                          batch_size=4, epochs=1, seed=5,
                          max_len=16 if long_text == "head_only" else 6)


def _inputs(vocab, recipe, seed):
    return prepare_inputs(make_marker_task(12, 1, seed=seed)[0], vocab,
                          recipe)


def _finetune_run(vocab, long_text):
    """(model, head, combiner, train inputs, recipe) of a small run."""
    recipe = _recipe(long_text)
    model = init_model(_config(vocab), Rng(1))
    head = ClassifierHead.init(16, 2, Rng(2))
    combiner = FractionCombiner.init(recipe.combiner_kind, 16, Rng(3)) \
        if recipe.combiner_kind else None
    return model, head, combiner, _inputs(vocab, recipe, 0), recipe


def _multitask_run(vocab):
    recipe = _recipe()
    mt = MultiTaskModel.init(init_model(_config(vocab), Rng(1)),
                             {"a": 2, "b": 2}, 16, Rng(2))
    return mt, {"a": _inputs(vocab, recipe, 1),
                "b": _inputs(vocab, recipe, 2)}, recipe


def _pretrain_run(vocab, **config):
    """(model, docs, schedule) of a small further pre-training run, the
    model's `config` fields set over `_config`'s."""
    docs = [[ex.text for ex in make_marker_task(3, 1, seed=i)[0].examples]
            for i in range(3)]
    return (init_model(replace(_config(vocab), **config), Rng(1)), docs,
            StlrSchedule(total_steps=4, peak_lr=1e-3))


# -- the loops each recipe wrote out before `train_steps` --------------------

def _former_finetune(model, head, train_inputs, recipe, combiner):
    rng = Rng(recipe.seed)
    opt, rates_at = recipe_optimizer(model, [head, combiner], recipe)
    for step in range(1, recipe.train_steps + 1):
        batch = batch_at(train_inputs, rng.at(0, CURSOR), recipe.batch_size,
                         step)
        rates = rates_at(step)
        train_step(opt, lambda: batch_loss(
            model, head, batch, recipe, combiner, rng.at(step)), rates)


def _former_multitask(mt, task_inputs, recipe):
    names = sorted(task_inputs)
    sizes = {n: len(task_inputs[n]) for n in names}
    rng = Rng(recipe.seed).at(0, MULTITASK)
    opt, rates_at = recipe_optimizer(
        mt.encoder, [*mt.heads.values(), mt.combiner], recipe)
    counts = {n: 0 for n in names}
    for step in range(1, recipe.train_steps + 1):
        task = _pick_task(names, sizes, rng.at(0, TASK, step))
        counts[task] += 1
        cursor = rng.at(0, CURSOR, names.index(task))
        batch = batch_at(task_inputs[task], cursor, recipe.batch_size,
                         counts[task])
        train_step(opt, lambda: batch_loss(
            mt.encoder, mt.heads[task], batch, recipe, mt.combiner,
            rng.at(step)), rates_at(step))
    return counts


def _former_pretrain(model, docs, vocab, steps, schedule, rng, batch_size,
                     max_len):
    policy = MaskingPolicy()
    groups = group_parameters(model)
    opt = Adam(groups)
    for step in range(1, steps + 1):
        batch = []
        for i in range(batch_size):
            ex_rng = rng.at(0, EXAMPLE, step, i)
            di = ex_rng.randint(len(docs))
            batch.append(make_pretrain_example(di, docs, vocab, policy,
                                               max_len, ex_rng))
        lr = schedule.rate(step)
        rates = {g.depth: lr for g in groups}
        train_step(opt, lambda: pretrain_batch_loss(model, batch,
                                                    rng.at(step)), rates)


def _state(*modules):
    return [p.data.tobytes() for m in modules if m is not None
            for p in m.parameters()]


@pytest.mark.parametrize("name", RECIPES)
def test_each_recipe_equals_its_former_loop(vocab, name):
    """Every parameter has the bits of the loop the recipe wrote out
    before it stepped through `train_steps`, each step's dropout and batch
    keyed by the recipe's stream and the step."""
    runs = []
    for new in (True, False):
        if name.startswith("finetune"):
            model, head, combiner, inputs, recipe = _finetune_run(
                vocab, name.split("-")[1])
            if new:
                assert not finetune(model, head, inputs, None, recipe,
                                    combiner).diverged
            else:
                _former_finetune(model, head, inputs, recipe, combiner)
            runs.append(_state(model, head, combiner))
        elif name == "multitask":
            mt, task_inputs, recipe = _multitask_run(vocab)
            counts = (multitask_finetune(mt, task_inputs, recipe)
                      .steps_per_task if new else
                      _former_multitask(mt, task_inputs, recipe))
            runs.append([counts, _state(mt.encoder, *mt.heads.values())])
        else:
            model, docs, schedule = _pretrain_run(vocab)
            args = (model, docs, vocab, 4, schedule, Rng(7))
            if new:
                assert not further_pretrain(*args, batch_size=3,
                                            max_len=16).diverged
            else:
                _former_pretrain(*args, batch_size=3, max_len=16)
            runs.append(_state(model))
    assert runs[0] == runs[1]


def test_a_shallower_read_drops_what_the_full_depth_drops(vocab,
                                                          monkeypatch):
    """At step 2, a run that reads block 0 (`single` layer 1) drops what a
    full-depth run drops in the embedding and in block 0, though its step 1
    ran one block fewer. At rate 0 both runs keep their initial weights,
    so the embedding output and block 0's [CLS] rows agree."""
    seen = []
    encode = training.encode_batch

    def spy(*args, **kwargs):
        outs = encode(*args, **kwargs)
        seen.append([o.data for o in outs[:2]])
        return outs

    monkeypatch.setattr(training, "encode_batch", spy)
    config = replace(_config(vocab), n_layers=2, dtype="f8")
    for layer in (2, 1):
        recipe = replace(_recipe(), base_lr=0.0, train_steps=2,
                         layer_selection=LayerSelection("single", layer))
        head = ClassifierHead.init(16, 2, Rng(2), dtype=np.float64)
        finetune(init_model(config, Rng(1)), head, _inputs(vocab, recipe, 0),
                 None, recipe)
    full, read = seen[1], seen[3]               # step 2 of each run
    assert full[1].shape[1] == 16 and read[1].shape[1] == 1
    np.testing.assert_array_equal(read[0], full[0])
    np.testing.assert_allclose(read[1], full[1][:, :1], rtol=1e-12,
                               atol=1e-12)


@pytest.mark.parametrize("name", ["finetune", "multitask", "pretrain"])
def test_a_run_that_diverges_at_step_3_records_nothing_from_it(
        vocab, name, monkeypatch, tmp_path):
    step = training.train_step
    calls = []

    def diverging_step(*args):
        calls.append(0)
        if len(calls) == 3:
            raise DivergedError("forced")
        return step(*args)
    monkeypatch.setattr(training, "train_step", diverging_step)
    if name == "finetune":
        model, head, combiner, inputs, recipe = _finetune_run(
            vocab, "head_only")
        log = MetricsLog(strict=True)
        res = finetune(model, head, inputs, inputs,
                       replace(recipe, train_steps=6, epochs=6),
                       test_inputs=inputs, metrics=log)
        assert res.diverged and res.test_error is None
        assert [h["step"] for h in res.history] == [1, 2]
        assert [(r.step, r.split) for r in log.records] == \
            [(1, "validation"), (2, "validation")]
    elif name == "multitask":
        mt, task_inputs, recipe = _multitask_run(vocab)
        hooked = []
        res = multitask_finetune(mt, task_inputs,
                                 replace(recipe, train_steps=6),
                                 step_hook=lambda s, task, _: hooked.append(s))
        assert res.diverged and hooked == [1, 2]
        assert sum(res.steps_per_task.values()) == 2
    else:
        model, docs, _ = _pretrain_run(vocab)
        res = further_pretrain(
            model, docs, vocab, 6, StlrSchedule(total_steps=6, peak_lr=1e-3),
            Rng(7), batch_size=3, max_len=16, checkpoint_every=1,
            checkpoint_dir=str(tmp_path), log_every=1)
        assert res.diverged
        assert [h["step"] for h in res.history] == [1, 2]
        assert [s for s, _ in res.checkpoints] == [1, 2]
    assert len(calls) == 3


# -- every parameter learns ---------------------------------------------------

# parameters whose gradient is 0 by design, each with why
EXPECTED_ZERO = {
    "block*.bk": "the key bias adds q . bk to every score of a query row, "
                 "which softmax cancels",
}


def _one_step_gradients(vocab, name):
    """{name: largest |gradient|} of every tensor one float64 step of
    `name` trains and its loss reaches by design: fine-tuning's loss
    reads no MLM or NSP head (`head.*`)."""
    config = {"n_layers": 2, "dtype": "f8"}
    if name == "pretrain":
        model, docs, schedule = _pretrain_run(vocab, **config)
        further_pretrain(model, docs, vocab, 1, schedule, Rng(7),
                         batch_size=3, max_len=16)
        named = named_tensors(model)
    else:
        recipe = replace(_recipe(name.split("-")[1]), train_steps=1)
        model, head, combiner = training.build_run(
            replace(_config(vocab), **config), recipe, vocab, 2)
        finetune(model, head, _inputs(vocab, recipe, 0), None, recipe,
                 combiner)
        named = {k: p for k, p in named_tensors(model, [head, combiner])
                 .items() if not k.startswith("head.")}
    return {k: 0.0 if p.grad is None else float(np.abs(p.grad).max())
            for k, p in named.items()}


@pytest.mark.parametrize("name", ["finetune-head_only", "finetune-hier_attn",
                                  "pretrain"])
def test_every_parameter_the_loss_reaches_learns(vocab, name):
    """Each tensor's gradient exceeds 1e-6 of the step's largest, except
    those on EXPECTED_ZERO; an entry that matches no tensor, or a tensor
    that does learn, is stale."""
    grads = _one_step_gradients(vocab, name)
    top = max(grads.values())
    still = {k for k, g in grads.items() if g <= 1e-6 * top}
    listed = {k for k in grads if any(fnmatch(k, pattern)
                                      for pattern in EXPECTED_ZERO)}
    assert still == listed
    assert all(any(fnmatch(k, pattern) for k in grads)
               for pattern in EXPECTED_ZERO)


# -- structure: one loop ------------------------------------------------------

def _call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


SITES = {
    "calls train_step": lambda n: isinstance(n, ast.Call)
    and _call_name(n) == "train_step",
    "catches DivergedError": lambda n: isinstance(n, ast.ExceptHandler)
    and n.type is not None and "DivergedError" in ast.unparse(n.type),
    "keys the dropout by step": lambda n: isinstance(n, ast.Call)
    and _call_name(n) == "at" and len(n.args) == 1
    and isinstance(n.args[0], ast.Name) and n.args[0].id == "step",
}


def _sites(match, modules="*"):
    """`module.top-level name` once per AST node of `src/bertfit/`
    `modules`.py that `match`es."""
    found = []
    for path in sorted(Path(bertfit.__file__).parent.glob(f"{modules}.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                      for node in ast.walk(top) if match(node)]
    return found


@pytest.mark.parametrize("site", sorted(SITES))
def test_only_the_one_loop_steps(site):
    """A training loop calls `train_step`, ends the run on DivergedError
    and keys each step's dropout; only `training.train_steps` does, so a
    recipe cannot grow a loop of its own."""
    assert _sites(SITES[site]) == ["training.train_steps"]


@pytest.mark.parametrize("callee, modules, sites", [
    ("Adam", "*", ["optim.build_optimizer"]),
    ("encode_batch", "training", ["training.batch_logits"])])
def test_one_optimizer_builder_and_one_classifier_encoder_call(
        callee, modules, sites):
    """Only `build_optimizer` constructs Adam, so every recipe trains at
    one rate rule; both classifier routes read the encoder through one
    `encode_batch` call."""
    assert _sites(lambda n: isinstance(n, ast.Call)
                  and _call_name(n) == callee, modules) == sites
