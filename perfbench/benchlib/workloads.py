"""The benchmark's three workloads.

Each workload generates its inputs from the seed, sets up twice, runs one
measured training phase and one measured scoring phase, checks the
outputs, and sets up again a few times; `setup_s` is the median of all
set-ups, which so sample the whole run as the step median does. The
amount of work scales with `seconds` through a nominal rate per workload,
so a run's loss trail depends only on (seed, seconds) and not on how fast
the machine is; on the reference 2-core box a run measures close to
`seconds`.

Only public bertfit functions are called, always through their module
(`training.finetune`, not an imported name), so that traced runs see the
calls.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import reference
from .tracing import Patcher, StepClock, Tracer

TARGET_ERROR = 5.0            # percent, the README / acceptance gate


@dataclass
class Outcome:
    """What a workload measured and checked."""

    setup_s: list
    step_s: list
    train_phase_s: float
    train_samples: int
    eval_rates: list              # docs/s of each scoring round; spread
                                  # over the training phase where the
                                  # workload validates
    final_loss: float
    n_loss: int                   # values behind final_loss
    attempted: int
    failed: int
    losses: list                  # loss trail; identical traced or not
    checks: dict
    validation_s: tuple = ()       # each validation round in training
    steps_to_target: int = 0
    n_validations: int = 0
    time_to_target_s: float | None = None


class Run:
    """Tracing, the step clock and the scratch directory of one run.

    A traced run traces set-up and scoring fully, but only the even
    training steps: the odd ones run untraced in the same process, so the
    tracing overhead is measured without the drift between two processes.
    Whatever follows the last step (a checkpoint save) is traced.
    """

    def __init__(self, bf: dict, trace: bool, work_dir: str):
        self.bf = bf
        self.tracer = Tracer() if trace else None
        self.clock = StepClock(on_step=self._toggle if trace else None)
        self.work_dir = work_dir
        self.total_steps = 0

    def _toggle(self, steps_done):
        self.tracer.enabled = (steps_done % 2 == 1
                               or steps_done == self.total_steps)

    def phase(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def train_phase(self, total_steps):
        """Measured training: step clock installed, phase timed."""
        self.total_steps = total_steps
        patcher = Patcher()
        self.clock.install(patcher, self.bf["optim"].Adam,
                           self.bf["training"])
        timer = {}
        try:
            with self.phase("phase.train"):
                if self.tracer is not None:
                    self.tracer.enabled = False     # step 1 is untraced
                t0 = self.clock.clock()
                self.clock.begin()
                yield timer
                timer["seconds"] = self.clock.clock() - t0
                if self.tracer is not None:
                    self.tracer.enabled = True
        finally:
            patcher.restore()

    @contextlib.contextmanager
    def capture(self, module, name):
        """Collect the array of every result of bertfit `module.name`."""
        inner = getattr(self.bf[module], name)
        captured = []

        def capturing(*args, **kwargs):
            out = inner(*args, **kwargs)
            captured.append(out.data)
            return out

        patcher = Patcher()
        patcher.replace_function(inner, capturing)
        try:
            yield captured
        finally:
            patcher.restore()


SETUPS_BEFORE = 2             # set-ups ahead of the measured phases; the
                              # first absorbs the process's first-call costs


def _timed_setups(run: Run, setup, n=SETUPS_BEFORE):
    """Run `setup()` n times; keep the last state, time them all."""
    times, state = [], None
    for _ in range(n):
        state = None                  # free the previous set-up first
        with run.phase("phase.setup"):
            t0 = run.clock.clock()
            state = setup()
            times.append(run.clock.clock() - t0)
    return state, times


def _scale(seconds, per_second, minimum, unit=1):
    """Work for `seconds` at a nominal rate, as a multiple of `unit`."""
    return unit * max(minimum, int(round(seconds * per_second / unit)))


def _first_target(history, log_records, target=TARGET_ERROR):
    """(step, seconds) of the first validation at or under `target`."""
    for h in history:
        if h["val_error"] <= target:
            rec = next(r for r in log_records
                       if r.split == "validation" and r.step == h["step"])
            return h["step"], rec.wall_clock
    return 0, None


def _score(run, recipe, model, head, docs, chunk, combiner=None):
    """Forward-only scoring in chunks through `training.evaluate`.

    Returns (errors, loss sum, per-chunk losses)."""
    training = run.bf["training"]
    n_wrong, loss_sum, losses = 0, 0.0, []
    with run.phase("phase.eval"):
        for i in range(0, len(docs), chunk):
            part = docs[i:i + chunk]
            err, loss = training.evaluate(model, head, part, recipe,
                                          combiner, batch_size=chunk)
            n_wrong += int(round(err * len(part) / 100.0))
            loss_sum += loss * len(part)
            losses.append(loss)
    return n_wrong, loss_sum, losses


# -- finetune-short -----------------------------------------------------------

FINETUNE = {
    # nominal rates on the reference box: ~100 ms per step (8 steps per
    # measured second leaves room for validation, ten rounds of 200
    # documents) and ~900 scored docs/s, so ~1000 test documents take ~1 s
    "full": dict(n_train=2000, steps_per_s=8, min_steps=20, val_every=16,
                 test_docs_per_s=50, eval_chunk=64, setups_after=3),
    "tiny": dict(n_train=120, steps_per_s=4, min_steps=4, val_every=2,
                 test_docs_per_s=16, eval_chunk=16, setups_after=1),
}


def finetune_short(run: Run, seed: int, seconds: float, size: str):
    """Marker-order fine-tuning with the known-good recipe, random init."""
    bf = run.bf
    tok, toy, data, training = (bf["tokenizer"], bf["toytask"], bf["data"],
                                bf["training"])
    model_mod, Rng = bf["model"], bf["rng"].Rng
    p = FINETUNE[size]
    steps = _scale(seconds, p["steps_per_s"], p["min_steps"])
    n_test = _scale(seconds, p["test_docs_per_s"], 2, p["eval_chunk"])

    def setup():
        vocab = tok.build_vocab(toy.marker_vocab_corpus(), 60)
        train_full, test = toy.make_marker_task(p["n_train"], n_test,
                                                seed=seed)
        train, val = data.split_validation(train_full, 0.1, seed)
        config, recipe = toy.marker_benchmark(len(vocab))
        recipe = replace(recipe, train_steps=steps,
                         epochs=max(1, steps // p["val_every"]), seed=seed)
        train_in = training.prepare_inputs(train, vocab, recipe)
        val_in = training.prepare_inputs(val, vocab, recipe)
        test_in = training.prepare_inputs(test, vocab, recipe)
        rng = Rng(seed)
        model = model_mod.init_model(config, rng.derive(1))
        head = model_mod.ClassifierHead.init(config.hidden, 2, rng.derive(2))
        # warm-up: one full step at rate 0 (STLR is 0 at its last step),
        # so the parameters are left as initialized
        training.finetune(model, head, train_in, None,
                          replace(recipe, train_steps=1, epochs=1))
        return recipe, model, head, train_in, val_in, test_in

    (recipe, model, head, train_in, val_in, test_in), setup_s = \
        _timed_setups(run, setup)

    log = training.MetricsLog()
    with run.train_phase(steps) as timer:
        res = training.finetune(model, head, train_in, val_in, recipe,
                                metrics=log)
    step_s = run.clock.step_durations()
    val_rates = run.clock.eval_rates(len(val_in))

    n_wrong, loss_sum, test_losses = _score(
        run, recipe, res.model, res.head, test_in, p["eval_chunk"])
    test_error = 100.0 * n_wrong / len(test_in)
    val_losses = [h["val_loss"] for h in res.history]
    stt, ttt = _first_target(res.history, log.records)
    setup_s += _timed_setups(run, setup, p["setups_after"])[1]

    checks = {
        "not_diverged": not res.diverged,
        "all_steps_ran": len(step_s) == steps,
        "test_error_le_5pct": test_error <= TARGET_ERROR,
        "finite_losses": all(math.isfinite(r.loss) for r in log.records)
        and math.isfinite(loss_sum),
    }
    failed = 0
    if not (checks["not_diverged"] and checks["all_steps_ran"]):
        failed += steps
    if not (checks["test_error_le_5pct"] and checks["finite_losses"]):
        failed += len(test_in)
    return Outcome(
        setup_s=setup_s, step_s=step_s, train_phase_s=timer["seconds"],
        train_samples=len(step_s) * recipe.batch_size,
        eval_rates=val_rates,
        # mean validation loss over the run (the loss curve's area)
        final_loss=float(np.mean(val_losses)) if val_losses else math.nan,
        n_loss=len(val_losses),
        attempted=steps + len(test_in), failed=failed,
        losses=[r.loss for r in log.records] + test_losses,
        checks={**checks, "test_error_pct": test_error},
        validation_s=run.clock.eval_durations(),
        steps_to_target=stt, n_validations=len(res.history),
        time_to_target_s=ttt)


# -- pretrain-readme ----------------------------------------------------------

PRETRAIN = {
    # README scale, ~4.5 s per B=32 step on the reference box; 0.8 of the
    # measured time trains, and one held-out batch of 16 (~0.7 s) is scored
    # per 4 measured seconds
    "full": dict(V=8000, H=128, L=4, heads=4, S=128, B=32, n_docs=400,
                 n_heldout_docs=60, sent_words=(20, 60), sents=6,
                 steps_per_s=0.8 / 4.5, eval_batch=16, eval_per_s=0.25,
                 peak_lr=3e-3, mem_mb=4300, setups_after=1),
    "tiny": dict(V=300, H=32, L=1, heads=2, S=32, B=8, n_docs=40,
                 n_heldout_docs=10, sent_words=(5, 12), sents=4,
                 steps_per_s=2.0, eval_batch=8, eval_per_s=1.0,
                 peak_lr=3e-3, mem_mb=0, setups_after=1),
}
RESERVED = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def lexicon(n: int, seed: int, lengths=(3, 9)):
    """`n` distinct lowercase words; fixed for a given `seed`."""
    g = np.random.Generator(np.random.PCG64(seed))
    words, seen = [], set()
    while len(words) < n:
        k = int(g.integers(lengths[0], lengths[1]))
        w = "".join(LETTERS[i] for i in g.integers(0, 26, k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_weights(n: int, a: float):
    w = 1.0 / np.arange(1, n + 1) ** a
    return w / w.sum()


def _pretrain_docs(g, words, probs, n_docs, sents, sent_words):
    lens = g.integers(sent_words[0], sent_words[1] + 1, size=n_docs * sents)
    draw = g.choice(len(words), size=int(lens.sum()), p=probs)
    docs, pos = [], 0
    for d in range(n_docs):
        doc = []
        for s in range(sents):
            n = int(lens[d * sents + s])
            doc.append(" ".join(words[i] for i in draw[pos:pos + n]))
            pos += n
        docs.append(doc)
    return docs


def pretrain_readme(run: Run, seed: int, seconds: float, size: str):
    """Joint MLM + NSP further pre-training at README scale."""
    bf = run.bf
    pre, tok, ckpt = bf["pretraining"], bf["tokenizer"], bf["checkpoint"]
    model_mod, Rng = bf["model"], bf["rng"].Rng
    StlrSchedule = bf["optim"].StlrSchedule
    p = PRETRAIN[size]
    steps = _scale(seconds, p["steps_per_s"], 2)
    n_eval = _scale(seconds, p["eval_per_s"], 2)
    V, S, B = p["V"], p["S"], p["B"]
    words = lexicon(V - len(RESERVED), 0x1E)
    probs = zipf_weights(len(words), 1.0)

    def setup():
        g = np.random.Generator(np.random.PCG64(seed))
        docs = _pretrain_docs(g, words, probs, p["n_docs"], p["sents"],
                              p["sent_words"])
        heldout = _pretrain_docs(g, words, probs, p["n_heldout_docs"],
                                 p["sents"], p["sent_words"])
        vocab = tok.Vocabulary(RESERVED + words)
        config = model_mod.EncoderConfig(
            n_layers=p["L"], hidden=p["H"], n_heads=p["heads"],
            vocab_size=len(vocab), max_positions=S, dropout=0.1)
        model = model_mod.init_model(config, Rng(seed).derive(1))
        # warm-up: one full step at rate 0 (STLR is 0 at its last step)
        pre.further_pretrain(model, docs, vocab, 1,
                             StlrSchedule(total_steps=1), Rng(seed).derive(7),
                             batch_size=B, max_len=S)
        return docs, heldout, vocab, model

    (docs, heldout, vocab, model), setup_s = _timed_setups(run, setup)

    def heldout_loss(j):
        return pre.held_out_mlm_loss(
            model, heldout, vocab, Rng(seed).derive(100 + j),
            n_examples=p["eval_batch"], max_len=S)[0]

    with run.phase("phase.check"):
        init_loss = heldout_loss(0)   # same examples as the first eval batch

    with run.train_phase(steps) as timer:
        res = pre.further_pretrain(
            model, docs, vocab, steps,
            # one step past the run, so every measured step updates; the
            # high peak rate makes the held-out loss drop within a few steps
            StlrSchedule(total_steps=steps + 1, peak_lr=p["peak_lr"]),
            Rng(seed).derive(2), batch_size=B, max_len=S,
            checkpoint_dir=run.work_dir, log_every=1)
    step_s = run.clock.step_durations()
    train_losses = [h["loss"] for h in res.history]

    rates, held_losses = [], []
    with run.phase("phase.eval"):
        for j in range(n_eval):
            t0 = run.clock.clock()
            loss = heldout_loss(j)
            rates.append(p["eval_batch"] / (run.clock.clock() - t0))
            held_losses.append(loss)
    final = float(np.mean(held_losses))

    with run.phase("phase.check"):
        path = res.checkpoints[-1][1] if res.checkpoints else None
        round_trip = False
        if path:
            meta, arrays = ckpt.load_checkpoint(path)
            same = all(np.array_equal(arrays[k], t.data)
                       and arrays[k].dtype == t.data.dtype
                       for k, t in model.named_parameters().items())
            again = os.path.join(run.work_dir, "resaved.ckpt")
            ckpt.save_checkpoint(again, arrays, meta)
            with open(path, "rb") as a, open(again, "rb") as b:
                round_trip = same and a.read() == b.read()

    setup_s += _timed_setups(run, setup, p["setups_after"])[1]
    uniform_loss = math.log(V) + math.log(2)
    first = train_losses[0] if train_losses else math.nan
    checks = {
        "all_steps_ran": len(step_s) == steps,
        "finite_losses": all(map(math.isfinite, train_losses + held_losses)),
        # random init guesses uniformly over tokens and sentence order
        "first_loss_near_lnV_ln2":
            abs(first - uniform_loss) / uniform_loss < 0.05,
        "heldout_below_init": held_losses[0] < init_loss,
        "checkpoint_round_trip": round_trip,
    }
    failed = 0
    if not (checks["all_steps_ran"] and checks["finite_losses"]):
        failed += steps
    else:
        failed += (not checks["first_loss_near_lnV_ln2"])  # step 1
        failed += (not checks["checkpoint_round_trip"])    # the last step
        if not checks["heldout_below_init"]:
            failed += steps
    failed = min(failed, steps)
    if not all(map(math.isfinite, held_losses)):
        failed += n_eval * p["eval_batch"]
    return Outcome(
        setup_s=setup_s, step_s=step_s, train_phase_s=timer["seconds"],
        train_samples=len(step_s) * B, eval_rates=rates, final_loss=final,
        n_loss=len(held_losses),
        attempted=steps + n_eval * p["eval_batch"], failed=failed,
        losses=train_losses + held_losses,
        checks={**checks, "first_loss": first, "uniform_loss": uniform_loss,
                "init_heldout_loss": init_loss})


# -- longdoc-hier -------------------------------------------------------------

LONGDOC = {
    # ~0.55 s per step of 8 documents and ~35 scored docs/s: 20 steps with
    # a validation round of 8 documents every 2 steps take ~13 s, and 80
    # test documents ~2 s
    "full": dict(W=600, zipf=0.8, doc_words=(100, 400), vocab_size=1000,
                 max_len=64, H=64, L=2, heads=4, B=8, steps_per_s=1.0,
                 val_every=2, n_val=8, eval_chunk=8, test_docs_per_s=4,
                 setups_after=3),
    "tiny": dict(W=60, zipf=0.8, doc_words=(20, 60), vocab_size=120,
                 max_len=16, H=16, L=1, heads=2, B=4, steps_per_s=1.0,
                 val_every=1, n_val=4, eval_chunk=4, test_docs_per_s=4,
                 setups_after=1),
}
MARKERS = ("alpha", "beta")
# scored features and logits (float32) against the float64 reference:
# ~2e-7 apart on the seed code, 1.4e-5 after changing gelu's cubic
# coefficient from 0.044715 to 0.05
REF_ATOL = 5e-6


def _long_docs(g, words, probs, n_groups, group, doc_words, Example):
    """Marker-order documents; the label says which marker comes first.

    Every run of `group` consecutive documents has the same lengths, spread
    evenly over `doc_words` in a random order, so each scoring chunk (and
    the one training batch) does the same amount of work whatever the seed.
    """
    grid = np.linspace(doc_words[0], doc_words[1], group).round().astype(int)
    lengths = np.concatenate([grid[g.permutation(group)]
                              for _ in range(n_groups)])
    out = []
    for k, length in enumerate(lengths):
        toks = [words[i] for i in g.choice(len(words), size=int(length),
                                           p=probs)]
        i, j = g.choice(int(length), size=2, replace=False)
        label = k % 2                 # balanced classes
        first, second = (i, j) if i < j else (j, i)
        toks[first] = MARKERS[label]
        toks[second] = MARKERS[1 - label]
        out.append(Example(label=label, text=" ".join(toks)))
    return out


def longdoc_hier(run: Run, seed: int, seconds: float, size: str):
    """Hierarchical (attention-pooled) classification of long documents."""
    bf = run.bf
    tok, training, data = bf["tokenizer"], bf["training"], bf["data"]
    model_mod, Rng = bf["model"], bf["rng"].Rng
    longtext, config_mod = bf["longtext"], bf["config"]
    p = LONGDOC[size]
    steps = _scale(seconds, p["steps_per_s"], 2)
    n_eval = _scale(seconds, p["test_docs_per_s"], 2, p["eval_chunk"])
    # the training set is one batch: every step sees the same documents in
    # a fresh order, so step time does not depend on what a batch drew
    n_train = p["B"]
    words = [w for w in lexicon(p["W"], 0x10D, lengths=(4, 11))
             if w not in MARKERS]
    probs = zipf_weights(len(words), p["zipf"])

    def setup():
        g = np.random.Generator(np.random.PCG64(seed))
        group = p["eval_chunk"]
        docs = _long_docs(g, words, probs,
                          (n_train + p["n_val"] + n_eval) // group, group,
                          p["doc_words"], data.Example)
        train = data.Dataset("longdoc", docs[:n_train], 2)
        val = data.Dataset("longdoc", docs[n_train:n_train + p["n_val"]], 2)
        test = data.Dataset("longdoc", docs[n_train + p["n_val"]:], 2,
                            split="test")
        vocab = tok.build_vocab([ex.text for ex in train.examples],
                                p["vocab_size"])
        recipe = config_mod.TrainingRecipe(
            long_text="hier_attn", base_lr=1e-3, decay_factor=0.95,
            train_steps=steps, batch_size=p["B"], max_len=p["max_len"],
            epochs=max(1, steps // p["val_every"]), seed=seed)
        train_in = training.prepare_inputs(train, vocab, recipe)
        val_in = training.prepare_inputs(val, vocab, recipe)
        test_in = training.prepare_inputs(test, vocab, recipe)
        config = model_mod.EncoderConfig(
            n_layers=p["L"], hidden=p["H"], n_heads=p["heads"],
            vocab_size=len(vocab), max_positions=p["max_len"], dropout=0.1)
        rng = Rng(seed)
        model = model_mod.init_model(config, rng.derive(1))
        head = model_mod.ClassifierHead.init(p["H"], 2, rng.derive(2))
        combiner = longtext.FractionCombiner.init("attn", p["H"],
                                                  rng.derive(3))
        # warm-up: one full step at rate 0 (STLR is 0 at its last step)
        training.finetune(model, head, train_in, None,
                          replace(recipe, train_steps=1, epochs=1), combiner)
        return recipe, vocab, model, head, combiner, test, train_in, \
            val_in, test_in

    (recipe, vocab, model, head, combiner, test, train_in, val_in,
     test_in), setup_s = _timed_setups(run, setup)

    log = training.MetricsLog()
    with run.train_phase(steps) as timer:
        res = training.finetune(model, head, train_in, val_in, recipe,
                                combiner, metrics=log)
    step_s = run.clock.step_durations()
    val_rates = run.clock.eval_rates(len(val_in))

    with run.capture("training", "batch_logits") as logits, \
            run.capture("longtext", "combine") as pooled:
        n_wrong, loss_sum, eval_losses = _score(
            run, recipe, res.model, res.head, test_in, p["eval_chunk"],
            combiner)
    doc_logits = np.concatenate(logits) if logits else np.zeros((0, 2))

    # per scored document: finite logits, and ceil(L / capacity) fractions
    # that hold exactly the document's tokens in order; for the first and
    # the last scoring chunk, pooled features and logits equal to an
    # independent float64 forward pass (reference.py) within float32
    # rounding. The pooled features are O(1); the logits are small, since
    # the head's weights are, and barely show a wrong encoder.
    cap = recipe.capacity
    chunk = p["eval_chunk"]
    ref_docs = sorted({*range(chunk), *range(len(test_in) - chunk,
                                             len(test_in))})
    bad_docs, max_err = 0, math.inf
    with run.phase("phase.check"):
        ref_ok = {}
        if len(doc_logits) == len(pooled) == len(test_in):
            ref_pooled, ref_logits = reference.hier_forward(
                res.model, res.head, res.combiner,
                [test_in[d] for d in ref_docs])
            err = np.hstack([np.array(pooled)[ref_docs] - ref_pooled,
                             doc_logits[ref_docs] - ref_logits])
            max_err = float(np.abs(err).max())
            ref_ok = dict(zip(ref_docs, (np.abs(err) <= REF_ATOL)
                              .all(axis=1)))
        for d, (ex, doc) in enumerate(zip(test.examples, test_in)):
            ids = [vocab.id(t) for t in tok.tokenize(ex.text, vocab)]
            want_k = max(1, -(-len(ids) // cap))
            got = [i for f in doc.fractions
                   for i in f.token_ids[1:1 + sum(f.attention_mask) - 2]]
            ok = (doc.k == want_k and got == ids
                  and len(doc_logits) == len(test_in)
                  and bool(np.isfinite(doc_logits[d]).all())
                  and bool(ref_ok.get(d, d not in ref_docs)))
            bad_docs += not ok
    checks = {
        "not_diverged": not res.diverged,
        "all_steps_ran": len(step_s) == steps,
        "docs_ok": len(test_in) - bad_docs,
        "docs_scored": len(doc_logits),
        "finite_losses": all(math.isfinite(r.loss) for r in log.records)
        and math.isfinite(loss_sum),
    }
    setup_s += _timed_setups(run, setup, p["setups_after"])[1]
    failed = bad_docs
    if not (checks["not_diverged"] and checks["all_steps_ran"]
            and checks["finite_losses"]):
        failed += steps
    return Outcome(
        setup_s=setup_s, step_s=step_s, train_phase_s=timer["seconds"],
        train_samples=len(step_s) * recipe.batch_size,
        eval_rates=val_rates,
        final_loss=loss_sum / len(test_in), n_loss=len(test_in),
        attempted=steps + len(test_in), failed=failed,
        losses=[r.loss for r in log.records] + eval_losses,
        checks={**checks, "test_error_pct": 100.0 * n_wrong / len(test_in),
                "max_ref_error": max_err},
        validation_s=run.clock.eval_durations(),
        n_validations=len(res.history))


WORKLOADS = {
    "finetune-short": finetune_short,
    "pretrain-readme": pretrain_readme,
    "longdoc-hier": longdoc_hier,
}


def memory_needed_mb(name: str, size: str) -> float:
    """MiB a workload needs free before it starts (0 = no guard)."""
    if name == "pretrain-readme":
        return PRETRAIN[size]["mem_mb"]
    return 0.0
