"""Command-line runner.

Subcommands: build-vocab, pretrain, finetune, multitask, eval, grid,
subsample. Most commands read a JSON config file (see README for the key
schema) and honor --seed / --strict-deterministic overrides.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .checkpoint import load_checkpoint, load_into, save_checkpoint
from .config import ExperimentConfig
from .data import load_dataset, split_validation, subsample
from .model import init_model, named_tensors
from .optim import StlrSchedule
from .rng import Rng
from .tokenizer import RESERVED, Vocabulary, build_vocab


def _usage_error(command, message):
    """Report a config or argument the command cannot run with; exit code
    2."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _setup(args):
    """(raw config, experiment with the CLI overrides, vocabulary); the
    model's vocab_size is set from the vocabulary."""
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    exp = ExperimentConfig.from_dict(
        {k: raw[k] for k in ("model", "recipe", "seed",
                             "validation_fraction", "few_shot_proportion",
                             "strict_deterministic") if k in raw})
    if args.seed is not None:
        exp.seed = args.seed
        exp.recipe.seed = args.seed
    if args.strict_deterministic:
        exp.strict_deterministic = True
    vocab = Vocabulary.load(raw["vocab"])
    exp.model.vocab_size = len(vocab)
    return raw, exp, vocab


def _load_data_section(raw, key="data"):
    d = raw[key]
    fmt = d.get("format", "csv-label-text")
    train = load_dataset(d["train"], fmt, name=d.get("name", ""),
                         n_classes=d.get("n_classes"), split="train",
                         domain=d.get("domain"))
    test = None
    if d.get("test"):
        test = load_dataset(d["test"], fmt, name=d.get("name", ""),
                            n_classes=train.n_classes, split="test",
                            domain=d.get("domain"))
    return train, test


def cmd_build_vocab(args):
    if args.size < len(RESERVED):
        return _usage_error(
            "build-vocab", f"--size must be at least {len(RESERVED)} "
            f"(the reserved tokens), got {args.size}")
    corpus = []
    for path in args.corpus:
        with open(path, encoding="utf-8") as fh:
            corpus.append(fh.read())
    vocab = build_vocab(corpus, args.size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


def cmd_subsample(args):
    ds = load_dataset(args.data, args.format)
    sub = subsample(ds, args.proportion, args.seed or 0)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        for ex in sub.examples:
            w.writerow([ex.label + 1, ex.text])
    print(f"kept {len(sub)} of {len(ds)} examples -> {args.out}")
    return 0


# The EncoderConfig fields that shape the computation; dropout does not.
_ARCH_FIELDS = ("n_layers", "hidden", "n_heads", "ffn", "vocab_size",
                "max_positions", "n_segments", "dtype")


def _install_checkpoint(command, path, named, raw, vocab, config,
                        recipe=None):
    """Install checkpoint `path` into the `named` tensors of a model built
    from `config`; exit code 2 if its config meta, vocab_hash, combiner
    kind (given `recipe`) or a tensor does not match, else None."""
    meta, arrays = load_checkpoint(path)
    kind = recipe and recipe.combiner_kind
    if recipe and meta.get("combiner", kind) != kind:
        return _usage_error(command, f"{path}: checkpoint combiner "
                            f"{meta['combiner']!r} does not match the "
                            f"config's {kind!r} ({recipe.long_text!r})")
    saved = meta.get("config", {})
    for key in _ARCH_FIELDS:
        if key in saved and saved[key] != getattr(config, key):
            return _usage_error(
                command, f"{path}: checkpoint config {key} {saved[key]!r} "
                f"does not match the model's {getattr(config, key)!r}")
    saved_hash = meta.get("vocab_hash")
    if saved_hash is not None and saved_hash != vocab.content_hash():
        return _usage_error(
            command, f"checkpoint vocab_hash {saved_hash} does not match "
            f"the config vocabulary {raw['vocab']} ({vocab.content_hash()})")
    try:
        load_into(named, arrays)
    except ValueError as e:
        return _usage_error(command, f"{path}: {e}")


def cmd_finetune(args):
    from .training import MetricsLog, build_model, finetune, prepare_inputs
    raw, exp, vocab = _setup(args)
    train_full, test = _load_data_section(raw)
    if exp.few_shot_proportion < 1.0:
        train_full = subsample(train_full, exp.few_shot_proportion, exp.seed)
    train, val = split_validation(train_full, exp.validation_fraction,
                                  exp.seed)
    recipe = exp.recipe
    model, head, combiner = build_model(exp.model, recipe, train.n_classes,
                                        Rng(exp.seed))
    if raw.get("init_checkpoint"):
        code = _install_checkpoint("finetune", raw["init_checkpoint"],
                                   named_tensors(model), raw, vocab,
                                   exp.model)
        if code:
            return code
    metrics = MetricsLog(args.metrics_out, strict=exp.strict_deterministic)
    res = finetune(model, head,
                   prepare_inputs(train, vocab, recipe),
                   prepare_inputs(val, vocab, recipe),
                   recipe, combiner=combiner,
                   test_inputs=prepare_inputs(test, vocab, recipe)
                   if test else None,
                   metrics=metrics)
    metrics.close()
    if args.checkpoint_out:
        save_checkpoint(args.checkpoint_out,
                        named_tensors(model, [head, combiner]),
                        meta={"config": exp.model.to_dict(),
                              "vocab_hash": vocab.content_hash(),
                              "combiner": recipe.combiner_kind,
                              "step": recipe.train_steps})
    status = "diverged" if res.diverged else (
        f"best val error {res.best_val_error:.2f}%"
        + (f", test error {res.test_error:.2f}%"
           if res.test_error is not None else ""))
    print(f"finetune [{train.name}]: {status}")
    return 0


def cmd_pretrain(args):
    from .pretraining import (MaskingPolicy, further_pretrain, read_corpus)
    raw, exp, vocab = _setup(args)
    pt = raw["pretrain"]
    steps = pt.get("steps", 1000)
    if steps < 1:
        return _usage_error(
            "pretrain", f"pretrain.steps must be at least 1, got {steps}")
    docs = read_corpus(pt["corpus"])
    rng = Rng(exp.seed)
    model = init_model(exp.model, rng.derive(1))
    schedule = StlrSchedule(total_steps=steps,
                            peak_lr=pt.get("lr", 5e-5),
                            warmup_proportion=pt.get("warmup_proportion",
                                                     0.1))
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    res = further_pretrain(
        model, docs, vocab, steps, schedule, rng.derive(2),
        batch_size=pt.get("batch_size", 32),
        max_len=pt.get("max_len", exp.model.max_positions),
        policy=MaskingPolicy(mask_prob=pt.get("mask_prob", 0.15)),
        checkpoint_every=pt.get("checkpoint_every"),
        checkpoint_dir=out_dir)
    if res.diverged:
        print("pretrain: diverged")
        return 0
    last = res.history[-1]
    print(f"pretrain: {steps} steps, final loss {last['loss']:.4f} "
          f"(mlm {last['mlm_loss']:.4f}, nsp {last['nsp_loss']:.4f})")
    return 0


def cmd_multitask(args):
    from .multitask import (MixingStrategy, MultiTaskModel,
                            multitask_finetune, per_task_refine)
    from .training import build_encoder, evaluate, prepare_inputs
    raw, exp, vocab = _setup(args)
    recipe = exp.recipe
    tasks_cfg = raw["multitask"]["tasks"]  # [{name, train, test?, n_classes}]
    rng = Rng(exp.seed)
    model, width, combiner = build_encoder(exp.model, recipe, rng)
    task_inputs, task_val, sizes = {}, {}, {}
    for t in tasks_cfg:
        ds = load_dataset(t["train"], t.get("format", "csv-label-text"),
                          name=t["name"], n_classes=t.get("n_classes"))
        train, val = split_validation(ds, exp.validation_fraction, exp.seed)
        task_inputs[t["name"]] = prepare_inputs(train, vocab, recipe)
        task_val[t["name"]] = prepare_inputs(val, vocab, recipe)
        sizes[t["name"]] = ds.n_classes
    mt = MultiTaskModel.init(model, sizes, width, rng.derive(2))
    mt.combiner = combiner
    res = multitask_finetune(mt, task_inputs, recipe,
                             MixingStrategy(seed=exp.seed))
    print(f"multitask: steps per task {res.steps_per_task}"
          + (" (diverged)" if res.diverged else ""))
    if raw["multitask"].get("refine_steps"):
        from dataclasses import replace
        r = replace(recipe, train_steps=raw["multitask"]["refine_steps"])
        for name in sorted(task_inputs):
            per_task_refine(mt, name, task_inputs[name], task_val[name], r)
    for name in sorted(task_inputs):
        err, loss = evaluate(mt.encoder, mt.heads[name], task_val[name],
                             recipe, mt.combiner)
        print(f"  {name}: val error {err:.2f}%")
    return 0


def cmd_eval(args):
    from .training import build_model, evaluate, prepare_inputs
    raw, exp, vocab = _setup(args)
    ds, test = _load_data_section(raw)
    model, head, combiner = build_model(exp.model, exp.recipe, ds.n_classes,
                                        Rng(exp.seed))
    code = _install_checkpoint("eval", args.checkpoint,
                               named_tensors(model, [head, combiner]), raw,
                               vocab, exp.model, exp.recipe)
    if code:
        return code
    target = test or ds
    inputs = prepare_inputs(target, vocab, exp.recipe)
    err, loss = evaluate(model, head, inputs, exp.recipe, combiner)
    print(f"eval [{target.name} {target.split}]: error {err:.2f}%, "
          f"loss {loss:.4f}")
    return 0


def cmd_grid(args):
    from .grid import (FIGURE2_LRS, TABLE4_LRS, TABLE4_XIS, run_grid,
                       run_lr_sweep)
    raw, exp, vocab = _setup(args)
    train_full, test = _load_data_section(raw)
    train, val = split_validation(train_full, exp.validation_fraction,
                                  exp.seed)
    g = raw.get("grid", {})
    lrs = tuple(g.get("lrs", TABLE4_LRS))
    xis = tuple(g.get("decay_factors", TABLE4_XIS))
    out_tsv = args.out or "grid_report.tsv"
    cells = run_grid(exp.model, exp.recipe, vocab, train, val, test,
                     lrs=lrs, xis=xis, out_tsv=out_tsv)
    print(f"grid: {len(cells)} cells -> {out_tsv}")
    if args.lr_sweep:
        sweep_lrs = tuple(g.get("sweep_lrs", FIGURE2_LRS))
        out_jsonl = args.lr_sweep
        run_lr_sweep(exp.model, exp.recipe, vocab, train, val, test,
                     lrs=sweep_lrs, out_jsonl=out_jsonl)
        print(f"lr sweep -> {out_jsonl}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="bertfit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict-deterministic", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-vocab", help="build a WordPiece vocabulary")
    b.add_argument("--corpus", nargs="+", required=True)
    b.add_argument("--size", type=int, default=8000)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build_vocab)

    s = sub.add_parser("subsample", help="stratified few-shot subset")
    s.add_argument("--data", required=True)
    s.add_argument("--format", default="csv-label-text")
    s.add_argument("--proportion", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_subsample)

    f = sub.add_parser("finetune", help="single-task fine-tuning")
    f.add_argument("--config", required=True)
    f.add_argument("--metrics-out", default=None)
    f.add_argument("--checkpoint-out", default=None)
    f.set_defaults(fn=cmd_finetune)

    pt = sub.add_parser("pretrain", help="further pre-training (MLM+NSP)")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out-dir", default=None)
    pt.set_defaults(fn=cmd_pretrain)

    m = sub.add_parser("multitask", help="multi-task fine-tuning")
    m.add_argument("--config", required=True)
    m.set_defaults(fn=cmd_multitask)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("grid", help="lr x decay-factor grid / lr sweep")
    g.add_argument("--config", required=True)
    g.add_argument("--out", default=None)
    g.add_argument("--lr-sweep", default=None,
                   help="also run the lr sweep, writing curves here")
    g.set_defaults(fn=cmd_grid)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
