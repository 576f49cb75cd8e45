"""Command-line runner.

Subcommands: build-vocab, pretrain, finetune, multitask, eval, grid,
subsample. Most commands read a JSON config file (see README for the key
schema) and honor --seed / --strict-deterministic overrides.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

from .checkpoint import install, load_into, save_model
from .config import ConfigError, ExperimentConfig, GridSection
from .data import (FORMATS, InputError, load_dataset, open_input,
                   split_validation, subsample)
from .model import named_tensors
from .optim import StlrSchedule
from .rng import HEAD, PRETRAIN, Rng
from .tokenizer import RESERVED, Vocabulary, build_vocab


def _usage_error(command, message):
    """Report a config or argument the command cannot run with; exit code
    2."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _check_outputs(args):
    """Raise InputError naming the first output the command could not
    write, before it reads anything: a file path that is a directory or
    whose directory does not exist, one file named by two output flags,
    or an `--out-dir` that is a file."""
    flags = {}                      # real path -> the flag that named it
    for dest in args.outputs:
        path = getattr(args, dest)
        folder = os.path.dirname(path or "")
        if folder and not os.path.isdir(folder):
            raise InputError(f"{path}: no directory {folder}")
        if path and os.path.isdir(path):
            raise InputError(f"{path}: is a directory")
        if path:
            flag = "--" + dest.replace("_", "-")
            other = flags.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise InputError(f"{path}: named by both {other} and {flag}")
    out_dir = getattr(args, "out_dir", None)
    if out_dir and os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise InputError(f"{out_dir}: not a directory")


def _setup(args, *required):
    """(experiment with the CLI overrides, vocabulary), vocab_size set from
    the vocabulary. Raises ConfigError before reading any other file if the
    config is not JSON, or misses the schema, `vocab` or a `required` key."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read the config: {e}") from None
    exp = ExperimentConfig.from_dict(raw)
    if args.command != "pretrain":      # it reads pretrain.max_len
        exp.check_max_len("recipe")
    for key in ("vocab", *required):
        if getattr(exp, key) is None:
            raise ConfigError(f"missing key {key}")
    if args.seed is not None:
        exp.seed = args.seed
        exp.recipe.seed = args.seed
    if args.strict_deterministic:
        exp.strict_deterministic = True
    vocab = Vocabulary.load(exp.vocab)
    exp.model.vocab_size = len(vocab)
    return exp, vocab


def _train_val_test(exp, section):
    """Few-shot train and validation splits of `section`, and its test."""
    train, test = section.load()
    train = subsample(train, exp.few_shot_proportion, exp.seed)
    try:
        train, val = split_validation(train, exp.validation_fraction,
                                      exp.seed)
    except ValueError as e:
        raise InputError(f"{section.train}: {e}") from None
    return train, val, test


def cmd_build_vocab(args):
    if args.size < len(RESERVED):
        return _usage_error(
            "build-vocab", f"--size must be at least {len(RESERVED)} "
            f"(the reserved tokens), got {args.size}")
    corpus = []
    for path in args.corpus:
        with open_input(path, "corpus", encoding="utf-8") as fh:
            corpus.append(fh.read())
    vocab = build_vocab(corpus, args.size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


def cmd_subsample(args):
    if not 0.0 < args.proportion <= 1.0:
        return _usage_error("subsample", "--proportion must be in (0, 1], "
                            f"got {args.proportion}")
    ds = load_dataset(args.data, args.format)
    sub = subsample(ds, args.proportion, args.seed or 0)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        for ex in sub.examples:
            w.writerow([ex.label + 1, ex.text])
    print(f"kept {len(sub)} of {len(ds)} examples -> {args.out}")
    return 0


def cmd_finetune(args):
    from .training import MetricsLog, build_run, finetune, prepare_inputs
    exp, vocab = _setup(args, "data")
    train, val, test = _train_val_test(exp, exp.data)
    recipe = exp.recipe
    model, head, combiner = build_run(exp.model, recipe, vocab,
                                      train.n_classes, exp.init_checkpoint)
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
        save_model(args.checkpoint_out,
                   named_tensors(model, [head, combiner]), exp.model, vocab,
                   recipe.train_steps, combiner=recipe.combiner_kind)
    status = "diverged" if res.diverged else (
        f"best val error {res.best_val_error:.2f}%"
        + (f", test error {res.test_error:.2f}%"
           if res.test_error is not None else ""))
    print(f"finetune [{train.name}]: {status}")
    return 0


def cmd_pretrain(args):
    from .pretraining import (MaskingPolicy, further_pretrain, read_corpus)
    from .training import build_encoder
    exp, vocab = _setup(args, "pretrain")
    pt = exp.pretrain
    docs = read_corpus(pt.corpus)
    model = build_encoder(exp.model, exp.recipe, vocab,
                          exp.init_checkpoint)[0]
    schedule = StlrSchedule(total_steps=pt.steps, peak_lr=pt.lr,
                            warmup_proportion=pt.warmup_proportion)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    res = further_pretrain(
        model, docs, vocab, pt.steps, schedule,
        Rng(exp.recipe.seed).at(0, PRETRAIN), batch_size=pt.batch_size,
        max_len=pt.max_len,
        policy=MaskingPolicy(mask_prob=pt.mask_prob),
        checkpoint_every=pt.checkpoint_every, checkpoint_dir=out_dir)
    if res.diverged:
        print("pretrain: diverged")
        return 0
    last = res.history[-1]
    print(f"pretrain: {pt.steps} steps, final loss {last['loss']:.4f} "
          f"(mlm {last['mlm_loss']:.4f}, nsp {last['nsp_loss']:.4f})")
    return 0


def cmd_multitask(args):
    from .multitask import (MultiTaskModel, multitask_finetune,
                            per_task_refine)
    from .training import build_encoder, evaluate, prepare_inputs
    exp, vocab = _setup(args, "multitask")
    recipe = exp.recipe
    model, width, combiner = build_encoder(exp.model, recipe, vocab,
                                           exp.init_checkpoint)
    task_inputs, task_val, task_test, sizes = {}, {}, {}, {}
    for t in exp.multitask.tasks:
        train, val, test = _train_val_test(exp, t)
        task_inputs[t.name] = prepare_inputs(train, vocab, recipe)
        task_val[t.name] = prepare_inputs(val, vocab, recipe)
        task_test[t.name] = (prepare_inputs(test, vocab, recipe) if test
                             else None)
        sizes[t.name] = train.n_classes
    mt = MultiTaskModel.init(model, sizes, width, Rng(recipe.seed).at(0, HEAD))
    mt.combiner = combiner
    res = multitask_finetune(mt, task_inputs, recipe)
    print(f"multitask: steps per task {res.steps_per_task}"
          + (" (diverged)" if res.diverged else ""))
    steps = exp.multitask.refine_steps
    shared = named_tensors(mt.encoder, [mt.combiner])
    start = {k: p.data for k, p in shared.items()}
    for name in sorted(task_inputs):
        splits = [("val", task_val[name]), ("test", task_test[name])]
        if steps:   # each task from the multi-task weights, scored next;
            # copies, as Adam updates the installed arrays in place
            load_into(shared, {k: a.copy() for k, a in start.items()})
            ref = per_task_refine(mt, name, task_inputs[name], task_val[name],
                                  replace(recipe, train_steps=steps))
            # `finetune` scored it on the very parameters it restored; a
            # refinement that diverged before its first round has no score
            if math.isfinite(ref.best_val_error):
                print(f"  {name}: val error {ref.best_val_error:.2f}%"
                      + (" (refinement diverged)" if ref.diverged else ""))
            else:
                print(f"  {name}: refinement diverged")
            splits = splits[1:]
        for split, inputs in splits:
            if inputs is not None:
                err, loss = evaluate(mt.encoder, mt.heads[name], inputs,
                                     recipe, mt.combiner)
                print(f"  {name}: {split} error {err:.2f}%")
    return 0


def cmd_eval(args):
    from .training import build_run, evaluate, prepare_inputs
    exp, vocab = _setup(args, "data")
    ds, test = exp.data.load()
    model, head, combiner = build_run(exp.model, exp.recipe, vocab,
                                      ds.n_classes)
    install(args.checkpoint, named_tensors(model, [head, combiner]),
            exp.model, vocab, exp.recipe.combiner_kind)
    target = test or ds
    inputs = prepare_inputs(target, vocab, exp.recipe)
    err, loss = evaluate(model, head, inputs, exp.recipe, combiner)
    print(f"eval [{target.name} {target.split}]: error {err:.2f}%, "
          f"loss {loss:.4f}")
    return 0


def cmd_grid(args):
    from .grid import run_grid, run_lr_sweep
    exp, vocab = _setup(args, "data")
    if args.lr_sweep and not exp.data.test:
        raise ConfigError("missing key data.test, which --lr-sweep scores")
    train, val, test = _train_val_test(exp, exp.data)
    g = exp.grid or GridSection()
    out_tsv = args.out
    cells = run_grid(exp.model, exp.recipe, vocab, train, val, test,
                     lrs=g.lrs, xis=g.decay_factors, out_tsv=out_tsv,
                     init_checkpoint=exp.init_checkpoint)
    print(f"grid: {len(cells)} cells -> {out_tsv}")
    if args.lr_sweep:
        run_lr_sweep(exp.model, exp.recipe, vocab, train, val, test,
                     lrs=g.sweep_lrs, out_jsonl=args.lr_sweep,
                     init_checkpoint=exp.init_checkpoint)
        print(f"lr sweep -> {args.lr_sweep}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="bertfit")
    p.set_defaults(outputs=())      # the flags naming files a command writes
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict-deterministic", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-vocab", help="build a WordPiece vocabulary")
    b.add_argument("--corpus", nargs="+", required=True)
    b.add_argument("--size", type=int, default=8000)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build_vocab, outputs=("out",))

    s = sub.add_parser("subsample", help="stratified few-shot subset")
    s.add_argument("--data", required=True)
    s.add_argument("--format", default="csv-label-text", choices=FORMATS)
    s.add_argument("--proportion", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_subsample, outputs=("out",))

    f = sub.add_parser("finetune", help="single-task fine-tuning")
    f.add_argument("--config", required=True)
    f.add_argument("--metrics-out", default=None)
    f.add_argument("--checkpoint-out", default=None)
    f.set_defaults(fn=cmd_finetune, outputs=("metrics_out", "checkpoint_out"))

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
    g.add_argument("--out", default="grid_report.tsv")
    g.add_argument("--lr-sweep", default=None,
                   help="also run the lr sweep, writing curves here")
    g.set_defaults(fn=cmd_grid, outputs=("out", "lr_sweep"))
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.fn(args)
    except ConfigError as e:
        return _usage_error(args.command, f"{args.config}: {e}")
    except InputError as e:      # a checkpoint, dataset, corpus or vocab
        return _usage_error(args.command, str(e))


if __name__ == "__main__":
    sys.exit(main())
