import contextlib
import csv
import importlib
import io
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bertfit import autodiff as ad
from bertfit import grid, multitask, training
from bertfit.checkpoint import load_checkpoint, save_checkpoint
from bertfit.cli import main
from bertfit.config import (DataSection, ExperimentConfig, GridSection,
                            MultitaskSection, PretrainSection, TaskSection,
                            TrainingRecipe)
from bertfit.grid import (FIGURE2_LRS, TABLE4_LRS, TABLE4_XIS, GridCell,
                          run_grid, run_lr_sweep, write_grid_tsv)
from bertfit.data import Example, split_validation
from bertfit.model import EncoderConfig, init_model, named_tensors
from bertfit.rng import INIT, Rng
from bertfit.tokenizer import RESERVED, Vocabulary, build_vocab
from bertfit.toytask import make_marker_task, marker_vocab_corpus


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(marker_vocab_corpus(), 60)


@pytest.fixture(scope="module")
def tiny_model_config(vocab):
    return EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                         vocab_size=len(vocab), max_positions=16, dropout=0.0)


def tiny_recipe(**overrides):
    kw = dict(long_text="head_only", base_lr=5e-4, train_steps=10,
              batch_size=4, max_len=16, epochs=2, seed=0)
    kw.update(overrides)
    return TrainingRecipe(**kw)


@pytest.fixture(scope="module")
def splits():
    train_full, test = make_marker_task(60, 20, seed=4)
    train, val = split_validation(train_full, 0.1, 0)
    return train, val, test


def write_examples_csv(path, dataset):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for ex in dataset.examples:
            w.writerow([ex.label + 1, ex.text])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, vocab, tiny_model_config):
    """Vocab file, train/test CSVs, corpus file, and a base config dict."""
    root = tmp_path_factory.mktemp("ws")
    vocab.save(root / "vocab.txt")
    train_full, test = make_marker_task(60, 20, seed=4)
    write_examples_csv(root / "train.csv", train_full)
    write_examples_csv(root / "test.csv", test)
    with open(root / "corpus.txt", "w", encoding="utf-8") as fh:
        for ex in train_full.examples[:20]:
            fh.write(ex.text + "\n" + ex.text + "\n\n")
    base = ExperimentConfig(model=tiny_model_config, recipe=tiny_recipe())
    raw = base.to_dict()
    raw["vocab"] = str(root / "vocab.txt")
    raw["data"] = {"train": str(root / "train.csv"),
                   "test": str(root / "test.csv"),
                   "format": "csv-label-text", "n_classes": 2,
                   "name": "marker"}
    return root, raw


def write_config(root, raw, name="config.json", **extra):
    raw = {**raw, **extra}
    path = root / name
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return str(path)


def scale_checkpoint(path, factor):
    """Rewrite the checkpoint at `path` with every tensor times `factor`."""
    meta, tensors = load_checkpoint(path)
    save_checkpoint(path, {k: a * a.dtype.type(factor)
                           for k, a in tensors.items()}, meta=meta)


def full_config(model_config, root):
    """An experiment with every section set; no file it names exists."""
    def path(name):
        return str(root / "missing" / name)
    return ExperimentConfig(
        model=model_config, recipe=tiny_recipe(base_lr=3e-5), seed=7,
        few_shot_proportion=0.5, vocab=path("vocab.txt"),
        data=DataSection(train=path("train.csv"), test=path("test.csv"),
                         name="marker", n_classes=2),
        init_checkpoint=path("init.ckpt"),
        pretrain=PretrainSection(corpus=path("corpus.txt"), steps=4),
        multitask=MultitaskSection(tasks=[
            TaskSection(name="a", train=path("a.csv")),
            TaskSection(name="b", train=path("b.csv"), test=path("bt.csv"),
                        n_classes=2)], refine_steps=2),
        grid=GridSection(lrs=(5e-4,), sweep_lrs=(5e-4, 1e-4)))


COMMANDS = ["finetune", "pretrain", "multitask", "eval", "grid"]
# the flags naming a file a command writes
OUTPUT_FLAGS = [("finetune", "--checkpoint-out"),
                ("finetune", "--metrics-out"), ("grid", "--out"),
                ("grid", "--lr-sweep"), ("build-vocab", "--out"),
                ("subsample", "--out")]

# the trainer each command starts, once per run (per grid cell)
TRAINERS = {"finetune": ("training", "finetune"),
            "pretrain": ("pretraining", "further_pretrain"),
            "multitask": ("multitask", "multitask_finetune"),
            "grid": ("grid", "finetune")}


def spy_starts(monkeypatch, command):
    """A list that gets, each time `command` starts its trainer, the bytes
    of every tensor the run starts from: the encoder's, and the classifier
    heads' and combiner's where the run has them."""
    module, trainer = TRAINERS[command]
    module = importlib.import_module(f"bertfit.{module}")
    fn = getattr(module, trainer)
    starts = []

    def start(model, *args, **kw):
        if hasattr(model, "encoder"):                   # MultiTaskModel
            named = named_tensors(model.encoder,
                                  [*model.heads.values(), model.combiner])
        elif trainer == "finetune":
            named = named_tensors(model, [args[0], kw.get("combiner")])
        else:
            named = named_tensors(model)
        starts.append({n: p.data.tobytes() for n, p in named.items()})
        return fn(model, *args, **kw)
    monkeypatch.setattr(module, trainer, start)
    return starts


def spy_splits(monkeypatch):
    """A list that gets (size of the split dataset, validation texts) for
    every validation split a command draws."""
    splits = []

    def split(ds, fraction, seed):
        train, val = split_validation(ds, fraction, seed)
        splits.append((len(ds), [ex.text for ex in val.examples]))
        return train, val
    monkeypatch.setattr("bertfit.cli.split_validation", split)
    return splits


def key_id(value):
    """A test id part: a key path dotted, anything else as is."""
    return dotted(value) if isinstance(value, tuple) else value


def two_tasks(raw):
    """A multitask section over the workspace's train (60) and test (20)
    files."""
    return {"tasks": [{"name": "a", "train": raw["data"]["train"],
                       "n_classes": 2},
                      {"name": "b", "train": raw["data"]["test"],
                       "test": raw["data"]["train"], "n_classes": 2}]}


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path, tiny_model_config):
        cfg = full_config(tiny_model_config, tmp_path)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        text = json.dumps(cfg.to_dict())
        assert json.dumps(
            ExperimentConfig.from_dict(json.loads(text)).to_dict()) == text

    def test_readme_config_block_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = re.search(r"### Config file.*?```json\n(.*?)```", readme,
                          re.S).group(1)
        exp = ExperimentConfig.from_dict(json.loads(block))
        assert exp.data.train and exp.pretrain.corpus
        assert [t.name for t in exp.multitask.tasks] == ["a", "b"]

    def test_readme_key_table_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        table = re.search(r"Which command reads which key:\n\n(.*?)\n\n",
                          readme, re.S).group(1)
        named = {key for row in table.splitlines()[2:]
                 for key in re.findall(r"`([\w.]+)`", row.split("|")[1])}
        assert {f.name for f in fields(ExperimentConfig)} <= named

    def test_default_grid_axes(self):
        assert TABLE4_LRS == (2.5e-5, 2.0e-5)
        assert TABLE4_XIS == (1.00, 0.95, 0.90, 0.85)
        assert FIGURE2_LRS == (2e-5, 5e-5, 1e-4, 4e-4)


class TestGridHarness:
    def test_grid_shape_and_tsv(self, tiny_model_config, vocab, splits,
                                tmp_path):
        train, val, test = splits
        out = tmp_path / "grid.tsv"
        cells = run_grid(tiny_model_config, tiny_recipe(), vocab,
                         train, val, test, lrs=(5e-4, 1e-4), xis=(1.0, 0.9),
                         out_tsv=out)
        assert len(cells) == 4
        lines = out.read_text().splitlines()
        assert lines[0] == "base_lr\tdecay_factor\tval_error\ttest_error"
        assert len(lines) == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_cell_recorded(self, tiny_model_config, vocab, splits,
                                    tmp_path):
        train, val, test = splits
        out = tmp_path / "grid.tsv"
        cells = run_grid(tiny_model_config, tiny_recipe(), vocab,
                         train, val, test, lrs=(1e30,), xis=(1.0,),
                         out_tsv=out)
        assert cells[0].diverged
        assert "diverged" in out.read_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cell_diverged_at_a_round_recorded(self, tiny_model_config,
                                               vocab, splits, tmp_path):
        # a round every step: the round at the step whose update blew the
        # weights up meets a NaN, and the cell records it
        train, val, test = splits
        out = tmp_path / "grid.tsv"
        cells = run_grid(tiny_model_config, tiny_recipe(epochs=10), vocab,
                         train, val, test, lrs=(1e30,), xis=(1.0,),
                         out_tsv=out)
        assert cells == [GridCell(1e30, 1.0, None, None, True)]
        assert out.read_text().splitlines()[1] == \
            "1e+30\t1\tdiverged\tdiverged"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lr_sweep_records_divergence(self, tiny_model_config, vocab,
                                         splits, tmp_path):
        train, val, test = splits
        out = tmp_path / "sweep.jsonl"
        curves = run_lr_sweep(tiny_model_config, tiny_recipe(), vocab,
                              train, val, test, lrs=(5e-4, 1e30),
                              out_jsonl=out)
        assert not curves[5e-4]["diverged"] and curves[1e30]["diverged"]
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["lr"] for r in records] == \
            [5e-4] * 2 + [1e30] * (len(curves[1e30]["epochs"]) + 1)
        assert records[-1] == {"lr": 1e30, "diverged": True}
        assert not any(r.get("diverged") for r in records[:-1])

    def test_lr_sweep_curve_ends_at_a_scoring_that_overflows(
            self, tiny_model_config, vocab, splits, monkeypatch):
        # the curve's scoring at round 2 overflows where validation did
        # not: the curve keeps round 1 and is marked diverged
        train, val, test = splits
        score, calls = grid.evaluate, []

        def overflowing(*args, **kw):
            calls.append(0)
            return None if len(calls) == 3 else score(*args, **kw)
        monkeypatch.setattr(grid, "evaluate", overflowing)
        curves = run_lr_sweep(tiny_model_config, tiny_recipe(epochs=3),
                              vocab, train, val, test, lrs=(5e-4,))
        assert curves[5e-4]["diverged"]
        assert [r["epoch"] for r in curves[5e-4]["epochs"]] == [1]
        assert len(calls) == 6

    def test_empty_axes_rejected(self, tiny_model_config, vocab, splits):
        train, val, test = splits
        with pytest.raises(ValueError, match="non-empty"):
            run_grid(tiny_model_config, tiny_recipe(), vocab,
                     train, val, test, lrs=(), xis=(1.0,))

    def test_lr_sweep_needs_test_set(self, tiny_model_config, vocab, splits):
        train, val, _ = splits
        with pytest.raises(ValueError, match="test set"):
            run_lr_sweep(tiny_model_config, tiny_recipe(), vocab,
                         train, val, None, lrs=(5e-4,))

    def test_hierarchical_grid(self, tiny_model_config, vocab, splits):
        train, val, test = splits
        cells = run_grid(tiny_model_config,
                         tiny_recipe(long_text="hier_attn", max_len=10),
                         vocab, train, val, test, lrs=(5e-4,),
                         xis=(1.0, 0.9))
        assert len(cells) == 2
        for c in cells:
            assert not c.diverged
            assert math.isfinite(c.val_error) and math.isfinite(c.test_error)

    def test_hierarchical_lr_sweep(self, tiny_model_config, vocab, splits):
        train, val, test = splits
        curves = run_lr_sweep(tiny_model_config,
                              tiny_recipe(long_text="hier_attn", max_len=10),
                              vocab, train, val, test, lrs=(5e-4,))
        curve = curves[5e-4]
        assert not curve["diverged"] and len(curve["epochs"]) == 2
        assert all(math.isfinite(rec[k]) for rec in curve["epochs"]
                   for k in ("train_error", "test_error", "train_loss",
                             "test_loss"))

    def test_head_sized_from_dataset(self, tiny_model_config, vocab,
                                     splits):
        # a declared class that the train split lacks still gets a logit
        train, val, test = (replace(ds, n_classes=3) for ds in splits)
        test = replace(test, examples=test.examples + [
            Example(label=2, text=test.examples[0].text)])
        cells = run_grid(tiny_model_config, tiny_recipe(), vocab, train,
                         val, test, lrs=(5e-4,), xis=(1.0,))
        assert math.isfinite(cells[0].test_error)
        curves = run_lr_sweep(tiny_model_config, tiny_recipe(), vocab,
                              train, val, test, lrs=(5e-4,))
        assert len(curves[5e-4]["epochs"]) == 2

    def test_lr_sweep_curves(self, tiny_model_config, vocab, splits,
                             tmp_path):
        train, val, test = splits
        out = tmp_path / "sweep.jsonl"
        curves = run_lr_sweep(tiny_model_config, tiny_recipe(), vocab,
                              train, val, test, lrs=(5e-4, 1e-4),
                              out_jsonl=out)
        assert set(curves) == {5e-4, 1e-4}
        for lr, curve in curves.items():
            assert not curve["diverged"]
            assert len(curve["epochs"]) == 2
            assert all({"train_error", "test_error"} <= set(rec)
                       for rec in curve["epochs"])
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 4

    def test_write_grid_tsv_formats(self, tmp_path):
        cells = [GridCell(2e-5, 0.95, 6.25, 7.5, False),
                 GridCell(4e-4, 1.0, None, None, True)]
        path = tmp_path / "g.tsv"
        write_grid_tsv(cells, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "2e-05\t0.95\t6.2500\t7.5000"
        assert lines[2] == "0.0004\t1\tdiverged\tdiverged"


class TestCli:
    def test_build_vocab(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("aaab aaab ab\n", encoding="utf-8")
        out = tmp_path / "v.txt"
        assert main(["build-vocab", "--corpus", str(corpus),
                     "--size", "10", "--out", str(out)]) == 0
        tokens = out.read_text().splitlines()
        assert tokens[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert len(tokens) == 10

    def test_build_vocab_size_below_reserved_rejected(self, tmp_path,
                                                      capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("aaab aaab ab\n", encoding="utf-8")
        out = tmp_path / "v.txt"
        assert main(["build-vocab", "--corpus", str(corpus),
                     "--size", "3", "--out", str(out)]) == 2
        assert "--size" in capsys.readouterr().err
        assert not out.exists()

    def test_build_vocab_missing_corpus_rejected(self, tmp_path, capsys):
        corpus, out = tmp_path / "c.txt", tmp_path / "v.txt"
        assert main(["build-vocab", "--corpus", str(corpus),
                     "--size", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"build-vocab: {corpus}: cannot open corpus: "
            "No such file or directory\n")
        assert not out.exists()

    def test_subsample(self, workspace, tmp_path, capsys):
        root, raw = workspace
        out = tmp_path / "sub.csv"
        assert main(["--seed", "0", "subsample",
                     "--data", raw["data"]["train"],
                     "--proportion", "0.2", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 12

    @pytest.mark.parametrize("flag,value", [("--format", "tsv"),
                                            ("--proportion", "1.5"),
                                            ("--proportion", "0")])
    def test_subsample_bad_flag_rejected(self, workspace, tmp_path, capsys,
                                         flag, value):
        root, raw = workspace
        out = tmp_path / "sub.csv"
        argv = ["subsample", "--data", raw["data"]["train"],
                "--proportion", "0.5", "--out", str(out), flag, value]
        try:
            code = main(argv)
        except SystemExit as e:     # argparse rejects a choice
            code = e.code
        assert code == 2 and not out.exists()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("bertfit subsample: error: argument --format"
                               if flag == "--format" else "subsample: --")
        assert flag in last and value in last

    @staticmethod
    def _rejected_output(command, flag, value, tmp_path, capsys):
        """Run `command` with `flag` set to `value` and no input at all
        (the outputs are checked before any read); assert exit 2 and no
        stdout, and return stderr."""
        absent = tmp_path / "absent"
        argv = {"build-vocab": ["build-vocab", "--corpus", str(absent),
                                "--out", "v.txt"],
                "subsample": ["subsample", "--data", str(absent),
                              "--proportion", "0.5", "--out", "s.csv"]}.get(
            command) or command_argv(command, absent, tmp_path)
        argv[argv.index(flag) + 1] = str(value)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        return err

    @pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
    def test_output_in_missing_directory_rejected(self, tmp_path, capsys,
                                                  command, flag):
        missing = tmp_path / "missing"
        err = self._rejected_output(command, flag, missing / "out", tmp_path,
                                    capsys)
        assert not list(tmp_path.iterdir())
        assert err == f"{command}: {missing / 'out'}: no directory {missing}\n"

    @pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
    def test_output_that_is_a_directory_rejected(self, tmp_path, capsys,
                                                 command, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        err = self._rejected_output(command, flag, folder, tmp_path, capsys)
        assert list(tmp_path.iterdir()) == [folder]
        assert not list(folder.iterdir())
        assert err == f"{command}: {folder}: is a directory\n"

    @pytest.mark.parametrize("command,first,second", [
        ("finetune", "--metrics-out", "--checkpoint-out"),
        ("grid", "--out", "--lr-sweep")])
    def test_one_file_named_by_two_outputs_rejected(
            self, tmp_path, capsys, monkeypatch, command, first, second):
        # a relative and an absolute path to one file: the later write
        # would replace the earlier one
        monkeypatch.chdir(tmp_path)
        same = tmp_path / "same"
        argv = command_argv(command, tmp_path / "absent", tmp_path)
        argv[argv.index(first) + 1] = "same"
        argv[argv.index(second) + 1] = str(same)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and not list(tmp_path.iterdir())
        assert err == f"{command}: {same}: named by both {first} and {second}\n"

    def test_lr_sweep_onto_the_default_grid_report_rejected(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["grid", "--config", str(tmp_path / "absent"),
                     "--lr-sweep", "grid_report.tsv"]) == 2
        out, err = capsys.readouterr()
        assert not out and not list(tmp_path.iterdir())
        assert err == ("grid: grid_report.tsv: named by both --out and "
                       "--lr-sweep\n")

    def test_pretrain_out_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("kept\n")
        err = self._rejected_output("pretrain", "--out-dir", target, tmp_path,
                                    capsys)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "kept\n"
        assert err == f"pretrain: {target}: not a directory\n"

    def test_finetune_writes_artifacts(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        metrics = tmp_path / "metrics.jsonl"
        ckpt = tmp_path / "model.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--metrics-out", str(metrics),
                     "--checkpoint-out", str(ckpt)]) == 0
        assert "best val error" in capsys.readouterr().out
        assert metrics.exists() and ckpt.exists()
        records = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert any(r["split"] == "test" for r in records)

    def test_eval_round_trip(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        ckpt = tmp_path / "model.ckpt"
        main(["finetune", "--config", cfg, "--checkpoint-out", str(ckpt)])
        capsys.readouterr()
        assert main(["eval", "--config", cfg,
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "error" in out and "test" in out

    @pytest.mark.parametrize("long_text",
                             ["hier_mean", "hier_max", "hier_attn"])
    def test_eval_reproduces_hierarchical_finetune(self, workspace, tmp_path,
                                                   capsys, long_text):
        root, raw = workspace
        recipe = {**raw["recipe"], "long_text": long_text, "max_len": 10}
        cfg = write_config(root, raw, name="hier_eval.json", recipe=recipe)
        ckpt = tmp_path / "hier.ckpt"
        capsys.readouterr()
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        tuned = re.search(r"test error (\S+)%", capsys.readouterr().out)
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 0
        scored = re.search(r"error (\S+)%", capsys.readouterr().out)
        assert tuned and scored and tuned.group(1) == scored.group(1)

    def test_eval_checks_combiner_kind(self, workspace, tmp_path, capsys):
        root, raw = workspace

        def config(long_text):
            return write_config(root, raw, name=f"{long_text}.json",
                                recipe={**raw["recipe"], "max_len": 10,
                                        "long_text": long_text})
        ckpt = tmp_path / "attn.ckpt"
        assert main(["finetune", "--config", config("hier_attn"),
                     "--checkpoint-out", str(ckpt)]) == 0
        assert load_checkpoint(ckpt)[0]["combiner"] == "attn"
        for other, named in (("head_tail", "None"), ("hier_mean", "'mean'")):
            capsys.readouterr()
            assert main(["eval", "--config", config(other),
                         "--checkpoint", str(ckpt)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("eval: ")
            assert "combiner 'attn'" in err and f"config's {named}" in err
        # a checkpoint without the key still loads
        meta, tensors = load_checkpoint(ckpt)
        del meta["combiner"]
        save_checkpoint(ckpt, tensors, meta=meta)
        assert main(["eval", "--config", config("hier_mean"),
                     "--checkpoint", str(ckpt)]) == 0

    def test_eval_checks_vocab_hash(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        ckpt = tmp_path / "model.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        vocab = Vocabulary.load(raw["vocab"])
        other = Vocabulary(RESERVED + vocab.id_to_token[len(RESERVED):][::-1])
        other.save(tmp_path / "other.txt")
        other_cfg = write_config(root, raw, name="other_vocab.json",
                                 vocab=str(tmp_path / "other.txt"))
        capsys.readouterr()
        assert main(["eval", "--config", other_cfg,
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert vocab.content_hash() in err and other.content_hash() in err
        # a checkpoint without the key still loads
        meta, tensors = load_checkpoint(ckpt)
        del meta["vocab_hash"]
        save_checkpoint(ckpt, tensors, meta=meta)
        assert main(["eval", "--config", other_cfg,
                     "--checkpoint", str(ckpt)]) == 0

    def test_eval_rejects_classifier_width_mismatch(self, workspace,
                                                    tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        ckpt = tmp_path / "model.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        meta, tensors = load_checkpoint(ckpt)
        tensors["classifier.W"] = np.zeros((32, 2), np.float32)
        save_checkpoint(ckpt, tensors, meta=meta)
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eval: ") and "'classifier.W'" in err
        assert "(32, 2)" in err and "(16, 2)" in err

    @pytest.mark.parametrize("change", ["missing", "shape"])
    def test_init_checkpoint_tensor_mismatch(self, workspace, tmp_path,
                                             capsys, change):
        root, raw = workspace
        ckpt = tmp_path / "init.ckpt"
        assert main(["finetune", "--config", write_config(root, raw),
                     "--checkpoint-out", str(ckpt)]) == 0
        meta, tensors = load_checkpoint(ckpt)
        if change == "missing":
            del tensors["block0.wq"]
        else:
            tensors["block0.wq"] = np.zeros((8, 8), np.float32)
        save_checkpoint(ckpt, tensors, meta=meta)
        cfg = write_config(root, raw, name="init.json",
                           init_checkpoint=str(ckpt))
        metrics = tmp_path / "m.jsonl"
        capsys.readouterr()
        assert main(["finetune", "--config", cfg,
                     "--metrics-out", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("finetune: ") and "'block0.wq'" in err
        assert not metrics.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_checkpoint_rejected(self, workspace, tmp_path,
                                            capsys, bad):
        root, raw = workspace
        ckpt = tmp_path / "nan.ckpt"
        assert main(["finetune", "--config", write_config(root, raw),
                     "--checkpoint-out", str(ckpt)]) == 0
        meta, tensors = load_checkpoint(ckpt)
        tensors["emb.tok"][3, 1] = bad
        save_checkpoint(ckpt, tensors, meta=meta)
        cfg = write_config(root, raw, name="nan_init.json",
                           init_checkpoint=str(ckpt))
        metrics = tmp_path / "m.jsonl"
        for argv in (["eval", "--config", write_config(root, raw),
                      "--checkpoint", str(ckpt)],
                     ["finetune", "--config", cfg,
                      "--metrics-out", str(metrics)]):
            capsys.readouterr()
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"{argv[0]}: {ckpt}: checkpoint tensor 'emb.tok' holds a "
                f"NaN or inf\n")
        assert not metrics.exists()

    def test_eval_of_weights_that_overflow_exits_2(self, workspace, tmp_path,
                                                   capsys):
        # every value is finite, so `install` takes the file; scoring it
        # overflows, which `eval` reports in one line and no warning
        root, raw = workspace
        cfg = write_config(root, raw)
        ckpt = tmp_path / "big.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        scale_checkpoint(ckpt, 1e30)
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"eval: {ckpt}: scoring marker test met "
                                     "a non-finite value\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # training's
    @settings(derandomize=True, max_examples=24, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lr=st.sampled_from([5e-4, 1.0, 1e30,
                               float(np.finfo(np.float32).max)]),
           every_step=st.booleans(),
           corruption=st.sampled_from([None, "truncate", "scale"]))
    def test_finetune_then_eval_never_raises(self, workspace, tmp_path,
                                             capsys, lr, every_step,
                                             corruption):
        """At any rate, `finetune` exits 0, writing a checkpoint unless it
        diverged before a round was kept; that checkpoint, cut short or
        scaled by 1e30, or neither, `eval` scores or rejects with exit 2
        and one stderr line naming it."""
        root, raw = workspace
        recipe = raw["recipe"]
        cfg = write_config(tmp_path, raw, recipe={
            **recipe, "base_lr": lr,
            "epochs": recipe["train_steps"] if every_step else 1})
        ckpt = tmp_path / "m.ckpt"
        ckpt.unlink(missing_ok=True)
        capsys.readouterr()
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        if capsys.readouterr().out.endswith(", no checkpoint written\n"):
            assert not ckpt.exists()
            return
        if corruption == "truncate":
            ckpt.write_bytes(ckpt.read_bytes()[:-5])
        elif corruption == "scale":
            scale_checkpoint(ckpt, 1e30)
        code = main(["eval", "--config", cfg, "--checkpoint", str(ckpt)])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
        else:
            assert code == 2 and out == ""
            assert err.startswith(f"eval: {ckpt}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tokens, reason", [
        (["a", "b"], "reserved token [PAD] must have id 0"),
        (RESERVED + ["alpha", "alpha"], "duplicate tokens in vocabulary")])
    def test_malformed_vocabulary_rejected(self, workspace, tmp_path, capsys,
                                           tokens, reason):
        root, raw = workspace
        path = tmp_path / "bad_vocab.txt"
        path.write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
        cfg = write_config(root, raw, name="bad_vocab.json", vocab=str(path))
        capsys.readouterr()
        assert main(["finetune", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"finetune: {path}: {reason}\n"

    def test_init_checkpoint_checks_vocab_hash(self, workspace, tmp_path,
                                               capsys):
        root, raw = workspace
        ckpt = tmp_path / "init.ckpt"
        assert main(["finetune", "--config", write_config(root, raw),
                     "--checkpoint-out", str(ckpt)]) == 0
        meta, tensors = load_checkpoint(ckpt)
        save_checkpoint(ckpt, tensors, meta={**meta, "vocab_hash": "0" * 8})
        cfg = write_config(root, raw, name="init_vocab.json",
                           init_checkpoint=str(ckpt))
        capsys.readouterr()
        assert main(["finetune", "--config", cfg]) == 2
        err = capsys.readouterr().err
        vocab_hash = Vocabulary.load(raw["vocab"]).content_hash()
        assert "0" * 8 in err and vocab_hash in err

    @pytest.mark.parametrize("field,saved,model", [("n_layers", 3, 2),
                                                   ("n_heads", 4, 2)])
    def test_checkpoint_config_mismatch_rejected(self, workspace, tmp_path,
                                                 capsys, field, saved, model):
        root, raw = workspace
        ckpt = tmp_path / "other.ckpt"
        src = write_config(root, raw, name="src_arch.json",
                           model={**raw["model"], field: saved})
        assert main(["finetune", "--config", src,
                     "--checkpoint-out", str(ckpt)]) == 0
        dst_model = {**raw["model"], field: model}
        init_cfg = write_config(root, raw, name="init_arch.json",
                                model=dst_model, init_checkpoint=str(ckpt))
        eval_cfg = write_config(root, raw, name="eval_arch.json",
                                model=dst_model)
        runs = (["finetune", "--config", init_cfg],
                ["eval", "--config", eval_cfg, "--checkpoint", str(ckpt)])
        for argv in runs:
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]}: ")
            assert f"{field} {saved}" in err and f"model's {model}" in err
        # a checkpoint without the config meta still loads
        meta, tensors = load_checkpoint(ckpt)
        del meta["config"]
        save_checkpoint(ckpt, tensors, meta=meta)
        for argv in runs:
            assert main(argv) == 0

    def test_init_checkpoint_hands_off_pretrained_encoder(
            self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw, name="pt_init.json",
                           pretrain={"corpus": str(root / "corpus.txt"),
                                     "steps": 2, "lr": 1e-3,
                                     "batch_size": 4, "max_len": 16})
        assert main(["pretrain", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        init = tmp_path / "pretrain_step2.ckpt"
        # rate 0: fine-tuning leaves the loaded encoder as it was
        cfg = write_config(root, raw, name="ft_init.json",
                           init_checkpoint=str(init),
                           recipe={**raw["recipe"], "base_lr": 0.0})
        out = tmp_path / "ft.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(out)]) == 0
        _, pretrained = load_checkpoint(init)
        _, finetuned = load_checkpoint(out)
        for name, arr in pretrained.items():
            assert finetuned[name].tobytes() == arr.tobytes(), name

    def test_hier_attn_checkpoint_holds_combiner(self, workspace, tmp_path,
                                                 capsys):
        root, raw = workspace
        recipe = {**raw["recipe"], "long_text": "hier_attn", "max_len": 10}
        cfg = write_config(root, raw, name="hier_ckpt.json", recipe=recipe)
        ckpt = tmp_path / "hier.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        _, tensors = load_checkpoint(ckpt)
        assert list(tensors)[-5:] == ["classifier.W", "classifier.b",
                                      "combiner.q", "combiner.wk",
                                      "combiner.wv"]
        assert tensors["combiner.wk"].shape == (16, 16)

    def test_pretrain_smoke(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw, name="pt.json",
                           pretrain={"corpus": str(root / "corpus.txt"),
                                     "steps": 4, "lr": 1e-4,
                                     "batch_size": 4, "max_len": 16,
                                     "checkpoint_every": 2})
        assert main(["pretrain", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "pretrain_step4.ckpt").exists()
        assert "final loss" in capsys.readouterr().out

    @pytest.mark.parametrize("long_text", ["head_only", "hier_attn"])
    def test_pretrain_starts_from_seeded_init(self, workspace, tmp_path,
                                              monkeypatch, long_text):
        # pre-training starts from the encoder every run starts from,
        # init_model from Rng(recipe.seed).at(0, INIT), whatever the route
        root, raw = workspace
        starts = spy_starts(monkeypatch, "pretrain")
        cfg = write_config(root, raw, name=f"pt_init_{long_text}.json",
                           recipe={**raw["recipe"], "long_text": long_text,
                                   "seed": 5},
                           pretrain={"corpus": str(root / "corpus.txt"),
                                     "steps": 1, "batch_size": 2,
                                     "max_len": 16})
        assert main(["pretrain", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        want = init_model(ExperimentConfig.from_dict(raw).model,
                          Rng(5).at(0, INIT))
        assert starts == [{n: p.data.tobytes()
                           for n, p in named_tensors(want).items()}]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pretrain_divergence_reported(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw, name="pt_nan.json",
                           pretrain={"corpus": str(root / "corpus.txt"),
                                     "steps": 4, "lr": 1e30,
                                     "batch_size": 4, "max_len": 16})
        assert main(["pretrain", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        assert "diverged" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finetune_divergence_at_a_round_reported(self, workspace,
                                                     tmp_path, capsys):
        # a round every step, so a round meets the blown-up weights
        root, raw = workspace
        cfg = write_config(tmp_path, raw,
                           recipe={**raw["recipe"], "base_lr": 1e30,
                                   "epochs": raw["recipe"]["train_steps"]})
        assert main(["finetune", "--config", cfg]) == 0
        assert capsys.readouterr().out == "finetune [marker]: diverged\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("epochs", [2, 10])
    def test_finetune_diverged_before_a_round_writes_no_checkpoint(
            self, workspace, tmp_path, capsys, epochs):
        root, raw = workspace
        cfg = write_config(tmp_path, raw, recipe={**raw["recipe"],
                                                  "base_lr": 1e30,
                                                  "epochs": epochs})
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        assert capsys.readouterr().out == \
            "finetune [marker]: diverged, no checkpoint written\n"
        assert not ckpt.exists()

    def test_finetune_diverged_after_a_round_saves_it(
            self, workspace, tmp_path, monkeypatch, capsys):
        # a round every step and step 3 diverges: rounds 1 and 2 were kept,
        # and the checkpoint holds the better one, which `eval` scores
        root, raw = workspace
        step, calls = training.train_step, []

        def diverging_step(*args):
            calls.append(0)
            if len(calls) == 3:
                raise ad.NumericalError("forced")
            return step(*args)
        monkeypatch.setattr(training, "train_step", diverging_step)
        cfg = write_config(tmp_path, raw, recipe={**raw["recipe"],
                                                  "epochs": 10})
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["finetune", "--config", cfg,
                     "--checkpoint-out", str(ckpt)]) == 0
        assert capsys.readouterr().out == "finetune [marker]: diverged\n"
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("refine, scores", [
        ({}, ["  a: diverged", "  b: diverged"]),
        ({"refine_steps": 2}, ["  a: refinement diverged",
                               "  b: refinement diverged",
                               "  b: diverged"])])      # b's test file
    def test_multitask_divergence_reported(self, workspace, tmp_path,
                                           capsys, refine, scores):
        root, raw = workspace
        cfg = write_config(tmp_path, raw,
                           recipe={**raw["recipe"], "base_lr": 1e30},
                           multitask={**two_tasks(raw), **refine})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" (diverged)")
        assert lines[1:] == scores

    def test_pretrain_zero_steps_rejected(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw, name="pt_zero.json",
                           pretrain={"corpus": str(root / "corpus.txt"),
                                     "steps": 0})
        assert main(["pretrain", "--config", cfg,
                     "--out-dir", str(tmp_path)]) != 0
        assert "pretrain.steps" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_finetune_hierarchical_with_multi_layer_selection(
            self, workspace, tmp_path, capsys):
        # the hierarchical route pools top [CLS] vectors, so the head width
        # is H even when the configured selection would concat L layers
        root, raw = workspace
        model = {**raw["model"], "n_layers": 2, "hidden": 16}
        recipe = {**raw["recipe"], "long_text": "hier_mean", "max_len": 10,
                  "layer_selection": {"strategy": "all", "layer": -1,
                                      "combiner": "concat"}}
        cfg = write_config(root, raw, name="hier.json", model=model,
                           recipe=recipe)
        assert main(["finetune", "--config", cfg]) == 0
        assert "best val error" in capsys.readouterr().out

    def test_multitask_smoke(self, workspace, tmp_path, capsys):
        root, raw = workspace
        tasks = [{"name": "a", "train": raw["data"]["train"],
                  "n_classes": 2},
                 {"name": "b", "train": raw["data"]["test"],
                  "n_classes": 2}]
        cfg = write_config(root, raw, name="mt.json",
                           multitask={"tasks": tasks})
        assert main(["multitask", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "steps per task" in out
        assert out.count("val error") == 2

    def test_multitask_zero_base_rate_refines(self, workspace, tmp_path,
                                              monkeypatch, capsys):
        # rate 0 is a run that leaves the model as it is, refinement too
        root, raw = workspace
        starts, refined = spy_starts(monkeypatch, "multitask"), []
        refine = multitask.per_task_refine

        def spy(mt, *args):
            res = refine(mt, *args)
            refined.append({n: p.data.tobytes()
                            for n, p in named_tensors(mt.encoder).items()})
            return res
        monkeypatch.setattr(multitask, "per_task_refine", spy)
        cfg = write_config(tmp_path, raw,
                           recipe={**raw["recipe"], "base_lr": 0.0},
                           multitask={**two_tasks(raw), "refine_steps": 1})
        assert main(["multitask", "--config", cfg]) == 0
        assert "diverged" not in capsys.readouterr().out
        assert len(refined) == 2
        for encoder in refined:
            assert encoder == {n: starts[0][n] for n in encoder}

    @pytest.mark.parametrize("long_text", ["head_only", "hier_attn"])
    def test_multitask_each_task_refines_from_the_multitask_model(
            self, workspace, tmp_path, monkeypatch, capsys, long_text):
        # every task's refinement starts from the encoder and combiner that
        # multi-task training left, and the task is scored with the
        # weights its own refinement left: its validation error is the
        # refinement's round on them, its test error is scored after
        root, raw = workspace
        train, refine = multitask.multitask_finetune, multitask.per_task_refine
        evaluate = training.evaluate
        trained, entered, refined, refining = [], {}, {}, []
        scored, rounds = [], []

        def weights(encoder, combiner):
            return {n: p.data.tobytes()
                    for n, p in named_tensors(encoder, [combiner]).items()}

        def spy_train(mt, *args, **kw):
            res = train(mt, *args, **kw)
            trained.append(weights(mt.encoder, mt.combiner))
            return res

        def spy_refine(mt, task, *args):
            entered[task] = weights(mt.encoder, mt.combiner)
            refining.append(task)
            res = refine(mt, task, *args)
            refining.pop()
            refined[task] = weights(mt.encoder, mt.combiner)
            return res

        def spy_evaluate(model, head, inputs, recipe, combiner=None, **kw):
            res = evaluate(model, head, inputs, recipe, combiner, **kw)
            # a validation round of refinement, or a scoring after it
            (rounds if refining else scored).append(
                (head.W.name, weights(model, combiner), res[0]))
            return res
        monkeypatch.setattr(multitask, "multitask_finetune", spy_train)
        monkeypatch.setattr(multitask, "per_task_refine", spy_refine)
        monkeypatch.setattr(training, "evaluate", spy_evaluate)
        recipe = {**raw["recipe"], "long_text": long_text, "max_len": 10}
        cfg = write_config(tmp_path, raw, recipe=recipe,
                           multitask={**two_tasks(raw), "refine_steps": 2})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert entered == {"a": trained[0], "b": trained[0]}
        assert trained[0] != refined["a"] != refined["b"] != trained[0]
        assert [(n, w) for n, w, _ in scored] == [
            ("task.b.W", refined["b"])]                     # b: test
        for task in "ab":
            err = next(e for n, w, e in rounds
                       if n == f"task.{task}.W" and w == refined[task])
            assert f"  {task}: val error {err:.2f}%\n" in out

    @pytest.mark.parametrize("long_text", ["hier_mean", "hier_attn"])
    def test_multitask_hierarchical(self, workspace, capsys, long_text):
        root, raw = workspace
        tasks = [{"name": "a", "train": raw["data"]["train"],
                  "n_classes": 2},
                 {"name": "b", "train": raw["data"]["test"],
                  "n_classes": 2}]
        recipe = {**raw["recipe"], "long_text": long_text, "max_len": 10}
        cfg = write_config(root, raw, name="hier_mt.json", recipe=recipe,
                           multitask={"tasks": tasks, "refine_steps": 2})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "steps per task" in out and "diverged" not in out
        assert out.count("val error") == 2

    def test_multitask_refinement_scores_validation_once(
            self, workspace, tmp_path, monkeypatch, capsys):
        # `finetune` scores each task's validation set in its epochs; the
        # command reports that and scores no split again (no test files)
        root, raw = workspace
        refine, evaluate = multitask.per_task_refine, training.evaluate
        refining, calls, results = [], [], []

        def spy_refine(*args):
            refining.append(True)
            results.append(refine(*args))
            refining.pop()
            return results[-1]

        def spy_evaluate(*args, **kw):
            calls.append(bool(refining))
            return evaluate(*args, **kw)
        monkeypatch.setattr(multitask, "per_task_refine", spy_refine)
        monkeypatch.setattr(training, "evaluate", spy_evaluate)
        tasks = [{k: v for k, v in t.items() if k != "test"}
                 for t in two_tasks(raw)["tasks"]]
        cfg = write_config(tmp_path, raw,
                           multitask={"tasks": tasks, "refine_steps": 2})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert calls and all(calls)
        assert lines == [f"  {t}: val error {r.best_val_error:.2f}%"
                         for t, r in zip("ab", results)]

    def test_multitask_reports_a_diverged_refinement(
            self, workspace, tmp_path, monkeypatch, capsys):
        root, raw = workspace
        refine, step = multitask.per_task_refine, training.train_step
        refining = []

        def spy_refine(*args):
            refining.append(0)
            try:
                return refine(*args)
            finally:
                refining.pop()

        def diverging_step(*args):      # each refinement's second step
            if refining:
                refining[-1] += 1
                if refining[-1] == 2:
                    raise ad.NumericalError("forced")
            return step(*args)
        monkeypatch.setattr(multitask, "per_task_refine", spy_refine)
        monkeypatch.setattr(training, "train_step", diverging_step)
        tasks = [{k: v for k, v in t.items() if k != "test"}
                 for t in two_tasks(raw)["tasks"]]
        cfg = write_config(tmp_path, raw,
                           multitask={"tasks": tasks, "refine_steps": 2})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "diverged" not in lines[0]
        assert [l.split(": val error ")[0] for l in lines[1:]] == \
            ["  a", "  b"]
        assert all(l.endswith("% (refinement diverged)") for l in lines[1:])

    def test_multitask_refinement_diverged_before_scoring(
            self, workspace, tmp_path, monkeypatch, capsys):
        # a refinement that diverges before its first validation round has
        # no error rate: the command says so instead of printing "inf%"
        root, raw = workspace
        refine = multitask.per_task_refine

        def spy_refine(*args):
            res = refine(*args)
            if args[1] == "a":
                return replace(res, best_val_error=math.inf, best_epoch=-1,
                               history=[], diverged=True)
            return replace(res, diverged=True)
        monkeypatch.setattr(multitask, "per_task_refine", spy_refine)
        tasks = [{k: v for k, v in t.items() if k != "test"}
                 for t in two_tasks(raw)["tasks"]]
        cfg = write_config(tmp_path, raw,
                           multitask={"tasks": tasks, "refine_steps": 2})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "inf" not in "".join(lines)
        assert lines[1] == "  a: refinement diverged"
        assert re.fullmatch(r"  b: val error \d+\.\d\d% "
                            r"\(refinement diverged\)", lines[2])

    def test_grid_command(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw, name="grid.json",
                           grid={"lrs": [5e-4], "decay_factors": [1.0, 0.9],
                                 "sweep_lrs": [5e-4]})
        tsv = tmp_path / "report.tsv"
        jl = tmp_path / "sweep.jsonl"
        assert main(["grid", "--config", cfg, "--out", str(tsv),
                     "--lr-sweep", str(jl)]) == 0
        assert len(tsv.read_text().splitlines()) == 3
        assert jl.exists()

    @pytest.mark.parametrize("long_text", ["hier_mean", "hier_attn"])
    def test_grid_hierarchical(self, workspace, tmp_path, capsys, long_text):
        root, raw = workspace
        recipe = {**raw["recipe"], "long_text": long_text, "max_len": 10}
        cfg = write_config(root, raw, name="hier_grid.json", recipe=recipe,
                           grid={"lrs": [5e-4], "decay_factors": [1.0],
                                 "sweep_lrs": [5e-4]})
        tsv = tmp_path / "report.tsv"
        jl = tmp_path / "sweep.jsonl"
        assert main(["grid", "--config", cfg, "--out", str(tsv),
                     "--lr-sweep", str(jl)]) == 0
        rows = tsv.read_text().splitlines()
        assert len(rows) == 2 and "diverged" not in rows[1]
        records = [json.loads(l) for l in jl.read_text().splitlines()]
        assert len(records) == 2
        assert not any(r.get("diverged") for r in records)

    def test_seed_override(self, workspace, tmp_path, capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        outs = []
        for seed in ("1", "2"):
            metrics = tmp_path / f"m{seed}.jsonl"
            main(["--seed", seed, "finetune", "--config", cfg,
                  "--metrics-out", str(metrics)])
            outs.append(metrics.read_text())
        assert outs[0] != outs[1]

    def test_strict_deterministic_byte_identical(self, workspace, tmp_path,
                                                 capsys):
        root, raw = workspace
        cfg = write_config(root, raw)
        blobs = []
        for tag in ("r1", "r2"):
            metrics = tmp_path / f"{tag}.jsonl"
            ckpt = tmp_path / f"{tag}.ckpt"
            main(["--strict-deterministic", "finetune", "--config", cfg,
                  "--metrics-out", str(metrics),
                  "--checkpoint-out", str(ckpt)])
            blobs.append((metrics.read_bytes(), ckpt.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_grid_lr_sweep_needs_data_test(self, workspace, tmp_path,
                                           capsys):
        root, raw = workspace
        data = {k: v for k, v in raw["data"].items() if k != "test"}
        cfg = write_config(root, raw, name="no_test.json", data=data)
        tsv = tmp_path / "report.tsv"
        assert main(["grid", "--config", cfg, "--out", str(tsv),
                     "--lr-sweep", str(tmp_path / "sweep.jsonl")]) == 2
        assert "data.test" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_multitask_reports_task_test_error(self, workspace, capsys):
        root, raw = workspace
        tasks = [{"name": "a", "train": raw["data"]["train"],
                  "test": raw["data"]["test"], "n_classes": 2},
                 {"name": "b", "train": raw["data"]["test"],
                  "test": raw["data"]["train"], "n_classes": 2}]
        cfg = write_config(root, raw, name="mt_test.json",
                           multitask={"tasks": tasks})
        capsys.readouterr()
        assert main(["multitask", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [l.split(" error ")[0].strip() for l in lines] == [
            "a: val", "a: test", "b: val", "b: test"]

    @pytest.mark.parametrize("proportion", [1.0, 0.5])
    @pytest.mark.parametrize("command", ["grid", "multitask"])
    def test_few_shot_proportion_honoured(self, workspace, tmp_path,
                                          monkeypatch, capsys, command,
                                          proportion):
        # every labelled section is subsampled before its validation split
        splits = spy_splits(monkeypatch)
        monkeypatch.setattr("bertfit.grid.run_grid", lambda *a, **kw: [])
        root, raw = workspace
        cfg = write_config(tmp_path, raw, few_shot_proportion=proportion,
                           multitask=two_tasks(raw))
        out = ["--out", str(tmp_path / "g.tsv")] if command == "grid" else []
        assert main([command, "--config", cfg, *out]) == 0
        full = {"grid": [60], "multitask": [60, 20]}[command]
        assert [n for n, _ in splits] == [round(proportion * n)
                                         for n in full]

    def test_grid_cell_starts_as_finetune(self, workspace, tmp_path,
                                          monkeypatch, capsys):
        # with a data seed apart from the run seed, the grid cell at the
        # config's own rate and decay factor starts where finetune does
        root, raw = workspace
        recipe = raw["recipe"]
        cfg = write_config(tmp_path, raw, seed=7, recipe={**recipe, "seed": 0},
                           grid={"lrs": [recipe["base_lr"]],
                                 "decay_factors": [recipe["decay_factor"]]})
        starts = {c: spy_starts(monkeypatch, c) for c in ("finetune", "grid")}
        assert main(["finetune", "--config", cfg]) == 0
        assert main(["grid", "--config", cfg,
                     "--out", str(tmp_path / "g.tsv")]) == 0
        assert len(starts["grid"]) == 1
        assert starts["finetune"] == starts["grid"]

    @pytest.mark.parametrize("command", ["finetune", "multitask"])
    def test_seed_draws_splits_and_recipe_seed_the_run(
            self, workspace, tmp_path, monkeypatch, capsys, command):
        root, raw = workspace
        splits = spy_splits(monkeypatch)
        starts = spy_starts(monkeypatch, command)
        runs = {}
        for name, seed, run_seed in (("base", 0, 0), ("data", 7, 0),
                                     ("run", 0, 7)):
            cfg = write_config(tmp_path, raw, name=f"{name}.json", seed=seed,
                               recipe={**raw["recipe"], "seed": run_seed},
                               multitask=two_tasks(raw))
            n = len(splits)
            assert main([command, "--config", cfg]) == 0
            runs[name] = (splits[n:], starts[-1])
        assert runs["data"][0] != runs["base"][0]
        assert runs["data"][1] == runs["base"][1]
        assert runs["run"][0] == runs["base"][0]
        assert runs["run"][1] != runs["base"][1]

    @pytest.fixture(scope="class")
    def chain(self, workspace, tmp_path_factory):
        """(config with every section, the checkpoint of a 2-step `pretrain`
        run on it): the first stage of the paper's recipe chain."""
        root, raw = workspace
        raw = {**raw, "pretrain": {"corpus": str(root / "corpus.txt"),
                                   "steps": 2, "lr": 1e-3, "batch_size": 4,
                                   "max_len": 16},
               "multitask": {**two_tasks(raw), "refine_steps": 2},
               "grid": {"lrs": [5e-4], "decay_factors": [1.0, 0.9],
                        "sweep_lrs": [5e-4]}}
        out = tmp_path_factory.mktemp("chain")
        assert main(["pretrain", "--config", write_config(out, raw),
                     "--out-dir", str(out)]) == 0
        return raw, out / "pretrain_step2.ckpt"

    @pytest.mark.parametrize("command", ["finetune", "pretrain", "multitask",
                                         "grid"])
    def test_init_checkpoint_installed(self, chain, tmp_path, monkeypatch,
                                       capsys, command):
        # pre-training hands its encoder to the next stage: every run of
        # `command` (each grid cell) starts from the checkpoint's tensors,
        # and two strict runs print the same
        raw, ckpt = chain
        starts = spy_starts(monkeypatch, command)
        cfg = write_config(tmp_path, raw, init_checkpoint=str(ckpt))
        outs = []
        for run in ("r1", "r2"):
            (tmp_path / run).mkdir()
            capsys.readouterr()
            assert main(["--strict-deterministic", *command_argv(
                command, cfg, tmp_path / run)]) == 0
            outs.append(capsys.readouterr().out.replace(run, "run"))
        assert outs[0] == outs[1] and "diverged" not in outs[0]
        _, saved = load_checkpoint(ckpt)
        # a grid run trains two cells and one lr-sweep run
        assert len(starts) == {"grid": 3}.get(command, 1) * 2
        for start in starts:
            assert {n: start[n] for n in saved} == {
                n: a.tobytes() for n, a in saved.items()}

    def test_pretrain_continues_from_init_checkpoint(self, chain, tmp_path,
                                                     capsys):
        raw, ckpt = chain
        for name, init in (("fresh", {}), ("cont", {"init_checkpoint":
                                                     str(ckpt)})):
            cfg = write_config(tmp_path, raw, name=f"{name}.json", **init)
            assert main(["--strict-deterministic", "pretrain", "--config",
                         cfg, "--out-dir", str(tmp_path / name)]) == 0
        fresh, cont = (tmp_path / d / "pretrain_step2.ckpt"
                       for d in ("fresh", "cont"))
        assert fresh.read_bytes() == ckpt.read_bytes()
        assert cont.read_bytes() != fresh.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_checkpoint_n_layers_mismatch_rejected(self, chain, tmp_path,
                                                   command):
        raw, ckpt = chain
        bad = {**raw, "model": {**raw["model"], "n_layers": 2},
               "init_checkpoint": str(ckpt)}
        assert run_rejected(command, bad, tmp_path, about=ckpt,
                            checkpoint=ckpt) == \
            "checkpoint config n_layers 1 does not match the model's 2"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("damage", ["truncated", "missing"])
    def test_unreadable_checkpoint_rejected(self, chain, tmp_path, command,
                                            damage):
        raw, ckpt = chain
        bad_ckpt = tmp_path / "bad.ckpt"
        if damage == "truncated":
            bad_ckpt.write_bytes(ckpt.read_bytes()[:-100])
        line = run_rejected(command, {**raw, "init_checkpoint": str(bad_ckpt)},
                            tmp_path, about=bad_ckpt, checkpoint=bad_ckpt)
        assert line == (
            "checkpoint tensor 'head.nsp_w' is cut short: 36 of 128 bytes"
            if damage == "truncated" else
            "cannot open checkpoint: No such file or directory")

    @pytest.mark.parametrize("command,key", [
        *((c, ("vocab",)) for c in COMMANDS),
        ("finetune", ("data", "train")), ("eval", ("data", "train")),
        ("grid", ("data", "test")), ("pretrain", ("pretrain", "corpus")),
        ("multitask", ("multitask", "tasks", 0, "train")),
        ("multitask", ("multitask", "tasks", 1, "test"))], ids=key_id)
    def test_missing_input_rejected(self, chain, tmp_path, command, key):
        raw, _ = chain
        missing = tmp_path / "missing"
        bad = edit(raw, key, lambda node, k: node.update({k: str(missing)}))
        what = {"vocab": "vocabulary", "corpus": "corpus"}.get(key[-1],
                                                              "dataset")
        assert run_rejected(command, bad, tmp_path, about=missing) == \
            f"cannot open {what}: No such file or directory"

    @pytest.mark.parametrize("command,key", [
        *((c, ("vocab",)) for c in COMMANDS),
        ("finetune", ("data", "train")), ("eval", ("data", "test")),
        ("grid", ("data", "train")), ("pretrain", ("pretrain", "corpus")),
        ("multitask", ("multitask", "tasks", 1, "test"))], ids=key_id)
    def test_non_utf8_input_rejected(self, chain, tmp_path, command, key):
        raw, _ = chain
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes('"1","caf\xe9 au lait"\n'.encode("latin-1"))
        bad = edit(raw, key, lambda node, k: node.update({k: str(latin1)}))
        what = {"vocab": "vocabulary", "corpus": "corpus"}.get(key[-1],
                                                              "dataset")
        assert run_rejected(command, bad, tmp_path, about=latin1) == \
            f"cannot read {what}: not utf-8 text (invalid continuation byte)"

    @pytest.mark.parametrize("command,key", [
        ("finetune", ("data", "train")), ("eval", ("data", "test")),
        ("grid", ("data", "train")),
        ("multitask", ("multitask", "tasks", 1, "train"))], ids=key_id)
    def test_malformed_dataset_rejected(self, chain, tmp_path, command, key):
        raw, _ = chain
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text('"1","a b"\n"0","c d"\n', encoding="utf-8")
        bad = edit(raw, key, lambda node, k: node.update({k: str(bad_csv)}))
        assert run_rejected(command, bad, tmp_path, about=f"{bad_csv}:2") \
            == "label must be >= 1 (1-based)"

    @pytest.mark.parametrize("command", ["finetune", "grid", "multitask"])
    def test_few_shot_class_too_small_to_split_rejected(self, chain, tmp_path,
                                                        command):
        # 2% of 30 examples per class keeps one, which cannot be split
        raw, _ = chain
        assert run_rejected(command, {**raw, "few_shot_proportion": 0.02},
                            tmp_path, about=raw["data"]["train"]) == \
            "class 0 has 1 example(s); cannot split"

    @pytest.mark.parametrize("text", ["", "\n\n\n", " \n\t\n"],
                             ids=["empty", "blank", "whitespace"])
    def test_empty_corpus_rejected(self, chain, tmp_path, text):
        # before --out-dir is made, not as a traceback from further_pretrain
        raw, _ = chain
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        bad = edit(raw, ("pretrain", "corpus"),
                   lambda node, k: node.update({k: str(corpus)}))
        assert run_rejected("pretrain", bad, tmp_path, about=corpus) == \
            "no document in corpus"

    @pytest.mark.parametrize("unset", ["absent", "null"])
    def test_pretrain_max_len_default_below_a_pair_rejected(
            self, chain, tmp_path, unset):
        # unset, pretrain.max_len is model.max_positions: the config names
        # that key, before --out-dir is made or a step is built
        raw, _ = chain
        bad = edit(raw, ("pretrain", "max_len"), lambda node, k: (
            node.pop(k) if unset == "absent" else node.update({k: None})))
        bad = edit(bad, ("model", "max_positions"),
                   lambda node, k: node.update({k: 4}))
        assert run_rejected("pretrain", bad, tmp_path) == (
            "model.max_positions must be at least 5 when pretrain.max_len "
            "is unset, got 4")


def command_argv(command, cfg, out, checkpoint=None):
    """argv running `command` on `cfg`, with every output under `out`;
    `eval` scores `checkpoint` (default: the one `finetune` writes)."""
    extra = {"finetune": ["--metrics-out", str(out / "m.jsonl"),
                          "--checkpoint-out", str(out / "m.ckpt")],
             "pretrain": ["--out-dir", str(out / "pt")],
             "multitask": [],
             "eval": ["--checkpoint", str(checkpoint or out / "m.ckpt")],
             "grid": ["--out", str(out / "g.tsv"),
                      "--lr-sweep", str(out / "s.jsonl")]}[command]
    return [command, "--config", str(cfg), *extra]


def run_rejected(command, raw, root, about=None, checkpoint=None):
    """Run `command` on config `raw` (a dict, or the file's text); assert
    exit 2, no output and nothing written, and return the one stderr line
    after `<command>: <about>: `, `about` being the config by default."""
    cfg = root / "rejected.json"
    cfg.write_text(raw if isinstance(raw, str) else json.dumps(raw),
                   encoding="utf-8")
    out = root / "out"
    out.mkdir(exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        assert main(command_argv(command, cfg, out, checkpoint)) == 2
    assert not stdout.getvalue() and not list(out.iterdir())
    line, = stderr.getvalue().splitlines()
    prefix = f"{command}: {about or cfg}: "
    assert line.startswith(prefix)
    return line[len(prefix):]


def key_paths(node, path=()):
    """Every key path of a config dict, `tasks` entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(key, str):
            yield path + (key,)
        if isinstance(value, dict) or key == "tasks":
            yield from key_paths(value, path + (key,))


def dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path)[1:]


def edit(raw, path, fn):
    """A deep copy of `raw` with fn(parent, key) applied at `path`."""
    raw = json.loads(json.dumps(raw))
    node = raw
    for k in path[:-1]:
        node = node[k]
    fn(node, path[-1])
    return raw


class TestConfigErrors:
    """Every command reads the whole config before any other file, and
    rejects what the schema does not hold with exit 2, naming the key."""

    @pytest.fixture(scope="class")
    def valid(self, tiny_model_config, tmp_path_factory):
        root = tmp_path_factory.mktemp("cfg")
        return full_config(tiny_model_config, root).to_dict(), root

    @pytest.mark.parametrize("command,path,typo", [
        ("finetune", ("recipe",), "recipie"),
        ("finetune", ("model", "hidden"), "hiden"),
        ("finetune", ("recipe", "decay_factor"), "decay_factr"),
        ("finetune", ("recipe", "layer_selection", "strategy"), "stratgy"),
        ("eval", ("data", "test"), "tset"),
        ("pretrain", ("pretrain", "steps"), "stpes"),
        ("grid", ("grid", "lrs"), "lr"),
        ("multitask", ("multitask", "tasks", 1, "n_classes"), "n_clases"),
    ])
    def test_unknown_key_named(self, valid, command, path, typo):
        raw, root = valid
        bad = edit(raw, path, lambda node, k: node.update({typo: node.pop(k)}))
        assert run_rejected(command, bad, root) == \
            f"unknown key {dotted(path[:-1] + (typo,))}"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_one_key_typo_rejected(self, valid, data):
        raw, root = valid
        path = data.draw(st.sampled_from(list(key_paths(raw))))
        key = path[-1]
        i = data.draw(st.integers(0, len(key) - 1))
        typo = data.draw(st.sampled_from([
            key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
            key[:i] + key[i + 1:i + 2] + key[i] + key[i + 2:], key + "s"]))
        parent = raw
        for k in path[:-1]:
            parent = parent[k]
        assume(typo and typo not in parent)
        bad = edit(raw, path, lambda node, k: node.update({typo: node.pop(k)}))
        command = data.draw(st.sampled_from(COMMANDS))
        assert run_rejected(command, bad, root) == \
            f"unknown key {dotted(path[:-1] + (typo,))}"

    @pytest.mark.parametrize("command,path", [
        *((c, ("vocab",)) for c in COMMANDS),
        ("finetune", ("data",)), ("eval", ("data",)), ("grid", ("data",)),
        ("pretrain", ("pretrain",)), ("multitask", ("multitask",)),
        ("finetune", ("data", "train")), ("eval", ("pretrain", "corpus")),
        ("grid", ("multitask", "tasks")),
        ("multitask", ("multitask", "tasks", 0, "name")),
        ("multitask", ("multitask", "tasks", 1, "train")),
    ])
    def test_missing_required_key_named(self, valid, command, path):
        raw, root = valid
        bad = edit(raw, path, lambda node, key: node.pop(key))
        assert run_rejected(command, bad, root) == \
            f"missing key {dotted(path)}"

    def test_n_segments_is_not_a_key(self, valid):
        # the tokenizer writes segment ids 0 and 1 only: emb.seg has 2 rows
        raw, root = valid
        bad = {**raw, "model": {**raw["model"], "n_segments": 2}}
        assert run_rejected("pretrain", bad, root) == \
            "unknown key model.n_segments"

    @pytest.mark.parametrize("command,path", [
        ("finetune", ("data",)), ("multitask", ("multitask", "tasks", 1))])
    def test_domain_is_not_a_key(self, valid, command, path):
        # a pre-training corpus is the datasets it is built from; nothing
        # reads a dataset's domain
        raw, root = valid
        bad = edit(raw, path,
                   lambda node, k: node[k].update({"domain": "topic"}))
        assert run_rejected(command, bad, root) == \
            f"unknown key {dotted(path + ('domain',))}"

    def test_max_len_over_max_positions(self, valid):
        raw, root = valid
        bad = edit(raw, ("recipe", "max_len"),
                   lambda node, key: node.update({key: 32}))
        assert run_rejected("finetune", bad, root) == \
            "recipe.max_len 32 exceeds model.max_positions 16"

    def test_recipe_max_len_not_checked_by_pretrain(self, valid):
        # pretrain reads pretrain.max_len or model.max_positions: the config
        # is accepted, and the first input it reads (the vocabulary) missing
        raw, root = valid
        bad = edit(raw, ("recipe", "max_len"),
                   lambda node, key: node.update({key: 32}))
        assert run_rejected("pretrain", bad, root, about=raw["vocab"]) == \
            "cannot open vocabulary: No such file or directory"

    def test_pretrain_max_len_over_max_positions(self, valid):
        raw, root = valid
        bad = edit(raw, ("pretrain", "max_len"),
                   lambda node, key: node.update({key: 32}))
        assert run_rejected("pretrain", bad, root) == \
            "pretrain.max_len 32 exceeds model.max_positions 16"

    def test_section_value_rejection_names_section(self, valid):
        raw, root = valid
        bad = edit(raw, ("recipe", "long_text"),
                   lambda node, key: node.update({key: "middle"}))
        assert run_rejected("eval", bad, root) == \
            "recipe.long_text: unknown strategy 'middle'"

    @pytest.mark.parametrize("tasks,message", [
        (lambda a, b: [a], "multi-task training needs at least two tasks, "
                           "got 1"),
        (lambda a, b: [a, {**b, "name": "a"}],
         "two tasks share a name: ['a', 'a']")])
    def test_multitask_tasks_checked_before_loading(self, valid, tasks,
                                                    message):
        raw, root = valid
        bad = edit(raw, ("multitask", "tasks"),
                   lambda node, key: node.update({key: tasks(*node[key])}))
        assert run_rejected("multitask", bad, root) == \
            f"multitask.tasks: {message}"

    @pytest.mark.parametrize("command,path,value,kind", [
        ("finetune", ("model", "hidden"), "16", "an integer"),
        ("finetune", ("model", "ffn"), 64.0, "an integer"),
        ("eval", ("recipe", "base_lr"), True, "a number"),
        ("grid", ("recipe", "clip_norm"), "1", "a number"),
        ("finetune", ("strict_deterministic",), 1, "true or false"),
        ("eval", ("data", "test"), 3, "a string"),
        ("pretrain", ("pretrain", "max_len"), [16], "an integer"),
        ("grid", ("grid", "lrs", 0), None, "a number"),
        ("grid", ("grid", "decay_factors"), 0.9, "a list"),
        ("multitask", ("multitask", "tasks", 1, "n_classes"), "2",
         "an integer"),
    ])
    def test_value_type_named(self, valid, command, path, value, kind):
        raw, root = valid
        bad = edit(raw, path, lambda node, key: node.__setitem__(key, value))
        assert run_rejected(command, bad, root) == \
            f"{dotted(path)} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("key,value,message", [
        ("validation_fraction", 1.5, "must be in (0, 1), got 1.5"),
        ("few_shot_proportion", 0, "must be in (0, 1], got 0")],
        ids=["validation_fraction", "few_shot_proportion"])
    def test_fraction_out_of_range_named(self, valid, key, value, message):
        raw, root = valid
        assert run_rejected("finetune", {**raw, key: value}, root) == \
            f"{key} {message}"

    # each rate, under a command; above float32's largest value the float32
    # update is inf
    RATES = [("multitask", ("recipe", "base_lr")),
             ("pretrain", ("pretrain", "lr")),
             ("grid", ("grid", "lrs", 0)),
             ("grid", ("grid", "sweep_lrs", 1))]

    @pytest.mark.parametrize("command,path,value,message", [
        ("finetune", ("recipe", "layer_selection", "strategy"), "top2",
         "recipe.layer_selection.strategy: unknown strategy 'top2'"),
        ("grid", ("recipe", "layer_selection", "combiner"), "sum",
         "recipe.layer_selection.combiner: unknown combiner 'sum'"),
        ("eval", ("recipe", "layer_selection", "layer"), 2,
         "recipe.layer_selection.layer 2 out of range [0, 1]"),
        ("multitask", ("recipe", "layer_selection", "layer"), -2,
         "recipe.layer_selection.layer -2 out of range [0, 1]"),
        ("finetune", ("data", "format"), "tsv",
         "data.format: unknown format 'tsv'"),
        ("multitask", ("multitask", "tasks", 1, "format"), "tsv",
         "multitask.tasks[1].format: unknown format 'tsv'"),
        ("finetune", ("recipe", "train_steps"), 0,
         "recipe.train_steps must be at least 1, got 0"),
        ("grid", ("recipe", "batch_size"), 0,
         "recipe.batch_size must be at least 1, got 0"),
        ("eval", ("recipe", "epochs"), 0,
         "recipe.epochs must be at least 1, got 0"),
        ("pretrain", ("pretrain", "batch_size"), -4,
         "pretrain.batch_size must be at least 1, got -4"),
        ("pretrain", ("pretrain", "mask_prob"), 0,
         "pretrain.mask_prob must be in (0, 1], got 0"),
        ("eval", ("pretrain", "mask_prob"), 1.5,
         "pretrain.mask_prob must be in (0, 1], got 1.5"),
        ("finetune", ("recipe", "warmup_proportion"), 0.0,
         "recipe.warmup_proportion must be in (0, 1), got 0.0"),
        ("eval", ("recipe", "warmup_proportion"), 1,
         "recipe.warmup_proportion must be in (0, 1), got 1"),
        ("pretrain", ("pretrain", "warmup_proportion"), 0,
         "pretrain.warmup_proportion must be in (0, 1), got 0"),
        ("grid", ("recipe", "decay_factor"), 0.0,
         "recipe.decay_factor must be in (0, 1], got 0.0"),
        ("multitask", ("recipe", "decay_factor"), 1.05,
         "recipe.decay_factor must be in (0, 1], got 1.05"),
        ("grid", ("recipe", "base_lr"), -2e-05,
         "recipe.base_lr must be at least 0, got -2e-05"),
        ("pretrain", ("pretrain", "lr"), 0.0,
         "pretrain.lr must be above 0, got 0.0"),
        ("eval", ("recipe", "clip_norm"), 0,
         "recipe.clip_norm must be above 0, got 0"),
        ("finetune", ("recipe", "max_len"), 2,
         "recipe.max_len must be at least 3, got 2"),
        ("pretrain", ("pretrain", "checkpoint_every"), 0,
         "pretrain.checkpoint_every must be at least 1, got 0"),
        ("multitask", ("multitask", "refine_steps"), 0,
         "multitask.refine_steps must be at least 1, got 0"),
        ("grid", ("grid", "lrs", 0), 0,
         "grid.lrs[0] must be above 0, got 0"),
        ("grid", ("grid", "sweep_lrs", 1), -1e-4,
         "grid.sweep_lrs[1] must be above 0, got -0.0001"),
        ("grid", ("grid", "decay_factors", 0), 1.5,
         "grid.decay_factors[0] must be in (0, 1], got 1.5"),
        ("finetune", ("grid", "decay_factors", 3), 0.0,
         "grid.decay_factors[3] must be in (0, 1], got 0.0"),
        ("grid", ("grid", "lrs"), [], "grid.lrs must be non-empty, got []"),
        ("eval", ("grid", "decay_factors"), [],
         "grid.decay_factors must be non-empty, got []"),
        ("grid", ("grid", "sweep_lrs"), [],
         "grid.sweep_lrs must be non-empty, got []"),
        ("finetune", ("model", "n_heads"), 0,
         "model.n_heads must be at least 1, got 0"),
        ("eval", ("model", "hidden"), 0,
         "model.hidden must be at least 1, got 0"),
        ("multitask", ("model", "ffn"), 0,
         "model.ffn must be at least 1, got 0"),
        ("finetune", ("model", "dtype"), "float64",
         "model.dtype must be 'f4' or 'f8', got 'float64'"),
        *(("pretrain", ("pretrain", "max_len"), n,
           f"pretrain.max_len must be None or at least 5, got {n}")
          for n in (0, 2, 3, 4)),
        *((c, ("recipe", "max_len"), 32,
           "recipe.max_len 32 exceeds model.max_positions 16")
          for c in ("multitask", "eval", "grid")),
        *((c, path, v, f"{dotted(path)} must be at most float32's largest "
                       f"value 3.4028234663852886e+38, got {v}")
          for c, path in RATES for v in (math.inf, 1e39)),
    ], ids=lambda v: key_id(v) if isinstance(v, tuple) else None)
    def test_value_out_of_range_named(self, valid, command, path, value,
                                      message):
        raw, root = valid
        bad = edit(raw, path, lambda node, key: node.__setitem__(key, value))
        assert run_rejected(command, bad, root) == message

    @pytest.mark.parametrize("path", [p for _, p in RATES], ids=key_id)
    def test_rate_float32_holds_accepted(self, valid, path):
        raw, _ = valid
        ok = edit(raw, path, lambda node, key: node.__setitem__(key, 3.4e38))
        node = ExperimentConfig.from_dict(ok).to_dict()
        for key in path:
            node = node[key]
        assert node == 3.4e38

    def test_float_takes_json_integer(self, valid):
        raw, _ = valid
        ok = edit(raw, ("recipe", "decay_factor"),
                  lambda node, key: node.update({key: 1}))
        assert ExperimentConfig.from_dict(ok).recipe.decay_factor == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_invalid_json_named(self, valid, command):
        raw, root = valid
        assert run_rejected(command, json.dumps(raw)[:-1], root).startswith(
            "cannot read the config: Expecting ',' delimiter")
