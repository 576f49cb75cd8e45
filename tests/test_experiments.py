import csv
import json

import pytest

from bertfit.cli import main
from bertfit.config import ExperimentConfig, TrainingRecipe
from bertfit.grid import (FIGURE2_LRS, TABLE4_LRS, TABLE4_XIS, GridCell,
                          run_grid, run_lr_sweep, write_grid_tsv)
from bertfit.data import split_validation
from bertfit.model import EncoderConfig
from bertfit.tokenizer import build_vocab
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


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path, tiny_model_config):
        cfg = ExperimentConfig(model=tiny_model_config,
                               recipe=tiny_recipe(base_lr=3e-5),
                               seed=7, few_shot_proportion=0.5)
        path = tmp_path / "exp.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg

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

    def test_empty_axes_rejected(self, tiny_model_config, vocab, splits):
        train, val, test = splits
        with pytest.raises(ValueError, match="non-empty"):
            run_grid(tiny_model_config, tiny_recipe(), vocab,
                     train, val, test, lrs=(), xis=(1.0,))

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

    def test_subsample(self, workspace, tmp_path, capsys):
        root, raw = workspace
        out = tmp_path / "sub.csv"
        assert main(["--seed", "0", "subsample",
                     "--data", raw["data"]["train"],
                     "--proportion", "0.2", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 12

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
