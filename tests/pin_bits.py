"""The pinned bits of four short training runs, and the script that
writes them: `PYTHONPATH=src python tests/pin_bits.py` prints what moved
against `tests/bits.json` and rewrites it; `tests/test_bits.py` checks it.

Each run takes a few steps at tiny sizes with dropout on: `finetune`
flat, `finetune` `hier_attn`, and `further_pretrain` twice: `pretrain` on
pairs that fill `max_len`, `pretrain-short` on pairs of one-word sentences
that end well short of it, so `stack_inputs` trims its batches. The
file holds, per run, the md5 of its float32 loss trail (each step's loss,
in order) and of its final float32 parameters, and its float64 loss
trail. The fine-tuning runs step at rate 1e-2, large enough that a change
of gelu's coefficient in the fifth digit moves their float64 trails well
past `RTOL`. Float32 bits hold only where numpy, its BLAS and the CPU's
SIMD features are the ones the file records (`environment()`); elsewhere
the test compares the float64 trail at `RTOL`. A change that moves these bits on purpose
rewrites the file and says which trail moved and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from bertfit import training
from bertfit.config import TrainingRecipe
from bertfit.model import EncoderConfig, init_model, named_tensors
from bertfit.optim import StlrSchedule
from bertfit.pretraining import further_pretrain
from bertfit.rng import Rng
from bertfit.tokenizer import build_vocab
from bertfit.toytask import make_marker_task, marker_vocab_corpus

PATH = Path(__file__).with_name("bits.json")
RUNS = ("finetune-head_only", "finetune-hier_attn", "pretrain",
        "pretrain-short")
RTOL = 1e-11            # float64 trails across BLAS builds and CPUs
STEPS = 6


def environment() -> dict:
    """numpy's version, its BLAS's name and version, and the SIMD
    features numpy found on this CPU; a part it cannot tell is None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = " ".join(sorted(k for k, on in __cpu_features__.items()
                               if on))
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "simd": simd}


def _md5(arrays) -> str:
    h = hashlib.md5()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run(name: str, dtype: str):
    """(loss trail, {parameter name: final array}) of run `name` at
    `dtype` ("f4" or "f8")."""
    vocab = build_vocab(marker_vocab_corpus(), 60)
    config = EncoderConfig(n_layers=2, hidden=16, n_heads=2,
                           vocab_size=len(vocab), max_positions=16,
                           dropout=0.1, dtype=dtype)
    trail, step = [], training.train_step

    def spy(*args):
        out = step(*args)
        trail.append(out[0].data.copy())
        return out
    training.train_step = spy
    try:
        if name.startswith("pretrain"):
            docs = [[ex.text for ex in make_marker_task(3, 1, seed=i)[0]
                     .examples] for i in range(3)]
            if name == "pretrain-short":
                docs = [[w for text in doc for w in text.split()]
                        for doc in docs]
            model, heads = init_model(config, Rng(1)), ()
            further_pretrain(model, docs, vocab, STEPS,
                             StlrSchedule(total_steps=STEPS, peak_lr=1e-3),
                             Rng(7), batch_size=3, max_len=16)
        else:
            long_text = name.split("-")[1]
            recipe = TrainingRecipe(
                long_text=long_text, base_lr=1e-2, train_steps=STEPS,
                batch_size=4, epochs=2, seed=5,
                max_len=16 if long_text == "head_only" else 6)
            model, head, combiner = training.build_run(config, recipe,
                                                       vocab, 2)
            heads = (head, combiner)
            inputs = training.prepare_inputs(
                make_marker_task(12, 1, seed=0)[0], vocab, recipe)
            training.finetune(model, head, inputs, None, recipe, combiner)
    finally:
        training.train_step = step
    params = named_tensors(model, heads)
    return trail, {k: params[k].data for k in sorted(params)}


def float32_bits(name: str) -> dict:
    """md5s of run `name`'s float32 loss trail and final parameters."""
    trail, params = run(name, "f4")
    return {"losses_md5": _md5(trail), "params_md5": _md5(params.values())}


def main():
    old = json.loads(PATH.read_text(encoding="utf-8"))["runs"] \
        if PATH.exists() else {}
    bits = {"environment": environment(), "runs": {
        name: {**float32_bits(name),
               "float64_losses": [float(x) for x in run(name, "f8")[0]]}
        for name in RUNS}}
    for name, new in bits["runs"].items():
        if name not in old:
            print(f"{name}: new")
            continue
        was = old[name]
        move = max(abs(a - b) / abs(b) for a, b in
                   zip(new["float64_losses"], was["float64_losses"]))
        print(f"{name}: losses_md5 {was['losses_md5']} -> "
              f"{new['losses_md5']}, params_md5 {was['params_md5']} -> "
              f"{new['params_md5']}, float64 trail moved {move:.2g} "
              "relative at most")
    PATH.write_text(json.dumps(bits, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
