"""Which bertfit functions get spans, what is counted at each, and how the
spans of a traced run become per-layer metrics.

Layers are bertfit's modules. Forward ops are every public function of
`bertfit.autodiff` except the non-op helpers, grouped by kind; a new op is
picked up as kind `other`. Backward is one span: per-op backward time
needs a timer inside the tape, which this benchmark does not add.
"""

from __future__ import annotations

import inspect
import os
import time

from .stats import Metric, median
from .tracing import Tracer, ancestors, self_times

OP_KINDS = ("matmul", "gelu", "softmax", "layer_norm", "cross_entropy",
            "embedding", "dropout", "add")
NON_OPS = {"active_tape", "backward", "grad_check"}

# forward-pass Python around the op calls
GLUE = {"model.encode_batch", "model.encode", "model.mlm_logits",
        "model.nsp_logits", "model.select_features", "model.class_logits",
        "model.classify", "training.batch_logits", "longtext.combine",
        "pretraining.pretrain_batch_loss"}
DATA = {"training.prepare_inputs", "longtext.chunk", "longtext.truncate",
        "tokenizer.build_vocab", "tokenizer.tokenize", "tokenizer.encode",
        "pretraining.make_pretrain_example", "pretraining.build_nsp_pair",
        "pretraining.trim_pair", "pretraining.apply_masking"}
OTHER = {"autodiff.backward", "training.evaluate",
         "pretraining.held_out_mlm_loss", "checkpoint.save_checkpoint",
         "checkpoint.load_checkpoint"}
ADAM = "optim.Adam.step"

PHASES = ("phase.setup", "phase.train", "phase.eval", "phase.check")


def op_functions(ad):
    return {name: fn for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and name not in NON_OPS}


def op_kind(span_name: str) -> str:
    fn = span_name.split(".", 1)[1]
    return fn if fn in OP_KINDS else "other"


# -- counters, run after a span closes ---------------------------------------

def _count_encode(tracer, idx, args, kwargs, out):
    mask = kwargs.get("attention_mask", args[3] if len(args) > 3 else None)
    tracer.spans[idx].counts = {"real": int(mask.sum()),
                                "positions": int(mask.size)}


def _count_chunk(tracer, idx, args, kwargs, out):
    cap = kwargs.get("capacity", args[2] if len(args) > 2 else 510)
    tracer.spans[idx].counts = {"fractions": out.k,
                                "content": out.n_content,
                                "capacity": out.k * cap}


def _count_tokenize(tracer, idx, args, kwargs, out):
    words = sum(1 for t in out if not t.startswith("##"))
    tracer.spans[idx].counts = {"pieces": len(out), "words": words}


def _count_batch_loss(tracer, idx, args, kwargs, out):
    examples = kwargs.get("examples", args[1])
    tracer.spans[idx].counts = {
        "masked": sum(len(ex.mlm_positions) for ex in examples),
        "positions": sum(len(ex.seq.token_ids) for ex in examples)}


def _count_save(tracer, idx, args, kwargs, out):
    path = kwargs.get("path", args[0])
    tracer.spans[idx].counts = {"bytes": os.path.getsize(path)}


COUNTERS = {"model.encode_batch": _count_encode,
            "longtext.chunk": _count_chunk,
            "tokenizer.tokenize": _count_tokenize,
            "pretraining.pretrain_batch_loss": _count_batch_loss,
            "checkpoint.save_checkpoint": _count_save}


def install(tracer: Tracer, patcher, bertfit_modules: dict):
    """Wrap every traced function of the given bertfit modules."""
    targets = {}
    for kind_set in (GLUE, DATA, OTHER):
        for span_name in kind_set:
            mod, fn = span_name.split(".", 1)
            targets[span_name] = getattr(bertfit_modules[mod], fn)
    for name, fn in op_functions(bertfit_modules["autodiff"]).items():
        targets[f"autodiff.{name}"] = fn
    for span_name, fn in targets.items():
        n = patcher.replace_function(
            fn, tracer.wrap(span_name, fn, COUNTERS.get(span_name)))
        if n == 0:
            raise RuntimeError(f"{span_name} is not reachable for tracing")
    adam = bertfit_modules["optim"].Adam
    patcher.set(adam, "step", tracer.wrap(ADAM, adam.step))


def span_cost_seconds(n=20000) -> float:
    """Cost of one empty traced call, measured on a scratch tracer."""
    tracer = Tracer()
    fn = tracer.wrap("calibrate", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


# -- aggregation --------------------------------------------------------------

def per_layer_metrics(tracer: Tracer, out, span_cost: float) -> list:
    """Per-layer metrics of one traced run.

    Only the even training steps are traced (see `workloads.Run`). Per-step
    values are totals over the traced steps divided by their count;
    validation rounds and checkpoint saves inside the training phase are
    not part of any step. The partition fwd ops + fwd glue + backward +
    optimizer + step data sums to the mean traced step by construction
    (step data is the remainder), so comparing it with the median of the
    untraced steps of the same run measures the tracing overhead and the
    mean-versus-median skew, not coverage. Coverage shows in
    `trace.unattributed_ms`: step time outside every traced call. `out` is
    the workload's `Outcome`; validation is timed by the step clock,
    because only some rounds fall where tracing is on.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    phase, in_eval = [], []
    for i in range(len(spans)):
        anc = ancestors(spans, i)
        phase.append(next((a for a in anc if a in PHASES), None))
        in_eval.append("training.evaluate" in anc)

    durations = out.step_s[1::2]
    untraced = out.step_s[0::2]
    n_steps = len(durations)
    step_total = sum(durations)
    ns = max(n_steps, 1)

    def in_step(i):
        return (phase[i] == "phase.train" and not in_eval[i]
                and spans[i].name not in ("training.evaluate",
                                          "checkpoint.save_checkpoint"))

    step_idx = [i for i in range(len(spans)) if in_step(i)]
    fwd = {k: 0.0 for k in OP_KINDS + ("other",)}
    n_ops = 0
    glue = backward = adam = 0.0
    incl = {}                       # inclusive time per span name, in steps
    for i in step_idx:
        name = spans[i].name
        incl[name] = incl.get(name, 0.0) + spans[i].duration
        if name.startswith("autodiff.") and name not in OTHER:
            fwd[op_kind(name)] += selfs[i]
            n_ops += 1
        elif name == "autodiff.backward":
            backward += selfs[i]
        elif name == ADAM:
            adam += selfs[i]
        elif name in GLUE:
            glue += selfs[i]
    data = step_total - sum(fwd.values()) - glue - backward - adam
    # the part of `data` outside every traced call: loop bookkeeping the
    # spans do not see (the top-level in-step calls run one after another)
    top_level = sum(spans[i].duration for i in step_idx
                    if spans[spans[i].parent].name == "phase.train")
    unattributed = step_total - top_level

    def per_step_ms(seconds):
        return 1000.0 * seconds / ns

    metrics = [Metric("autodiff.fwd_ops_per_step", n_ops / ns, "count",
                      n_steps)]
    for k, v in fwd.items():
        metrics.append(Metric(f"autodiff.fwd_ms.{k}", per_step_ms(v), "ms",
                              n_steps))
    metrics += [
        Metric("autodiff.fwd_glue_ms", per_step_ms(glue), "ms", n_steps),
        Metric("autodiff.backward_ms", per_step_ms(backward), "ms", n_steps),
        Metric("autodiff.backward_share",
               backward / step_total if step_total else 0.0, "ratio",
               n_steps),
        Metric("optim.adam_step_ms", per_step_ms(adam), "ms", n_steps),
        Metric("training.step_data_ms", per_step_ms(data), "ms", n_steps),
        Metric("training.batch_logits_ms",
               per_step_ms(incl.get("training.batch_logits", 0.0)), "ms",
               n_steps),
        Metric("pretraining.example_ms",
               per_step_ms(incl.get("pretraining.make_pretrain_example",
                                    0.0)), "ms", n_steps),
        Metric("pretraining.batch_loss_ms",
               per_step_ms(incl.get("pretraining.pretrain_batch_loss", 0.0)),
               "ms", n_steps),
        Metric("model.mlm_logits_ms",
               per_step_ms(incl.get("model.mlm_logits", 0.0)), "ms",
               n_steps),
    ]

    def select(name, want_phase):
        return [i for i in range(len(spans))
                if spans[i].name == name and phase[i] == want_phase]

    def mean_ms(idx, scale=1000.0):
        if not idx:
            return 0.0
        return scale * sum(spans[i].duration for i in idx) / len(idx)

    def ratio(idx, num, den):
        d = sum(spans[i].counts[den] for i in idx)
        return (sum(spans[i].counts[num] for i in idx) / d) if d else 0.0

    enc_eval = select("model.encode_batch", "phase.eval")
    enc_all = enc_eval + [i for i in step_idx
                          if spans[i].name == "model.encode_batch"]
    metrics += [
        Metric("model.encode_ms", mean_ms(enc_eval), "ms", len(enc_eval)),
        Metric("model.real_token_frac", ratio(enc_all, "real", "positions"),
               "ratio", len(enc_all)),
    ]

    loss_idx = [i for i in step_idx
                if spans[i].name == "pretraining.pretrain_batch_loss"]
    held = select("pretraining.held_out_mlm_loss", "phase.eval")
    metrics += [
        Metric("pretraining.heldout_ms", mean_ms(held), "ms", len(held)),
        Metric("pretraining.mlm_useful_frac",
               ratio(loss_idx, "masked", "positions"), "ratio",
               len(loss_idx)),
    ]

    val = out.validation_s
    metrics += [
        Metric("training.eval_ms",
               1000.0 * sum(val) / len(val) if val else 0.0, "ms", len(val)),
        Metric("training.eval_share", sum(val) / out.train_phase_s, "ratio",
               len(val)),
        Metric("training.steps_to_target", out.steps_to_target, "count",
               out.n_validations),
    ]

    chunks = [i for i, s in enumerate(spans) if s.name == "longtext.chunk"]
    combines = select("longtext.combine", "phase.eval")
    metrics += [
        Metric("longtext.fractions_per_doc",
               (sum(spans[i].counts["fractions"] for i in chunks)
                / len(chunks)) if chunks else 0.0, "count", len(chunks)),
        Metric("longtext.fraction_fill", ratio(chunks, "content", "capacity"),
               "ratio", len(chunks)),
        Metric("longtext.combine_ms", mean_ms(combines), "ms",
               len(combines)),
        Metric("longtext.chunk_ms", mean_ms(chunks), "ms", len(chunks)),
    ]

    vocab = [i for i, s in enumerate(spans)
             if s.name == "tokenizer.build_vocab"]
    toks = [i for i, s in enumerate(spans) if s.name == "tokenizer.tokenize"
            and phase[i] != "phase.check"]
    tok_time = sum(spans[i].duration for i in toks)
    metrics += [
        Metric("tokenizer.build_vocab_s", mean_ms(vocab, 1.0), "s",
               len(vocab)),
        Metric("tokenizer.tokenize_ms", mean_ms(toks), "ms", len(toks)),
        Metric("tokenizer.pieces_per_word", ratio(toks, "pieces", "words"),
               "ratio", len(toks)),
        Metric("tokenizer.tokens_per_s",
               sum(spans[i].counts["pieces"] for i in toks) / tok_time
               if tok_time else 0.0, "1/s", len(toks)),
    ]

    saves = select("checkpoint.save_checkpoint", "phase.train")
    loads = select("checkpoint.load_checkpoint", "phase.check")
    metrics += [
        Metric("checkpoint.save_ms", mean_ms(saves), "ms", len(saves)),
        Metric("checkpoint.load_ms", mean_ms(loads), "ms", len(loads)),
        Metric("checkpoint.bytes",
               spans[saves[-1]].counts["bytes"] if saves else 0, "bytes",
               len(saves)),
    ]

    layer_sum = sum(m.value for m in metrics
                    if m.name.startswith("autodiff.fwd_ms.")
                    or m.name in ("autodiff.fwd_glue_ms",
                                  "autodiff.backward_ms",
                                  "optim.adam_step_ms",
                                  "training.step_data_ms"))
    traced_p50 = 1000.0 * median(durations) if durations else 0.0
    plain_p50 = 1000.0 * median(untraced) if untraced else 0.0
    metrics += [
        Metric("trace.step_ms_p50", traced_p50, "ms", n_steps),
        Metric("trace.untraced_step_ms_p50", plain_p50, "ms", len(untraced)),
        Metric("trace.overhead_frac",
               traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0, "ratio",
               n_steps),
        Metric("trace.layer_sum_ms", layer_sum, "ms", n_steps),
        Metric("trace.layer_sum_frac",
               layer_sum / plain_p50 if plain_p50 else 0.0, "ratio", n_steps),
        Metric("trace.unattributed_ms", per_step_ms(unattributed), "ms",
               n_steps),
        Metric("trace.spans", len(spans), "count", 1),
        Metric("trace.span_cost_us", 1e6 * span_cost, "us", 1),
    ]
    return metrics
