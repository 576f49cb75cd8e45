"""Further pre-training: corpus assembly, MLM/NSP example construction,
and joint MLM+NSP training through `training.train_steps`.

A corpus is the training documents of the datasets passed in, so the
three pre-training regimes are three lists: within-task (one dataset),
in-domain (the datasets of one domain) and cross-domain (any mix).
Overlapping dataset pairs are deduplicated by exact normalized-text hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset, InputError, open_input
from .model import (EncoderModel, encode_batch, mlm_logits, nsp_logits,
                    stack_inputs)
from .optim import StlrSchedule, build_optimizer
from .rng import EXAMPLE, Rng
from .tokenizer import TokenizedSequence, Vocabulary, segment_sentences, tokenize
from .training import train_steps


# BERT's split of the corrupted positions; the rest (0.1) stay unchanged
MASK_TOKEN_FRAC = 0.8               # -> [MASK]
RANDOM_FRAC = 0.1                   # -> a random token


@dataclass
class MaskingPolicy:
    mask_prob: float = 0.15


@dataclass
class PretrainExample:
    seq: TokenizedSequence
    mlm_positions: list[int]
    mlm_labels: list[int]
    is_next: bool


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


def _doc_hash(text: str) -> str:
    return hashlib.sha256(_normalize(text).encode("utf-8")).hexdigest()


def assemble_corpus(datasets: list[Dataset], dedup_pairs=(),
                    exclude_texts=()) -> list[list[str]]:
    """Concatenate the training documents of `datasets`, sentence-segmented.

    Returns a list of documents, each a list of sentences, in list then
    document order (deterministic). For pairs of dataset names listed in
    `dedup_pairs`, exact duplicates (normalized whitespace, case-folded)
    are kept once; documents matching any `exclude_texts` entry (e.g. a
    held-out test set) are dropped. The dataset named "sogou" is
    segmented as Chinese, every other as English.
    """
    dedup_names = set()
    for a, b in dedup_pairs:
        dedup_names.update((a, b))
    excluded = {_doc_hash(t) for t in exclude_texts}
    seen = set()
    docs = []
    for ds in datasets:
        language = "chinese" if ds.name == "sogou" else "english"
        for ex in ds.examples:
            h = _doc_hash(ex.text)
            if h in excluded:
                continue
            if ds.name in dedup_names:
                if h in seen:
                    continue
                seen.add(h)
            sents = segment_sentences(ex.text, language)
            if sents:
                docs.append(sents)
    return docs


def write_corpus(docs, path):
    """One sentence per line, blank line between documents."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(docs):
            if i:
                fh.write("\n")
            for sent in doc:
                fh.write(sent + "\n")


def read_corpus(path):
    """`write_corpus`'s documents; InputError names `path` if it holds
    none."""
    docs, cur = [], []
    with open_input(path, "corpus", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                cur.append(line)
            elif cur:
                docs.append(cur)
                cur = []
    if cur:
        docs.append(cur)
    if not docs:
        raise InputError(f"{path}: no document in corpus")
    return docs


def build_nsp_pair(doc_index: int, docs, rng: Rng):
    """Pick (segA sentence, segB sentence, is_next) for one document.

    With p=0.5 segB is the actual next sentence; otherwise a random
    sentence from another document. Single-sentence documents fall back to
    a random (is_next=False) pair.
    """
    doc = docs[doc_index]
    is_next = len(doc) >= 2 and rng.uniform() < 0.5
    if len(doc) >= 2:
        i = rng.randint(0, len(doc) - 1)
        seg_a = doc[i]
    else:
        seg_a = doc[0]
        i = 0
    if is_next:
        seg_b = doc[i + 1]
    else:
        if len(docs) > 1:
            j = rng.randint(0, len(docs) - 1)
            if j >= doc_index:
                j += 1
            other = docs[j]
        else:
            other = doc
        seg_b = other[rng.randint(0, len(other))]
    return seg_a, seg_b, is_next


def trim_pair(tok_a: list, tok_b: list, max_len: int):
    """Trim the longer segment from its end until both fit max_len-3."""
    budget = max_len - 3
    tok_a, tok_b = list(tok_a), list(tok_b)
    while len(tok_a) + len(tok_b) > budget:
        longer = tok_a if len(tok_a) >= len(tok_b) else tok_b
        longer.pop()
    return tok_a, tok_b


def apply_masking(seq: TokenizedSequence, policy: MaskingPolicy, rng: Rng,
                  vocab: Vocabulary, is_next: bool = False) -> PretrainExample:
    """Corrupt content positions independently per the 15% / 80-10-10 rule."""
    specials = {vocab.pad_id, vocab.cls_id, vocab.sep_id}
    ids = list(seq.token_ids)
    positions, labels = [], []
    for pos, (tid, real) in enumerate(zip(ids, seq.attention_mask)):
        if not real or tid in specials:
            continue
        if rng.uniform() >= policy.mask_prob:
            continue
        positions.append(pos)
        labels.append(tid)
        r = rng.uniform()
        if r < MASK_TOKEN_FRAC:
            ids[pos] = vocab.mask_id
        elif r < MASK_TOKEN_FRAC + RANDOM_FRAC:
            ids[pos] = rng.randint(len(vocab.id_to_token))
        # else: unchanged
    corrupted = TokenizedSequence(
        token_ids=ids, segment_ids=list(seq.segment_ids),
        attention_mask=list(seq.attention_mask), label=seq.label)
    return PretrainExample(seq=corrupted, mlm_positions=positions,
                           mlm_labels=labels, is_next=is_next)


def make_pretrain_example(doc_index: int, docs, vocab: Vocabulary,
                          policy: MaskingPolicy, max_len: int,
                          rng: Rng) -> PretrainExample:
    from .tokenizer import encode
    if max_len < 5:     # [CLS] A [SEP] B [SEP], one token or more each
        raise ValueError(f"max_len {max_len} leaves a segment empty: a "
                         f"pair needs at least 5")
    seg_a, seg_b, is_next = build_nsp_pair(doc_index, docs, rng)
    tok_a = tokenize(seg_a, vocab)
    tok_b = tokenize(seg_b, vocab)
    tok_a, tok_b = trim_pair(tok_a, tok_b, max_len)
    seq = encode(tok_a, tok_b, max_len, vocab)
    return apply_masking(seq, policy, rng, vocab, is_next=is_next)


def pretrain_batch_loss(model: EncoderModel, examples, rng: Rng | None = None):
    """Summed MLM (masked positions only) + NSP cross-entropy, with dropout
    keyed by `rng` if given (see `encode_batch`).

    Only the masked positions go through the MLM head, as BERT's
    reference pre-training code does: the mean loss over them is the
    masked mean over all positions, without the V-wide logits of the rest.
    The top block computes just the rows the heads read: each sequence's
    [CLS], then its masked positions, padded with [CLS] to the batch's
    largest count.
    """
    R = 1 + max(len(ex.mlm_positions) for ex in examples)
    positions = np.zeros((len(examples), R), dtype=np.intp)
    for bi, ex in enumerate(examples):
        positions[bi, 1:1 + len(ex.mlm_positions)] = ex.mlm_positions
    outs = encode_batch(model, *stack_inputs([ex.seq for ex in examples]),
                        read=(model.config.n_layers, positions), rng=rng)
    rows = np.array([bi * R + 1 + j for bi, ex in enumerate(examples)
                     for j in range(len(ex.mlm_positions))], dtype=np.int64)
    labels = np.array([lab for ex in examples for lab in ex.mlm_labels],
                      dtype=np.int64)
    nsp = nsp_logits(model, outs)                       # (B, 2)
    nsp_labels = np.array([int(ex.is_next) for ex in examples])
    nsp_loss = ad.cross_entropy(nsp, nsp_labels)
    if rows.size == 0:      # nothing masked: no gradient for the MLM head
        return nsp_loss, 0.0, float(nsp_loss.data)
    mlm_loss = ad.cross_entropy(mlm_logits(model, outs, rows), labels)
    return ad.add(mlm_loss, nsp_loss), float(mlm_loss.data), \
        float(nsp_loss.data)


@dataclass
class PretrainResult:
    checkpoints: list               # (step, path) pairs
    history: list                   # per-log dicts
    diverged: bool = False          # a step hit a non-finite value


def further_pretrain(model: EncoderModel, docs, vocab: Vocabulary,
                     steps: int, schedule: StlrSchedule, rng: Rng,
                     batch_size: int = 32, max_len: int = 128,
                     policy: MaskingPolicy | None = None,
                     checkpoint_every: int | None = None,
                     checkpoint_dir=None, log_every: int = 50):
    """Joint MLM+NSP training loop over an assembled corpus.

    Saves periodic checkpoints (cadence plus the final step) when
    `checkpoint_every` and `checkpoint_dir` are given. The optimizer is
    `build_optimizer`'s at decay factor 1: fine-tuning's rate rule with no
    layer-wise decay, so every depth trains at `schedule.rate(step)`. A
    step that hits a non-finite value ends the run with `diverged` set.
    """
    from .checkpoint import save_model
    if len(docs) < 1:
        raise ValueError("corpus is empty")
    policy = policy or MaskingPolicy()
    opt, rates_at = build_optimizer(model, (), schedule)

    def example(step, i):       # its document is its stream's first draw
        ex_rng = rng.at(0, EXAMPLE, step, i)
        return make_pretrain_example(ex_rng.randint(len(docs)), docs, vocab,
                                     policy, max_len, ex_rng)

    checkpoints, history = [], []
    for step, _, (loss, mlm_l, nsp_l), rates in train_steps(
            opt, rates_at, steps, rng,
            lambda step: [example(step, i) for i in range(batch_size)],
            lambda batch, dropout: pretrain_batch_loss(model, batch, dropout)):
        if step % log_every == 0 or step == 1 or step == steps:
            history.append(
                {"step": step, "loss": float(loss.data), "mlm_loss": mlm_l,
                 "nsp_loss": nsp_l, "lr": rates[0]})
        at_cadence = checkpoint_every and step % checkpoint_every == 0
        if checkpoint_dir and (at_cadence or step == steps):
            path = f"{checkpoint_dir}/pretrain_step{step}.ckpt"
            save_model(path, model.named_parameters(), model.config, vocab,
                       step)
            checkpoints.append((step, path))
    return PretrainResult(checkpoints, history, diverged=opt.t < steps)


def held_out_mlm_loss(model: EncoderModel, docs, vocab: Vocabulary,
                      rng: Rng, n_examples: int = 64, max_len: int = 128):
    """Average MLM+NSP loss over freshly built examples under the default
    `MaskingPolicy`, dropout off.

    Runs without a tape: nothing is recorded for a backward pass.
    """
    policy = MaskingPolicy()
    examples = []
    i = 0
    while len(examples) < n_examples:
        di = i % len(docs)
        ex = make_pretrain_example(di, docs, vocab, policy, max_len,
                                   rng.at(i))
        if ex.mlm_positions:
            examples.append(ex)
        i += 1
        if i > 20 * n_examples:
            raise RuntimeError("could not build held-out examples")
    loss, mlm_l, nsp_l = pretrain_batch_loss(model, examples)
    return float(loss.data), mlm_l, nsp_l
