"""WordPiece-style tokenization at desk scale.

The vocabulary is built by pair-frequency merges (BPE-style) with
incremental pair statistics, and rendered as WordPiece entries: the first
piece of a word is bare, every continuation piece carries a "##" prefix.
Tokenization is greedy longest-match-first; a word with any unmatched
position becomes [UNK].
"""

from __future__ import annotations

import heapq
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass

from .data import open_input

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
RESERVED = [PAD, UNK, CLS, SEP, MASK]

_PUNCT_RE = re.compile(r"([^\w\s]|_)", re.UNICODE)
_CHINESE_SEPS = "。？！"
# split after . ! ? when followed by whitespace + uppercase (or end of text)
_EN_SENT_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")


class Vocabulary:
    """token -> id map with reserved specials at the front.

    `pieces` memoizes the WordPiece split of every word `tokenize` has
    seen; it grows with the number of distinct words tokenized.
    """

    def __init__(self, tokens):
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        for i, tok in enumerate(RESERVED):
            if self.token_to_id.get(tok) != i:
                raise ValueError(f"reserved token {tok} must have id {i}")
        self.pieces: dict[str, tuple[str, ...]] = {}

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id(self, token):
        return self.token_to_id.get(token, self.token_to_id[UNK])

    @property
    def pad_id(self):
        return 0

    @property
    def cls_id(self):
        return self.token_to_id[CLS]

    @property
    def sep_id(self):
        return self.token_to_id[SEP]

    @property
    def mask_id(self):
        return self.token_to_id[MASK]

    def content_hash(self):
        import hashlib
        h = hashlib.sha256("\n".join(self.id_to_token).encode("utf-8"))
        return h.hexdigest()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open_input(path, "vocabulary", encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])


def pre_split(text: str) -> list[str]:
    """NFC-normalise and lowercase `text`, then split it on whitespace with
    every punctuation character (and `_`) a word of its own."""
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(r" \1 ", text)
    return text.split()


def _rendered(pieces):
    """WordPiece forms of one segmented word: bare first, "##" after."""
    return [p if j == 0 else "##" + p for j, p in enumerate(pieces)]


def _merge(pieces, pair, merged):
    """`pieces` with every non-overlapping `pair`, left to right, joined."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == pair:
            out.append(merged)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return tuple(out)


def _apply(counts, delta):
    """Add `delta` into `counts`, deleting the counts that reach zero;
    return the keys whose count moved and is still non-zero."""
    moved = []
    for key, d in delta.items():
        if d:
            c = counts[key] + d
            if c:
                counts[key] = c
                moved.append(key)
            else:
                del counts[key]
    return moved


def build_vocab(corpus, target_size: int) -> Vocabulary:
    """BPE-style merge loop over the corpus, rendered as WordPiece entries.

    Starts from single characters (base tokens are always retained),
    repeatedly merges the most frequent adjacent pair -- ties broken by the
    lexicographically smallest pair -- and appends the merged piece's
    rendered WordPiece forms until the vocabulary reaches `target_size`
    or no pair is left. Deterministic for a fixed corpus and size.

    The pair statistics are incremental (Sennrich et al. 2016, subword-nmt's
    `learn_bpe.py`): pair counts and rendered-form counts persist across
    merges, an index maps each pair to the words that may contain it, and a
    merge re-segments only the indexed words, taking their old pairs and
    forms out of the counts and putting their new ones in. The best pair
    comes off a heap keyed on (-count, pair) whose stale entries are
    skipped, so the result equals a full recount after every merge.
    """
    if target_size < len(RESERVED):
        raise ValueError(
            f"target_size {target_size} smaller than reserved set "
            f"({len(RESERVED)} tokens)")
    word_freq = Counter()
    for doc in corpus:
        for word in pre_split(doc):
            word_freq[word] += 1
    # each word is a tuple of current pieces
    words = [tuple(w) for w in word_freq]
    freqs = list(word_freq.values())
    pair_freq = Counter()
    where = defaultdict(set)      # pair -> ids of words that may contain it
    forms = Counter()             # rendered form -> occurrences
    for i, pieces in enumerate(words):
        forms.update(_rendered(pieces))
        for pair in zip(pieces, pieces[1:]):
            pair_freq[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-c, pair) for pair, c in pair_freq.items()]
    heapq.heapify(heap)

    vocab = list(RESERVED)
    seen = set(vocab)

    def emit(tokens):
        for t in sorted(tokens):
            if t not in seen and len(vocab) < target_size:
                seen.add(t)
                vocab.append(t)

    emit(forms)  # base character tokens, kept forever
    while len(vocab) < target_size:
        while heap and pair_freq.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)   # stale: the pair's count has moved
        if not heap:
            break
        best = heapq.heappop(heap)[1]
        merged = best[0] + best[1]
        pair_delta, form_delta = Counter(), Counter()
        for i in where.pop(best):
            old = words[i]
            new = _merge(old, best, merged)
            if len(new) == len(old):
                continue          # index entry no longer holds the pair
            words[i] = new
            f = freqs[i]
            for pair in zip(old, old[1:]):
                pair_delta[pair] -= f
            for pair in zip(new, new[1:]):
                pair_delta[pair] += f
                where[pair].add(i)
            form_delta.subtract(_rendered(old))
            form_delta.update(_rendered(new))
        for pair in _apply(pair_freq, pair_delta):
            heapq.heappush(heap, (-pair_freq[pair], pair))
        _apply(forms, form_delta)
        emit({merged, "##" + merged} & forms.keys())
    return Vocabulary(vocab)


def _wordpiece(word: str, vocab: Vocabulary) -> tuple[str, ...]:
    """Greedy longest-match-first split of one word; (UNK,) if any
    position is unmatched."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                match = sub
                break
            end -= 1
        if match is None:
            return (UNK,)
        pieces.append(match)
        start = end
    return tuple(pieces)


def tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match-first WordPiece split of each whitespace word."""
    out = []
    cache = vocab.pieces
    for word in pre_split(text):
        pieces = cache.get(word)
        if pieces is None:
            pieces = cache[word] = _wordpiece(word, vocab)
        out.extend(pieces)
    return out


@dataclass
class TokenizedSequence:
    """Padded model input: [CLS] a... [SEP] (b... [SEP]) [PAD]..."""

    token_ids: list[int]
    segment_ids: list[int]
    attention_mask: list[int]
    label: int | None = None

    def __len__(self):
        return len(self.token_ids)

    @property
    def n_real(self):
        return sum(self.attention_mask)


def encode(seg_a, seg_b, max_len: int, vocab: Vocabulary,
           label=None) -> TokenizedSequence:
    """Assemble the padded two-segment input; truncation is the caller's job."""
    n_special = 2 if seg_b is None else 3
    content = len(seg_a) + (len(seg_b) if seg_b else 0)
    if content + n_special > max_len:
        raise ValueError(
            f"segments ({content} tokens) overflow max_len {max_len} after "
            f"{n_special} specials; truncate first")
    ids = [vocab.cls_id] + [vocab.id(t) for t in seg_a] + [vocab.sep_id]
    segs = [0] * len(ids)
    if seg_b:
        ids += [vocab.id(t) for t in seg_b] + [vocab.sep_id]
        segs += [1] * (len(seg_b) + 1)
    n_real = len(ids)
    pad = max_len - n_real
    ids += [vocab.pad_id] * pad
    segs += [0] * pad
    return TokenizedSequence(
        token_ids=ids,
        segment_ids=segs,
        attention_mask=[1] * n_real + [0] * pad,
        label=label,
    )


def segment_sentences(document: str, language: str = "english") -> list[str]:
    """Rule-based sentence segmentation.

    English: split after ., ! or ? followed by whitespace and an uppercase
    letter (or end of text). Chinese: split after the full-width separators
    。？！. Empty sentences are dropped.
    """
    document = document.strip()
    if not document:
        return []
    if language == "chinese":
        parts = []
        buf = []
        for ch in document:
            buf.append(ch)
            if ch in _CHINESE_SEPS:
                parts.append("".join(buf).strip())
                buf = []
        if buf:
            parts.append("".join(buf).strip())
    elif language == "english":
        parts = [p.strip() for p in _EN_SENT_RE.split(document)]
    else:
        raise ValueError(f"unknown language {language!r}")
    return [p for p in parts if p]
