"""WordPiece-style tokenization at desk scale.

The vocabulary is built by iterative pair-frequency merges (BPE-style) and
rendered as WordPiece entries: the first piece of a word is bare, every
continuation piece carries a "##" prefix. Tokenization is greedy
longest-match-first; a word with any unmatched position becomes [UNK].
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

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
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])


def pre_split(text: str) -> list[str]:
    """Lowercase, strip accents-free whitespace cleanup, split words and
    punctuation apart."""
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(r" \1 ", text)
    return text.split()


def build_vocab(corpus, target_size: int) -> Vocabulary:
    """BPE-style merge loop over the corpus, rendered as WordPiece entries.

    Starts from single characters (base tokens are always retained),
    repeatedly merges the most frequent adjacent pair -- ties broken by the
    lexicographically smallest pair -- and appends the merged piece's
    rendered WordPiece forms until the vocabulary reaches `target_size`.
    Deterministic for a fixed corpus and size.
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
    words = {w: tuple(w) for w in word_freq}

    def rendered_forms():
        """WordPiece forms present in the current segmentation."""
        toks = set()
        for pieces in words.values():
            for j, p in enumerate(pieces):
                toks.add(p if j == 0 else "##" + p)
        return toks

    vocab = list(RESERVED)
    seen = set(vocab)

    def emit(tokens):
        for t in sorted(tokens):
            if t not in seen and len(vocab) < target_size:
                seen.add(t)
                vocab.append(t)

    emit(rendered_forms())  # base character tokens, kept forever
    while len(vocab) < target_size:
        pair_freq = Counter()
        for w, pieces in words.items():
            f = word_freq[w]
            for a, b in zip(pieces, pieces[1:]):
                pair_freq[(a, b)] += f
        if not pair_freq:
            break
        top = max(pair_freq.values())
        best = min(p for p, c in pair_freq.items() if c == top)
        merged = best[0] + best[1]
        for w, pieces in words.items():
            out = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            words[w] = tuple(out)
        emit({merged, "##" + merged} & rendered_forms())
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


def detokenize(tokens) -> str:
    words = []
    for tok in tokens:
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok)
    return " ".join(words)


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
