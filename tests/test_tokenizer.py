import os
import random
import re
import subprocess
import sys
import time
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bertfit
from bertfit.data import InputError
from bertfit.tokenizer import (CLS, PAD, RESERVED, SEP, UNK, Vocabulary,
                               build_vocab, encode, pre_split,
                               segment_sentences, tokenize)


def oracle_build_vocab(corpus, target_size: int) -> Vocabulary:
    """The full-recount merge loop `build_vocab` replaced: every merge
    recounts every pair, rewrites every word and rescans every rendered
    form. `build_vocab` must return the same list."""
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


def oracle_pre_split(text: str) -> list[str]:
    """The rule `pre_split` replaced: space out every punctuation character
    and `_`, then split on whitespace."""
    text = unicodedata.normalize("NFC", text).lower()
    return re.sub(r"([^\w\s]|_)", r" \1 ", text).split()


# every character str.split splits on
SPLIT_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                + "".join(map(chr, range(0x2000, 0x200b)))
                + "\u2028\u2029\u202f\u205f\u3000")


def zipf_corpus(n_docs=100, n_words=600, seed=0):
    """~100 documents of 100-400 words drawn Zipf-style (exponent 0.8) from
    a lexicon of random 4-11 letter words."""
    r = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    lexicon = sorted({"".join(r.choices(letters, k=r.randint(4, 11)))
                      for _ in range(n_words)})
    weights = [1 / k ** 0.8 for k in range(1, len(lexicon) + 1)]
    return [" ".join(r.choices(lexicon, weights, k=r.randint(100, 400)))
            for _ in range(n_docs)]


# small alphabets force ties and overlapping runs ("aaaa"); punctuation and
# CJK characters are split into words of their own by pre_split
corpora = st.sampled_from(["ab", "aab", "abc", "ab.,!", "ab中文", "aé"]).flatmap(
    lambda alphabet: st.lists(st.text(alphabet=alphabet + " ", max_size=40),
                              max_size=6))

# longer documents over alphabets with repeats, so that one merge often
# puts its piece both at the start of a word and inside one
long_corpora = st.sampled_from(["aab ", "abcab ", "aabb. "]).flatmap(
    lambda alphabet: st.lists(st.text(alphabet=alphabet, min_size=60,
                                      max_size=300),
                              min_size=1, max_size=4))


@pytest.fixture
def small_vocab():
    return Vocabulary(RESERVED + ["un", "##aff", "##able", "x", "y"])


class TestBuildVocab:
    def test_merge_loop_hand_run(self):
        # "aaab": chars a,a,a,b; pair (a,a) wins with freq 200 over (a,b)
        vocab = build_vocab(["aaab " * 100], 10)
        assert "a" in vocab
        assert "aa" in vocab or "##ab" in vocab

    def test_empty_document_ignored(self):
        vocab = build_vocab(["", "hello world", "   "], 40)
        assert "h" in vocab

    def test_deterministic(self):
        corpus = ["the cat sat on the mat", "a cat and a dog"]
        a = build_vocab(corpus, 50)
        b = build_vocab(corpus, 50)
        assert a.id_to_token == b.id_to_token

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(["abc"], 3)

    def test_reserved_ids(self):
        vocab = build_vocab(["abc"], 20)
        assert vocab.pad_id == 0
        assert vocab.id_to_token[:5] == RESERVED
        ids = [vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id,
               vocab.mask_id]
        assert ids == [vocab.id(tok) for tok in RESERVED] == [0, 1, 2, 3, 4]
        assert vocab.id("never seen") == vocab.unk_id

    @pytest.mark.parametrize("tokens, message", [
        (["a", "b"], "reserved token \\[PAD\\] must have id 0"),
        (RESERVED + ["a", "a"], "duplicate tokens in vocabulary")])
    def test_malformed_file_named(self, tmp_path, tokens, message):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
        with pytest.raises(InputError, match=f"^{path}: {message}$"):
            Vocabulary.load(path)


# content hashes of oracle_build_vocab(zipf_corpus(), n): running the
# oracle itself at these sizes takes ~3 s and ~5 s
ZIPF_ORACLE_HASH = {
    1000: "6e283523ad614be4b5e38cde38422f37084558cbd9b936fa24ab31d9ed4855d7",
    2000: "c7c8a423c3012867c9f253b3356abf1c3370f434efcba6e1f99c33403bb37670",
}


class TestIncrementalMerges:
    """`build_vocab` against the full-recount oracle."""

    @given(corpora, st.integers(min_value=5, max_value=60))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, corpus, size):
        assert build_vocab(corpus, size).id_to_token == \
            oracle_build_vocab(corpus, size).id_to_token
        # far past pair exhaustion: both stop at the same list
        assert build_vocab(corpus, 10_000).id_to_token == \
            oracle_build_vocab(corpus, 10_000).id_to_token

    @given(long_corpora, st.integers(min_value=5, max_value=80))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_equals_oracle_on_long_documents(self, corpus, size):
        for n in (size, 10_000):
            assert build_vocab(corpus, n).id_to_token == \
                oracle_build_vocab(corpus, n).id_to_token

    def test_overlapping_runs(self):
        corpus = ["aaaa aaa aa a aaaaa", "abab aba bab", "。。 中中中"]
        for size in range(5, 40):
            assert build_vocab(corpus, size).id_to_token == \
                oracle_build_vocab(corpus, size).id_to_token

    def test_zipf_corpus(self):
        corpus = zipf_corpus()
        assert build_vocab(corpus, 200).id_to_token == \
            oracle_build_vocab(corpus, 200).id_to_token
        assert build_vocab(corpus, 1000).content_hash() == \
            ZIPF_ORACLE_HASH[1000]
        start = time.perf_counter()
        vocab = build_vocab(corpus, 2000)
        elapsed = time.perf_counter() - start
        assert len(vocab) == 2000
        assert vocab.content_hash() == ZIPF_ORACLE_HASH[2000]
        assert elapsed <= 1.0, f"2000-entry build took {elapsed:.2f} s"

    def test_independent_of_hash_seed(self):
        script = ("from bertfit.tokenizer import build_vocab; "
                  "corpus = ['the cat sat on the mat, the end.', "
                  "'a cat and a dog', '中文 aaaa abab'] * 3; "
                  "print(build_vocab(corpus, 120).content_hash())")
        src = os.path.dirname(os.path.dirname(bertfit.__file__))
        hashes = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            hashes.add(out.stdout.strip())
        assert len(hashes) == 1


class TestPreSplit:
    @given(st.text(alphabet=st.sampled_from(
        list("aZé9_.,!-'\"(中文\u0301\u0307İ") + list(SPLIT_SPACES))))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_equals_whitespace_rule(self, text):
        assert pre_split(text) == oracle_pre_split(text)

    def test_words_and_punctuation(self):
        assert pre_split("Hi_there, Ünïcode\u3000中文!") == \
            ["hi", "_", "there", ",", "ünïcode", "中文", "!"]


class TestTokenize:
    def test_greedy_longest_match(self, small_vocab):
        assert tokenize("unaffable", small_vocab) == ["un", "##aff", "##able"]

    def test_unknown_word(self, small_vocab):
        assert tokenize("zzz", small_vocab) == [UNK]

    def test_whole_word_in_vocab(self, small_vocab):
        assert tokenize("un", small_vocab) == ["un"]

    def test_no_leading_continuation(self, small_vocab):
        for text in ("unaffable un x unx", "xy yx"):
            toks = tokenize(text, small_vocab)
            prev_cont = True
            for tok in toks:
                if tok.startswith("##"):
                    assert not prev_cont or tok is not toks[0]
            assert not toks[0].startswith("##")

    @given(st.lists(st.text(alphabet="unafblexyz", min_size=1, max_size=8),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_memoized_split_equals_first_split(self, words):
        def fresh():
            return Vocabulary(RESERVED + ["un", "##aff", "##able", "x", "y"])
        text = " ".join(words + words[::-1])
        first_each = [p for w in text.split() for p in tokenize(w, fresh())]
        vocab = fresh()
        first = tokenize(text, vocab)
        assert set(vocab.pieces) == set(words)
        assert tokenize(text, vocab) == first == first_each
        if any("z" in w for w in words):
            assert UNK in first

    def test_round_trip(self):
        corpus = ["the cat sat on the mat", "dogs chase cats all day"]
        vocab = build_vocab(corpus, 80)
        text = "the cat sat"
        toks = tokenize(text, vocab)
        # glue each "##" piece onto the word before it
        glued = "".join(t[2:] if t.startswith("##") else " " + t
                        for t in toks)
        assert tokenize(glued, vocab) == toks


class TestEncode:
    def test_single_segment_padding(self, small_vocab):
        seq = encode(["x", "y"], None, 6, small_vocab)
        v = small_vocab
        assert seq.token_ids == [v.cls_id, v.id("x"), v.id("y"), v.sep_id,
                                 0, 0]
        assert seq.attention_mask == [1, 1, 1, 1, 0, 0]

    def test_two_segments(self, small_vocab):
        seq = encode(["x"], ["y"], 5, small_vocab)
        v = small_vocab
        assert seq.token_ids == [v.cls_id, v.id("x"), v.sep_id, v.id("y"),
                                 v.sep_id]
        assert seq.segment_ids == [0, 0, 0, 1, 1]

    def test_capacity_510(self, small_vocab):
        seq = encode(["x"] * 509, None, 512, small_vocab)
        assert sum(seq.attention_mask) == 511
        assert len(seq) == 512

    def test_overflow_rejected(self, small_vocab):
        with pytest.raises(ValueError, match="overflow"):
            encode(["x"] * 5, None, 6, small_vocab)

    def test_empty_second_segment(self, small_vocab):
        # an empty B is a segment: its [SEP] is built and counted
        v = small_vocab
        seq = encode(["x"], [], 5, v)
        assert seq.token_ids == [v.cls_id, v.id("x"), v.sep_id, v.sep_id, 0]
        assert seq.segment_ids == [0, 0, 0, 1, 0]
        assert seq.attention_mask == [1, 1, 1, 1, 0]
        with pytest.raises(ValueError, match="after 3 specials"):
            encode(["x"] * 3, [], 5, v)

    def test_sep_count_matches_segments(self, small_vocab):
        sep = small_vocab.sep_id
        one = encode(["x"], None, 8, small_vocab)
        two = encode(["x"], ["y"], 8, small_vocab)
        assert one.token_ids.count(sep) == 1
        assert two.token_ids.count(sep) == 2

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_length_never_exceeds_max(self, na, nb):
        vocab = Vocabulary(RESERVED + ["x", "y"])
        max_len = 16
        seq = encode(["x"] * na, ["y"] * nb if nb else None, max_len, vocab)
        assert len(seq) == max_len
        assert sum(seq.attention_mask) <= max_len


class TestSegmentSentences:
    def test_chinese_separators(self):
        assert segment_sentences("你好。再见！", "chinese") == \
            ["你好。", "再见！"]

    def test_english_rule(self):
        assert segment_sentences("A. B.", "english") == ["A.", "B."]

    def test_no_separators(self):
        doc = "just one long sentence without end"
        assert segment_sentences(doc, "english") == [doc]

    def test_empty_dropped(self):
        assert segment_sentences("", "english") == []
        assert segment_sentences("。。", "chinese") == ["。", "。"]

    def test_chinese_last_sentence_without_separator(self):
        assert segment_sentences(" 你好！ 再见 ", "chinese") == \
            ["你好！", "再见"]
        assert segment_sentences("没有句号", "chinese") == ["没有句号"]

    @pytest.mark.parametrize("document", ["", "A. B."])
    def test_unknown_language_rejected(self, document):
        with pytest.raises(ValueError, match="unknown language 'french'"):
            segment_sentences(document, "french")

    def test_lowercase_continuation_not_split(self):
        doc = "He said hi. then left. Then came back."
        parts = segment_sentences(doc, "english")
        assert parts == ["He said hi. then left.", "Then came back."]
