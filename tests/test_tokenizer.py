import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertfit.tokenizer import (CLS, PAD, RESERVED, SEP, UNK, Vocabulary,
                               build_vocab, detokenize, encode,
                               segment_sentences, tokenize)


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
        assert tokenize(detokenize(toks), vocab) == toks


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
        assert seq.n_real == 511
        assert len(seq) == 512

    def test_overflow_rejected(self, small_vocab):
        with pytest.raises(ValueError, match="overflow"):
            encode(["x"] * 5, None, 6, small_vocab)

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
        assert seq.n_real <= max_len


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

    def test_lowercase_continuation_not_split(self):
        doc = "He said hi. then left. Then came back."
        parts = segment_sentences(doc, "english")
        assert parts == ["He said hi. then left.", "Then came back."]
