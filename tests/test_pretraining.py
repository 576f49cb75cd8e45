import numpy as np
import pytest

from bertfit import pretraining as pre
from bertfit.data import Dataset, Example
from bertfit.model import EncoderConfig, init_model
from bertfit.optim import StlrSchedule
from bertfit.pretraining import (MaskingPolicy, apply_masking,
                                 assemble_corpus, build_nsp_pair,
                                 further_pretrain, held_out_mlm_loss,
                                 make_pretrain_example, read_corpus,
                                 trim_pair, write_corpus)
from bertfit.rng import Rng
from bertfit.tokenizer import RESERVED, Vocabulary, encode
from conftest import first_words, weighted_sum


def make_dataset(name, texts):
    return Dataset(name=name,
                   examples=[Example(label=0, text=t) for t in texts],
                   n_classes=2)


@pytest.fixture
def vocab():
    return Vocabulary(RESERVED + [c for c in "abcdefghij"])


class TestAssembleCorpus:
    def test_within_task_only_own_documents(self):
        imdb = make_dataset("imdb", ["A good film. Truly great."])
        docs = assemble_corpus([imdb])
        assert len(docs) == 1
        assert docs[0][0].startswith("A good film")

    def test_overlap_removed_once_and_test_excluded(self):
        shared = "This exact review appears twice. It is shared."
        held_out = "Held out test document. Do not train on it."
        datasets = [make_dataset("yelp_p", [shared, held_out]),
                    make_dataset("yelp_f", [shared, "Unique doc. Yes."])]
        docs = assemble_corpus(datasets, dedup_pairs=[("yelp_p", "yelp_f")],
                               exclude_texts=[held_out])
        joined = [" ".join(d) for d in docs]
        assert sum("appears twice" in d for d in joined) == 1
        assert not any("Held out" in d for d in joined)
        assert len(docs) == 2

    def test_multiset_arithmetic(self):
        texts_a = [f"Document number {i}. More text." for i in range(5)]
        texts_b = texts_a[:2] + ["Fresh one. Done."]
        docs = assemble_corpus(
            [make_dataset("a", texts_a), make_dataset("b", texts_b)],
            dedup_pairs=[("a", "b")])
        assert len(docs) == 5 + 3 - 2

    def test_documents_in_list_order(self):
        a = make_dataset("a", ["First of a. Yes.", "Second of a. Yes."])
        b = make_dataset("b", ["Only b. Yes."])
        firsts = lambda docs: [d[0] for d in docs]
        assert firsts(assemble_corpus([b, a])) == \
            ["Only b.", "First of a.", "Second of a."]
        assert firsts(assemble_corpus([a, b])) == \
            ["First of a.", "Second of a.", "Only b."]

    def test_dedup_pairs_match_dataset_names(self):
        shared = "Seen in both. Twice."
        a, b, c = (make_dataset(n, [shared]) for n in "abc")
        # a pair dedups only the datasets it names, by `Dataset.name`
        assert len(assemble_corpus([a, b, c], dedup_pairs=[("a", "b")])) == 2
        assert len(assemble_corpus([a, b, c], dedup_pairs=[("x", "y")])) == 3
        assert len(assemble_corpus([a, b, c])) == 3

    def test_idempotent_byte_identical(self, tmp_path):
        datasets = [make_dataset("a", ["One sentence. Two sentences."])]
        p1, p2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        write_corpus(assemble_corpus(datasets), p1)
        write_corpus(assemble_corpus(datasets), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_corpus(p1) == [["One sentence.", "Two sentences."]]


class TestReadCorpus:
    def test_whitespace_line_ends_a_document(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("One.\nTwo.\n \t\nThree.\n", encoding="utf-8")
        assert read_corpus(p) == [["One.", "Two."], ["Three."]]

    def test_written_documents_round_trip(self, tmp_path):
        docs = [["One.", "Two."], ["Three."]]
        p = tmp_path / "c.txt"
        write_corpus(docs, p)
        assert p.read_text(encoding="utf-8") == "One.\nTwo.\n\nThree.\n"
        assert read_corpus(p) == docs


class TestNspPairs:
    DOCS = [[f"d{d}s{s}" for s in range(4)] for d in range(6)]

    def test_balance(self):
        rng = Rng(0)
        hits = sum(build_nsp_pair(i % 6, self.DOCS, rng)[2]
                   for i in range(10000))
        assert abs(hits / 10000 - 0.5) < 0.02

    def test_forced_next_two_sentence_doc(self):
        # seed 1 draws a random pair here, seed 2 the next sentence
        docs = [["first.", "second."], ["other."]]
        assert build_nsp_pair(0, docs, Rng(1)) == ("first.", "other.", False)
        assert build_nsp_pair(0, docs, Rng(2)) == ("first.", "second.", True)

    def test_single_sentence_doc_falls_back(self):
        docs = [["only."], ["another.", "one."]]
        _, _, is_next = build_nsp_pair(0, docs, Rng(2))
        assert is_next is False

    def test_one_document_corpus_pairs_within_it(self):
        assert build_nsp_pair(0, [["only."]], Rng(0)) == \
            ("only.", "only.", False)
        doc = ["s0", "s1", "s2"]
        rng = Rng(4)
        pairs = [build_nsp_pair(0, [doc], rng) for _ in range(50)]
        assert {is_next for _, _, is_next in pairs} == {True, False}
        for a, b, is_next in pairs:
            assert a in doc[:-1] and b in doc
            if is_next:
                assert doc.index(b) == doc.index(a) + 1

    def test_random_segment_from_other_document(self):
        rng = Rng(3)
        for _ in range(50):
            a, b, is_next = build_nsp_pair(2, self.DOCS, rng)
            assert a.startswith("d2")
            if not is_next:
                assert not b.startswith("d2")

    def test_trimming_longer_segment_first(self):
        a, b = trim_pair(["a"] * 100, ["b"] * 60, 128)
        assert (len(a), len(b)) == (65, 60)

    @pytest.mark.parametrize("max_len", [3, 4])
    def test_max_len_below_a_pair_rejected(self, vocab, max_len):
        with pytest.raises(ValueError, match=f"max_len {max_len}"):
            make_pretrain_example(0, self.DOCS, vocab, MaskingPolicy(),
                                  max_len, Rng(0))

    def test_shortest_pair_has_both_segments(self, vocab):
        ex = make_pretrain_example(0, self.DOCS, vocab, MaskingPolicy(), 5,
                                   Rng(0))
        assert ex.seq.segment_ids == [0, 0, 0, 1, 1]
        assert ex.seq.attention_mask == [1] * 5


class TestMasking:
    def _long_seq(self, vocab, n=120):
        toks = [vocab.id_to_token[5 + (i % 10)] for i in range(n)]
        return encode(toks[: n // 2], toks[n // 2:], n + 3, vocab)

    def test_statistics(self, vocab):
        policy = MaskingPolicy()
        total = corrupted = masked = rand = kept = 0
        seq = self._long_seq(vocab)
        for trial in range(1000):
            ex = apply_masking(seq, policy, Rng(trial), vocab)
            # content tokens, minus specials
            total += sum(seq.attention_mask) - 3
            corrupted += len(ex.mlm_positions)
            for pos, lab in zip(ex.mlm_positions, ex.mlm_labels):
                now = ex.seq.token_ids[pos]
                if now == vocab.mask_id:
                    masked += 1
                elif now == lab:
                    kept += 1
                else:
                    rand += 1
        assert total > 100_000
        assert abs(corrupted / total - 0.15) < 0.005
        assert abs(masked / corrupted - 0.80) < 0.02
        # random-replacement picks may collide with the original token, so
        # count them against the combined 20% tail
        assert abs((rand + kept) / corrupted - 0.20) < 0.02

    def test_zero_probability(self, vocab):
        seq = self._long_seq(vocab)
        ex = apply_masking(seq, MaskingPolicy(mask_prob=0.0), Rng(0), vocab)
        assert ex.mlm_positions == []
        assert ex.seq.token_ids == seq.token_ids

    def test_specials_never_corrupted(self, vocab):
        seq = self._long_seq(vocab)
        special_pos = [i for i, t in enumerate(seq.token_ids)
                       if t in (vocab.cls_id, vocab.sep_id, vocab.pad_id)]
        for trial in range(200):
            ex = apply_masking(seq, MaskingPolicy(mask_prob=0.9),
                               Rng(trial), vocab)
            assert not set(ex.mlm_positions) & set(special_pos)

    def test_reproducible(self, vocab):
        seq = self._long_seq(vocab)
        a = apply_masking(seq, MaskingPolicy(), Rng(7), vocab)
        b = apply_masking(seq, MaskingPolicy(), Rng(7), vocab)
        assert a.seq.token_ids == b.seq.token_ids
        assert a.mlm_positions == b.mlm_positions


class TestLossMasking:
    def test_mlm_loss_only_on_labeled_positions(self, vocab):
        cfg = EncoderConfig(n_layers=1, hidden=8, n_heads=2,
                            vocab_size=len(vocab), max_positions=16,
                            dropout=0.0, dtype="f8")
        model = init_model(cfg, Rng(0))
        docs = [["a b c d e", "f g h i j"], ["c c d d", "e e f f"]]
        ex = make_pretrain_example(0, docs, vocab, MaskingPolicy(0.4),
                                   16, Rng(1))
        assert ex.mlm_positions
        from bertfit import autodiff as ad
        from bertfit.model import encode_batch, mlm_logits
        from bertfit.pretraining import pretrain_batch_loss
        with ad.Tape():
            _, mlm_loss, _ = pretrain_batch_loss(model, [ex])
        ids = np.array([ex.seq.token_ids])
        outs = encode_batch(model, ids, np.array([ex.seq.segment_ids]),
                            np.array([ex.seq.attention_mask]))
        logits = mlm_logits(model, outs, np.arange(ids.size)).data
        # zero the logits at unlabeled positions: masked-mean loss over the
        # labeled rows must be unchanged
        zeroed = np.zeros_like(logits)
        zeroed[ex.mlm_positions] = logits[ex.mlm_positions]
        losses = []
        for pos, lab in zip(ex.mlm_positions, ex.mlm_labels):
            z = zeroed[pos] - zeroed[pos].max()
            losses.append(np.log(np.exp(z).sum()) - z[lab])
        assert np.mean(losses) == pytest.approx(mlm_loss, rel=1e-9)


class TestGatheredMlmLoss:
    """pretrain_batch_loss has the top block compute only [CLS] and the
    masked rows, and sends only masked rows through the MLM head; it must
    match the masked mean over the full encoder's (B, S, V) logits."""

    def _model(self, vocab, n_layers=1):
        cfg = EncoderConfig(n_layers=n_layers, hidden=8, n_heads=2,
                            vocab_size=len(vocab), max_positions=16,
                            dropout=0.1, dtype="f8")
        return init_model(cfg, Rng(0))

    def _examples(self, vocab, mask_probs):
        docs = [["a b c d e", "f g h i j"], ["c c d d", "e e f f"],
                ["j i h g", "f e d c b"]]
        return [make_pretrain_example(i % len(docs), docs, vocab,
                                      MaskingPolicy(p), 16, Rng(10 + i))
                for i, p in enumerate(mask_probs)]

    def _losses_and_grads(self, model, loss_fn):
        from bertfit import autodiff as ad
        with ad.Tape() as tape:
            loss = loss_fn()
        params = model.parameters()
        for p in params:
            p.zero_grad()
        ad.backward(tape, loss, parameters=params)
        return float(loss.data), {k: v.grad.copy()
                                  for k, v in model.params.items()}

    def _full_logit_loss(self, model, examples, rng):
        """Masked mean over the rows of the full logits, row by row,
        dropout drawn from `rng` if given."""
        from bertfit import autodiff as ad
        from bertfit.model import encode_batch, mlm_logits, nsp_logits
        ids = np.array([ex.seq.token_ids for ex in examples])
        outs = encode_batch(
            model, ids, np.array([ex.seq.segment_ids for ex in examples]),
            np.array([ex.seq.attention_mask for ex in examples]), rng=rng)
        B, S = ids.shape
        flat = mlm_logits(model, outs, np.arange(B * S))
        assert flat.shape == (B * S, model.config.vocab_size)
        terms = [ad.cross_entropy(ad.embedding(flat, [bi * S + pos]),
                                  np.array([lab]))
                 for bi, ex in enumerate(examples)
                 for pos, lab in zip(ex.mlm_positions, ex.mlm_labels)]
        nsp = ad.cross_entropy(nsp_logits(model, outs),
                               np.array([int(ex.is_next) for ex in examples]))
        if not terms:
            return nsp
        mlm = terms[0]
        for t in terms[1:]:
            mlm = ad.add(mlm, t)
        return ad.add(weighted_sum(mlm, 1.0 / len(terms)), nsp)

    def _assert_matches_full(self, vocab, mask_probs, mode="eval",
                             n_layers=1, per_tensor=True):
        from bertfit.pretraining import pretrain_batch_loss
        model = self._model(vocab, n_layers)
        examples = self._examples(vocab, mask_probs)
        if 0.0 in mask_probs:
            assert not examples[mask_probs.index(0.0)].mlm_positions

        def stream():               # equal draws for both runs
            return Rng(5) if mode == "train" else None

        got, got_grads = self._losses_and_grads(
            model, lambda: pretrain_batch_loss(model, examples, stream())[0])
        want, want_grads = self._losses_and_grads(
            model, lambda: self._full_logit_loss(model, examples, stream()))
        assert got == pytest.approx(want, rel=1e-12)
        largest = max(np.abs(g).max() for g in want_grads.values())
        for name, g in want_grads.items():
            tol = max(np.abs(g).max(), 1e-300) if per_tensor else largest
            assert np.abs(got_grads[name] - g).max() / tol <= 1e-12, name

    @pytest.mark.parametrize("mask_probs", [(0.4, 0.3, 0.5),
                                            (0.4, 0.0, 0.5)])
    def test_matches_full_logit_loss_and_grads(self, vocab, mask_probs):
        self._assert_matches_full(vocab, mask_probs)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("mask_probs", [(0.4, 0.3, 0.5), (0.4, 0.0, 0.5),
                                            (0.0, 0.0)],
                             ids=["all-masked", "one-unmasked", "none"])
    def test_two_blocks_with_dropout_match_full(self, vocab, mask_probs,
                                                mode):
        # dropout on: the masks of the read rows are the full encoder's.
        # A key bias shifts a whole score row, so its gradient is zero up
        # to roundoff: every tensor is held to the largest gradient.
        self._assert_matches_full(vocab, mask_probs, mode, n_layers=2,
                                  per_tensor=False)

    def test_nsp_only_batch_has_zero_mlm_loss(self, vocab):
        from bertfit import autodiff as ad
        from bertfit.pretraining import pretrain_batch_loss
        model = self._model(vocab)
        examples = self._examples(vocab, (0.0, 0.0))
        with ad.Tape():
            loss, mlm, nsp = pretrain_batch_loss(model, examples)
        assert mlm == 0.0
        assert float(loss.data) == nsp


class TestFurtherPretrain:
    def _setup(self):
        docs = [["a b c d", "e f g h", "i j a b"],
                ["c d e f", "g h i j"],
                ["b b c c", "d d e e", "f f g g"]]
        vocab = Vocabulary(RESERVED + [c for c in "abcdefghij"])
        cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                            vocab_size=len(vocab), max_positions=16,
                            dropout=0.0)
        return docs, vocab, cfg

    def test_initial_loss_near_uniform(self):
        docs, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        loss, mlm, nsp = held_out_mlm_loss(model, docs, vocab, Rng(1),
                                           n_examples=32, max_len=16)
        expected = np.log(len(vocab)) + np.log(2.0)
        assert abs(loss - expected) / expected < 0.05

    def test_held_out_batches_share_no_example_stream(self, monkeypatch):
        """Batches scored with `Rng(s).derive(100)` and `derive(101)`, as
        the benchmark scores consecutive held-out batches, build no
        example from the same stream (nested `derive`s would: example 1
        of the one is example 0 of the other)."""
        docs, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        build, streams = pre.make_pretrain_example, []

        def spy(*args):
            streams.append(first_words(args[-1]))
            return build(*args)
        monkeypatch.setattr(pre, "make_pretrain_example", spy)
        batches = []
        for j in (100, 101):
            held_out_mlm_loss(model, docs, vocab, Rng(3).derive(j),
                              n_examples=4, max_len=16)
            batches.append(set(streams))
            streams.clear()
        assert len(batches[0]) >= 4 and len(batches[1]) >= 4
        assert not batches[0] & batches[1]

    @pytest.mark.parametrize("seed", [0, 7, 41])
    def test_no_example_draws_the_initial_weights_stream(self, seed,
                                                         monkeypatch):
        """`bertfit pretrain` and acceptance test 8 draw the weights from
        `Rng(s).derive(1)` and loop on `Rng(s).derive(2)`: no example
        stream of a 300-step run of batch 1 starts as the weights' stream
        (keyed by nested `derive`s, example 229 did)."""
        docs, vocab, cfg = self._setup()
        build, streams = pre.make_pretrain_example, []

        def spy(*args):
            streams.append(first_words(args[-1]))
            return build(*args)
        monkeypatch.setattr(pre, "make_pretrain_example", spy)
        further_pretrain(init_model(cfg, Rng(0)), docs, vocab, 300,
                         StlrSchedule(total_steps=300, peak_lr=1e-3),
                         Rng(seed).derive(2), batch_size=1, max_len=16)
        assert len(set(streams)) == 300
        assert first_words(Rng(seed).derive(1)) not in streams

    def test_loss_decreases(self):
        docs, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        before, _, _ = held_out_mlm_loss(model, docs, vocab, Rng(1),
                                         n_examples=32, max_len=16)
        sched = StlrSchedule(total_steps=300, peak_lr=5e-3)
        further_pretrain(model, docs, vocab, 300, sched, Rng(2),
                         batch_size=8, max_len=16)
        after, _, _ = held_out_mlm_loss(model, docs, vocab, Rng(1),
                                        n_examples=32, max_len=16)
        assert after < 0.8 * before

    def test_checkpoint_cadence(self, tmp_path):
        docs, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        sched = StlrSchedule(total_steps=35, peak_lr=1e-3)
        res = further_pretrain(model, docs, vocab, 35, sched, Rng(1),
                               batch_size=2, max_len=16,
                               checkpoint_every=10,
                               checkpoint_dir=str(tmp_path))
        assert [s for s, _ in res.checkpoints] == [10, 20, 30, 35]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_recorded_not_raised(self):
        docs, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        sched = StlrSchedule(total_steps=10, peak_lr=1e30)
        res = further_pretrain(model, docs, vocab, 10, sched, Rng(1),
                               batch_size=4, max_len=16)
        assert res.diverged
        assert len(res.history) <= 1

    def test_empty_corpus_rejected(self):
        _, vocab, cfg = self._setup()
        model = init_model(cfg, Rng(0))
        sched = StlrSchedule(total_steps=10, peak_lr=1e-3)
        with pytest.raises(ValueError):
            further_pretrain(model, [], vocab, 10, sched, Rng(1))
