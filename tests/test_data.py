from collections import Counter

import pytest

from bertfit.data import (Dataset, Example, InputError, load_dataset,
                          split_validation, subsample)


def histogram(ds):
    return Counter(ex.label for ex in ds.examples)


def write_csv(path, rows):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for row in rows:
            w.writerow(row)


class TestLoadDataset:
    def test_one_based_shift(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["3", "good product"]])
        ds = load_dataset(p, n_classes=5)
        assert ds.examples[0].label == 2
        assert ds.examples[0].text == "good product"

    def test_title_body_joined(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["1", "A Title", "The body text."]])
        ds = load_dataset(p, "csv-label-title-body")
        assert ds.examples[0].text == "A Title The body text."

    def test_ag_layout_histogram(self, tmp_path):
        p = tmp_path / "ag.csv"
        rows = [["1", "t", "b"], ["2", "t", "b"], ["2", "t", "b"],
                ["3", "t", "b"], ["4", "t", "b"], ["4", "t", "b"],
                ["4", "t", "b"], ["1", "t", "b"]]
        write_csv(p, rows)
        ds = load_dataset(p, "csv-label-title-body", n_classes=4)
        assert histogram(ds) == {0: 2, 1: 2, 2: 1, 3: 3}

    def test_quoted_newlines_and_quotes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('"1","line one\nline two"\n"2","she said ""hi"""\n',
                     encoding="utf-8")
        ds = load_dataset(p)
        assert ds.examples[0].text == "line one\nline two"
        assert ds.examples[1].text == 'she said "hi"'

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('"1","ok"\n"2"\n', encoding="utf-8")
        with pytest.raises(InputError, match=":2:"):
            load_dataset(p)

    def test_unseen_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["7", "text"]])
        with pytest.raises(InputError, match="outside"):
            load_dataset(p, n_classes=4)

    @pytest.mark.parametrize("rows, message", [
        ([["1", "ok"], ["one", "text"]], ":2: label 'one' is not an integer"),
        ([["1", "ok"], ["2", " \t "]], ":2: empty text"),
        ([], ": no examples")])
    def test_bad_rows_and_empty_file_named(self, tmp_path, rows, message):
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        with pytest.raises(InputError, match=f"^{p}{message}$"):
            load_dataset(p)


def balanced_dataset(n=100, n_classes=2):
    return Dataset(name="toy",
                   examples=[Example(label=i % n_classes, text=f"ex {i}")
                             for i in range(n)],
                   n_classes=n_classes)


class TestSplitValidation:
    def test_sizes(self):
        train, val = split_validation(balanced_dataset(100), 0.1, 0)
        assert (len(train), len(val)) == (90, 10)

    def test_deterministic(self):
        a = split_validation(balanced_dataset(100), 0.1, 5)
        b = split_validation(balanced_dataset(100), 0.1, 5)
        assert [e.text for e in a[1].examples] == \
            [e.text for e in b[1].examples]

    def test_stratified(self):
        train, val = split_validation(balanced_dataset(200, 4), 0.25, 1)
        for hist in (histogram(train), histogram(val)):
            counts = list(hist.values())
            assert max(counts) - min(counts) <= 1

    def test_disjoint_exhaustive(self):
        ds = balanced_dataset(60)
        train, val = split_validation(ds, 0.2, 2)
        texts = sorted(e.text for e in train.examples + val.examples)
        assert texts == sorted(e.text for e in ds.examples)

    @pytest.mark.parametrize("fraction", [0.5, 0.75, 0.9])
    def test_every_class_keeps_a_training_example(self, fraction):
        ds = Dataset(name="t", n_classes=2, examples=[
            Example(label, str(i)) for i, label in enumerate([0, 0, 1, 1, 1])])
        for split in split_validation(ds, fraction, 0):
            assert histogram(split).keys() == {0, 1}

    def test_tiny_class_rejected(self):
        ds = Dataset(name="t", examples=[Example(0, "a"), Example(1, "b"),
                                         Example(0, "c")], n_classes=2)
        with pytest.raises(ValueError, match="class 1"):
            split_validation(ds, 0.5, 0)


# an uneven 3-class dataset whose labels first appear as 2, 0, 1
UNEVEN = Dataset(name="uneven", n_classes=3, examples=[
    Example(label, str(i)) for i, label in enumerate(
        [2, 0, 2, 1, 0, 2, 2, 0, 1, 2, 0, 0, 2, 1, 2, 0, 2, 1, 0, 2])])


@pytest.mark.parametrize("seed, val, sub", [
    (0, [5, 7, 9, 10, 12, 17], [1, 5, 7, 9, 10, 12, 13, 14, 17, 18]),
    (1, [0, 2, 4, 8, 16, 18], [0, 2, 3, 4, 7, 8, 9, 10, 16, 18])])
def test_split_and_subsample_draw_the_pinned_indices(seed, val, sub):
    """Each class is permuted by `Rng(seed)` in order of first appearance
    and its first picks taken: these indices pin those draws."""
    def indices(ds):
        return [int(ex.text) for ex in ds.examples]
    train_ds, val_ds = split_validation(UNEVEN, 0.3, seed)
    assert indices(val_ds) == val
    assert indices(train_ds) == sorted(set(range(len(UNEVEN))) - set(val))
    assert indices(subsample(UNEVEN, 0.5, seed)) == sub


class TestSubsample:
    def test_full_proportion_identity(self):
        ds = balanced_dataset(50)
        assert subsample(ds, 1.0, 0) is ds

    def test_imdb_headline_fraction(self):
        ds = balanced_dataset(25_000)
        sub = subsample(ds, 0.004, 0)
        assert len(sub) == 100

    def test_nested_monotone(self):
        ds = balanced_dataset(1000)
        sizes = [len(subsample(ds, p, 3)) for p in (0.01, 0.1, 1.0)]
        assert sizes == sorted(sizes) and sizes[0] < sizes[1] < sizes[2]

    def test_rounds_to_zero_keeps_one(self):
        ds = balanced_dataset(10)
        with pytest.warns(UserWarning):
            sub = subsample(ds, 0.01, 0)
        assert histogram(sub) == {0: 1, 1: 1}

    def test_stratified(self):
        sub = subsample(balanced_dataset(400, 4), 0.1, 7)
        assert all(v == 10 for v in histogram(sub).values())
