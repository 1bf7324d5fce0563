import csv
import io
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import labels
from phishdefense.codec import default_vocab
from phishdefense.data import MAX_LINE, LabeledDataset, batches, load_csv, split, text_lines
from phishdefense.errors import DataError

VOCAB = default_vocab()


def write_csv(tmp_path, rows, header="url,label"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0", "http://b.com,1"])
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.records[0] == ("http://a.com", 0)

    def test_word_labels_case_insensitive(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,Phishing", "http://b.com,LEGITIMATE"])
        ds = load_csv(path)
        assert [lab for _, lab in ds.records] == [1, 0]

    def test_unknown_label_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0", "http://b.com,2"])
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/nope.csv")

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0"], header="link,verdict")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_extra_column_is_refused_at_the_header(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0,feed"], header="url,label,source")
        expected = "expected header 'url,label', got ['url', 'label', 'source']"
        with pytest.raises(DataError, match=re.escape(f"{path}: {expected}")):
            load_csv(path)

    def test_header_only_file_with_an_extra_column_is_refused(self, tmp_path):
        path = write_csv(tmp_path, [], header="url,label,source")
        with pytest.raises(DataError, match="expected header 'url,label'"):
            load_csv(path)

    def test_header_ignores_whitespace_and_case(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0"], header=" URL , Label ")
        assert load_csv(path).records == [("http://a.com", 0)]

    def test_quoted_url_with_comma(self, tmp_path):
        path = write_csv(tmp_path, ['"http://a.com/x,y",1'])
        ds = load_csv(path)
        assert ds.records[0] == ("http://a.com/x,y", 1)

    def test_duplicates_kept_unless_dedup(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.com,0", "http://a.com,0"])
        assert len(load_csv(path)) == 2
        assert len(load_csv(path, dedup=True)) == 1

    def test_empty_url_rejected(self, tmp_path):
        path = write_csv(tmp_path, [",0"])
        with pytest.raises(DataError, match="empty url"):
            load_csv(path)

    def test_non_utf8_bytes_name_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"url,label\nhttp://a.com/\xff,1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            load_csv(str(path))

    def test_utf8_bom_loads_like_plain_utf8(self, tmp_path):
        body = "url,label\r\nhttp://a.com/caf\u00e9,1\r\nhttp://b.com,legitimate\r\n".encode()
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(body)
        bom.write_bytes(b"\xef\xbb\xbf" + body)
        assert load_csv(str(bom)).records == load_csv(str(plain)).records

    def test_error_names_the_line_after_a_multiline_field(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text('url,label\n"http://a.example/\nlogin",1\nhttp://b.example,bogus\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:4: unknown label 'bogus'")):
            load_csv(str(path))

    def test_dedup_keeps_the_first_record_of_each_url(self, tmp_path):
        path = write_csv(tmp_path, ["a,1", "b,0", "a,0"])
        assert load_csv(path, dedup=True).records == [("a", 1), ("b", 0)]

    def test_a_field_over_the_csv_limit_names_the_line(self, tmp_path):
        path = write_csv(tmp_path, ["http://a.example,0", "http://b.example/" + "x" * 200_000 + ",1"])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: field larger than field limit")):
            load_csv(path)

    def test_every_row_within_the_csv_limit_loads(self, tmp_path):
        # two fields at csv's limit, every character a quote that quoting doubles
        limit = csv.field_size_limit()
        url = '"' * limit
        row = '"' + url.replace('"', '""') + '","' + " " * (limit - 1) + '1"'
        assert len(row) < MAX_LINE
        assert load_csv(write_csv(tmp_path, [row])).records == [(url, 1)]


class TestTextLines:
    def test_a_line_at_the_bound_is_read(self):
        line = "x" * (MAX_LINE - 1) + "\n"
        assert list(text_lines(io.StringIO(line + "y"), "in")) == [line, "y"]

    def test_a_longer_line_is_refused_after_bound_plus_one_characters(self):
        fh = io.StringIO("a\n" + "x" * (3 * MAX_LINE) + "\nb\n")
        lines = text_lines(fh, "in")
        assert next(lines) == "a\n"
        with pytest.raises(DataError, match=re.escape(f"in:2: line longer than {MAX_LINE} characters")):
            next(lines)
        assert fh.tell() == 2 + MAX_LINE + 1


def toy_dataset(n, phish_every=2):
    return LabeledDataset(
        records=[(f"http://site{i}.com", 1 if i % phish_every == 0 else 0) for i in range(n)]
    )


class TestSplit:
    def test_too_small(self):
        with pytest.raises(DataError):
            split(toy_dataset(1), 0.5, seed=0)
        # round(0.75 * 2) = 2 would leave the test side empty
        with pytest.raises(DataError, match="cannot split 2 records at ratio 0.75"):
            split(toy_dataset(2), 0.75, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            split(toy_dataset(10), 1.0, seed=0)

    def test_plain_split_is_one_seeded_permutation(self):
        ds = toy_dataset(137)
        pair = split(ds, 0.6, seed=5)
        perm = np.random.default_rng(5).permutation(137)
        n_train = round(0.6 * 137)
        assert pair.train.records == [ds.records[i] for i in perm[:n_train]]
        assert pair.test.records == [ds.records[i] for i in perm[n_train:]]

    @given(
        labs=st.lists(st.integers(0, 1), min_size=2, max_size=300),
        ratio=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
        stratify=st.booleans(),
    )
    def test_split_properties(self, labs, ratio, seed, stratify):
        n_train = round(ratio * len(labs))
        assume(0 < n_train < len(labs))
        ds = LabeledDataset(records=[(f"u{i}", lab) for i, lab in enumerate(labs)])
        pair = split(ds, ratio, seed, stratify=stratify)
        assert len(pair.train) == n_train
        assert sorted(pair.train.records + pair.test.records) == sorted(ds.records)
        again = split(ds, ratio, seed, stratify=stratify)
        assert (again.train.records, again.test.records) == (pair.train.records, pair.test.records)
        if stratify:
            for lab in (0, 1):
                got = sum(1 for _, y in pair.train.records if y == lab)
                assert abs(got - ratio * labs.count(lab)) <= 1


class TestBatches:
    def test_reshuffle_same_multiset(self):
        ds = toy_dataset(50)
        lab1 = np.concatenate([b[2] for b in batches(ds, 7, 1, VOCAB, 8)])
        lab2 = np.concatenate([b[2] for b in batches(ds, 7, 2, VOCAB, 8)])
        assert not np.array_equal(lab1, lab2)
        assert Counter(lab1.tolist()) == Counter(lab2.tolist())

    def test_epoch_labels_are_permutation(self):
        ds = toy_dataset(23)
        epoch = np.concatenate([b[2] for b in batches(ds, 4, 3, VOCAB, 8)])
        assert Counter(epoch.tolist()) == Counter(labels(ds).tolist())
