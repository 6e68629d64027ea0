import pytest

from coverscope import dataset
from coverscope.dataset import (
    KIND_BOTH,
    KIND_R,
    KIND_R2,
    KIND_S,
    KIND_S4,
    CorpusError,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    verify_corpus,
)

# L values per record, frozen from independent brute-force scans
EXPECTED_LCMS = {
    (78557, 1): 36,
    (271129, 1): 24,
    (322523, 1): 36,
    (327739, 1): 48,
    (1777613, 1): 72,
    (15511380746462593381, 1): 64,
    (509203, -1): 24,
    (777149, -1): 36,
    (143665583045350793098657, -1): 48,
    (143665583045350793098657, 1): 180,
    (878503122374924101526292469, -1): 144,
    (878503122374924101526292469, 1): 120,
    (623506356601958507977841221247, 1): 64,
}


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(dataset.default_corpus_path())


class TestLoad:
    def test_counts_per_kind(self, corpus):
        counts = {}
        for record in corpus:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        assert counts[KIND_S] == 19  # 1 + 1 + 16 listed covers + the Fermat-factor one
        assert counts[KIND_R] == 5
        assert counts[KIND_BOTH] == 5
        assert counts[KIND_S4] == 2
        assert counts[KIND_R2] == 1
        assert len(corpus) == 32

    def test_spot_records(self, corpus):
        first = corpus[0]
        assert first.kind == KIND_S
        assert first.k == 78557
        assert first.covers == ((1, (3, 5, 7, 13, 19, 37, 73)),)
        both = next(r for r in corpus if r.kind == KIND_BOTH)
        assert both.k == 143665583045350793098657
        assert both.covers[0] == (-1, (3, 5, 13, 17, 97, 241, 257))
        assert both.covers[1][0] == 1

    def test_square_root_record_computes_k(self, corpus):
        record = next(r for r in corpus if r.kind == KIND_R2)
        assert len(str(record.root)) == 49
        assert record.k == record.root**2
        assert len(record.covers[0][1]) == 20

    def test_fourth_power_roots_check_out(self, corpus):
        for record in corpus:
            if record.kind == KIND_S4:
                assert record.root**4 == record.k

    def test_all_k_odd(self, corpus):
        assert all(r.k % 2 == 1 for r in corpus)


class TestParseErrors:
    def test_unknown_tag(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus("X 7 3,5\n")

    def test_even_k(self):
        with pytest.raises(CorpusError, match="odd"):
            parse_corpus("S 78556 3,5,7\n")

    def test_empty_cover(self):
        with pytest.raises(CorpusError, match="line 3"):
            parse_corpus("# header\n\nS 78557 \n")

    def test_junk_divisor(self):
        with pytest.raises(CorpusError):
            parse_corpus("S 78557 3,five,7\n")

    def test_non_ascii_digits(self):
        # Arabic-Indic 78557 and a superscript two: both pass str.isdigit()
        with pytest.raises(CorpusError, match="k must be a decimal"):
            parse_corpus("S \u0667\u0668\u0665\u0665\u0667 3,5,7,13,19,37,73\n")
        with pytest.raises(CorpusError, match="divisor"):
            parse_corpus("S 78557 3,5,\u00b2\n")

    def test_root_mismatch(self):
        with pytest.raises(CorpusError, match="root"):
            parse_corpus("S4 625 root=3 partial=3,17\n")

    def test_missing_both_tag(self):
        with pytest.raises(CorpusError):
            parse_corpus("B 15 3,5 S:3,5\n")

    def test_line_numbers_reported(self):
        text = "S 78557 3,5,7,13,19,37,73\nR 509202 3,5\n"
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus(text)


class TestRoundTrip:
    def test_parse_serialize_parse(self, corpus):
        text = serialize_corpus(corpus)
        assert parse_corpus(text) == [
            # line numbers shift once comments are gone; compare the content
            type(r)(r.kind, r.k, r.covers, r.root, r.note, i + 1)
            for i, r in enumerate(corpus)
        ]

    def test_bundled_file_is_canonical(self, corpus):
        with open(dataset.default_corpus_path(), encoding="utf-8") as fh:
            body = [
                " ".join(line.split())
                for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            ]
        canonical = serialize_corpus(corpus).splitlines()
        assert body == canonical


class TestVerifyCorpus:
    def test_full_corpus_green(self, corpus):
        report = verify_corpus(corpus)
        assert report.ok
        failures = [r for r in report.results if not r.ok]
        assert failures == []
        by_key = {}
        for res in report.results:
            for (sign, _), lcm in zip(res.record.covers, res.lcms):
                by_key[(res.record.k, sign)] = lcm
        for key, expected in EXPECTED_LCMS.items():
            assert by_key[key] == expected, key

    def test_truncated_cover_fails_with_residue(self, corpus):
        text = "S 78557 3,5,7,13,19,37\nS 271129 3,5,7,13,17,241\n"
        report = verify_corpus(parse_corpus(text))
        assert not report.ok
        assert not report.results[0].ok
        assert "uncovered residue 3" in report.results[0].detail
        assert report.results[1].ok

    def test_improper_witness_fails(self):
        # 157115 = 78557*2 + 1 claims n = 1 first, where it is the whole term.
        report = verify_corpus(parse_corpus("S 78557 157115,3,5,7,13,19,37,73\n"))
        assert not report.ok
        assert report.results[0].detail == "witness fails at n=1"

    def test_swapped_both_tags_fail(self, corpus):
        both = next(r for r in corpus if r.k == 143665583045350793098657)
        (r_sign, r_cov), (s_sign, s_cov) = both.covers
        swapped = dataset.CorpusRecord(
            KIND_BOTH, both.k, ((r_sign, s_cov), (s_sign, r_cov)), None, "", 1
        )
        report = verify_corpus([swapped])
        assert not report.ok

    def test_each_swapped_sign_fails_alone(self, corpus):
        both = next(r for r in corpus if r.k == 143665583045350793098657)
        (_, r_cov), (_, s_cov) = both.covers
        riesel_with_s = verify_corpus(
            [dataset.CorpusRecord(KIND_R, both.k, ((-1, s_cov),), None, "", 1)]
        )
        assert "no offset" in riesel_with_s.results[0].detail
        sierpinski_with_r = verify_corpus(
            [dataset.CorpusRecord(KIND_S, both.k, ((1, r_cov),), None, "", 1)]
        )
        assert "uncovered residue 0" in sierpinski_with_r.results[0].detail

    def test_empty_corpus_is_success(self):
        report = verify_corpus(parse_corpus("# nothing here\n"))
        assert report.ok
        assert report.results == ()

    def test_report_renderings(self, corpus):
        report = verify_corpus(corpus[:3])
        text = dataset.report_to_text(report)
        assert "3 records: 3 ok, 0 failed" in text
        doc = dataset.report_to_dict(report)
        assert doc["ok"] is True
        assert [r["k"] for r in doc["records"]] == ["78557", "271129", "271577"]


def test_period_and_offset_correctness_corpus_wide(corpus):
    # every entry of every record: b is the least period of 2 mod d (checked
    # against the naive scan, so minimality comes for free) and the offset
    # divides exactly as a full bignum
    from coverscope import cover
    from oracles import order_naive

    for record in corpus:
        for sign, divisors in record.covers:
            candidate = cover.Candidate(record.k, sign)
            for d in divisors:
                entry = cover.build_entry(candidate, d)
                assert entry.b == order_naive(2, d)
                assert (2**entry.b - 1) % d == 0
                assert (record.k * 2**entry.c + sign) % d == 0
                assert 0 <= entry.c < entry.b


def test_env_override_changes_default_path(monkeypatch, tmp_path):
    target = tmp_path / "alt.txt"
    target.write_text("S 78557 3,5,7,13,19,37,73\n")
    monkeypatch.setenv(dataset.ENV_CORPUS, str(target))
    assert dataset.default_corpus_path() == str(target)
    assert len(load_corpus(dataset.default_corpus_path())) == 1
