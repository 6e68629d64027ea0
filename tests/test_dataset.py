import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverscope import algebraic, arith, check, dataset
from coverscope.dataset import (
    KIND_BOTH,
    KIND_R,
    KIND_R2,
    KIND_S,
    KIND_S4,
    CorpusError,
    CorpusRecord,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    serialize_record,
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

    def test_k_too_long_to_print(self):
        # Reports write k in decimal, which Python refuses past its digit
        # limit: a derived k is refused at parse time, as a stated one is.
        limit = sys.get_int_max_str_digits()
        for line in (
            f"R2 root={'3' * (limit // 2 + 1)} partial=7,17",
            f"S4 {'1' * (limit + 1)} root=3 partial=3",
        ):
            with pytest.raises(CorpusError, match="^line 2: "):
                parse_corpus(f"S 78557 3,5,7,13,19,37,73\n{line}\n")
        k = parse_corpus(f"R2 root={'3' * (limit // 2)} partial=7,17\n")[0].k
        assert len(str(k)) == limit  # the longest k allowed

    def test_line_numbers_reported(self):
        text = "S 78557 3,5,7,13,19,37,73\nR 509202 3,5\n"
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a wrong field count quotes the tag's layout
            ("S 78557", "expected 'S <k> <cover>'"),
            ("R 509203 3,5 7", "expected 'R <k> <cover>'"),
            ("B 15 3,5", "expected 'B <k> R:<cover> S:<cover>'"),
            ("S4 625 root=5", "expected 'S4 <k> root=<i> partial=<cover>'"),
            ("R2 root=3 partial=3 x", "expected 'R2 root=<a> partial=<cover>'"),
            # a wrong prefix names the one expected
            ("S4 625 rot=5 partial=3", "expected root=..., got 'rot=5'"),
            ("S4 625 root=5 partia=3", "expected partial=..., got 'partia=3'"),
            ("R2 partial=3 root=3", "expected root=..., got 'partial=3'"),
            ("R2 root=3 3", "expected partial=..., got '3'"),
            ("B 15 3,5 S:3,5", "expected R:..., got '3,5'"),
            ("B 15 R:3,5 R:3,5", "expected S:..., got 'R:3,5'"),
            # empty lists; split() never yields an empty plain cover field
            ("S 78557 ,", "cover divisor must be a decimal integer, got ''"),
            ("B 15 R: S:3", "empty Riesel cover"),
            ("B 15 R:3 S:", "empty Sierpinski cover"),
            ("S4 625 root=5 partial=", "empty partial cover"),
            ("R2 root=3 partial=", "empty partial cover"),
            # a non-digit divisor under each list label
            ("S 78557 3,five,7", "cover divisor must be a decimal integer, got 'five'"),
            ("B 15 R:3,x S:3", "Riesel cover divisor must be a decimal integer, got 'x'"),
            ("B 15 R:3 S:3,x", "Sierpinski cover divisor must be a decimal integer, got 'x'"),
            ("S4 625 root=5 partial=3,x", "partial cover divisor must be a decimal integer, got 'x'"),
            ("R2 root=3 partial=x", "partial cover divisor must be a decimal integer, got 'x'"),
            # digits of other scripts
            ("S ٧٨٥٥٧ 3,5", "k must be a decimal integer, got '٧٨٥٥٧'"),
            ("S 78557 3,5,²", "cover divisor must be a decimal integer, got '²'"),
            ("R2 root=٣ partial=3", "root must be a decimal integer, got '٣'"),
            ("S4 625 root= partial=3", "root must be a decimal integer, got ''"),
            # fields are checked in line order, root^4 != k last
            ("S4 625 root=3 partial=3,17", "root^4 != k"),
            ("S4 625 root=3 partial=x", "partial cover divisor must be a decimal integer, got 'x'"),
            ("S4 624 root=x partial=3", "k must be odd and positive, got 624"),
            ("S 4 3", "k must be odd and positive, got 4"),
            ("S 0 3", "k must be odd and positive, got 0"),
            ("R -1 3", "k must be a decimal integer, got '-1'"),
            # the derived k = root^2 is held to the same rule
            ("R2 root=2 partial=3", "k must be odd and positive, got 4"),
            ("R2 root=0 partial=3", "k must be odd and positive, got 0"),
            ("X 7 3,5", "unknown kind tag 'X'"),
            ("s 7 3", "unknown kind tag 's'"),
            ('S 78557 3,five note="hi"', "cover divisor must be a decimal integer, got 'five'"),
            ('S 78557 note="x"', "expected 'S <k> <cover>'"),
            ('S4 625 root=3 partial=3 note="n"', "root^4 != k"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(CorpusError) as info:
            parse_corpus(f"# header\n\n{text}\n")
        assert str(info.value) == f"line 3: {message}"


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


ODD = st.integers(0, 10**30).map(lambda x: 2 * x + 1)
DIVISORS = st.lists(st.integers(0, 10**30), min_size=1, max_size=6).map(tuple)
# a note holds no quote and nothing str.splitlines() breaks at
NOTES = st.text(
    st.characters(exclude_characters='"', exclude_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=20,
)


@st.composite
def records(draw):
    kind = draw(st.sampled_from([KIND_S, KIND_R, KIND_BOTH, KIND_S4, KIND_R2]))
    note = draw(NOTES)
    if kind in (KIND_S4, KIND_R2):
        root = draw(ODD)
        power, sign = (4, 1) if kind == KIND_S4 else (2, -1)
        return CorpusRecord(kind, root**power, ((sign, draw(DIVISORS)),), root, note, 1)
    signs = {KIND_S: (1,), KIND_R: (-1,), KIND_BOTH: (-1, 1)}[kind]
    covers = tuple((sign, draw(DIVISORS)) for sign in signs)
    return CorpusRecord(kind, draw(ODD), covers, None, note, 1)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(records())
def test_serialized_record_parses_back(record):
    assert parse_corpus(serialize_record(record)) == [record]


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

    def test_coverless_facts_are_checked_apart_from_the_builder(self, monkeypatch):
        # 11 (period 10, true offset 5) is redundant at the end of the README
        # S4 cover, so a wrong offset for it leaves no hole and witnesses
        # nothing: the builder misses it, and the facts check catches it
        # with the term-by-term cross-check stubbed out.
        line = "S4 4008735125781478102999926000625 root=44745755 partial=3,17,97,241,257,673,11\n"
        assert verify_corpus(parse_corpus(line)).ok
        walk = arith.order_and_offset

        def wrong_offset_for_11(k, sign, d, bound):
            return (10, 6) if d == 11 else walk(k, sign, d, bound)

        monkeypatch.setattr(arith, "order_and_offset", wrong_offset_for_11)
        monkeypatch.setattr(check, "first_audit_failure", lambda cert, n_max: None)
        monkeypatch.setattr(check, "family_factor", lambda case, n: None)
        record = parse_corpus(line)[0]
        case = check.CASE_BY_SIGN[1](record.root, record.covers[0][1])
        assert algebraic.build_algebraic_certificate(case).entries[-1].c == 6
        report = verify_corpus([record])
        assert not report.ok
        assert report.results[0].detail == "11 does not divide k*2^6 +1"

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
            candidate = check.Candidate(record.k, sign)
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
