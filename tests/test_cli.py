import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

from coverscope import algebraic, arith, check, cover, dataset, disqualify
from coverscope.check import Candidate
from coverscope.cli import main

SELFRIDGE = "3,5,7,13,19,37,73"
COVERLESS_S4 = (
    "--k", "4008735125781478102999926000625", "--sign", "s", "--cover", "3,17,97,241,257,673",
    "--partial", "mod4ne2", "--root", "44745755",
)
COVERLESS_R2 = (  # the corpus R2 record
    "--k", "151854033223239213153630592218944998133269330577330714408611445716011170576987377001403"
    "17416496481",
    "--sign", "r", "--cover",
    "7,17,31,41,71,97,113,127,151,241,257,281,337,641,673,1321,14449,29191,65537,6700417",
    "--partial", "odd", "--root", "3896845303873881175159314620808887046066972469809",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_selfridge_cover(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE
        )
        assert code == 0
        assert "L = 36" in out

    def test_json_output_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lcm"] == "36"
        assert [e["d"] for e in doc["entries"]] == ["3", "5", "7", "13", "19", "37", "73"]

    def test_riesel_cover(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "509203", "--sign", "r", "--cover", "3,5,7,13,17,241"
        )
        assert code == 0

    def test_composite_divisors_on_each_side_of_the_sieve_bound(self, capsys, tmp_path):
        # 21 is flagged from the sieve, 1029 = 3 * 7^3 from is_prime; the
        # tier-1 workflow compares the CLI's stdout and --out file too.
        out_file = tmp_path / "cert.json"
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", SELFRIDGE + ",21,1029", "--out", str(out_file),
        )
        pinned = Path(__file__).parent / "fixtures" / "verify-78557-composite-divisors"
        assert (code, err) == (0, "")
        assert "warning: composite divisors in cover: [21, 1029]\n" in out
        assert out == pinned.with_suffix(".txt").read_text()
        assert out_file.read_bytes() == pinned.with_suffix(".json").read_bytes()

    def test_incomplete_cover_fails_with_residue(self, capsys):
        code, _, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", "3,5,7"
        )
        assert code == 1
        assert "uncovered residue 3" in err

    def test_no_offset_divisor_fails(self, capsys):
        code, _, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", "3,5,23"
        )
        assert code == 1
        assert "23" in err

    def test_audit_failure_runs_audit_once(self, capsys, monkeypatch):
        # 157115 = 78557*2 + 1 claims n = 1 first, where it is the whole term
        calls = []
        audit = check.first_audit_failure
        monkeypatch.setattr(
            check, "first_audit_failure", lambda *a: calls.append(a) or audit(*a)
        )
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", "157115," + SELFRIDGE, "--audit-n", "40",
        )
        assert (code, out, err) == (1, "", "not verified: witness fails at n=1\n")
        assert len(calls) == 1

    def test_coverless_witness_failure_is_a_factor_check_failure(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(check, "first_audit_failure", lambda cert, n_max: 5)
        path = tmp_path / "cert.json"
        code, out, err = run(capsys, "verify", *COVERLESS_S4, "--out", str(path))
        assert (code, out, err) == (1, "", "not verified: factor check failed at n=5\n")
        assert not path.exists()

    def test_divisor_claiming_no_residue_is_flagged(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE + ",9"
        )
        assert code == 0
        assert "73:1 9:0\n" in out
        assert "warning: divisors claiming no residue: [9]\n" in out

    @pytest.mark.parametrize("k", ["\u0667\u0668\u0665\u0665\u0667", "78_557", " 78557", "+78557"])
    def test_numeric_flags_take_ascii_digits_only(self, capsys, k):
        code, out, err = run(capsys, "verify", "--k", k, "--sign", "s", "--cover", SELFRIDGE)
        assert (code, out) == (2, "")
        assert "k must be a decimal integer" in err

    def test_partial_with_root(self, capsys):
        code, out, _ = run(
            capsys, "verify",
            "--k", "4008735125781478102999926000625",
            "--sign", "s", "--cover", "3,17,97,241,257,673",
            "--partial", "mod4ne2", "--root", "44745755",
            "--audit-n", "100", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "fourth_power"
        assert doc["audited_n_max"] == 100

    def test_partial_without_root_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "625", "--sign", "s",
            "--cover", "3,17", "--partial", "mod4ne2",
        )
        assert code == 2

    def test_wrong_root_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "4008735125781478102999926000625",
            "--sign", "s", "--cover", "3,17,97,241,257,673",
            "--partial", "mod4ne2", "--root", "44745757",
        )
        assert code == 2

    def test_even_k_rejected_at_parse(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "78556", "--sign", "s", "--cover", SELFRIDGE
        )
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--frobnicate",
        )
        assert code == 2

    def test_bad_sign_rejected(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "x", "--cover", SELFRIDGE
        )
        assert code == 2


class TestVerifyDataset:
    def test_bundled_corpus_green(self, capsys):
        code, out, _ = run(capsys, "verify-dataset")
        assert code == 0
        assert "32 records: 32 ok, 0 failed" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify-dataset", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["records"]) == 32

    def test_corpus_flag_and_failure_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("S 78557 3,5,7\n")
        code, out, _ = run(capsys, "verify-dataset", "--corpus", str(bad))
        assert code == 1
        assert "uncovered residue 3" in out

    def test_env_override(self, capsys, tmp_path, monkeypatch):
        alt = tmp_path / "tiny.txt"
        alt.write_text("S 78557 3,5,7,13,19,37,73\n")
        monkeypatch.setenv(dataset.ENV_CORPUS, str(alt))
        code, out, _ = run(capsys, "verify-dataset")
        assert code == 0
        assert "1 records: 1 ok" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify-dataset", "--corpus", str(tmp_path / "nope.txt"))
        assert code == 2

    @pytest.mark.parametrize("line", [
        "R2 root={threes} partial=7,17",
        "S4 {ones} root=3 partial=3",
    ], ids=["R2", "S4"])
    def test_k_too_long_to_print_is_a_usage_error(self, capsys, tmp_path, monkeypatch, line):
        limit = sys.get_int_max_str_digits()
        bad = tmp_path / "bad.txt"
        bad.write_text(
            f"S 78557 {SELFRIDGE}\n"
            + line.format(threes="3" * (limit // 2 + 1), ones="1" * (limit + 1)) + "\n"
        )

        def refuse(records):
            raise AssertionError("a corpus with a bad line was verified")

        monkeypatch.setattr(dataset, "verify_corpus", refuse)
        code, out, err = run(capsys, "verify-dataset", "--corpus", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ")

    def test_malformed_corpus_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("Q 3 3,5\n")
        code, _, err = run(capsys, "verify-dataset", "--corpus", str(bad))
        assert code == 2
        assert "line 1" in err


class TestDisqualify:
    def test_known_hit(self, capsys):
        code, out, _ = run(capsys, "disqualify", "--k", "143", "--sign", "s")
        assert code == 0
        assert "53" in out

    def test_nothing_found_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "disqualify", "--k", "78557", "--sign", "s", "--max-n", "100"
        )
        assert code == 1
        assert "none <= 100" in out

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys, "disqualify", "--k", "143", "--sign", "s", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_found"] == 53
        assert doc["method"] == "proth"

    def test_verbose_trail(self, capsys):
        code, out, _ = run(
            capsys, "disqualify", "--k", "5", "--sign", "s", "--max-n", "8",
            "--verbose", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["trail"]) == 1

    def test_only_json_builds_a_trail_which_stops_at_a_term_too_long_to_print(
        self, capsys, monkeypatch
    ):
        # Text output prints no trail.  The JSON one stops before n = 2110,
        # the first term of more than 640 digits, the least limit Python
        # allows on printing an int.
        scan, asked = disqualify.first_prime_exponent, []

        def first_prime_exponent(candidate, n_max, verbose):
            asked.append(verbose)
            return scan(candidate, n_max, verbose)

        monkeypatch.setattr(disqualify, "first_prime_exponent", first_prime_exponent)
        argv = ("disqualify", "--k", "78557", "--sign", "s", "--max-n", "3000")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            plain = run(capsys, *argv)
            text = run(capsys, *argv, "--verbose")
            in_json = run(capsys, *argv, "--verbose", "--format", "json")
        finally:
            sys.set_int_max_str_digits(limit)
        assert plain == text == (1, "    k  n             method\n78557  none <= 3000  -\n", "")
        assert in_json == (2, "", "error: the term at n=2110 has more than 640 digits, "
                                  "too long to print in a verbose trail\n")
        assert asked == [False, False, True]

    @pytest.mark.parametrize("limit", [0, 10**5])
    def test_a_verbose_trail_stops_at_the_default_digit_limit_above_it(self, capsys, limit):
        # With no limit on printing an int (0), or one above Python's
        # default of 4300 digits, the trail still stops before n = 14269,
        # the first term of more than 4300 digits, and keeps no more.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            result = run(
                capsys, "disqualify", "--k", "78557", "--sign", "s",
                "--max-n", str(disqualify.MAX_SCAN_N), "--verbose", "--format", "json",
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert sys.int_info.default_max_str_digits == 4300
        assert result == (2, "", "error: the term at n=14269 has more than 4300 digits, "
                                 "the most a verbose trail keeps\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on printing an int"
    )
    @pytest.mark.parametrize("scan", [("disqualify", "--k", "{k}"),
                                      ("survey", "--from", "{k}", "--to", "{k}")])
    def test_json_writes_a_found_prime_longer_than_python_prints(self, capsys, scan):
        # Under a limit of 640 digits, the least Python allows: k has 640
        # digits, and its first term, 2k + 1, is a prime of 641.
        k = 6 * 10**639 + 185
        argv = [part.format(k=k) for part in scan] + ["--sign", "s", "--max-n", "1",
                                                      "--format", "json"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        doc = doc[0] if scan[0] == "survey" else doc
        assert (doc["n_found"], doc["primality"]["n"]) == (1, str(2 * k + 1))
        assert doc["primality"]["is_prime"] is True


class TestSurvey:
    def test_reproduces_survivors(self, capsys):
        code, out, _ = run(
            capsys, "survey", "--from", "1", "--to", "199", "--sign", "s",
            "--max-n", "8", "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        survivors = [d["k"] for d in docs if d["n_found"] is None]
        assert survivors == ["47", "103", "143", "197"]

    def test_always_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "survey", "--from", "47", "--to", "47", "--sign", "s", "--max-n", "8"
        )
        assert code == 0
        assert "none <= 8" in out

    def test_even_bound_rejected(self, capsys):
        code, _, _ = run(
            capsys, "survey", "--from", "2", "--to", "9", "--sign", "s"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("disqualify", "--k", "78557", "--sign", "s", "--max-n", "100001"),
            "n_max = 100001 is above the bound 100000",
        ),
        (
            ("survey", "--from", "1", "--to", "2000001", "--sign", "s", "--max-n", "8"),
            "the range holds 1000001 odd k, above the bound 1000000",
        ),
        (
            ("survey", "--from", "1", "--to", "99", "--sign", "s", "--max-n", "100001"),
            "n_max = 100001 is above the bound 100000",
        ),
    ],
)
def test_over_bound_scans_exit_2_at_once(capsys, argv, message):
    assert disqualify.MAX_SCAN_N == 100_000 and disqualify.MAX_SURVEY_K == 10**6
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scan_at_the_bound_is_accepted(capsys):
    # 3*2 + 1 = 7 is prime, so the scan ends at n = 1
    code, out, _ = run(capsys, "disqualify", "--k", "3", "--sign", "s", "--max-n", "100000")
    assert code == 0
    assert out.splitlines()[1].split()[:2] == ["3", "1"]


class TestFamily:
    def test_derives_and_verifies(self, capsys):
        code, out, _ = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--i", "1",
        )
        assert code == 0
        assert "140179427" in out

    def test_builds_once_and_audits_the_proof_prefix(self, capsys, monkeypatch):
        verified, audited = [], []
        verify, audit = cover.verify_cover, check.first_audit_failure
        monkeypatch.setattr(cover, "verify_cover", lambda *a: verified.append(a) or verify(*a))
        monkeypatch.setattr(
            check, "first_audit_failure", lambda *a: audited.append(a[1]) or audit(*a)
        )
        code, out, _ = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--i", "1",
        )
        assert code == 0
        assert len(verified) == 1
        assert audited == [(73).bit_length()]
        assert out.endswith("\nproved for all n >= 1: every term has a proper cover factor\n")

    def test_failed_audit_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(check, "first_audit_failure", lambda cert, n_max: 5)
        code, out, err = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--i", "1",
        )
        assert (code, out, err) == (1, "", "not verified: witness fails at n=5\n")

    def test_i_zero_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--i", "0",
        )
        assert code == 2

    def test_failing_base_claim(self, capsys):
        code, _, _ = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", "3,5,7",
            "--i", "1",
        )
        assert code == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on printing an int"
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_k_too_long_to_print_exits_2_before_any_walk(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        # Each copy of 1000003 adds six digits to P, and so to k'.
        limit = sys.get_int_max_str_digits()

        def refuse(*args):
            raise AssertionError("a cover was built for a k' too long to print")

        monkeypatch.setattr(cover, "verify_cover", refuse)
        path = tmp_path / "family.json"
        code, out, err = run(
            capsys, "family", "--k", "78557", "--sign", "s",
            "--cover", SELFRIDGE + ",1000003" * (limit // 6 + 1), "--i", "1",
            "--format", fmt, "--out", str(path),
        )
        assert (code, out, err) == (2, "", f"error: k' has more than {limit} digits\n")
        assert not path.exists()


# A fault in the order and offset walk: 109 (period 36, true offset 31) is
# given the offset 15, and 11 (period 10, true offset 5), redundant at the
# end of the README S4 cover, the offset 6.  Neither leaves a hole, and
# neither claims an n in the properness prefix.
DOCTORED_OFFSETS = {109: (36, 15), 11: (10, 6)}
DOCTORED_S4 = (*COVERLESS_S4[:5], COVERLESS_S4[5] + ",11", *COVERLESS_S4[6:])


class TestBuilderFaultsAreRefused:
    """Every command that reports "proved" ends in check.prove, which
    re-checks what the builders found, so a faulty walk is refused."""

    @pytest.fixture(autouse=True)
    def doctored_walk(self, monkeypatch):
        walk = arith.order_and_offset
        monkeypatch.setattr(
            arith, "order_and_offset",
            lambda k, sign, d, bound: DOCTORED_OFFSETS.get(d) or walk(k, sign, d, bound),
        )
        assert cover.build_entry(Candidate(78557, 1), 109) == check.CoverEntry(109, 36, 15)

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (("verify", "--k", "78557", "--sign", "s", "--cover", "109," + SELFRIDGE),
             "109 does not divide k*2^15 +1"),
            (("family", "--k", "78557", "--sign", "s", "--cover", "109," + SELFRIDGE, "--i", "1"),
             "109 does not divide k*2^15 +1"),
            (("verify", *DOCTORED_S4), "11 does not divide k*2^6 +1"),
        ],
        ids=["verify", "family", "verify-partial"],
    )
    def test_verify_and_family_exit_1_and_write_nothing(self, capsys, tmp_path, argv, problem):
        path = tmp_path / "cert.json"
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(path))
            assert (code, out, err) == (1, "", f"not verified: {problem}\n")
            assert not path.exists()

    def test_verify_dataset_exits_1(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "S 78557 109,3,5,7,13,19,37,73\n"
            "S4 4008735125781478102999926000625 root=44745755 partial=3,17,97,241,257,673,11\n"
        )
        code, out, _ = run(capsys, "verify-dataset", "--corpus", str(corpus), "--format", "json")
        assert code == 1
        assert [(r["ok"], r["detail"]) for r in json.loads(out)["records"]] == [
            (False, "109 does not divide k*2^15 +1"),
            (False, "11 does not divide k*2^6 +1"),
        ]


def test_recorded_coverless_depth_is_the_depth_cross_checked(capsys, monkeypatch):
    # The witness audit runs to the recorded depth, and the factor family
    # splits every n up to it that the partial cover leaves out.
    depths, splits = [], []
    audit, split = check.first_audit_failure, check.family_factor
    monkeypatch.setattr(
        check, "first_audit_failure",
        lambda cert, n_max: depths.append(n_max) or audit(cert, n_max),
    )
    monkeypatch.setattr(
        check, "family_factor", lambda case, n: splits.append(n) or split(case, n)
    )
    code, out, _ = run(capsys, "verify", *COVERLESS_S4, "--audit-n", "100", "--format", "json")
    assert (code, json.loads(out)["audited_n_max"], depths) == (0, 100, [100])
    assert splits == list(range(2, 101, 4))
    code, out, _ = run(capsys, "verify", *COVERLESS_S4, "--format", "json")
    assert (code, json.loads(out)["audited_n_max"], depths) == (0, 200, [100, 200])
    assert splits[25:] == list(range(2, 201, 4))
    records = [r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root]
    splits.clear()
    assert dataset.verify_corpus(records).ok
    assert depths == [100, 200, 200, 200, 200]
    assert splits == [*range(2, 201, 4), *range(2, 201, 4), *range(2, 201, 2)]


def coverless_certificate(capsys, tmp_path, record):
    """Write the certificate `verify` emits for a coverless corpus record."""
    path = tmp_path / "coverless.json"
    sign, divisors = record.covers[0]
    code, _, _ = run(
        capsys, "verify", "--k", str(record.k), "--sign", "s" if sign == 1 else "r",
        "--cover", ",".join(map(str, divisors)),
        "--partial", "mod4ne2" if sign == 1 else "odd", "--root", str(record.root),
        "--audit-n", "20", "--out", str(path),
    )
    assert code == 0
    return path


class TestAudit:
    def test_cover_certificate_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "audit", str(path))
        assert code == 0
        assert "audit ok" in out

    def test_verify_and_audit_name_the_same_cross_checked_depth(self, capsys, tmp_path):
        # 3 is below the proof's prefix depth, 7; both name N as asked.
        path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--audit-n", "3", "--out", str(path),
        )
        assert code == 0
        assert out.endswith(
            "proved for all n >= 1 (cross-checked n = 1..3): "
            "every term has a proper cover factor\n"
        )
        code, out, _ = run(capsys, "audit", str(path), "--audit-n", "3")
        assert (code, out) == (
            0, "audit ok: k=78557, proved for all n >= 1 (cross-checked n = 1..3)\n"
        )

    def test_algebraic_certificate(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        code, _, _ = run(
            capsys, "verify",
            "--k", "4008735125781478102999926000625",
            "--sign", "s", "--cover", "3,17,97,241,257,673",
            "--partial", "mod4ne2", "--root", "44745755",
            "--audit-n", "60", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "audit", str(path))
        assert code == 0

    @pytest.mark.parametrize("record_index", range(3))
    def test_truncated_partial_cover_fails(self, capsys, tmp_path, record_index):
        # Shrinking L to the family's period b claims every residue outside
        # the family's class and proves nothing past n = 1.
        record = [r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root][
            record_index
        ]
        path = coverless_certificate(capsys, tmp_path, record)
        doc = json.loads(path.read_text())
        partial = doc["partial_cover_certificate"]
        lcm = 4 if record.kind == dataset.KIND_S4 else 2
        partial["lcm"] = str(lcm)
        doc["audited_n_max"] = 1
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", str(path))
        assert code == 1
        assert "audit FAILED: stated lcm" in err

    def test_partial_cover_divisor_one_fails(self, capsys, tmp_path):
        record = next(r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root)
        path = coverless_certificate(capsys, tmp_path, record)
        doc = json.loads(path.read_text())
        doc["partial_cover_certificate"]["entries"][0]["d"] = "1"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", str(path))
        assert (code, err) == (1, "audit FAILED: divisor 1 is not odd and >= 3\n")

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--out", str(path),
        )
        doc = json.loads(path.read_text())
        doc["entries"][0]["c"] = "1"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", str(path))
        assert code == 1
        assert "audit FAILED" in err

    def test_json_booleans_are_usage_errors(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--out", str(path),
        )
        doc = json.loads(path.read_text())
        doc["sign"] = True
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", str(path))
        assert code == 2
        assert "sign" in err

    def test_unparseable_certificate_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "audit", str(path))
        assert code == 2

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "audit", str(path))
        assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")

    def test_stated_depth_is_proved_not_rerun(self, capsys, tmp_path):
        # audited_n_max only records the cross-check run at build time; the
        # proof does not re-run it, so a stated 10**7 costs nothing.
        record = next(r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root)
        path = coverless_certificate(capsys, tmp_path, record)
        doc = json.loads(path.read_text())
        doc["audited_n_max"] = 10_000_000
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "audit", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (0, f"audit ok: k={record.k}, proved for all n >= 1\n", "")

    def test_audit_n_cross_checks_a_coverless_certificate(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        code, _, _ = run(
            capsys, "verify",
            "--k", "4008735125781478102999926000625",
            "--sign", "s", "--cover", "3,17,97,241,257,673",
            "--partial", "mod4ne2", "--root", "44745755",
            "--audit-n", "500", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "audit", str(path))
        assert (code, out) == (
            0, "audit ok: k=4008735125781478102999926000625, proved for all n >= 1\n"
        )
        code, out, _ = run(capsys, "audit", str(path), "--audit-n", "500")
        assert code == 0
        assert out == (
            "audit ok: k=4008735125781478102999926000625, "
            "proved for all n >= 1 (cross-checked n = 1..500)\n"
        )

    def test_defaults_audit_no_deeper_than_the_proof(self, capsys, tmp_path, monkeypatch):
        full = tmp_path / "cert.json"
        run(capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--out", str(full))
        record = next(r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root)
        coverless = coverless_certificate(capsys, tmp_path, record)
        excess = []
        audit = check.first_audit_failure

        def first_audit_failure(cert, n_max):
            excess.append(n_max - check.proof_depth(cert))
            return audit(cert, n_max)

        monkeypatch.setattr(check, "first_audit_failure", first_audit_failure)
        for argv in (
            ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
            ("family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE, "--i", "2"),
            ("audit", str(full)),
            ("audit", str(coverless)),
        ):
            assert run(capsys, *argv)[0] == 0
        assert len(excess) == 4 and max(excess) <= 0


# sha256 of the certificate each command writes: canonical 2-space JSON,
# one entry field per line.  The format is stable, so these change only
# with tool_version; tests/fixtures/v1 and v2 keep the 0.1.0 and 0.2.0 files.
PINNED_CERTIFICATES = [
    (
        ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
        "ba01b7466d7fdc9812cfc31582ad20c87c49ca7e02914a850564d19dd9be8947",
    ),
    (
        ("verify", "--k", "509203", "--sign", "r", "--cover", "3,5,7,13,17,241"),
        "8ead716671ca074f48672a420a9882a259a63d29210bb2b60090e131283fdbfa",
    ),
    (
        ("verify", *COVERLESS_S4),
        "91f9f39e569e5190803958ce7c8b07d1641297947fa2bcc5f357407cbf54f9b6",
    ),
    (
        ("family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE, "--i", "2"),
        "c96f6dab57c2ecf797483e5aca7f768369e43650661c39bf7a111d2700003f2f",
    ),
]

# The square certificate, the one kind without A and B.
PINNED_SQUARE_CERTIFICATE = (
    ("verify", *COVERLESS_R2),
    "d097317b7a99a3e0b057fc91e9f6843f9ffd82300997684ef72e537d24a00f27",
)

# sha256 of the 37 certificates of the bundled corpus, concatenated in corpus
# order: one per cover of each cover record (34) and one per coverless
# record (3), built at build_algebraic_certificate's default depth.
PINNED_CORPUS_CERTIFICATES = "eb286a3c6720f3311e29a88f2bbea3cd8308069f1341f2e10096d6b938333485"


def test_corpus_certificate_bytes_are_pinned():
    texts = []
    for record in dataset.load_corpus(dataset.default_corpus_path()):
        if record.root is None:
            texts += [
                cover.certificate_to_json(cover.verify_cover(Candidate(record.k, sign), divisors))
                for sign, divisors in record.covers
            ]
        else:
            sign, divisors = record.covers[0]
            case = check.CASE_BY_SIGN[sign](record.root, divisors)
            texts.append(algebraic.certificate_to_json(algebraic.build_algebraic_certificate(case)))
    assert len(texts) == 37
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == PINNED_CORPUS_CERTIFICATES


# Exit code and sha256 of what first-prime scans print: every verdict,
# method, witness and, with --verbose, every trail entry.  383 is not
# disqualified below n = 1500, so disqualify exits 1.
PINNED_SCANS = [
    (
        ("disqualify", "--k", "383", "--sign", "s", "--format", "json", "--max-n", "1500"),
        1,
        "5dbe9822e27410958de5bce304a9a93eb52ce0638640efb472435d29348b6f33",
    ),
    (
        ("disqualify", "--k", "383", "--sign", "s", "--format", "json", "--max-n", "1500",
         "--verbose"),
        1,
        "2768789cf9491b4d79cf7dd4151fcf9d57352a8e4b819018c8d4771573701621",
    ),
    (
        ("survey", "--from", "1", "--to", "9999", "--sign", "r", "--max-n", "600",
         "--format", "json"),
        0,
        "354a90cc3c98107caf1bc7ec17e62d0c96c2897d0142f6b4c8c71866aae96dd4",
    ),
    (
        ("survey", "--from", "1", "--to", "9999", "--sign", "s", "--max-n", "600",
         "--format", "json"),
        0,
        "16bf2f76988c6719939d2b4623e7b53872612e5ca44b4401d6ab0e6ea2a1c5a7",
    ),
    # The first prime, at n = 25, is 83 bits, above psi_13 and not of Proth
    # form; the N+1 proof proves it with F = 2**25 * 463 after one round.
    (
        ("disqualify", "--k", "208458014172092995", "--sign", "r", "--format", "json",
         "--max-n", "64"),
        0,
        "f2892b5c4b85729ce6bd5aeeb30b02aa19592866c61f855b790e53f232218bef",
    ),
    (
        ("disqualify", "--k", "208458014172092995", "--sign", "r", "--format", "json",
         "--max-n", "64", "--verbose"),
        0,
        "a100580db209d753623a6d9db5c4223d439ede97507da340ccea55ceb04d7d65",
    ),
    # First primes between 2**64 and psi_13, one on each side, each proved
    # after the row's first base: by the N-1 proof with F = 2**20 * 13 * 3
    # at n = 20, and by the N+1 proof with F = 2**16 * 761 at n = 16.
    (
        ("disqualify", "--k", "41257931656341621", "--sign", "s", "--format", "json",
         "--max-n", "64"),
        0,
        "c74e6e9e3f359ef4e1f4b9ccc7b5edc6559612af6ab3ff64c12d95cc5c4cc644",
    ),
    (
        ("disqualify", "--k", "111411527898315965", "--sign", "r", "--format", "json",
         "--max-n", "64"),
        0,
        "ad5b4937d2d21b59253e286d0411e8bd66a341ba6347b2e84e9612105af36d22",
    ),
    # First primes proved through the bound 1031 on the rest of k, F short
    # of the cube bound: above psi_13 at n = 26 (88 bits, k = 3 times a
    # cofactor with no prime factor up to SIEVE_BOUND), by the N+1 proof
    # with F = 2**26 * 3 after one round; between 2**64 and psi_13 at
    # n = 21 (76 bits), by the N-1 proof with F = 2**21 * 5 after the row's
    # first base.
    (
        ("disqualify", "--k", "4347139270569672657", "--sign", "r", "--format", "json",
         "--max-n", "64"),
        0,
        "901e3fefa48d444090f17d48d4ea6390fb556831c8ef9115dc7540a176c34170",
    ),
    (
        ("disqualify", "--k", "25906288222960415", "--sign", "s", "--format", "json",
         "--max-n", "64"),
        0,
        "a4b6b4d156700d83498a88cec42dd5eb3993f40833999e4a6658a0f8a4f46094",
    ),
]
PINNED_SCAN_IDS = [
    "disqualify-383s", "disqualify-383s-verbose", "survey-r600", "survey-s600",
    "disqualify-big-r", "disqualify-big-r-verbose", "disqualify-mid-s", "disqualify-mid-r",
    "disqualify-big-r-bound", "disqualify-mid-s-bound",
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", PINNED_SCANS,
    ids=PINNED_SCAN_IDS,
)
def test_scan_bytes_are_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, exit_code, digest", PINNED_SCANS,
    ids=PINNED_SCAN_IDS,
)
def test_scan_bytes_do_not_depend_on_the_llr_kernel(capsys, monkeypatch, argv, exit_code, digest):
    # An N+1 or N-1 proof only skips Miller-Rabin bases or rounds, so a
    # trigger that never proves anything leaves every byte as it is.
    monkeypatch.setattr(arith, "_proved_on_its_side", lambda n, d, s: False)
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "e23bbd74dba3a40a9483e093bb9aeb34a4e41cd2d348ffd1f72ef1e57780ec82"),
        ("json", PINNED_CERTIFICATES[0][1]),
    ],
)
def test_deepest_cross_check_bytes_are_pinned(capsys, fmt, digest):
    # Digests of the output at --audit-n = MAX_AUDIT_N: the text summary and
    # the certificate, which does not record the cross-check's depth.
    code, out, err = run(
        capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
        "--audit-n", str(check.MAX_AUDIT_N), "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest", [*PINNED_CERTIFICATES, PINNED_SQUARE_CERTIFICATE],
    ids=["78557s", "509203r", "coverless-s4", "family-78557s", "coverless-r2"],
)
def test_certificate_bytes_are_pinned_and_audit_ok(capsys, tmp_path, argv, digest):
    path = tmp_path / "cert.json"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, out.encode()) == (0, data)
    # No primality flags: no proof reads them.
    doc = json.loads(data)
    for cert in (doc, doc.get("partial_cover_certificate", doc)):
        assert "divisor_primality_flags" not in cert
        assert cert["tool_version"] == cover.TOOL_VERSION == "0.3.0"
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0 and out.startswith("audit ok: ")
    code, out, _ = run(capsys, "audit", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True


V1_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "v1").glob("*.json"))
V2_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "v2").glob("*.json"))
V3_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "v3").glob("*.json"))


def sums_match(fixtures):
    """The directory's SHA256SUMS names exactly these files with their digests."""
    sums = (fixtures[0].parent / "SHA256SUMS").read_text().split()
    assert dict(zip(sums[1::2], sums[0::2])) == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in fixtures
    }
    return set(sums[0::2])


def test_v3_fixtures_are_pinned_certificates(capsys):
    # Golden files that CI writes again with `verify --out` and compares.
    pinned = {digest for _, digest in [*PINNED_CERTIFICATES, PINNED_SQUARE_CERTIFICATE]}
    assert len(V3_FIXTURES) == 4 and sums_match(V3_FIXTURES) <= pinned
    for path in V3_FIXTURES:
        assert_audits_ok(capsys, path)


def test_v2_fixtures_are_pinned_certificates():
    # What tool_version 0.2.0 wrote for the same four commands, kept as audit inputs.
    assert len(V2_FIXTURES) == 4 and sums_match(V2_FIXTURES)


def assert_audits_ok(capsys, path):
    k = json.loads(path.read_text())["k"]
    code, out, err = run(capsys, "audit", str(path))
    assert (code, out, err) == (0, f"audit ok: k={k}, proved for all n >= 1\n", "")
    code, out, err = run(capsys, "audit", str(path), "--format", "json")
    assert (code, json.loads(out), err) == (0, {"ok": True, "k": k}, "")


class TestV2Certificates:
    """Files written by tool_version 0.2.0, which state a primality flag per
    divisor that no proof reads."""

    @pytest.mark.parametrize("path", V2_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_audits_ok(self, capsys, path):
        assert_audits_ok(capsys, path)

    @pytest.mark.parametrize("path", V2_FIXTURES, ids=lambda p: p.stem)
    def test_flipped_flags_audit_as_the_original(self, capsys, tmp_path, path):
        doc = json.loads(path.read_text())
        cert = doc.get("partial_cover_certificate", doc)
        cert["divisor_primality_flags"] = [not f for f in cert["divisor_primality_flags"]]
        flipped = tmp_path / "flipped.json"
        flipped.write_text(json.dumps(doc))
        for fmt in ("text", "json"):
            assert run(capsys, "audit", str(flipped), "--format", fmt) == run(
                capsys, "audit", str(path), "--format", fmt
            )


class TestV1Certificates:
    """Files written by tool_version 0.1.0, which states the residue table."""

    def test_fixtures_are_the_pinned_files(self):
        sums_match(V1_FIXTURES)
        assert len(V1_FIXTURES) == len(PINNED_CERTIFICATES)

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_audits_ok(self, capsys, path):
        assert_audits_ok(capsys, path)

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda p: p.stem)
    def test_doctored_table_is_a_usage_error(self, capsys, tmp_path, path):
        doc = json.loads(path.read_text())
        cert = doc.get("partial_cover_certificate", doc)
        table = cert["table"]
        entries = [tuple(int(e[f]) for f in "dbc") for e in cert["entries"]]
        # A residue with two matching entries, which the later one cannot take.
        r, j = next(
            (r, j) for r, i in enumerate(table) if i is not None
            for j, (_, b, c) in enumerate(entries) if j > i and r % b == c
        )
        one = table.index(1)
        for doctored in (
            table[:r] + [j] + table[r + 1:],
            table[:one] + [True] + table[one + 1:],
            table[:one] + [1.0] + table[one + 1:],
            table[:-1],
            table + [table[0]],
        ):
            cert["table"] = doctored
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code, out, err = run(capsys, "audit", str(bad))
            assert (code, out) == (2, "")
            assert err == "error: table is not the first-match table of the entries\n"


class TestLcmBound:
    def test_a_period_above_the_bound_exits_2_before_the_offset_search(self, capsys):
        # ord(2) mod the prime 1000000000039 is 500000000019.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", SELFRIDGE + ",1000000000039", "--audit-n", "1",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: divisor 1000000000039 has period above the bound {check.MAX_LCM} on L\n"
        )

    @pytest.mark.parametrize("d", [
        1000036000099,  # 1000003 * 1000033, composite
        1208925819614629174708367,  # prime, d - 1 = 2q with q an 80-bit prime
    ])
    def test_big_divisors_exit_2_quickly(self, capsys, d):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", f"{SELFRIDGE},{d}",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: divisor {d} has period above the bound {check.MAX_LCM} on L\n"

    def test_a_corpus_line_with_a_big_divisor_fails_quickly(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"S 78557 {SELFRIDGE},1000036000099\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-dataset", "--corpus", str(corpus))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert f"divisor 1000036000099 has period above the bound {check.MAX_LCM} on L" in out

    def test_an_l_below_the_bound_is_built(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE + ",1000003",
        )
        assert code == 0
        assert "L = 6000012\n" in out
        # The whole text, pinned; the tier-1 workflow compares the CLI's stdout with it too.
        assert out == (Path(__file__).parent / "fixtures" / "verify-78557-L6000012.txt").read_text()
        assert (
            "residues claimed per divisor: 3:3000006 5:1500003 7:500001 13:500001 19:166667 "
            "37:166667 73:166667 1000003:0\n"
        ) in out

    def test_an_l_above_the_bound_exits_2(self, capsys):
        # Periods 36 (the cover), 1000002 (1000003) and 10 (11): L = 30000060.
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", SELFRIDGE + ",1000003,11",
        )
        assert (code, out) == (2, "")
        assert err == f"error: L = 30000060 is above the bound {check.MAX_LCM}\n"

    def test_an_l_too_long_to_print_exits_2_naming_the_bound(self, capsys):
        # Safe primes p = 2q + 1 == 3 (mod 8): 2 is a non-residue, so its
        # order is p - 1 and every k prime to p has an offset.  L = 2 * the
        # product of 120 primes q near 5 * 10**5 has over 640 digits, the
        # least limit Python allows on printing an int.
        primes = list(itertools.islice((p for p in itertools.count(10**6 + 3, 8)
                                        if arith.is_prime(p).is_prime
                                        and arith.is_prime(p // 2).is_prime), 120))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(
                capsys, "verify", "--k", "78557", "--sign", "s",
                "--cover", ",".join(map(str, [3, 5, 7, 13, 19, 37, 73, *primes])),
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err == f"error: L has more than 640 digits, above the bound {check.MAX_LCM}\n"

    def test_a_stated_l_above_the_bound_is_a_usage_error(self, capsys, tmp_path):
        doc = json.loads(V1_FIXTURES[0].read_text())
        doc.pop("table", None)
        doc["lcm"] = str(check.MAX_LCM + 1)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "audit", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: lcm is above the bound {check.MAX_LCM}\n"


class TestClaimsBound:
    """The hole check and the table cost one write per claimed residue, so
    a small file with many long progressions is refused before either runs."""

    def write(self, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        return path

    def test_repeated_valid_entries_exit_2_quickly(self, capsys, tmp_path):
        # (3, 2, 0) and (3, 9999990, 0) pass every per-entry fact for 78557
        # and give L = 9999990; each copy of the first claims half of it.
        entries = [{"d": "3", "b": "2", "c": "0"}] * 100
        entries.append({"d": "3", "b": "9999990", "c": "0"})
        doc = {"k": "78557", "sign": 1, "entries": entries, "lcm": "9999990"}
        start = time.perf_counter()
        code, out, err = run(capsys, "audit", str(self.write(tmp_path, doc)))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: the entries claim more than {check.MAX_CLAIMS} residues mod L\n"

    def test_a_v1_table_of_the_wrong_length_exits_2_quickly(self, capsys, tmp_path):
        entries = [{"d": "3", "b": "1", "c": "0"}] * 100
        doc = {
            "k": "78557", "sign": 1, "entries": entries, "lcm": str(check.MAX_LCM),
            "table": [], "divisor_primality_flags": [True] * len(entries),
        }
        start = time.perf_counter()
        code, out, _ = run(capsys, "audit", str(self.write(tmp_path, doc)))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")

    def test_a_v1_table_length_is_checked_before_deriving(self, monkeypatch):
        # Three full-period entries stay within the claims bound; the stated
        # table's length alone must refuse the file.
        def derive(cert):
            raise AssertionError("table derived")

        monkeypatch.setattr(check.CoverCertificate, "table", property(derive))
        doc = {
            "k": "78557", "sign": 1, "entries": [{"d": "3", "b": "1", "c": "0"}] * 3,
            "lcm": str(check.MAX_LCM), "table": [], "divisor_primality_flags": [True] * 3,
        }
        with pytest.raises(check.CertificateFormatError):
            check.certificate_from_dict(doc)

    def test_a_cover_with_too_many_claims_exits_2(self, capsys):
        # Fourteen extra copies of 3 (period 2) at L = 6000012.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", "3," * 14 + SELFRIDGE + ",1000003",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: the divisors claim 50166773 residues mod L, above {check.MAX_CLAIMS}\n"
        )


class TestDivisorsBound:
    """A cover walks each distinct divisor once, and the facts check and
    the audit take two pows per entry, so more than check.MAX_DIVISORS
    distinct divisors or entries are refused before that work; repeats do
    not count."""

    def test_a_cover_over_the_bound_exits_2_before_any_walk(self, capsys, monkeypatch):
        walked = []
        order_and_offset = arith.order_and_offset
        monkeypatch.setattr(arith, "order_and_offset", lambda k, sign, d, bound: (
            walked.append(d) or order_and_offset(k, sign, d, bound)))
        # 17 divides 78557, so it has no offset and ends the walks.
        extra = [17, *range(1025, 1025 + 2 * (check.MAX_DIVISORS - 8), 2)]
        cover_at_bound = ",".join(map(str, [3, 5, 7, 13, 19, 37, 73, *extra]))
        code, out, err = run(capsys, "verify", "--k", "78557", "--sign", "s",
                             "--cover", cover_at_bound + ",3" * 2000)
        assert (code, out, walked) == (1, "", [3, 5, 7, 13, 19, 37, 73, 17])
        assert err.startswith("not verified: no offset: 17 divides no term")
        walked.clear()
        code, out, err = run(capsys, "verify", "--k", "78557", "--sign", "s",
                             "--cover", cover_at_bound + ",3,9")
        assert (code, out, walked) == (2, "", [])
        assert err == (
            f"error: the cover has {check.MAX_DIVISORS + 1} distinct divisors, "
            f"above the bound {check.MAX_DIVISORS}\n"
        )

    def test_a_certificate_over_the_bound_exits_2(self, capsys, tmp_path):
        # (3, 2, 0) holds for 78557; (5, 2, 0) is the first that does not.
        def audit(entries):
            doc = {"k": "78557", "sign": 1, "entries": entries, "lcm": "2"}
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(doc))
            return run(capsys, "audit", str(path))

        at_bound = [
            {"d": str(d), "b": "2", "c": "0"} for d in range(3, 3 + 2 * check.MAX_DIVISORS, 2)
        ]
        assert audit(at_bound * 2) == (1, "", "audit FAILED: 5 does not divide 2^2 - 1\n")
        over = at_bound + [{"d": "3", "b": "2", "c": "1"}]
        bound = check.MAX_DIVISORS
        assert audit(over) == (
            2, "", f"error: the certificate states more than {bound} distinct entries\n"
        )

    def test_a_certificate_of_repeats_past_the_bound_audits(self, capsys, tmp_path):
        # Repeats count once in both bounds, so what verify writes parses.
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "verify", "--k", "78557", "--sign", "s",
                         "--cover", SELFRIDGE + ",3" * check.MAX_DIVISORS, "--out", str(path))
        assert code == 0
        assert len(json.loads(path.read_text())["entries"]) > check.MAX_DIVISORS
        code, out, _ = run(capsys, "audit", str(path))
        assert (code, out) == (0, "audit ok: k=78557, proved for all n >= 1\n")


class TestAuditBound:
    def test_above_the_bound_exits_2_before_any_work(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--out", str(path))
        for argv in (
            ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
            ("verify", *COVERLESS_S4),
            ("audit", str(path)),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, "--audit-n", "1000000")
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert f"--audit-n: value must be <= {check.MAX_AUDIT_N}" in err

    def test_the_bound_is_accepted(self, capsys, tmp_path, monkeypatch):
        # Cross-checks stubbed: for real, N = 10^5 takes about 8 ms on 78557 and 5 s coverless.
        depths = []

        def first_audit_failure(cert, n_max):
            depths.append(n_max)

        def family_factor(case, n):
            depths.append(n)

        monkeypatch.setattr(check, "first_audit_failure", first_audit_failure)
        monkeypatch.setattr(check, "family_factor", family_factor)
        full = tmp_path / "cert.json"
        coverless = tmp_path / "coverless.json"
        bound = str(check.MAX_AUDIT_N)
        for argv in (
            ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE, "--out", str(full)),
            ("verify", *COVERLESS_S4, "--out", str(coverless)),
            ("audit", str(full)),
            ("audit", str(coverless)),
        ):
            depths.clear()
            code, out, _ = run(capsys, *argv, "--audit-n", bound)
            assert code == 0
            assert f"cross-checked n = 1..{bound})" in out
            assert max(depths) == check.MAX_AUDIT_N

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_help_states_the_bound(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert str(check.MAX_AUDIT_N) in capsys.readouterr().out


def test_text_output_without_out_never_serializes(capsys, monkeypatch):
    commands = (
        ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
        ("verify", *COVERLESS_S4),
        ("family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE, "--i", "1"),
    )
    expected = [run(capsys, *argv) for argv in commands]

    def refuse(cert):
        raise AssertionError("text output serialized the certificate")

    monkeypatch.setattr(cover, "certificate_to_json", refuse)
    monkeypatch.setattr(algebraic, "certificate_to_json", refuse)
    for argv, result in zip(commands, expected):
        assert result[0] == 0
        assert run(capsys, *argv) == result


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
