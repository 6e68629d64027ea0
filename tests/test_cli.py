import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from coverscope import algebraic, check, cover, dataset, disqualify
from coverscope.cli import main
from coverscope.cover import Candidate

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
        assert (code, out, err) == (1, "", "audit failed at n=1\n")
        assert len(calls) == 1

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

    def test_verifies_twice_and_audits_the_proof_prefix(self, capsys, monkeypatch):
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
        assert len(verified) == 2
        assert audited == [(73).bit_length()]
        assert out.endswith("\nproved for all n >= 1: every term has a proper cover factor\n")

    def test_failed_audit_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(check, "first_audit_failure", lambda cert, n_max: 5)
        code, out, err = run(
            capsys, "family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
            "--i", "1",
        )
        assert (code, out, err) == (1, "", "audit failed at n=5\n")

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
        # Shrinking L to the predicate modulus claims every predicate
        # residue and proves nothing past n = 1.
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
            excess.append(n_max - cover.proof_depth(cert))
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
# one flag and entry field per line.  The format is stable, so these change
# only with tool_version; tests/fixtures/v1 keeps the 0.1.0 files.
PINNED_CERTIFICATES = [
    (
        ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
        "e85969633f57e36b0e9852bffd243f0374672051cd3adad4b42b5c5ac7566fb7",
    ),
    (
        ("verify", "--k", "509203", "--sign", "r", "--cover", "3,5,7,13,17,241"),
        "eeb24531e81280efd5a829b1e97c9fe15daaecc9a71134636d85fab2ed60800a",
    ),
    (
        ("verify", *COVERLESS_S4),
        "f7f9551be604a4be9b8a6262d96b5c8faeb28787487b892aadfd019b8e4d3d63",
    ),
    (
        ("family", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE, "--i", "2"),
        "8b18122047599ea10c83c1fbd12eedda92981f3a27e92b7a51b7694e54677362",
    ),
]

# The square certificate, the one kind without A and B.
PINNED_SQUARE_CERTIFICATE = (
    ("verify", *COVERLESS_R2),
    "7d93a6476f27678c39c30bf6f4801953d181f4f30b8fb8580eb5f630f0e96ec7",
)

# sha256 of the 37 certificates of the bundled corpus, concatenated in corpus
# order: one per cover of each cover record (34) and one per coverless
# record (3), built at build_algebraic_certificate's default depth.
PINNED_CORPUS_CERTIFICATES = "8f4cc11eb414964a6cec4d90663c84b046436a31544e3e9ee343377578ce7122"


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
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", PINNED_SCANS,
    ids=["disqualify-383s", "disqualify-383s-verbose", "survey-r600"],
)
def test_scan_bytes_are_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "e23bbd74dba3a40a9483e093bb9aeb34a4e41cd2d348ffd1f72ef1e57780ec82"),
        ("json", "e85969633f57e36b0e9852bffd243f0374672051cd3adad4b42b5c5ac7566fb7"),
    ],
)
def test_deepest_cross_check_bytes_are_pinned(capsys, fmt, digest):
    # Digests of the all-bignum audit's output at --audit-n = MAX_AUDIT_N.
    code, out, err = run(
        capsys, "verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE,
        "--audit-n", str(cover.MAX_AUDIT_N), "--format", fmt,
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
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0 and out.startswith("audit ok: ")
    code, out, _ = run(capsys, "audit", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True


V1_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "v1").glob("*.json"))
V2_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "v2").glob("*.json"))


def test_v2_fixtures_are_pinned_certificates():
    # Golden files that CI writes again with `verify --out` and compares.
    sums = (V2_FIXTURES[0].parent / "SHA256SUMS").read_text().split()
    assert dict(zip(sums[1::2], sums[0::2])) == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in V2_FIXTURES
    }
    pinned = {digest for _, digest in [*PINNED_CERTIFICATES, PINNED_SQUARE_CERTIFICATE]}
    assert len(V2_FIXTURES) == 4 and set(sums[0::2]) <= pinned


class TestV1Certificates:
    """Files written by tool_version 0.1.0, which states the residue table."""

    def test_fixtures_are_the_pinned_files(self):
        sums = (V1_FIXTURES[0].parent / "SHA256SUMS").read_text().split()
        assert dict(zip(sums[1::2], sums[0::2])) == {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in V1_FIXTURES
        }
        assert len(V1_FIXTURES) == len(PINNED_CERTIFICATES)

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_audits_ok(self, capsys, path):
        k = json.loads(path.read_text())["k"]
        code, out, err = run(capsys, "audit", str(path))
        assert (code, out, err) == (0, f"audit ok: k={k}, proved for all n >= 1\n", "")
        code, out, err = run(capsys, "audit", str(path), "--format", "json")
        assert (code, json.loads(out), err) == (0, {"ok": True, "k": k}, "")

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

    def test_an_l_above_the_bound_exits_2(self, capsys):
        # Periods 36 (the cover), 1000002 (1000003) and 10 (11): L = 30000060.
        code, out, err = run(
            capsys, "verify", "--k", "78557", "--sign", "s",
            "--cover", SELFRIDGE + ",1000003,11",
        )
        assert (code, out) == (2, "")
        assert err == f"error: L = 30000060 is above the bound {check.MAX_LCM}\n"

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
    """Deriving the table costs one slot per claimed residue, so a small
    file with many long progressions is refused before it is derived."""

    def write(self, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        return path

    def test_repeated_valid_entries_exit_2_quickly(self, capsys, tmp_path):
        # (3, 2, 0) and (3, 9999990, 0) pass every per-entry fact for 78557
        # and give L = 9999990; each copy of the first claims half of it.
        entries = [{"d": "3", "b": "2", "c": "0"}] * 100
        entries.append({"d": "3", "b": "9999990", "c": "0"})
        doc = {
            "k": "78557", "sign": 1, "entries": entries, "lcm": "9999990",
            "divisor_primality_flags": [True] * len(entries),
        }
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
            assert f"--audit-n: value must be <= {cover.MAX_AUDIT_N}" in err

    def test_the_bound_is_accepted(self, capsys, tmp_path, monkeypatch):
        # Cross-checks stubbed: for real, N = 10^5 takes about 8 ms on 78557 and 5 s coverless.
        depths = []

        def first_audit_failure(cert, n_max):
            depths.append(n_max)

        def first_coverless_failure(case, partial, n_max):
            depths.append(n_max)

        monkeypatch.setattr(check, "first_audit_failure", first_audit_failure)
        monkeypatch.setattr(check, "first_coverless_failure", first_coverless_failure)
        full = tmp_path / "cert.json"
        coverless = tmp_path / "coverless.json"
        bound = str(cover.MAX_AUDIT_N)
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
            assert max(depths) == cover.MAX_AUDIT_N

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_help_states_the_bound(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert str(cover.MAX_AUDIT_N) in capsys.readouterr().out


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
