"""The trusted checker, coverscope.check: what it imports, the coverless
proof from coefficients against the per-n proof it replaced and a per-n
cross-check, and the argument checks its callers guarantee."""

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverscope
from coverscope import algebraic, check, cover, dataset
from coverscope.check import Candidate, FourthPowerCase, SquareCase
from coverscope.cli import main
from oracles import CLAIMED, coverless_facts_per_n
from test_cover import (
    FAMILY,
    assert_proof_matches_oracles,
    doctored_certificates,
    random_divisor_sets,
)
from test_fuzz import COVERLESS_DOC, restated_lcm, spoiled_documents

SELFRIDGE = "3,5,7,13,19,37,73"
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def test_import_loads_only_the_standard_library():
    # -S: no site hooks, which may load third-party modules of their own.
    script = (
        "import json, sys\n"
        "import coverscope.check\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(coverscope.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = json.loads(out)
    assert {m for m in loaded if m.split(".")[0] == "coverscope"} == {
        "coverscope", "coverscope.check"
    }
    others = {m.split(".")[0] for m in loaded} - {"coverscope", "__main__"}
    assert others <= set(sys.stdlib_module_names)


def test_tool_version_is_the_package_version():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]*)"$', pyproject) == [cover.TOOL_VERSION]


def test_package_names_resolve_on_first_use():
    assert coverscope.__version__ == cover.TOOL_VERSION
    for name in coverscope.__all__:
        assert getattr(coverscope, name) is not None
    with pytest.raises(AttributeError):
        coverscope.audit_certificate


def per_n_verdict(cert):
    return coverless_facts_per_n(cert, check._divisibility_problem)


def corpus_coverless_certificates():
    for record in dataset.load_corpus(dataset.default_corpus_path()):
        if record.root is not None:
            (sign, divisors), = record.covers
            yield algebraic.build_algebraic_certificate(
                check.CASE_BY_SIGN[sign](record.root, divisors)
            )


class TestCoverlessProof:
    """check.prove proves the factor family from its coefficients;
    coverless_facts_per_n splits it at every prefix n, and
    coverless_cross_check_naive at every n up to n_max."""

    def test_corpus_records_and_their_doctorings(self):
        rng = random.Random(13)
        certs = list(corpus_coverless_certificates())
        assert len(certs) == 3
        verdicts = []
        for cert in certs:
            for doctored in (cert, *doctored_certificates(cert, rng)):
                verdicts.append(assert_proof_matches_oracles(doctored))
        assert verdicts.count(None) == 3 and len(verdicts) > 3

    def test_roots_1_to_64_with_random_partial_covers(self):
        # A small root^4 or root^2 has primes among its claimed terms, so no
        # partial cover exists for it: each root is paired with the
        # random_divisor_sets() covers of its kind's sign and family, built
        # for other k.  Where k differs (or root is 1) the split fails at
        # n = 2, unless a witness fails first, as the whole term at n = 1
        # does in the two covers put first.
        partials = [
            cover.verify_cover(Candidate(78557, 1), (157115, 3, 5, 7, 13, 19, 37, 73),
                               FAMILY["mod4ne2"]),
            cover.verify_cover(Candidate(509203, -1), (1018405, 3, 5, 7, 13, 17, 241),
                               FAMILY["odd"]),
        ]
        for candidate, divisors, name in random_divisor_sets():
            try:
                partials.append(cover.verify_cover(candidate, divisors, FAMILY[name]))
            except cover.UncoveredResidueError:
                continue
        verdicts = set()
        for root in range(1, 65):
            for case_type in (FourthPowerCase, SquareCase):
                for partial in partials:
                    if (partial.candidate.sign, type(partial.family)) != (
                        case_type.sign, case_type
                    ):
                        continue
                    case = case_type(root, tuple(e.d for e in partial.entries))
                    cert = dataclasses.replace(partial, family=case, audited_n_max=1)
                    verdicts.add(assert_proof_matches_oracles(cert))
        assert {"factor check failed at n=1", "factor check failed at n=2"} <= verdicts

    @FUZZ
    @given(st.one_of(spoiled_documents(COVERLESS_DOC), restated_lcm(COVERLESS_DOC)))
    def test_fuzz_doctorings(self, doc):
        try:
            cert = check.algebraic_certificate_from_dict(doc)
        except check.CertificateFormatError:
            return
        assert check.prove(cert) == per_n_verdict(cert)

    def test_emitted_factor_is_proper_except_root_1_at_n_2(self):
        for root in range(1, 65):
            for case in (FourthPowerCase(root, ()), SquareCase(root, ())):
                with pytest.raises(ValueError):
                    check.family_factor(case, 0)
                for n in range(1, 400):
                    if CLAIMED[case.predicate](n):
                        with pytest.raises(ValueError):
                            check.family_factor(case, n)
                    elif (root, n) == (1, 2):
                        with pytest.raises(check.VerificationError, match="not a proper"):
                            check.family_factor(case, n)
                    else:
                        factor = check.family_factor(case, n)
                        assert 1 < factor < case.k * 2**n + case.sign
                        assert (case.k * 2**n + case.sign) % factor == 0

    @pytest.mark.parametrize("kind", [[], {}, 7, None])
    def test_unhashable_or_non_string_kind_is_a_format_error(self, kind, capsys, tmp_path):
        doc = dict(COVERLESS_DOC, kind=kind)
        with pytest.raises(check.CertificateFormatError, match="unknown kind"):
            check.algebraic_certificate_from_dict(doc)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        assert main(["audit", str(path)]) == 2
        assert capsys.readouterr().err == f"error: unknown kind {kind!r}\n"

    def test_cli_corpus_and_parser_build_equal_cases(self, monkeypatch, tmp_path):
        # verify --partial and verify-dataset build the case from flags and
        # a corpus line, audit parses it from the emitted file.
        built = []
        build = algebraic.build_algebraic_certificate
        monkeypatch.setattr(
            algebraic, "build_algebraic_certificate",
            lambda case, n_max=None: built.append(case) or build(case, n_max),
        )
        records = [r for r in dataset.load_corpus(dataset.default_corpus_path()) if r.root]
        assert len(records) == 3
        assert dataset.verify_corpus(records).ok
        from_corpus = built[:]
        assert len(from_corpus) == 3
        for record, corpus_case in zip(records, from_corpus):
            (sign, divisors), = record.covers
            path = tmp_path / f"{record.line_no}.json"
            argv = [
                "verify", "--k", str(record.k), "--sign", "s" if sign == 1 else "r",
                "--cover", ",".join(map(str, divisors)),
                "--partial", check.CASE_BY_SIGN[sign].predicate,
                "--root", str(record.root), "--out", str(path),
            ]
            assert main(argv) == 0
            parsed = check.certificate_from_json(path.read_text()).family
            assert built[-1] == parsed == corpus_case
            assert type(parsed) is check.CASE_BY_SIGN[sign]


def selfridge_certificate():
    return cover.verify_cover(Candidate(78557, 1), (3, 5, 7, 13, 19, 37, 73))


def with_first_entry(cert, **changes):
    entry = dataclasses.replace(cert.entries[0], **changes)
    return dataclasses.replace(cert, entries=(entry,) + cert.entries[1:])


def test_the_prefix_is_audited_whatever_n_max(monkeypatch):
    # One audit call per proof, to proof_depth = 7 or to n_max past it: a
    # cross-check shallower than the prefix still audits the whole prefix.
    depths = []
    audit = check.first_audit_failure
    monkeypatch.setattr(
        check, "first_audit_failure",
        lambda cert, n_max: depths.append(n_max) or audit(cert, n_max),
    )
    for n_max in (None, 1, 6, 7, 8, 500):
        assert check.prove(selfridge_certificate(), n_max) is None
    assert depths == [7, 7, 7, 7, 8, 500]


class TestCallSiteGuarantees:
    """The argument checks of the deleted arith.mod_pow, arith.lcm_all and
    cover.audit_certificate, made where the arguments come from."""

    def test_moduli_below_3_never_reach_pow(self):
        cert = selfridge_certificate()
        for d in (2, 1, 0, -7):
            problem = check.prove(with_first_entry(cert, d=d))
            assert problem == f"divisor {d} is not odd and >= 3"
            with pytest.raises(ValueError):
                cover.build_entry(cert.candidate, d)

    def test_exponents_are_never_negative(self):
        cert = selfridge_certificate()
        problem = check.prove(with_first_entry(cert, c=-1))
        assert problem == "offset -1 out of range for period 2 (d=3)"
        for field in ("b", "c"):
            doc = json.loads(cover.certificate_to_json(cert))
            doc["entries"][0][field] = "-1"
            with pytest.raises(check.CertificateFormatError):
                check.certificate_from_dict(doc)

    def test_empty_covers_are_refused(self):
        doc = json.loads(cover.certificate_to_json(selfridge_certificate()))
        doc["entries"] = []
        with pytest.raises(check.CertificateFormatError, match="nonempty"):
            check.certificate_from_dict(doc)
        with pytest.raises(ValueError, match="at least one divisor"):
            cover.verify_cover(Candidate(78557, 1), ())

    def test_periods_below_1_are_refused(self):
        cert = selfridge_certificate()
        problem = check.prove(with_first_entry(cert, b=0))
        assert problem == "offset 0 out of range for period 0 (d=3)"

    def test_audit_depth_below_1_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(cover.certificate_to_json(selfridge_certificate()))
        for argv in (
            ("audit", str(path)),
            ("verify", "--k", "78557", "--sign", "s", "--cover", SELFRIDGE),
        ):
            assert main([*argv, "--audit-n", "0"]) == 2
            assert "--audit-n: value must be >= 1" in capsys.readouterr().err


def test_huge_stated_periods_are_refused_before_any_pow(capsys, tmp_path):
    # Each period is a multiple of ord_d(2) = 14000 with 4005 digits, so
    # pow(2, b, d) would pass after about a second per entry; no period
    # divides the stated L = 2, which parsing bounds by MAX_LCM.
    entry = {"d": str(2**14000 - 1), "b": str(14000 * 10**4000), "c": "0"}
    doc = {
        "k": "1", "sign": -1, "entries": [entry] * 64, "lcm": "2",
        "tool_version": cover.TOOL_VERSION,
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["audit", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert capsys.readouterr().err == (
        "audit FAILED: stated lcm does not match the entry periods\n"
    )


def test_a_stated_lcm_that_every_period_divides_is_refuted():
    # Every period divides 2L and the entries cover every residue mod 2L,
    # so only the match of L with the lcm of the periods refutes it.
    cert = selfridge_certificate()
    doubled = dataclasses.replace(cert, lcm=2 * cert.lcm)
    assert doubled.uncovered_residue is None
    assert check.prove(doubled) == "stated lcm does not match the entry periods"


def test_a_stated_lcm_that_leaves_out_the_family_period_is_refuted():
    # k = 5^2, sign -1: the entry (7, 3, 1) holds, as 7 | 2^3 - 1 and
    # 7 | 25*2 - 1.  With L = 3 the square family takes residues 0 and 2
    # and the entry residue 1, so no residue is left open; yet n = 3 is odd
    # and 25*2^3 - 1 = 199 is prime.  Only the match of L with the lcm of
    # the periods, the family's 2 among them, refutes it, and the parser
    # refuses an L that the family's period does not divide.
    cert = check.CoverCertificate(
        Candidate(25, -1), (check.CoverEntry(7, 3, 1),), 3, SquareCase(5, (7,)), 1
    )
    assert cert.uncovered_residue is None
    assert check.prove(cert) == "stated lcm does not match the entry periods"
    with pytest.raises(check.CertificateFormatError, match="multiple of the predicate modulus"):
        check.certificate_from_json(algebraic.certificate_to_json(cert))


class _RootOneStatingS4K(FourthPowerCase):
    @property
    def k(self):
        return 44745755**4


def test_root_1_fails_at_n_2_whatever_k_the_case_states():
    # The emitted factor is proper from n = 2 only for root >= 2, and the
    # proof checks root itself: a case built in process that states the S4
    # record's k with root 1 fails at n = 2, cross-checked or not.
    s4 = FourthPowerCase(44745755, (3, 17, 97, 241, 257, 673))
    cert = algebraic.build_algebraic_certificate(s4)
    assert check.prove(cert, 100) is None
    doctored = dataclasses.replace(cert, family=_RootOneStatingS4K(1, cert.family.partial_cover))
    for n_max in (None, 100):
        assert check.prove(doctored, n_max) == "factor check failed at n=2"


S4_FIXTURE = Path(__file__).parent / "fixtures/v3/coverless-s4.json"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on reading an int")
class TestDigitLimit:
    """A number with more digits than Python reads is a format error that
    names its field, not Python's own ValueError."""

    PARTIAL = ("partial_cover_certificate",)
    ENTRY = (*PARTIAL, "entries", 0)
    FIELDS = [
        ("k",), ("root",), ("A",), ("B",), (*PARTIAL, "k"), (*ENTRY, "d"), (*ENTRY, "b"),
        (*ENTRY, "c"), (*PARTIAL, "lcm"),
        # JSON integers, which json.loads reads.
        ("sign",), (*PARTIAL, "sign"), ("audited_n_max",),
    ]

    @staticmethod
    def too_long(path):
        """The S4 fixture with the field at path one digit over the limit."""
        doc = json.loads(S4_FIXTURE.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        if type(parent[path[-1]]) is str:
            parent[path[-1]] = digits
            return json.dumps(doc)
        parent[path[-1]] = "@"
        return json.dumps(doc).replace('"@"', digits)

    @pytest.mark.parametrize("path", FIELDS, ids=lambda path: ".".join(map(str, path)))
    def test_every_field_is_named(self, path):
        with pytest.raises(check.CertificateFormatError) as info:
            check.certificate_from_json(self.too_long(path))
        limit = sys.get_int_max_str_digits()
        assert str(info.value) == f"field {path[-1]!r} has more than {limit} digits"

    @pytest.mark.parametrize("rest", [", }", ', "b": ' + "[" * 100000, "]"])
    def test_malformed_json_after_the_integer_names_none(self, rest):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(check.CertificateFormatError) as info:
            check.certificate_from_json('{"a": ' + "9" * (limit + 1) + rest)
        assert str(info.value) == f"a JSON integer has more than {limit} digits"

    def test_audit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(self.too_long((*self.ENTRY, "d")))
        assert main(["audit", str(path)]) == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr() == ("", f"error: field 'd' has more than {limit} digits\n")
