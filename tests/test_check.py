"""The trusted checker, coverscope.check: what it imports, the coverless
proof from coefficients against the per-n proof it replaced, and the
argument checks its callers guarantee."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverscope
from coverscope import algebraic, check, cover, dataset
from coverscope.check import AlgebraicCertificate, Candidate, FourthPowerCase, SquareCase
from coverscope.cli import main
from oracles import coverless_facts_per_n
from test_cover import doctored_certificates, random_divisor_sets
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
    """check_algebraic_certificate_facts proves the factor family from its
    coefficients; coverless_facts_per_n splits it at every prefix n."""

    def test_corpus_records_and_their_doctorings(self):
        rng = random.Random(13)
        certs = list(corpus_coverless_certificates())
        assert len(certs) == 3
        verdicts = []
        for cert in certs:
            for partial in (cert.partial, *doctored_certificates(cert.partial, rng)):
                doctored = dataclasses.replace(cert, partial=partial)
                verdicts.append(check.check_algebraic_certificate_facts(doctored))
                assert verdicts[-1] == per_n_verdict(doctored)
        assert verdicts.count(None) == 3 and len(verdicts) > 3

    def test_roots_1_to_64_with_random_partial_covers(self):
        # A small root^4 or root^2 has primes among its claimed terms, so no
        # partial cover exists for it: each root is paired with the
        # random_divisor_sets() covers of its kind's sign and predicate,
        # built for other k.  Where k differs (or root is 1) the split fails
        # at n = 2, unless a witness fails first, as the whole term at n = 1
        # does in the two covers put first.
        partials = [
            cover.verify_cover(Candidate(78557, 1), (157115, 3, 5, 7, 13, 19, 37, 73),
                               check.PREDICATE_MOD4_NE_2),
            cover.verify_cover(Candidate(509203, -1), (1018405, 3, 5, 7, 13, 17, 241),
                               check.PREDICATE_ODD),
        ]
        for candidate, divisors, predicate in random_divisor_sets():
            try:
                partials.append(cover.verify_cover(candidate, divisors, predicate))
            except cover.UncoveredResidueError:
                continue
        verdicts = set()
        for root in range(1, 65):
            for case_type in (FourthPowerCase, SquareCase):
                for partial in partials:
                    if (partial.candidate.sign, partial.predicate) != (
                        case_type.sign, case_type.predicate
                    ):
                        continue
                    case = case_type(root, tuple(e.d for e in partial.entries))
                    cert = AlgebraicCertificate(case, partial, 1)
                    verdict = check.check_algebraic_certificate_facts(cert)
                    assert verdict == per_n_verdict(cert), (root, case_type, partial)
                    verdicts.add(verdict)
        assert {"factor check failed at n=1", "factor check failed at n=2"} <= verdicts

    @FUZZ
    @given(st.one_of(spoiled_documents(COVERLESS_DOC), restated_lcm(COVERLESS_DOC)))
    def test_fuzz_doctorings(self, doc):
        try:
            cert = check.algebraic_certificate_from_dict(doc)
        except check.CertificateFormatError:
            return
        assert check.check_algebraic_certificate_facts(cert) == per_n_verdict(cert)

    def test_emitted_factor_is_proper_except_root_1_at_n_2(self):
        for root in range(1, 65):
            for case in (FourthPowerCase(root, ()), SquareCase(root, ())):
                modulus, claimed = check.PREDICATES[case.predicate]
                with pytest.raises(ValueError):
                    check.family_factor(case, 0)
                for n in range(1, 400):
                    if n % modulus in claimed:
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
            parsed = check.certificate_from_json(path.read_text()).case
            assert built[-1] == parsed == corpus_case
            assert type(parsed) is check.CASE_BY_SIGN[sign]


def selfridge_certificate():
    return cover.verify_cover(Candidate(78557, 1), (3, 5, 7, 13, 19, 37, 73))


def with_first_entry(cert, **changes):
    entry = dataclasses.replace(cert.entries[0], **changes)
    return dataclasses.replace(cert, entries=(entry,) + cert.entries[1:])


class TestCallSiteGuarantees:
    """The argument checks of the deleted arith.mod_pow, arith.lcm_all and
    cover.audit_certificate, made where the arguments come from."""

    def test_moduli_below_3_never_reach_pow(self):
        cert = selfridge_certificate()
        for d in (2, 1, 0, -7):
            problem = check.check_certificate_facts(with_first_entry(cert, d=d))
            assert problem == f"divisor {d} is not odd and >= 3"
            with pytest.raises(ValueError):
                cover.build_entry(cert.candidate, d)

    def test_exponents_are_never_negative(self):
        cert = selfridge_certificate()
        problem = check.check_certificate_facts(with_first_entry(cert, c=-1))
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
        problem = check.check_certificate_facts(with_first_entry(cert, b=0))
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
        "divisor_primality_flags": [False] * 64, "tool_version": cover.TOOL_VERSION,
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
