"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).

Expected values are frozen from independent brute-force computation
(tests/oracles.py) or from the published constants they reproduce; runtime
ceilings are asserted with time.perf_counter around the relevant block.
"""

import contextlib
import time

import pytest

from coverscope import arith, check, cover, dataset, disqualify
from coverscope.check import Candidate, CoverEntry
from coverscope.cover import UncoveredResidueError
from oracles import check_induction_identity, mod_pow_naive, trial_division_prime

SELFRIDGE_COVER = (3, 5, 7, 13, 19, 37, 73)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


@pytest.fixture(scope="module")
def corpus():
    return dataset.load_corpus(dataset.default_corpus_path())


def cover_certificates(corpus):
    """(record, sign, certificate) for every full-cover claim in the corpus."""
    out = []
    for record in corpus:
        if record.kind in (dataset.KIND_S, dataset.KIND_R, dataset.KIND_BOTH):
            for sign, divisors in record.covers:
                out.append(
                    (record, sign, cover.verify_cover(Candidate(record.k, sign), divisors))
                )
    return out


def test_criterion_1_selfridge_witness_table():
    with criterion(1, "78557 reproduces the seven (d, b, c) triples and L = 36"):
        start = time.perf_counter()
        cert = cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)
        elapsed = time.perf_counter() - start
        assert cert.entries == (
            CoverEntry(3, 2, 0),
            CoverEntry(5, 4, 1),
            CoverEntry(7, 3, 1),
            CoverEntry(13, 12, 11),
            CoverEntry(19, 18, 15),
            CoverEntry(37, 36, 27),
            CoverEntry(73, 9, 3),
        )
        assert cert.lcm == 36
        assert elapsed < 1.0


def test_criterion_2_full_corpus_green(corpus):
    with criterion(2, "every corpus record verifies, within 30 s"):
        counts = {}
        for record in corpus:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        # the bundled records, one per published entry
        assert counts == {
            dataset.KIND_S: 19,
            dataset.KIND_R: 5,
            dataset.KIND_BOTH: 5,
            dataset.KIND_S4: 2,
            dataset.KIND_R2: 1,
        }
        ks = {r.k for r in corpus}
        assert {78557, 271129, 509203, 15511380746462593381} <= ks
        fermat_record = next(r for r in corpus if r.k == 15511380746462593381)
        assert fermat_record.covers[0][1] == (3, 5, 17, 257, 641, 65537, 6700417)
        report = dataset.verify_corpus(corpus)
        assert report.ok, [r.detail for r in report.results if not r.ok]
        assert report.total_seconds < 30.0


def test_criterion_3_audit_depth(corpus):
    with criterion(3, "every cover certificate audits exactly for n = 1..10L"):
        start = time.perf_counter()
        certs = cover_certificates(corpus)
        assert len(certs) == 19 + 5 + 2 * 5
        for record, sign, cert in certs:
            assert check.first_audit_failure(cert, 10 * cert.lcm) is None, (record.k, sign)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_induction_identity_suite(corpus):
    with criterion(4, "telescoping identity exact for every entry, j = 0..25"):
        seen = 0
        for record in corpus:
            for sign, divisors in record.covers:
                candidate = Candidate(record.k, sign)
                for d in divisors:
                    entry = cover.build_entry(candidate, d)
                    assert check_induction_identity(candidate, entry, 25)
                    seen += 1
        assert seen > 100
        # exponent classes behave identically after reduction mod L
        for record, sign, cert in cover_certificates(corpus):
            for n in range(10 * cert.lcm + 1):
                for e in cert.entries:
                    assert (n % e.b == e.c) == ((n % cert.lcm) % e.b == e.c)


def test_criterion_5_survey_reproduction():
    with criterion(5, "survey 1..199 leaves {47,103,143,197}; 143 -> 53, 47 -> 583"):
        start = time.perf_counter()
        records = disqualify.survey_range(1, 199, 1, 8)
        survivors = [r.candidate.k for r in records if not r.disqualified]
        assert survivors == [47, 103, 143, 197]
        deeper = disqualify.survey_range(103, 197, 1, 16)
        by_k = {r.candidate.k: r for r in deeper}
        assert by_k[103].disqualified and by_k[197].disqualified
        rec143 = disqualify.first_prime_exponent(Candidate(143, 1), 100)
        assert rec143.n_found == 53
        rec47 = disqualify.first_prime_exponent(Candidate(47, 1), 600)
        assert rec47.n_found == 583
        proof = rec47.primality
        n = 47 * 2**583 + 1
        assert proof.method == arith.METHOD_PROTH and proof.n == n
        assert arith.jacobi(proof.witness, n) == -1
        assert pow(proof.witness, (n - 1) // 2, n) == n - 1
        assert time.perf_counter() - start < 120.0


def test_criterion_6_fourth_power_factorization():
    with criterion(6, "published coefficients factor both fourth-power numbers"):
        for root, coeff_a, coeff_b in (
            (44745755, 4004365181040050, 89491510),
            (734110615000775, 1077836790113632192906501201250, 1468221230001550),
        ):
            case = check.FourthPowerCase(root, ())
            assert case.A == coeff_a and case.B == coeff_b
            k = root**4
            for n in range(2, 201, 4):
                assert n % 4 == 2
                m = n // 4
                factor = coeff_a * 2 ** (2 * m) + coeff_b * 2**m + 1
                cofactor = coeff_a * 2 ** (2 * m) - coeff_b * 2**m + 1
                term = k * 2**n + 1
                assert term % factor == 0
                assert factor * cofactor == term
                assert 1 < factor < term
                assert check.family_factor(case, n) == factor


def test_criterion_7_square_riesel(corpus):
    with criterion(7, "49-digit square case: even-n factors and odd-n partial cover"):
        record = next(r for r in corpus if r.kind == dataset.KIND_R2)
        a = record.root
        assert a == 3896845303873881175159314620808887046066972469809
        assert len(str(a)) == 49
        k = a * a
        for n in range(2, 101, 2):
            factor = a * 2 ** (n // 2) + 1
            term = k * 2**n - 1
            assert term % factor == 0
            assert 1 < factor < term
        divisors = record.covers[0][1]
        assert len(divisors) == 20
        cert = cover.verify_cover(Candidate(k, -1), divisors, check.SquareCase(a, divisors))
        assert cert.lcm % 2 == 0
        table = cert.table
        assert all(table[r] is not None for r in range(1, cert.lcm, 2))


def test_criterion_8_negative_controls(corpus):
    with criterion(8, "truncated and tag-swapped covers are rejected"):
        with pytest.raises(UncoveredResidueError) as exc_info:
            cover.verify_cover(Candidate(78557, 1), (3, 5, 7, 13, 19, 37))
        assert exc_info.value.residue == 3
        both = next(r for r in corpus if r.k == 143665583045350793098657)
        (_, riesel_cover), (_, sierpinski_cover) = both.covers
        with pytest.raises(check.VerificationError):
            cover.verify_cover(Candidate(both.k, -1), sierpinski_cover)
        with pytest.raises(check.VerificationError):
            cover.verify_cover(Candidate(both.k, 1), riesel_cover)


def test_criterion_9_property_suites():
    with criterion(9, "order/mod-pow/primality property suites and determinism"):
        for d in range(3, 1000, 2):
            b, _ = arith.order_and_offset(1, 1, d, check.MAX_LCM)
            assert pow(2, b, d) == 1
            for j in range(1, b):
                assert pow(2, j, d) != 1
            if trial_division_prime(d):
                assert (d - 1) % b == 0
        for base in range(50):
            for exp in range(50):
                for modulus in range(2, 50):
                    assert pow(base, exp, modulus) == mod_pow_naive(
                        base, exp, modulus
                    )
        for n in range(10**6):
            assert arith.is_prime(n).is_prime == trial_division_prime(n), n
        first = cover.certificate_to_json(
            cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)
        )
        second = cover.certificate_to_json(
            cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)
        )
        assert first.encode() == second.encode()
