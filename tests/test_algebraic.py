import json
import random
from pathlib import Path

import pytest

from coverscope import algebraic, cover
from coverscope.algebraic import (
    FourthPowerCase,
    SquareCase,
    build_algebraic_certificate,
    family_factor,
)
from coverscope.cover import (
    Candidate,
    UncoveredResidueError,
    VerificationError,
    verify_cover,
    witness,
)
from oracles import smallest_uncovered

# CASE_A's certificate as version 0.1 wrote it, residue table included.
V1_CASE_A = json.loads((Path(__file__).parent / "fixtures/v1/coverless-s4.json").read_text())

CASE_A = FourthPowerCase(44745755, (3, 17, 97, 241, 257, 673))
CASE_B = FourthPowerCase(734110615000775, (3, 17, 257, 641, 65537, 6700417))
SQUARE_ROOT = 3896845303873881175159314620808887046066972469809
CASE_SQ = SquareCase(
    SQUARE_ROOT,
    (7, 17, 31, 41, 71, 97, 113, 127, 151, 241, 257, 281, 337, 641, 673,
     1321, 14449, 29191, 65537, 6700417),
)


def test_polynomial_identity_randomized():
    # 4x^4 + 1 always splits into the two quadratic halves
    rng = random.Random(31)
    for _ in range(200):
        x = rng.randrange(1, 2**128)
        assert 4 * x**4 + 1 == (2 * x * x + 2 * x + 1) * (2 * x * x - 2 * x + 1)


class TestFourthPowerCase:
    def test_coefficients_match_known_constants(self):
        assert CASE_A.A == 4004365181040050
        assert CASE_A.B == 89491510
        assert CASE_A.k == 4008735125781478102999926000625
        assert CASE_B.A == 1077836790113632192906501201250
        assert CASE_B.B == 1468221230001550

    def test_factor_at_n2(self):
        assert family_factor(CASE_A, 2) == 4004365270531561
        assert (CASE_A.k * 4 + 1) % 4004365270531561 == 0

    def test_factor_at_n6(self):
        f = family_factor(CASE_A, 6)
        assert f == CASE_A.A * 4 + CASE_A.B * 2 + 1 == 16017460903143221
        assert (CASE_A.k * 2**6 + 1) % f == 0

    def test_cofactor_identity_full_range(self):
        for case in (CASE_A, CASE_B):
            for n in range(2, 203, 4):
                m = n // 4
                f = family_factor(case, n)
                cofactor = case.A * 2 ** (2 * m) - case.B * 2**m + 1
                assert f * cofactor == case.k * 2**n + 1
                assert 1 < f < case.k * 2**n + 1

    def test_wrong_residue_rejected(self):
        for n in (0, 1, 3, 4, 8, 200):
            with pytest.raises(ValueError):
                family_factor(CASE_A, n)

    def test_degenerate_root_fails_strictness(self):
        # root 1: the "factor" at n=2 is the whole term 5
        with pytest.raises(VerificationError):
            family_factor(FourthPowerCase(1, ()), 2)


class _FourthPowerHalfOffByTwo(FourthPowerCase):
    @staticmethod
    def halves(x):
        factor, cofactor = FourthPowerCase.halves(x)
        return factor + 2, cofactor


class _SquareRootOffByOne(SquareCase):
    @property
    def k(self):
        return (self.root + 1) ** 2


def test_factor_off_by_two_fails_the_split():
    # The fourth-power factor 2x^2 + 2x + 1 is moved up by 2; the square
    # factor 2*root + 1 at n = 2 is 2 below the true 2*(root + 1) + 1.
    # The product identity alone must reject both.
    for case in (
        _FourthPowerHalfOffByTwo(CASE_A.root, ()),
        _SquareRootOffByOne(SQUARE_ROOT, ()),
        _SquareRootOffByOne(3, ()),
    ):
        with pytest.raises(VerificationError, match="factor split failed"):
            family_factor(case, 2)


class TestSquareCase:
    def test_tiny_example(self):
        case = SquareCase(3, ())
        assert family_factor(case, 2) == 7
        assert (9 * 4 - 1) % 7 == 0

    def test_big_root_small_n(self):
        f = family_factor(CASE_SQ, 2)
        assert f == 2 * SQUARE_ROOT + 1
        assert (4 * SQUARE_ROOT**2 - 1) % f == 0

    def test_big_root_n10(self):
        f = family_factor(CASE_SQ, 10)
        assert f == SQUARE_ROOT * 32 + 1
        assert (CASE_SQ.k * 1024 - 1) % f == 0

    def test_even_range(self):
        for n in range(2, 101, 2):
            f = family_factor(CASE_SQ, n)
            x = SQUARE_ROOT * 2 ** (n // 2)
            assert f * (x - 1) == CASE_SQ.k * 2**n - 1
            assert 1 < f < CASE_SQ.k * 2**n - 1

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            family_factor(CASE_SQ, 3)


class TestPartialCover:
    def test_first_fourth_power_case(self):
        cert = verify_cover(
            Candidate(CASE_A.k, 1), CASE_A.partial_cover, algebraic.PREDICATE_MOD4_NE_2
        )
        assert cert.lcm == 48
        assert cert.lcm % 4 == 0
        for r in range(cert.lcm):
            if r % 4 != 2:
                assert cert.table[r] is not None
            else:
                assert cert.table[r] is None

    def test_second_fourth_power_case(self):
        cert = verify_cover(
            Candidate(CASE_B.k, 1), CASE_B.partial_cover, algebraic.PREDICATE_MOD4_NE_2
        )
        assert cert.lcm == 64

    def test_riesel_square_case(self):
        cert = verify_cover(
            Candidate(CASE_SQ.k, -1), CASE_SQ.partial_cover, algebraic.PREDICATE_ODD
        )
        assert cert.lcm == 6720
        assert len(cert.entries) == 20
        assert all(cert.table[r] is not None for r in range(1, cert.lcm, 2))

    def test_dropping_a_divisor_uncovers(self):
        reduced = tuple(d for d in CASE_A.partial_cover if d != 17)
        with pytest.raises(UncoveredResidueError) as exc_info:
            verify_cover(
                Candidate(CASE_A.k, 1), reduced, algebraic.PREDICATE_MOD4_NE_2
            )
        assert exc_info.value.residue == 4  # smallest predicate residue left open

    def test_failure_reports_smallest_predicate_residue(self):
        candidate = Candidate(CASE_A.k, 1)
        reduced = tuple(d for d in CASE_A.partial_cover if d != 241)
        entries = [
            (e.d, e.b, e.c)
            for e in (cover.build_entry(candidate, d) for d in reduced)
        ]
        expected = smallest_uncovered(entries, 48, predicate=lambda r: r % 4 != 2)
        with pytest.raises(UncoveredResidueError) as exc_info:
            verify_cover(candidate, reduced, algebraic.PREDICATE_MOD4_NE_2)
        assert exc_info.value.residue == expected == 0

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            verify_cover(Candidate(CASE_A.k, 1), CASE_A.partial_cover, "even")

    def test_partial_witness_respects_predicate(self):
        cert = verify_cover(
            Candidate(CASE_A.k, 1), CASE_A.partial_cover, algebraic.PREDICATE_MOD4_NE_2
        )
        d = witness(cert, 3)
        assert (CASE_A.k * 8 + 1) % d == 0
        with pytest.raises(ValueError):
            witness(cert, 6)  # 6 == 2 (mod 4): the algebraic side's job
        with pytest.raises(ValueError):
            witness(cert, 0)


class TestVerifyCoverless:
    def test_first_fourth_power(self):
        assert build_algebraic_certificate(CASE_A, 200).candidate == Candidate(CASE_A.k, 1)

    def test_second_fourth_power(self):
        assert build_algebraic_certificate(CASE_B, 100).candidate == Candidate(CASE_B.k, 1)

    def test_square(self):
        assert build_algebraic_certificate(CASE_SQ, 100).candidate == Candidate(CASE_SQ.k, -1)


class TestAlgebraicCertificate:
    def test_build_and_schema(self):
        cert = build_algebraic_certificate(CASE_A, 200)
        doc = json.loads(algebraic.certificate_to_json(cert))
        assert doc["kind"] == "fourth_power"
        assert doc["k"] == str(CASE_A.k)
        assert doc["root"] == "44745755"
        assert doc["A"] == "4004365181040050"
        assert doc["B"] == "89491510"
        assert doc["audited_n_max"] == 200
        assert doc["partial_cover_certificate"]["predicate"] == "mod4ne2"

    def test_round_trip_and_facts(self):
        for case, n_max in ((CASE_A, 60), (CASE_SQ, 40)):
            cert = build_algebraic_certificate(case, n_max)
            doc = json.loads(algebraic.certificate_to_json(cert))
            loaded = algebraic.certificate_from_dict(doc)
            assert loaded.case == case
            assert loaded.partial == cert.partial
            assert algebraic.check_certificate_facts(loaded) is None

    def test_doctored_coefficients_rejected(self):
        cert = build_algebraic_certificate(CASE_A, 20)
        doc = json.loads(algebraic.certificate_to_json(cert))
        doc["A"] = str(CASE_A.A + 2)
        with pytest.raises(algebraic.CertificateFormatError):
            algebraic.certificate_from_dict(doc)

    def test_unclaimed_predicate_residue_rejected(self):
        doc = json.loads(json.dumps(V1_CASE_A))
        assert algebraic.certificate_from_dict(doc).case == CASE_A
        doc["partial_cover_certificate"]["table"][3] = None
        with pytest.raises(algebraic.CertificateFormatError):
            algebraic.certificate_from_dict(doc)

    def test_partial_cover_schema_enforced(self):
        v2 = json.loads(algebraic.certificate_to_json(build_algebraic_certificate(CASE_A, 20)))
        partial = lambda d: d["partial_cover_certificate"]  # noqa: E731
        for base, breakages in (
            (v2, ()),
            (V1_CASE_A, (
                lambda d: partial(d)["table"].__setitem__(2, 0),  # 2 == 2 (mod 4): must be null
                lambda d: partial(d).update(table=partial(d)["table"] + [0, 1], lcm="50"),
            )),
        ):
            for breakage in (
                lambda d: partial(d).update(predicate="odd"),
                lambda d: partial(d).update(predicate="all"),
                lambda d: partial(d).pop("predicate"),
                lambda d: partial(d).update(lcm="50"),
                lambda d: d.update(kind="cube"),
                lambda d: d.update(root="0"),
                *breakages,
            ):
                doc = json.loads(json.dumps(base))
                breakage(doc)
                with pytest.raises(algebraic.CertificateFormatError):
                    algebraic.certificate_from_dict(doc)

    def test_partial_cover_is_not_a_full_cover(self):
        doc = json.loads(algebraic.certificate_to_json(build_algebraic_certificate(CASE_A, 20)))
        with pytest.raises(cover.CertificateFormatError):
            cover.certificate_from_dict(doc["partial_cover_certificate"])

    def test_json_booleans_rejected(self):
        cert = build_algebraic_certificate(CASE_A, 20)
        for breakage in (
            lambda d: d.update(sign=True),
            lambda d: d.update(sign=-1),
            lambda d: d.update(audited_n_max=True),
            lambda d: d["partial_cover_certificate"].update(sign=True),
            lambda d: d["partial_cover_certificate"].update(table=[
                True if t == 1 else t for t in V1_CASE_A["partial_cover_certificate"]["table"]
            ]),
            lambda d: d["partial_cover_certificate"].update(divisor_primality_flags=[1] * 6),
        ):
            doc = json.loads(algebraic.certificate_to_json(cert))
            breakage(doc)
            with pytest.raises(algebraic.CertificateFormatError):
                algebraic.certificate_from_dict(doc)

    def test_doctored_offset_caught_by_facts_check(self):
        cert = build_algebraic_certificate(CASE_A, 20)
        assert cert.partial.entries[0].c == 1  # true offset for d=3
        doc = json.loads(algebraic.certificate_to_json(cert))
        doc["partial_cover_certificate"]["entries"][0]["c"] = "0"
        loaded = algebraic.certificate_from_dict(doc)
        assert algebraic.check_certificate_facts(loaded) is not None
