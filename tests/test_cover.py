import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverscope import algebraic, check, cover, dataset
from coverscope.cover import (
    Candidate,
    CoverEntry,
    NoOffsetError,
    UncoveredResidueError,
    VerificationError,
)
from oracles import (
    CLAIMED,
    check_induction_identity,
    first_audit_failure_naive,
    first_match_table,
    offset_naive,
    order_naive,
    smallest_uncovered,
)

SELFRIDGE_COVER = (3, 5, 7, 13, 19, 37, 73)
SELFRIDGE_ENTRIES = (
    CoverEntry(3, 2, 0),
    CoverEntry(5, 4, 1),
    CoverEntry(7, 3, 1),
    CoverEntry(13, 12, 11),
    CoverEntry(19, 18, 15),
    CoverEntry(37, 36, 27),
    CoverEntry(73, 9, 3),
)
RIESEL_COVER = (3, 5, 7, 13, 17, 241)


@pytest.fixture(scope="module")
def selfridge_cert():
    return cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)


@pytest.fixture(scope="module")
def riesel_cert():
    return cover.verify_cover(Candidate(509203, -1), RIESEL_COVER)


class TestCandidate:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            Candidate(78556, 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            Candidate(78557, 2)

    def test_term(self):
        assert Candidate(78557, 1).term(1) == 157115
        assert Candidate(509203, -1).term(2) == 509203 * 4 - 1

    def test_k1_allowed_for_disqualification_but_not_covers(self):
        c = Candidate(1, -1)
        with pytest.raises(ValueError):
            cover.build_entry(c, 3)


class TestBuildEntry:
    def test_known_entries(self):
        assert cover.build_entry(Candidate(78557, 1), 7) == CoverEntry(7, 3, 1)
        assert cover.build_entry(Candidate(78557, 1), 37) == CoverEntry(37, 36, 27)
        assert cover.build_entry(Candidate(509203, -1), 3) == CoverEntry(3, 2, 0)

    def test_divisor_of_k_reports_no_offset(self):
        with pytest.raises(NoOffsetError) as exc_info:
            cover.build_entry(Candidate(78557, 1), 17)  # 17 | 78557
        assert exc_info.value.divisor == 17

    def test_even_divisor_rejected(self):
        with pytest.raises(ValueError):
            cover.build_entry(Candidate(78557, 1), 4)
        with pytest.raises(ValueError):
            cover.build_entry(Candidate(78557, 1), 1)


class TestInductionIdentity:
    def test_known_entries_pass(self):
        c = Candidate(78557, 1)
        assert check_induction_identity(c, CoverEntry(73, 9, 3), 10)
        assert check_induction_identity(c, CoverEntry(3, 2, 0), 10)

    def test_corrupted_offset_fails(self):
        # 73 does not divide 78557*2^4 + 1
        assert (78557 * 2**4 + 1) % 73 != 0
        assert not check_induction_identity(
            Candidate(78557, 1), CoverEntry(73, 9, 4), 0
        )

    def test_riesel_side(self):
        c = Candidate(509203, -1)
        for entry in cover.verify_cover(c, RIESEL_COVER).entries:
            assert check_induction_identity(c, entry, 25)


class TestVerifyCover:
    def test_selfridge_table_exact(self, selfridge_cert):
        assert selfridge_cert.entries == SELFRIDGE_ENTRIES
        assert selfridge_cert.lcm == 36
        assert len(selfridge_cert.table) == 36
        assert sum(selfridge_cert.witness_counts) == 36
        assert all(selfridge_cert.divisor_primality)

    def test_riesel(self, riesel_cert):
        assert riesel_cert.lcm == 24
        assert [e.b for e in riesel_cert.entries] == [2, 4, 3, 12, 8, 24]

    def test_first_match_tie_break(self, selfridge_cert):
        # no entry earlier in cover order may also match a claimed residue
        for r, idx in enumerate(selfridge_cert.table):
            for earlier in range(idx):
                e = selfridge_cert.entries[earlier]
                assert r % e.b != e.c

    def test_dropping_73_uncovers_residue_3(self):
        with pytest.raises(UncoveredResidueError) as exc_info:
            cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER[:-1])
        assert exc_info.value.residue == 3

    def test_failure_names_smallest_residue(self):
        entries = [
            (e.d, e.b, e.c)
            for e in (cover.build_entry(Candidate(78557, 1), d) for d in (3, 5, 7))
        ]
        expected = smallest_uncovered(entries, 12)
        with pytest.raises(UncoveredResidueError) as exc_info:
            cover.verify_cover(Candidate(78557, 1), (3, 5, 7))
        assert exc_info.value.residue == expected == 3

    def test_no_offset_failure_names_divisor(self):
        with pytest.raises(NoOffsetError) as exc_info:
            cover.verify_cover(Candidate(78557, 1), (3, 5, 23))
        assert exc_info.value.divisor == 23

    def test_empty_cover_rejected(self):
        with pytest.raises(ValueError):
            cover.verify_cover(Candidate(78557, 1), ())

    def test_deterministic_reruns_bit_identical(self):
        a = cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)
        b = cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER)
        assert a == b
        assert cover.certificate_to_json(a) == cover.certificate_to_json(b)

    def test_composite_divisor_flagged(self):
        # appending 9 = 3^2 keeps the cover valid; the entry is flagged
        cert = cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER + (9,))
        assert cert.divisor_primality[-1] is False
        assert all(cert.divisor_primality[:-1])
        assert cert.witness_counts[-1] == 0  # 3 claims the shared residues first


PREDICATE_MODULUS = {cover.PREDICATE_ALL: 1, cover.PREDICATE_MOD4_NE_2: 4, cover.PREDICATE_ODD: 2}


def random_divisor_sets(count=300):
    """(candidate, divisors, predicate) with k built by CRT, so that each
    divisor has a random offset and some sets cover their predicate."""
    rng = random.Random(5)
    pool = (3, 5, 7, 11, 13, 17, 19, 31, 37, 41, 73, 109, 151, 241, 331, 1321)
    for _ in range(count):
        sign = rng.choice((1, -1))
        divisors = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        # CRT: k == -sign * 2^-c (mod d) gives each divisor a random class c
        k, step = 1, 2
        for d in divisors:
            target = -sign * pow(2, -rng.randrange(order_naive(2, d)), d) % d
            while k % d != target:
                k += step
            step *= d
        candidate = Candidate(k if k >= 3 else k + step, sign)
        yield candidate, divisors, rng.choice(list(CLAIMED))


class TestTableBuilder:
    def test_corpus_tables_match_first_match_scan(self):
        corpus = dataset.load_corpus(dataset.default_corpus_path())
        for record in corpus:
            for sign, divisors in record.covers:
                predicate = cover.PREDICATE_ALL
                if record.root is not None:
                    predicate = cover.PREDICATE_MOD4_NE_2 if sign == 1 else cover.PREDICATE_ODD
                cert = cover.verify_cover(Candidate(record.k, sign), divisors, predicate)
                expected = first_match_table(cert.entries, cert.lcm, CLAIMED[predicate])
                assert list(cert.table) == expected, (record.k, sign)
                assert cert.witness_counts == tuple(
                    expected.count(i) for i in range(len(cert.entries))
                )

    def test_random_divisor_sets_against_scan(self):
        for candidate, divisors, predicate in random_divisor_sets():
            entries = [cover.build_entry(candidate, d) for d in divisors]
            lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[predicate])
            hole = smallest_uncovered(
                [(e.d, e.b, e.c) for e in entries], lcm, CLAIMED[predicate]
            )
            if hole is None:
                cert = cover.verify_cover(candidate, divisors, predicate)
                expected = first_match_table(entries, lcm, CLAIMED[predicate])
                assert list(cert.table) == expected
                assert cert.witness_counts == tuple(
                    expected.count(i) for i in range(len(entries))
                )
            else:
                with pytest.raises(UncoveredResidueError) as exc_info:
                    cover.verify_cover(candidate, divisors, predicate)
                assert (exc_info.value.residue, exc_info.value.lcm) == (hole, lcm)


class TestWitness:
    def test_examples(self, selfridge_cert):
        assert cover.witness(selfridge_cert, 1) == 5
        assert cover.witness(selfridge_cert, 2) == 3
        assert cover.witness(selfridge_cert, 3) == 73
        assert 157115 % 5 == 0

    def test_n_zero_rejected(self, selfridge_cert):
        with pytest.raises(ValueError):
            cover.witness(selfridge_cert, 0)

    def test_witness_divides_and_proper(self, selfridge_cert, riesel_cert):
        for cert in (selfridge_cert, riesel_cert):
            for n in range(1, 10 * cert.lcm + 1):
                d = cover.witness(cert, n)
                term = cert.candidate.term(n)
                assert term % d == 0
                assert 1 < d < term


class TestAudit:
    def test_full_periods(self, selfridge_cert, riesel_cert):
        assert cover.first_audit_failure(selfridge_cert, 360) is None
        assert cover.first_audit_failure(riesel_cert, 240) is None

    def test_tampered_table_fails_at_5(self, selfridge_cert):
        # A false entry listed first takes residues 5, 11, ... of the derived
        # table from their true witnesses; 3 does not divide the term at n = 5.
        bad = dataclasses.replace(
            selfridge_cert, entries=(CoverEntry(3, 6, 5),) + selfridge_cert.entries
        )
        assert bad.table[5] == 0
        assert cover.first_audit_failure(bad, 36) == 5


def corpus_certificates():
    """The certificate of every cover in the bundled corpus."""
    for record in dataset.load_corpus(dataset.default_corpus_path()):
        for sign, divisors in record.covers:
            predicate = cover.PREDICATE_ALL
            if record.root is not None:
                predicate = cover.PREDICATE_MOD4_NE_2 if sign == 1 else cover.PREDICATE_ODD
            yield cover.verify_cover(Candidate(record.k, sign), divisors, predicate)


def hand_certificate(candidate, entries, lcm, predicate=cover.PREDICATE_ALL):
    """A certificate for the given entries, holes and all: nothing here is
    checked."""
    return cover.CoverCertificate(
        candidate, tuple(entries), lcm, (True,) * len(entries), predicate
    )


def with_slot(cert, r, j):
    """cert with a first entry of period L that claims residue r for entry
    j's divisor: one slot of the derived table reassigned."""
    return dataclasses.replace(
        cert, entries=(CoverEntry(cert.entries[j].d, cert.lcm, r),) + cert.entries
    )


def doctored_certificates(cert, rng):
    """cert with one offset c shifted (the table following it), one divisor
    set to a whole claimed term, one claimed table slot reassigned, and L
    stated one too small and one too large."""
    i = rng.randrange(len(cert.entries))
    e = cert.entries[i]

    def with_entry(new):
        return cert.entries[:i] + (new,) + cert.entries[i + 1:]

    shifted = with_entry(dataclasses.replace(e, c=(e.c + 1) % e.b))
    yield hand_certificate(cert.candidate, shifted, cert.lcm, cert.predicate)
    claimed = [n for n in range(1, cert.lcm + 1) if cert.table[n % cert.lcm] is not None]
    if not claimed:
        return
    n0 = rng.choice(claimed[:8])
    yield dataclasses.replace(
        cert, entries=with_entry(dataclasses.replace(e, d=cert.candidate.term(n0)))
    )
    r = rng.choice(claimed) % cert.lcm
    j = rng.choice([j for j in range(len(cert.entries)) if j != cert.table[r]] or [0])
    yield with_slot(cert, r, j)
    # A wrong L: the residues below it keep their witnesses, so n < L pass,
    # and a later n fails once an entry's period does not divide L.
    for lcm in (cert.lcm - 1, cert.lcm + 1):
        if lcm >= 1:
            yield dataclasses.replace(cert, lcm=lcm)


def audit_depths(cert):
    """The audit depths around which the residue walk changes shape."""
    lcm = cert.lcm
    return sorted({n for n in (1, cover.proof_depth(cert), lcm - 1, lcm, 3 * lcm + 5) if n >= 1})


class TestStreamedAudit:
    """first_audit_failure, which builds bignum terms only in the properness
    prefix, against the all-bignum oracle."""

    def assert_matches_oracle(self, cert):
        depths = audit_depths(cert)
        # Also just below and at the first failure, which tests where each
        # row of the walk stops.
        n_bad = first_audit_failure_naive(cert, depths[-1])
        if n_bad is not None:
            depths += [n for n in (n_bad - 1, n_bad) if n >= 1]
        for n_max in depths:
            assert cover.first_audit_failure(cert, n_max) == first_audit_failure_naive(
                cert, n_max
            ), (cert.candidate, [e.d for e in cert.entries], cert.lcm, n_max)

    def test_corpus_covers_and_their_doctored_copies(self):
        rng = random.Random(11)
        signs = set()
        for cert in corpus_certificates():
            signs.add(cert.candidate.sign)
            assert cover.first_audit_failure(cert, 3 * cert.lcm + 5) is None
            self.assert_matches_oracle(cert)
            for bad in doctored_certificates(cert, rng):
                self.assert_matches_oracle(bad)
        assert signs == {1, -1}

    def test_random_divisor_sets_and_their_doctored_copies(self):
        rng = random.Random(12)
        for candidate, divisors, predicate in random_divisor_sets():
            entries = [cover.build_entry(candidate, d) for d in divisors]
            lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[predicate])
            # Sets that leave a hole audit with None there.
            cert = hand_certificate(candidate, entries, lcm, predicate)
            self.assert_matches_oracle(cert)
            for bad in doctored_certificates(cert, rng):
                self.assert_matches_oracle(bad)

    def test_tiny_early_terms(self):
        # Each list's first divisor is a whole early term.  For k = 1, sign -1
        # the term 2^n - 1 at n = proof_depth can equal the largest divisor.
        for k, sign, divisors in (
            (3, -1, (5, 23, 11, 13, 47)),
            (3, 1, (7, 13, 5, 97)),
            (5, 1, (11, 3, 7, 41)),
            (1, 1, (3, 5, 17, 7)),
            (1, -1, (3, 7, 31)),
            (1, -1, (7,)),
            (1, -1, (31,)),
            (1, -1, (127, 73)),
        ):
            candidate = Candidate(k, sign)
            entries = []
            for d in divisors:
                b = order_naive(2, d)
                c = offset_naive(k, sign, d, b)
                if c is not None:
                    entries.append(cover.CoverEntry(d, b, c))
            lcm = math.lcm(*(e.b for e in entries))
            cert = hand_certificate(candidate, entries, lcm)
            self.assert_matches_oracle(cert)
            n0 = next(n for n in range(1, 8) if candidate.term(n) == divisors[0])
            assert cover.first_audit_failure(cert, 3 * lcm + 5) == n0

    def test_failures_at_the_edges_of_the_walk(self, selfridge_cert):
        # L stated as 16, with entries of period 16 that claim residues 8
        # (d = 3), 9 (d = 5) and 15 (d = 19); 73 claims residue 8 after 3,
        # so it claims nothing, but sets the prefix to n <= 7 and the first
        # row of the residue walk to n = 8..23.  Residues 8 and 9 pass for
        # good; 15 (19 has period 18) passes at n = 15 and first fails at
        # 31, the last claimed n of the second row.
        entries = tuple(CoverEntry(d, 16, r) for d, r in ((3, 8), (5, 9), (19, 15), (73, 8)))
        cert = dataclasses.replace(selfridge_cert, lcm=16, entries=entries)
        # Residue 7 to d = 7 (period 3) passes at n = 7, in the prefix, and
        # fails at 23, the last n of the first row.
        cert_23 = dataclasses.replace(cert, entries=entries + (CoverEntry(7, 16, 7),))
        assert [r for r, idx in enumerate(cert_23.table) if idx is not None] == [7, 8, 9, 15]
        for c, n_bad in ((cert, 31), (cert_23, 23)):
            for n_max in (n_bad - 1, n_bad, 100):
                expected = n_bad if n_max >= n_bad else None
                assert cover.first_audit_failure(c, n_max) == expected
                assert first_audit_failure_naive(c, n_max) == expected

    @pytest.mark.parametrize("d", [0, 1, -7])
    def test_divisor_below_2_fails_at_its_first_claimed_n(self, selfridge_cert, d):
        # Entry 5 (d = 37) is first claimed at n = 27, past the prefix n <= 7.
        L = selfridge_cert.lcm
        for i, e in enumerate(selfridge_cert.entries):
            bad = dataclasses.replace(
                selfridge_cert,
                entries=selfridge_cert.entries[:i] + (dataclasses.replace(e, d=d),)
                + selfridge_cert.entries[i + 1:],
            )
            first = next(n for n in range(1, L + 1) if selfridge_cert.table[n % L] == i)
            for n_max in (first - 1, first, 10 * L):
                expected = first if n_max >= first else None
                assert cover.first_audit_failure(bad, n_max) == expected
                assert first_audit_failure_naive(bad, n_max) == expected
            assert cover.first_audit_failure(bad, 10 * L) is not None

    def test_bignum_terms_only_in_the_properness_prefix(self, selfridge_cert):
        class CountingK(int):
            """k that counts the shifts and products that scale it by 2^n."""

            def __lshift__(self, n):
                self.built += 1
                return int(self) << n

            def __mul__(self, m):
                self.built += 1
                return int(self) * m

            __rmul__ = __mul__

        k = CountingK(78557)
        k.built = 0
        cert = dataclasses.replace(selfridge_cert, candidate=Candidate(k, 1))
        assert cover.first_audit_failure(cert, cover.MAX_AUDIT_N) is None
        assert 0 < k.built <= cover.proof_depth(cert) == 7


class TestModReductionEquivalence:
    def test_predicates_stable_under_mod_lcm(self, selfridge_cert):
        L = selfridge_cert.lcm
        for n in range(10 * L + 1):
            for e in selfridge_cert.entries:
                assert (n % e.b == e.c) == ((n % L) % e.b == e.c)


class TestFamily:
    def test_selfridge_family(self):
        sibling = cover.generate_family(Candidate(78557, 1), SELFRIDGE_COVER, 1).candidate
        assert sibling.k == 140179427
        assert sibling.k == 78557 + 2 * 70050435

    def test_family_i2(self):
        sibling = cover.generate_family(Candidate(78557, 1), SELFRIDGE_COVER, 2).candidate
        assert sibling.k == 280280297

    def test_riesel_family(self):
        sibling = cover.generate_family(Candidate(509203, -1), RIESEL_COVER, 1).candidate
        assert sibling.k == 509203 + 2 * 3 * 5 * 7 * 13 * 17 * 241

    def test_i_zero_rejected(self):
        with pytest.raises(ValueError):
            cover.generate_family(Candidate(78557, 1), SELFRIDGE_COVER, 0)

    def test_family_keeps_entry_table(self, selfridge_cert):
        # Equal entries and L give equal derived tables.
        derived = cover.generate_family(Candidate(78557, 1), SELFRIDGE_COVER, 3)
        assert derived == cover.verify_cover(derived.candidate, SELFRIDGE_COVER)
        assert derived.entries == selfridge_cert.entries
        assert derived.table == selfridge_cert.table


class TestSerialization:
    def test_schema_fields(self, selfridge_cert):
        doc = json.loads(cover.certificate_to_json(selfridge_cert))
        assert doc["k"] == "78557"
        assert doc["sign"] == 1
        assert doc["lcm"] == "36"
        assert doc["entries"][6] == {"d": "73", "b": "9", "c": "3"}
        assert "table" not in doc
        assert doc["divisor_primality_flags"] == [True] * 7
        assert doc["tool_version"] == cover.TOOL_VERSION

    def test_round_trip(self, selfridge_cert, riesel_cert):
        for cert in (selfridge_cert, riesel_cert):
            doc = json.loads(cover.certificate_to_json(cert))
            loaded = cover.certificate_from_dict(doc)
            assert loaded == cert

    def test_facts_check_passes(self, selfridge_cert):
        assert cover.check_certificate_facts(selfridge_cert) is None

    def test_facts_check_refuses_a_misshapen_table(self, selfridge_cert):
        # Certificates built in process skip verify_cover's hole check, so
        # the proof itself must refuse a derived table with a hole: without
        # 73 (residue 3) or 37 (residue 27), L is still 36.
        entries = selfridge_cert.entries
        for kept, problem in (
            (entries[:-1], "uncovered residue 3 (mod 36)"),
            (entries[:5] + entries[6:], "uncovered residue 27 (mod 36)"),
        ):
            cert = dataclasses.replace(selfridge_cert, entries=kept)
            assert cover.check_certificate_facts(cert) == problem

    def test_proof_refutes_exactly_when_facts_or_deep_audit_do(self):
        def refutation(cert):
            problem = check._divisibility_problem(cert)
            n_bad = None if problem else cover.first_audit_failure(cert, 10 * cert.lcm)
            return problem or (n_bad and f"witness fails at n={n_bad}")

        rng = random.Random(9)
        # The whole term at n = 1 as a divisor: facts hold, properness fails.
        certs = [
            cover.verify_cover(Candidate(78557, 1), (157115,) + SELFRIDGE_COVER),
            cover.verify_cover(Candidate(509203, -1), (1018405,) + RIESEL_COVER),
        ]
        for candidate, divisors, predicate in random_divisor_sets():
            try:
                certs.append(cover.verify_cover(candidate, divisors, predicate))
            except UncoveredResidueError:
                continue
        refuted = 0
        for cert in certs:
            i = rng.randrange(len(cert.entries))
            e = cert.entries[i]
            with_entry = lambda new: dataclasses.replace(  # noqa: E731
                cert, entries=cert.entries[:i] + (new,) + cert.entries[i + 1:]
            )
            r = rng.choice([r for r, idx in enumerate(cert.table) if idx is not None])
            for doctored in (
                cert,
                with_entry(dataclasses.replace(e, c=(e.c + 1) % e.b)),
                with_entry(dataclasses.replace(e, d=cert.candidate.term(e.c))),
                with_slot(cert, r, rng.randrange(len(cert.entries))),
            ):
                expected = refutation(doctored)
                assert cover.check_certificate_facts(doctored) == expected
                refuted += expected is not None
        assert [refutation(c) for c in certs[:2]] == ["witness fails at n=1"] * 2
        assert 0 < refuted < 3 * len(certs)

    def test_facts_check_catches_doctored_entry(self, selfridge_cert):
        doc = json.loads(cover.certificate_to_json(selfridge_cert))
        doc["entries"][0]["c"] = "1"  # 3 divides k*2^0 + 1, not k*2^1 + 1
        loaded = cover.certificate_from_dict(doc)
        assert loaded.table != ()  # structure is fine
        assert cover.check_certificate_facts(loaded) is not None

    def test_malformed_documents_rejected(self, selfridge_cert):
        good = json.loads(cover.certificate_to_json(selfridge_cert))
        table = list(selfridge_cert.table)
        for breakage in (
            lambda d: d.pop("k"),
            lambda d: d.update(k="78,557"),
            lambda d: d.update(entries=[]),
            lambda d: d["entries"][0].update(b="0"),
            lambda d: d.update(lcm=str(check.MAX_LCM + 1)),
            lambda d: d.update(table=table[:-1]),  # a stated table must be the derived one
            lambda d: d.update(table=["x"] * 36),
            lambda d: d.update(table=[True if t == 1 else t for t in table]),
            lambda d: d.update(divisor_primality_flags=[True]),
            lambda d: d.update(sign=True),
            lambda d: d.update(sign=1.0),
            lambda d: d.update(divisor_primality_flags=[1] * 7),
            lambda d: d.update(divisor_primality_flags=["yes"] * 7),
            lambda d: d.update(k="\u0667\u0668\u0665\u0665\u0667"),  # Arabic-Indic 78557
            lambda d: d["entries"][0].update(d="\u00b2"),  # superscript two
            lambda d: d.update(predicate="all"),  # only partial covers state one
            lambda d: d.update(predicate="odd"),
        ):
            doc = json.loads(json.dumps(good))
            breakage(doc)
            with pytest.raises(cover.CertificateFormatError):
                cover.certificate_from_dict(doc)


# Certificates are written straight from their fields; these are built from
# arbitrary fields, since the writer reads them without checking them.
BIG = st.integers(0, 10**40)
ENTRIES = st.lists(st.builds(CoverEntry, BIG, BIG, BIG), min_size=1, max_size=8).map(tuple)


@st.composite
def cover_certificates(draw, candidate=None, predicate=None):
    entries = draw(ENTRIES)
    return check.CoverCertificate(
        candidate or Candidate(2 * draw(BIG) + 1, draw(st.sampled_from((1, -1)))),
        entries,
        draw(BIG),
        tuple(draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))),
        predicate or draw(st.sampled_from(sorted(check.PREDICATES))),
    )


@st.composite
def coverless_certificates(draw):
    case = draw(st.sampled_from(sorted(check.CASE_BY_SIGN.values(), key=lambda t: t.kind)))(
        2 * draw(st.integers(0, 10**30)) + 1, ()
    )
    partial = draw(cover_certificates(Candidate(case.k, case.sign), case.predicate))
    return check.AlgebraicCertificate(case, partial, draw(st.integers(1, 10**6)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    cover_certificates().map(cover.certificate_to_json),
    coverless_certificates().map(algebraic.certificate_to_json),
))
def test_certificate_text_is_a_fixed_point_of_dumps_json(text):
    # The text is exactly what json.dumps(doc, indent=2) + "\n" makes of it.
    assert cover.dumps_json(json.loads(text)) == text


def test_eq2_identity_exactness_randomized():
    # the two summands always rebuild the next term exactly
    import random

    rng = random.Random(11)
    for _ in range(200):
        k = rng.randrange(3, 10**9) | 1
        sign = rng.choice((1, -1))
        b = rng.randrange(1, 40)
        c = rng.randrange(0, b)
        j = rng.randrange(0, 20)
        scaled = k * 2 ** (b * j + c)
        assert k * 2 ** (b * (j + 1) + c) + sign == scaled * (2**b - 1) + (scaled + sign)
