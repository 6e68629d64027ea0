import contextlib
import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverscope import algebraic, arith, check, cli, cover, dataset
from coverscope.check import Candidate, CoverEntry
from coverscope.cover import NoOffsetError, UncoveredResidueError
from oracles import (
    CLAIMED,
    check_induction_identity,
    claimed_by,
    coverless_cross_check_naive,
    coverless_facts_per_n,
    entry_holds_naive,
    first_audit_failure_naive,
    first_match_table,
    offset_naive,
    order_naive,
    smallest_uncovered,
    witness_counts_naive,
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


def composite_warning(cert):
    """The divisors the text summary of a proved cover warns are composite."""
    prefix = "warning: composite divisors in cover: "
    lines = cli._cover_summary(cert, None).splitlines()
    return next((json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)), [])


@contextlib.contextmanager
def table_unread():
    """Fails any read of CoverCertificate.table inside the block."""
    def read(cert):
        raise AssertionError("the residue table was derived")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(check.CoverCertificate, "table", property(read))
        yield


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
        assert composite_warning(selfridge_cert) == []

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
        # appending 9 = 3^2 keeps the cover valid; the text summary warns of it
        cert = cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER + (9,))
        assert composite_warning(cert) == [9]
        assert cert.witness_counts[-1] == 0  # 3 claims the shared residues first

    def test_primality_flags_equal_is_prime(self):
        # The text summary warns of exactly the entries is_prime refuses, in
        # cover order and with repeats: 21 is at most SIEVE_BOUND, 1029 =
        # 3 * 7^3 above it.
        certs = [cover.verify_cover(Candidate(78557, 1), SELFRIDGE_COVER + (21, 1029, 21))]
        certs += corpus_certificates()
        for candidate, divisors, name in random_divisor_sets():
            try:
                certs.append(cover.verify_cover(candidate, divisors, FAMILY[name]))
            except UncoveredResidueError:
                continue
        assert composite_warning(certs[0]) == [21, 1029, 21]
        for cert in certs:
            assert composite_warning(cert) == [
                e.d for e in cert.entries if not arith.is_prime(e.d).is_prime
            ], cert.candidate

    def test_a_repeated_divisor_is_walked_once(self, monkeypatch):
        walked, tested = [], []
        order_and_offset, is_prime = arith.order_and_offset, arith.is_prime
        monkeypatch.setattr(arith, "order_and_offset", lambda k, sign, d, bound: (
            walked.append(d) or order_and_offset(k, sign, d, bound)))
        monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
        divisors = SELFRIDGE_COVER + (1029,) * 1000 + (21, 3, 1029, 73)
        cert = cover.verify_cover(Candidate(78557, 1), divisors)
        # No primality test: no proof reads one.
        assert (walked, tested) == ([*SELFRIDGE_COVER, 1029, 21], [])
        # The same entries, in the same order, as one walk per position gives.
        assert cert.entries == tuple([cover.build_entry(cert.candidate, d) for d in divisors])
        # The text summary tests each distinct divisor once.
        assert composite_warning(cert) == [1029] * 1000 + [21, 1029]
        assert sorted(tested) == sorted(set(divisors))

    def test_a_repeated_failing_divisor_is_named_at_its_first_place(self):
        # 23 and 17 (a factor of 78557) both have no offset; 23 comes first.
        with pytest.raises(NoOffsetError) as exc_info:
            cover.verify_cover(Candidate(78557, 1), (3, 23, 5, 17, 23, 17))
        assert exc_info.value.divisor == 23

    @pytest.mark.parametrize("candidate, divisors, name", [
        (Candidate(78557, 1), SELFRIDGE_COVER, "all"),
        (Candidate(509203, -1), RIESEL_COVER, "all"),
        (Candidate(44745755**4, 1), (3, 17, 97, 241, 257, 673), "mod4ne2"),
    ])
    def test_the_hole_check_and_the_counts_derive_no_table(self, candidate, divisors, name):
        # Coverage is a byte pass over the progressions.
        with table_unread():
            cert = cover.verify_cover(candidate, divisors, FAMILY[name])
            assert sum(cert.witness_counts) == sum(map(CLAIMED[name], range(cert.lcm)))


# A factor family for each name of oracles.CLAIMED, and the period of the
# classes that name leaves out.  The byte pass, the table and the witness
# read only the family's class n == c (mod b); root 1 ties it to no
# candidate, so a proof of a certificate that has one fails by n = 2.
FAMILY = {"all": None, "mod4ne2": check.FourthPowerCase(1, ()), "odd": check.SquareCase(1, ())}
PREDICATE_MODULUS = {"all": 1, "mod4ne2": 4, "odd": 2}


# The classes (d, b, c) of the covering systems of 78557 and 509203.
COVERING_SYSTEMS = tuple(
    tuple((d, order_naive(2, d), offset_naive(k, sign, d, order_naive(2, d))) for d in divisors)
    for k, sign, divisors in ((78557, 1, SELFRIDGE_COVER), (509203, -1, RIESEL_COVER))
)


def random_divisor_sets(count=300):
    """(candidate, divisors, name of CLAIMED) with k built by CRT, so that
    each divisor has a random offset and some sets cover the n that CLAIMED
    names.  Half the sets drawn for "all" take the classes of a known
    covering system, in random order, under a random shift n -> n + s,
    which covers every n again: these are full covers."""
    rng = random.Random(5)
    pool = (3, 5, 7, 11, 13, 17, 19, 31, 37, 41, 73, 109, 151, 241, 331, 1321)
    for _ in range(count):
        sign = rng.choice((1, -1))
        name = rng.choice(list(CLAIMED))
        if name == "all" and rng.random() < 0.5:
            system = rng.choice(COVERING_SYSTEMS)
            s = rng.randrange(math.lcm(*(b for _, b, _ in system)))
            classes = [(d, (c + s) % b) for d, b, c in rng.sample(system, len(system))]
        else:
            divisors = rng.sample(pool, rng.randrange(1, len(pool) + 1))
            classes = [(d, rng.randrange(order_naive(2, d))) for d in divisors]
        # CRT: k == -sign * 2^-c (mod d) gives each divisor its class c
        k, step = 1, 2
        for d, c in classes:
            target = -sign * pow(2, -c, d) % d
            while k % d != target:
                k += step
            step *= d
        candidate = Candidate(k if k >= 3 else k + step, sign)
        yield candidate, [d for d, _ in classes], name


class TestTableBuilder:
    def test_corpus_tables_match_first_match_scan(self):
        corpus = dataset.load_corpus(dataset.default_corpus_path())
        for record in corpus:
            for sign, divisors in record.covers:
                family = None
                if record.root is not None:
                    family = check.CASE_BY_SIGN[sign](record.root, divisors)
                cert = cover.verify_cover(Candidate(record.k, sign), divisors, family)
                expected = first_match_table(cert.entries, cert.lcm, claimed_by(family))
                assert list(cert.table) == expected, (record.k, sign)
                assert cert.witness_counts == witness_counts_naive(
                    cert.entries, cert.lcm, claimed_by(family)
                )

    def test_random_divisor_sets_against_scan(self):
        full_covers = 0
        for candidate, divisors, name in random_divisor_sets():
            entries = [cover.build_entry(candidate, d) for d in divisors]
            lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[name])
            hole = smallest_uncovered(
                [(e.d, e.b, e.c) for e in entries], lcm, CLAIMED[name]
            )
            if hole is None:
                full_covers += name == "all"
                cert = cover.verify_cover(candidate, divisors, FAMILY[name])
                expected = first_match_table(entries, lcm, CLAIMED[name])
                assert list(cert.table) == expected
                assert cert.witness_counts == witness_counts_naive(
                    entries, lcm, CLAIMED[name]
                )
            else:
                with pytest.raises(UncoveredResidueError) as exc_info:
                    cover.verify_cover(candidate, divisors, FAMILY[name])
                assert (exc_info.value.residue, exc_info.value.lcm) == (hole, lcm)
        assert full_covers > 30


# Entries with periods dividing 2520, so L <= 2520, and offsets below twice
# them: an offset c >= b, which the facts check refuses, claims c, c + b, ...
# but not c - b.  The table and the counts read only b and c, so d is arbitrary.
SMALL_ENTRIES = st.lists(
    st.sampled_from([b for b in range(1, 25) if 2520 % b == 0]).flatmap(
        lambda b: st.builds(CoverEntry, st.integers(3, 99), st.just(b), st.integers(0, 2 * b - 1))
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(SMALL_ENTRIES, st.sampled_from(sorted(CLAIMED)))
def test_witness_counts_match_the_per_residue_scan(entries, name):
    # A copy of the first entry appended at the end claims nothing: every
    # residue it matches goes to the first entry.
    entries = tuple(entries) + (entries[0],)
    lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[name])
    cert = hand_certificate(Candidate(78557, 1), entries, lcm, FAMILY[name])
    counts = cert.witness_counts
    assert counts == witness_counts_naive(entries, lcm, CLAIMED[name])
    assert counts[-1] == 0


@st.composite
def overlapping_entries(draw):
    """SMALL_ENTRIES with some entries repeated, and at times every class
    of one period but at most one, so that both holes and covers occur."""
    entries = draw(SMALL_ENTRIES)
    entries += draw(st.lists(st.sampled_from(entries), max_size=3))
    if draw(st.booleans()):
        b = draw(st.sampled_from([2, 3, 4, 6, 8, 12]))
        open_class = draw(st.sampled_from([None, *range(b)]))
        entries += [CoverEntry(3, b, c) for c in range(b) if c != open_class]
    return tuple(draw(st.permutations(entries)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(overlapping_entries(), st.sampled_from(sorted(CLAIMED)))
def test_byte_pass_matches_the_per_residue_scan(entries, name):
    lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[name])
    cert = hand_certificate(Candidate(78557, 1), entries, lcm, FAMILY[name])
    triples = [(e.d, e.b, e.c) for e in entries]
    with table_unread():
        assert cert.uncovered_residue == smallest_uncovered(triples, lcm, CLAIMED[name])
        assert cert.witness_counts == witness_counts_naive(entries, lcm, CLAIMED[name])


class TestWitness:
    def test_examples(self, selfridge_cert):
        assert cover.witness(selfridge_cert, 1) == 5
        assert cover.witness(selfridge_cert, 2) == 3
        assert cover.witness(selfridge_cert, 3) == 73
        assert 157115 % 5 == 0

    def test_n_zero_rejected(self, selfridge_cert):
        with pytest.raises(ValueError):
            cover.witness(selfridge_cert, 0)

    def test_equals_the_first_match_scan(self):
        certs = list(corpus_certificates())
        for candidate, divisors, name in random_divisor_sets():
            entries = [cover.build_entry(candidate, d) for d in divisors]
            lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[name])
            certs.append(hand_certificate(candidate, entries, lcm, FAMILY[name]))
        for cert in certs:
            table = first_match_table(cert.entries, cert.lcm, claimed_by(cert.family))
            with table_unread():
                for n in range(1, 3 * cert.lcm + 1):
                    idx = table[n % cert.lcm]
                    if idx is None:
                        with pytest.raises(ValueError):
                            cover.witness(cert, n)
                    else:
                        assert cover.witness(cert, n) == cert.entries[idx].d

    def test_witness_divides_and_proper(self, selfridge_cert, riesel_cert):
        for cert in (selfridge_cert, riesel_cert):
            for n in range(1, 10 * cert.lcm + 1):
                d = cover.witness(cert, n)
                term = cert.candidate.term(n)
                assert term % d == 0
                assert 1 < d < term


class TestAudit:
    def test_full_periods(self, selfridge_cert, riesel_cert):
        assert check.first_audit_failure(selfridge_cert, 360) is None
        assert check.first_audit_failure(riesel_cert, 240) is None

    def test_tampered_table_fails_at_5(self, selfridge_cert):
        # 3 does not divide the term at n = 5, so the false entry does not
        # hold: the audit refuses the cover, and the proof names the fact.
        bad = tampered_certificate(selfridge_cert)
        assert bad.table[5] == 0
        assert first_audit_failure_naive(bad, 36) == 5
        with pytest.raises(check.VerificationError, match="entry 0 "):
            check.first_audit_failure(bad, 36)
        assert check.prove(bad) == "3 does not divide k*2^5 +1"
        assert_proof_matches_oracles(bad)


def corpus_certificates():
    """The certificate of every cover in the bundled corpus."""
    for record in dataset.load_corpus(dataset.default_corpus_path()):
        for sign, divisors in record.covers:
            family = None
            if record.root is not None:
                family = check.CASE_BY_SIGN[sign](record.root, divisors)
            yield cover.verify_cover(Candidate(record.k, sign), divisors, family)


def hand_certificate(candidate, entries, lcm, family=None):
    """A certificate for the given entries, holes and all: nothing here is
    checked."""
    return check.CoverCertificate(candidate, tuple(entries), lcm, family)


def with_slot(cert, r, j):
    """cert with a first entry of period L that claims residue r for entry
    j's divisor: one slot of the derived table reassigned."""
    return dataclasses.replace(
        cert, entries=(CoverEntry(cert.entries[j].d, cert.lcm, r),) + cert.entries
    )


def tampered_certificate(selfridge_cert):
    """The Selfridge cover with a false entry (3, 6, 5) listed first, which
    takes residues 5, 11, ... of the derived table from their true
    witnesses."""
    return dataclasses.replace(
        selfridge_cert, entries=(CoverEntry(3, 6, 5),) + selfridge_cert.entries
    )


def doctored_certificates(cert, rng):
    """cert with one offset c shifted (the table following it), the shifted
    offset raised by its period b (c >= b: the entry claims c + b, c + 2b,
    ... but not c), one divisor set to a whole claimed term, one claimed
    table slot reassigned, and L stated one too small and one too large."""
    i = rng.randrange(len(cert.entries))
    e = cert.entries[i]

    def with_entry(new):
        return cert.entries[:i] + (new,) + cert.entries[i + 1:]

    yield dataclasses.replace(cert, entries=with_entry(dataclasses.replace(e, c=(e.c + 1) % e.b)))
    yield dataclasses.replace(
        cert, entries=with_entry(dataclasses.replace(e, c=(e.c + 1) % e.b + e.b))
    )
    table = cert.table
    claimed = [n for n in range(1, cert.lcm + 1) if table[n % cert.lcm] is not None]
    if not claimed:
        return
    n0 = rng.choice(claimed[:8])
    yield dataclasses.replace(
        cert, entries=with_entry(dataclasses.replace(e, d=cert.candidate.term(n0)))
    )
    r = rng.choice(claimed) % cert.lcm
    j = rng.choice([j for j in range(len(cert.entries)) if j != table[r]] or [0])
    yield with_slot(cert, r, j)
    # A wrong L: the residues below it keep their witnesses, so n < L pass,
    # and a later n fails once an entry's period does not divide L.
    for lcm in (cert.lcm - 1, cert.lcm + 1):
        if lcm >= 1:
            yield dataclasses.replace(cert, lcm=lcm)


def wrong_period_certificates():
    """(cert, n_bad) whose row 0 of the residue walk passes although one
    witness d has 2^L != 1 (mod d): the entry of d states as its period b
    the whole L, a multiple of the other periods that its true period does
    not divide, and as its offset c a true offset past the prefix, so that
    it claims one n per period, and n_bad = c + L is the first that fails."""
    for candidate, divisors, name in random_divisor_sets():
        entries = [cover.build_entry(candidate, d) for d in divisors]
        depth = max(divisors).bit_length()
        for i, e in enumerate(entries):
            others = entries[:i] + entries[i + 1:]
            for m in (1, 2, 3):
                lcm = m * math.lcm(*(o.b for o in others), PREDICATE_MODULUS[name])
                if pow(2, lcm, e.d) != 1 and depth + e.b < lcm <= 600:
                    break
            else:
                continue
            # The least c > depth with c == e.c (mod e.b), below lcm.
            c = e.c + e.b * ((depth - e.c) // e.b + 1)
            entries = [CoverEntry(e.d, lcm, c)] + others
            cert = hand_certificate(candidate, entries, lcm, FAMILY[name])
            if cert.table[c] == 0:
                yield cert, c + lcm


def edge_certificates(selfridge_cert):
    """(cert, n_bad) for two L = 16 certificates whose entries of period 16
    claim residues 8 (d = 3), 9 (d = 5) and 15 (d = 19); 73 claims residue
    8 after 3, so it claims nothing, but sets the prefix to n <= 7 and the
    first row of the residue walk to n = 8..23.  Residues 8 and 9 pass for
    good; 15 (19 has period 18) passes at n = 15 and first fails at 31, the
    last claimed n of the second row.  The second certificate adds residue
    7 to d = 7 (period 3), which passes at n = 7, in the prefix, and fails
    at 23, the last n of the first row."""
    entries = tuple(CoverEntry(d, 16, r) for d, r in ((3, 8), (5, 9), (19, 15), (73, 8)))
    cert = dataclasses.replace(selfridge_cert, lcm=16, entries=entries)
    cert_23 = dataclasses.replace(cert, entries=entries + (CoverEntry(7, 16, 7),))
    return [(cert, 31), (cert_23, 23)]


def with_divisor(cert, i, d):
    """cert with entry i's divisor set to d."""
    e = cert.entries[i]
    return dataclasses.replace(
        cert, entries=cert.entries[:i] + (dataclasses.replace(e, d=d),) + cert.entries[i + 1:]
    )


def n_max_sweep(cert):
    """None, and the cross-check depths around the properness prefix and past L."""
    depth = check.proof_depth(cert)
    return (None, 1, 2, depth - 1, depth, depth + 1, 3 * cert.lcm)


def audit_depths(cert):
    """The audit depths around the properness prefix and the first rows
    n < L, 2L, ... of each residue."""
    lcm = cert.lcm
    return sorted({n for n in (1, check.proof_depth(cert), lcm - 1, lcm, 3 * lcm + 5) if n >= 1})


def assert_proof_matches_oracles(cert):
    """prove(cert, n_max) over n_max_sweep against the oracles, and the
    verdict without a cross-check.  A full cover: the facts check's
    problem, or else the all-bignum audit of the prefix and of every
    n <= n_max.  With a factor family: the per-n facts of the prefix
    (coverless_facts_per_n), then, when they hold and n_max is given, the
    per-n cross-check."""
    if cert.family is not None:
        facts = coverless_facts_per_n(cert, check._divisibility_problem)
        for n_max in n_max_sweep(cert):
            n_bad = None if facts or not n_max else coverless_cross_check_naive(cert, n_max)
            expected = facts or (n_bad and f"factor check failed at n={n_bad}")
            assert check.prove(cert, n_max) == expected, (cert.family, cert.entries, n_max)
        return facts
    depth = max(e.d for e in cert.entries).bit_length()
    facts = check._divisibility_problem(cert)
    for n_max in n_max_sweep(cert):
        n_bad = None if facts else first_audit_failure_naive(cert, max(depth, n_max or 0))
        expected = facts or (n_bad and f"witness fails at n={n_bad}")
        assert check.prove(cert, n_max) == expected, (cert, n_max)
    return facts


def assert_audit_matches_oracles(cert):
    """The proof against the oracles; then, where every entry holds,
    first_audit_failure against the all-bignum audit at audit_depths and
    just below and at its first failure, and where one does not, the audit
    refusing the cover at each depth."""
    assert_proof_matches_oracles(cert)
    depths = audit_depths(cert)
    if not all(entry_holds_naive(cert, e) for e in cert.entries):
        for n_max in depths:
            with pytest.raises(check.VerificationError):
                check.first_audit_failure(cert, n_max)
        return
    n_bad = first_audit_failure_naive(cert, depths[-1])
    if n_bad is not None:
        depths += [n for n in (n_bad - 1, n_bad) if n >= 1]
    for n_max in depths:
        assert check.first_audit_failure(cert, n_max) == first_audit_failure_naive(
            cert, n_max
        ), (cert.candidate, [e.d for e in cert.entries], cert.lcm, n_max)


class TestStreamedAudit:
    """first_audit_failure, which builds no term, against the all-bignum
    oracle, and the proof against the facts check and that oracle."""

    def test_corpus_covers_and_their_doctored_copies(self):
        rng = random.Random(11)
        signs = set()
        for cert in corpus_certificates():
            signs.add(cert.candidate.sign)
            assert check.first_audit_failure(cert, 3 * cert.lcm + 5) is None
            assert_audit_matches_oracles(cert)
            for bad in doctored_certificates(cert, rng):
                assert_audit_matches_oracles(bad)
        assert signs == {1, -1}

    def test_random_divisor_sets_and_their_doctored_copies(self):
        rng = random.Random(12)
        for candidate, divisors, name in random_divisor_sets():
            entries = [cover.build_entry(candidate, d) for d in divisors]
            lcm = math.lcm(*(e.b for e in entries), PREDICATE_MODULUS[name])
            # Sets that leave a hole audit with None there.
            cert = hand_certificate(candidate, entries, lcm, FAMILY[name])
            assert_audit_matches_oracles(cert)
            for bad in doctored_certificates(cert, rng):
                assert_audit_matches_oracles(bad)

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
                    entries.append(check.CoverEntry(d, b, c))
            lcm = math.lcm(*(e.b for e in entries))
            cert = hand_certificate(candidate, entries, lcm)
            assert_audit_matches_oracles(cert)
            n0 = next(n for n in range(1, 8) if candidate.term(n) == divisors[0])
            assert check.first_audit_failure(cert, 3 * lcm + 5) == n0

    def test_failures_at_the_edges_of_the_walk(self, selfridge_cert):
        # 19 and 73 do not hold with period 16: the oracle fails where the
        # residue walk ends a row, and the audit refuses both certificates.
        certs = edge_certificates(selfridge_cert)
        assert [r for r, idx in enumerate(certs[1][0].table) if idx is not None] == [7, 8, 9, 15]
        for c, n_bad in certs:
            for n_max in (n_bad - 1, n_bad, 100):
                expected = n_bad if n_max >= n_bad else None
                assert first_audit_failure_naive(c, n_max) == expected
                with pytest.raises(check.VerificationError, match="entry 2 "):
                    check.first_audit_failure(c, n_max)
            assert check.prove(c) == "19 does not divide 2^16 - 1"
            assert_proof_matches_oracles(c)

    @pytest.mark.parametrize("d", [0, 1, -7])
    def test_divisor_below_2_fails_at_its_first_claimed_n(self, selfridge_cert, d):
        # Entry 5 (d = 37) is first claimed at n = 27, past the prefix n <= 7.
        # The oracle fails there; the audit refuses the entry at any depth.
        L, table = selfridge_cert.lcm, selfridge_cert.table
        for i in range(len(selfridge_cert.entries)):
            bad = with_divisor(selfridge_cert, i, d)
            first = next(n for n in range(1, L + 1) if table[n % L] == i)
            for n_max in (first - 1, first, 10 * L):
                expected = first if n_max >= first else None
                assert first_audit_failure_naive(bad, n_max) == expected
                with pytest.raises(check.VerificationError, match=f"entry {i} "):
                    check.first_audit_failure(bad, n_max)
            assert check.prove(bad) == f"divisor {d} is not odd and >= 3"
            assert_proof_matches_oracles(bad)

    def test_a_witness_with_the_wrong_period_fails_one_period_after_row_0(self):
        # Row 0 passes, and the oracle's first failure is L above it, at any
        # depth; the audit refuses the entry, as 2^L != 1 (mod d).
        rng = random.Random(13)
        certs = list(wrong_period_certificates())
        assert len(certs) >= 50
        for cert, n_bad in certs:
            depth, L = check.proof_depth(cert), cert.lcm
            for n_max in (depth + L, depth + L + 1, 10 * L + 7, rng.randrange(1, 12 * L)):
                expected = first_audit_failure_naive(cert, n_max)
                assert expected == (n_bad if n_max >= n_bad else None)
                with pytest.raises(check.VerificationError, match="entry 0 "):
                    check.first_audit_failure(cert, n_max)
            assert check.prove(cert) == f"{cert.entries[0].d} does not divide 2^{L} - 1"
            assert_proof_matches_oracles(cert)

    def test_no_proof_derives_the_table(self):
        # The 78557 s, 509203 r, S4 and R2 certificates, proved alone and
        # cross-checked: full covers to the bound, coverless ones to 3 L, as
        # their cross-check splits every open term as a bignum.
        fixtures = Path(__file__).parent / "fixtures/v2"
        for name in ("78557s.json", "509203r.json", "coverless-s4.json", "coverless-r2.json"):
            with table_unread():
                cert = check.certificate_from_json((fixtures / name).read_text())
                n_max = 3 * cert.lcm if cert.family else check.MAX_AUDIT_N
                assert check.prove(cert) is None
                assert check.prove(cert, n_max) is None
                cover.witness(cert, 1)

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
        assert check.first_audit_failure(cert, check.MAX_AUDIT_N) is None
        assert k.built == 0
        # 3 shifted to the odd residues does not hold: the audit refuses the
        # cover, and builds no term either.
        shifted = dataclasses.replace(cert, entries=(CoverEntry(3, 2, 1),) + cert.entries[1:])
        with pytest.raises(check.VerificationError, match="entry 0 "):
            check.first_audit_failure(shifted, check.MAX_AUDIT_N)
        assert k.built == 0

    @pytest.mark.parametrize("divisors", [SELFRIDGE_COVER, SELFRIDGE_COVER + (1000003,)])
    def test_a_valid_cover_audits_with_no_byte_pass(self, monkeypatch, divisors):
        # Every entry holds, so the audit allocates none of the L bytes of a
        # pass, and the proof allocates them once, for its hole check.
        cert = cover.verify_cover(Candidate(78557, 1), divisors)
        passes, real = [], check.CoverCertificate._family_marked

        def family_marked(self):
            passes.append(self.lcm)
            return real(self)

        monkeypatch.setattr(check.CoverCertificate, "_family_marked", family_marked)
        assert check.first_audit_failure(cert, check.MAX_AUDIT_N) is None
        assert passes == []
        assert check.prove(cert, check.MAX_AUDIT_N) is None
        assert passes == [cert.lcm]


def test_prove_audits_only_covers_whose_facts_hold(monkeypatch, selfridge_cert):
    # No certificate whose facts fail reaches first_audit_failure from the
    # proof; one whose facts hold reaches it once, at max(depth, n_max).
    audit, calls = check.first_audit_failure, []

    def first_audit_failure(cert, n_max):
        calls.append((cert, n_max))
        return audit(cert, n_max)

    monkeypatch.setattr(check, "first_audit_failure", first_audit_failure)
    rng = random.Random(14)
    certs = [tampered_certificate(selfridge_cert)]
    certs += [c for c, _ in edge_certificates(selfridge_cert) + list(wrong_period_certificates())]
    certs += [with_divisor(selfridge_cert, i, d) for d in (0, 1, -7) for i in range(7)]
    for cert in corpus_certificates():
        certs += [cert, *doctored_certificates(cert, rng)]
    refused = 0
    for cert in certs:
        facts = check._divisibility_problem(cert)
        refused += facts is not None
        for n_max in (None, 3 * cert.lcm):
            calls.clear()
            problem = check.prove(cert, n_max)
            if facts is not None:
                assert (problem, calls) == (facts, [])
            else:
                assert calls == [(cert, max(check.proof_depth(cert), n_max or 0))]
    assert 0 < refused < len(certs)


# Family members k = k0 + 2iP of corpus covers (P the product of the cover)
# with a term d = k*2^n + sign, n <= 12, whose period ord_d(2) is at most
# 1500, so that a cover holding d as an entry keeps L small:
# (k0, sign, divisors, i, n).
WHOLE_TERMS = (
    (78557, 1, SELFRIDGE_COVER, 0, 4),
    (271129, 1, RIESEL_COVER, 114, 2),
    (271129, 1, RIESEL_COVER, 226, 6),
    (482719, 1, RIESEL_COVER, 107, 4),
    (2131043, 1, RIESEL_COVER, 33, 5),
    (509203, -1, RIESEL_COVER, 241, 2),
    (762701, -1, RIESEL_COVER, 67, 5),
    (992077, -1, RIESEL_COVER, 10, 1),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(WHOLE_TERMS),
    st.sampled_from(sorted(CLAIMED)),
    st.integers(0, 7),
    st.booleans(),
)
def test_a_holding_whole_term_witness_fails_where_it_witnesses(whole, name, at, repeat):
    # The entry of d = k*2^n + sign holds, so it fails exactly at n, when
    # it witnesses n: the family does not take n and no earlier entry holds
    # n mod L.  A copy of it at the end witnesses nothing.
    k0, sign, divisors, i, n = whole
    candidate = Candidate(k0 + 2 * i * math.prod(divisors), sign)
    base = cover.verify_cover(candidate, divisors)
    term = cover.build_entry(candidate, candidate.term(n))
    at = min(at, len(base.entries))
    entries = base.entries[:at] + (term,) + base.entries[at:] + (term,) * repeat
    lcm = math.lcm(base.lcm, term.b, PREDICATE_MODULUS[name])
    cert = hand_certificate(candidate, entries, lcm, FAMILY[name])
    assert check._divisibility_problem(cert) is None
    expected = n if check.witness_index(cert, n) == at else None
    for n_max in audit_depths(cert):
        assert check.first_audit_failure(cert, n_max) == first_audit_failure_naive(cert, n_max)
        assert check.first_audit_failure(cert, n_max) == (expected if n <= n_max else None)


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
        assert "divisor_primality_flags" not in doc
        assert doc["tool_version"] == cover.TOOL_VERSION

    def test_round_trip(self, selfridge_cert, riesel_cert):
        for cert in (selfridge_cert, riesel_cert):
            doc = json.loads(cover.certificate_to_json(cert))
            loaded = check.certificate_from_dict(doc)
            assert loaded == cert

    def test_facts_check_passes(self, selfridge_cert):
        assert check.prove(selfridge_cert) is None

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
            assert check.prove(cert) == problem

    def test_proof_refutes_exactly_when_facts_or_deep_audit_do(self):
        # Without a cross-check, a certificate whose family is tied to its
        # k, root and sign is proved as its entries are.
        def refutation(cert):
            problem = check._divisibility_problem(cert)
            n_bad = None if problem else check.first_audit_failure(cert, 10 * cert.lcm)
            failed = "witness fails" if cert.family is None else "factor check failed"
            return problem or (n_bad and f"{failed} at n={n_bad}")

        rng = random.Random(9)
        # The whole term at n = 1 as a divisor: facts hold, properness fails.
        certs = [
            cover.verify_cover(Candidate(78557, 1), (157115,) + SELFRIDGE_COVER),
            cover.verify_cover(Candidate(509203, -1), (1018405,) + RIESEL_COVER),
        ]
        # The random partial covers' families are tied to no k, so their
        # proofs fail by n = 2 (test_check.TestCoverlessProof), and no random
        # full cover covers: the corpus covers stand in for them.
        certs += corpus_certificates()
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
                assert check.prove(doctored) == expected
                refuted += expected is not None
                assert_proof_matches_oracles(doctored)
        assert [refutation(c) for c in certs[:2]] == ["witness fails at n=1"] * 2
        assert 0 < refuted < 3 * len(certs)

    def test_facts_check_catches_doctored_entry(self, selfridge_cert):
        doc = json.loads(cover.certificate_to_json(selfridge_cert))
        doc["entries"][0]["c"] = "1"  # 3 divides k*2^0 + 1, not k*2^1 + 1
        loaded = check.certificate_from_dict(doc)
        assert loaded.table != ()  # structure is fine
        assert check.prove(loaded) is not None

    def test_malformed_documents_rejected(self, selfridge_cert):
        # The current format, and 0.2.0, which states primality flags.
        current = json.loads(cover.certificate_to_json(selfridge_cert))
        v2 = json.loads((Path(__file__).parent / "fixtures/v2/78557s.json").read_text())
        table = list(selfridge_cert.table)
        for good, breakage in itertools.product((current, v2), (
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
        )):
            doc = json.loads(json.dumps(good))
            breakage(doc)
            with pytest.raises(check.CertificateFormatError):
                check.certificate_from_dict(doc)


# Certificates are written straight from their fields; these are built from
# arbitrary fields, since the writer reads them without checking them.
BIG = st.integers(0, 10**40)
ENTRIES = st.lists(st.builds(CoverEntry, BIG, BIG, BIG), min_size=1, max_size=8).map(tuple)


@st.composite
def cover_certificates(draw, candidate=None, family=None):
    return check.CoverCertificate(
        candidate or Candidate(2 * draw(BIG) + 1, draw(st.sampled_from((1, -1)))),
        draw(ENTRIES),
        draw(BIG),
        family or FAMILY[draw(st.sampled_from(sorted(CLAIMED)))],
    )


@st.composite
def coverless_certificates(draw):
    case = draw(st.sampled_from(sorted(check.CASE_BY_SIGN.values(), key=lambda t: t.kind)))(
        2 * draw(st.integers(0, 10**30)) + 1, ()
    )
    cert = draw(cover_certificates(Candidate(case.k, case.sign), case))
    return dataclasses.replace(cert, audited_n_max=draw(st.integers(1, 10**6)))


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
