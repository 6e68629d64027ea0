import dataclasses
import hashlib
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverscope import arith, disqualify
from coverscope.check import Candidate
from coverscope.dataset import KIND_BOTH, KIND_R, KIND_S, load_corpus, default_corpus_path
from oracles import least_odd_prime_factor, trial_division_prime


class TestFirstPrimeExponent:
    def test_k5_hits_immediately(self):
        record = disqualify.first_prime_exponent(Candidate(5, 1), 8)
        assert record.n_found == 1
        assert record.primality.n == 11

    def test_k143_needs_53(self):
        record = disqualify.first_prime_exponent(Candidate(143, 1), 100)
        assert record.n_found == 53
        assert record.primality.method == arith.METHOD_PROTH

    def test_k47_needs_583_with_proth_witness(self):
        record = disqualify.first_prime_exponent(Candidate(47, 1), 600)
        assert record.n_found == 583
        result = record.primality
        n = 47 * 2**583 + 1
        assert result.n == n and result.method == arith.METHOD_PROTH
        assert pow(result.witness, (n - 1) // 2, n) == n - 1

    def test_nothing_found_is_data(self):
        record = disqualify.first_prime_exponent(Candidate(78557, 1), 100)
        assert record.n_found is None
        assert record.primality is None
        assert record.n_searched == 100
        assert not record.disqualified

    def test_verbose_trail_rechecks_minimality(self):
        record = disqualify.first_prime_exponent(Candidate(143, 1), 100, verbose=True)
        assert len(record.trail) == 53
        for i, result in enumerate(record.trail, start=1):
            assert result.n == 143 * 2**i + 1
            assert result.is_prime == (i == 53)

    def test_minimality_against_oracle(self):
        # small enough to confirm every skipped term composite by division
        record = disqualify.first_prime_exponent(Candidate(143, 1), 60, verbose=True)
        for i, result in enumerate(record.trail[:20], start=1):
            assert trial_division_prime(143 * 2**i + 1) == result.is_prime

    @pytest.mark.parametrize("k, sign", [(78557, 1), (509203, -1)])
    def test_a_verbose_scan_stops_at_a_term_too_long_to_print(self, k, sign):
        # Neither sequence holds a prime.  Under the least limit Python
        # allows, 640 digits, the trail prints every term before the first
        # one longer than that, and a verbose scan does not reach it.
        candidate = Candidate(k, sign)
        n_long = next(n for n in itertools.count(1) if candidate.term(n) >= 10**640)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            record = disqualify.first_prime_exponent(candidate, n_long - 1, verbose=True)
            assert len(json.dumps(disqualify.record_to_dict(record)["trail"][-1])) > 640
            for n_max in (n_long, disqualify.MAX_SCAN_N):
                with pytest.raises(ValueError) as info:
                    disqualify.first_prime_exponent(candidate, n_max, verbose=True)
                assert str(info.value) == (
                    f"the term at n={n_long} has more than 640 digits, "
                    "too long to print in a verbose trail"
                )
            # A plain scan prints no term, and a verbose one that finds its
            # prime first ends as it did; so does one whose k is too long.
            assert disqualify.first_prime_exponent(candidate, 2 * n_long).n_searched == 2 * n_long
            hit = disqualify.first_prime_exponent(Candidate(143, 1), 2 * n_long, verbose=True)
            assert (hit.n_found, len(hit.trail)) == (53, 53)
            with pytest.raises(ValueError, match="^the term at n=1 has more than 640 digits"):
                disqualify.first_prime_exponent(Candidate(10**700 + 1, sign), 1, verbose=True)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_riesel_side(self):
        # 509203*2^n - 1 composite throughout (covered); 3*2^n - 1 prime at n=1
        assert disqualify.first_prime_exponent(Candidate(3, -1), 8).n_found == 1
        assert disqualify.first_prime_exponent(Candidate(509203, -1), 50).n_found is None

    def test_bad_n_max(self):
        with pytest.raises(ValueError):
            disqualify.first_prime_exponent(Candidate(5, 1), 0)


def _plain_scan(candidate, n_max):
    """The scan without the sieve: a full primality test on every term."""
    trail = []
    for n in range(1, n_max + 1):
        if candidate.sign == 1 and (1 << n) > candidate.k:
            result = arith.proth_test(candidate.k, n)
        else:
            result = arith.is_prime(candidate.term(n))
        trail.append(result)
        if result.is_prime:
            return n, result, trail
    return None, None, trail


class TestSieve:
    def test_sieve_entries_recheck_by_one_reduction(self):
        for k, sign, n_max in ((78557, 1, 1000), (509203, -1, 1000), (143, 1, 60), (3, -1, 8)):
            record = disqualify.first_prime_exponent(Candidate(k, sign), n_max, verbose=True)
            for n, result in enumerate(record.trail, start=1):
                assert result.n == k * 2**n + sign
                if result.method == arith.METHOD_SIEVE:
                    p = result.witness
                    assert not result.is_prime and p in arith.SIEVE_PRIMES
                    assert result.n % p == 0 and 1 < p < result.n

    def test_proven_numbers_need_no_primality_test(self):
        # every term of a cover with divisors <= SIEVE_BOUND is sieved out
        for k, sign in ((78557, 1), (509203, -1)):
            record = disqualify.first_prime_exponent(Candidate(k, sign), 1000, verbose=True)
            assert record.n_found is None
            assert {r.method for r in record.trail} == {arith.METHOD_SIEVE}

    def test_small_prime_term_is_tested_not_sieved(self):
        # 3 = 1*2^1 + 1 and 5 = 3*2^1 - 1 are primes below the bound
        for k, sign, term in ((1, 1, 3), (3, -1, 5)):
            record = disqualify.first_prime_exponent(Candidate(k, sign), 4)
            assert record.n_found == 1 and record.primality.n == term
            assert record.primality.method != arith.METHOD_SIEVE

    def test_terms_below_the_sieve_square_are_recorded_as_is_prime_records_them(self):
        # A term above SIEVE_BOUND and below SIEVE_SQUARE that passes the
        # gcds is recorded prime, as is_prime decides it by one more gcd;
        # the term 1, at the lower edge, is coprime to the product but
        # still tested.
        below_square = 0
        for k in range(1, 2**12, 2):
            for sign in (1, -1):
                record = disqualify.first_prime_exponent(Candidate(k, sign), 40, verbose=True)
                for result in record.trail:
                    if result.method not in (arith.METHOD_SIEVE, arith.METHOD_PROTH):
                        assert result == arith.is_prime(result.n), (k, sign, result.n)
                        below_square += arith.SIEVE_BOUND < result.n < arith.SIEVE_SQUARE
        assert below_square > 1000
        record = disqualify.first_prime_exponent(Candidate(1, -1), 1, verbose=True)
        assert record.trail == (arith.is_prime(1),) == (
            arith.PrimalityResult(1, arith.METHOD_MR_DETERMINISTIC, False),
        )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 2**19 - 1).map(lambda i: 2 * i + 1),
        sign=st.sampled_from((1, -1)),
        n_max=st.integers(1, 200),
    )
    def test_matches_plain_scan(self, k, sign, n_max):
        candidate = Candidate(k, sign)
        record = disqualify.first_prime_exponent(candidate, n_max, verbose=True)
        n_found, primality, plain = _plain_scan(candidate, n_max)
        assert (record.n_found, record.primality) == (n_found, primality)
        assert len(record.trail) == len(plain)
        for sieved, tested in zip(record.trail, plain):
            assert (sieved.n, sieved.is_prime) == (tested.n, tested.is_prime)
            if sieved.method == arith.METHOD_SIEVE:
                assert sieved.n % sieved.witness == 0 and 1 < sieved.witness < sieved.n
            else:
                assert sieved == tested
            if sieved.n < 2**40:
                assert sieved.is_prime == trial_division_prime(sieved.n)


def _check_scan(candidate, n_max):
    """The plain record is the verbose one without its trail, and every
    sieve witness is the least odd prime <= SIEVE_BOUND dividing its term."""
    record = disqualify.first_prime_exponent(candidate, n_max)
    verbose = disqualify.first_prime_exponent(candidate, n_max, verbose=True)
    assert record == dataclasses.replace(verbose, trail=None)
    for n, result in enumerate(verbose.trail, start=1):
        assert result.n == candidate.k * 2**n + candidate.sign
        p = least_odd_prime_factor(result.n, arith.SIEVE_BOUND)
        if result.method == arith.METHOD_SIEVE:
            assert result.witness == p and p < result.n and not result.is_prime
        else:
            assert p is None or p == result.n


class TestScanEquivalence:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 2**63 - 1).map(lambda i: 2 * i + 1),
        sign=st.sampled_from((1, -1)),
        n_max=st.integers(1, 300),
    )
    def test_plain_equals_verbose_and_witnesses_are_least(self, k, sign, n_max):
        _check_scan(Candidate(k, sign), n_max)

    def test_small_k_reach_terms_below_the_bound(self):
        # terms <= SIEVE_BOUND, down to Riesel 1*2^1 - 1 = 1, where a term
        # can be the small prime itself
        for k in range(1, 100, 2):
            for sign in (1, -1):
                _check_scan(Candidate(k, sign), 64)


class TestSurveyRange:
    def test_first_hundred_odd_k(self):
        records = disqualify.survey_range(1, 199, 1, 8)
        assert len(records) == 100
        survivors = [r.candidate.k for r in records if not r.disqualified]
        assert survivors == [47, 103, 143, 197]
        assert sum(1 for r in records if r.disqualified) == 96

    def test_deeper_scan_eliminates_103_and_197(self):
        records = disqualify.survey_range(103, 197, 1, 16)
        by_k = {r.candidate.k: r for r in records}
        assert by_k[103].disqualified
        assert by_k[197].disqualified
        assert not by_k[143].disqualified

    def test_riesel_k1_edge(self):
        # 1*2^1 - 1 = 1 is not prime
        records = disqualify.survey_range(1, 1, -1, 1)
        assert len(records) == 1
        assert not records[0].disqualified
        assert records[0].n_searched == 1

    def test_even_bounds_rejected(self):
        with pytest.raises(ValueError):
            disqualify.survey_range(2, 9, 1, 8)
        with pytest.raises(ValueError):
            disqualify.survey_range(3, 8, 1, 8)
        with pytest.raises(ValueError):
            disqualify.survey_range(9, 3, 1, 8)

    def test_work_is_bounded_up_front(self, monkeypatch):
        # 3*2 + 1 = 7 is prime, so a scan at the bound ends at n = 1
        assert disqualify.first_prime_exponent(Candidate(3, 1), disqualify.MAX_SCAN_N).n_found == 1
        with pytest.raises(ValueError, match="n_max = 100001 is above the bound 100000"):
            disqualify.first_prime_exponent(Candidate(3, 1), disqualify.MAX_SCAN_N + 1)
        # a survey of MAX_SURVEY_K odd k goes ahead; stubbed scans keep it quick
        monkeypatch.setattr(disqualify, "Candidate", lambda k, sign: None)
        monkeypatch.setattr(disqualify, "first_prime_exponent", lambda c, n_max, verbose: None)
        last_k = 2 * disqualify.MAX_SURVEY_K - 1
        assert len(disqualify.survey_range(1, last_k, 1, 8)) == disqualify.MAX_SURVEY_K
        with pytest.raises(ValueError, match="holds 1000001 odd k, above the bound 1000000"):
            disqualify.survey_range(1, last_k + 2, 1, 8)


class TestConsistencyWithCovers:
    def test_covered_numbers_never_disqualified(self):
        # a verified cover means no prime ever, so none below 240 either
        records = load_corpus(default_corpus_path())
        for record in records:
            if record.kind not in (KIND_S, KIND_R, KIND_BOTH):
                continue
            for sign, _ in record.covers:
                result = disqualify.first_prime_exponent(
                    Candidate(record.k, sign), 240
                )
                assert result.n_found is None, (record.k, sign, result.n_found)


class TestReports:
    def test_dict_shape(self):
        record = disqualify.first_prime_exponent(Candidate(143, 1), 60)
        doc = disqualify.record_to_dict(record)
        assert doc["k"] == "143"
        assert doc["n_found"] == 53
        assert doc["method"] == arith.METHOD_PROTH
        assert doc["primality"]["is_prime"] is True
        assert doc["primality"]["witness"].isdigit()

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on printing an int"
    )
    def test_terms_past_the_print_limit_are_written_in_full(self):
        # Pieces of 640 digits, the least limit Python allows, zero-padded
        # where a piece starts with zeros.
        ns = [10**640 - 1, 10**640, 8**640, 10**1500 + 7, 3**5000, 2**100000 + 1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            docs = [disqualify.primality_to_dict(arith.PrimalityResult(n, "x", True, witness=n))
                    for n in ns]
        finally:
            sys.set_int_max_str_digits(limit)
        sys.set_int_max_str_digits(0)
        try:
            assert [(doc["n"], doc["witness"]) for doc in docs] == [(str(n), str(n)) for n in ns]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "sign, digest",
        [
            (1, "1a8e421eb605f33f594d393dc06e0085a40fc65d20f40a2906b62e711da752f4"),
            (-1, "c5898910fd278c724a2edbea925389b819b71022c0c7df9f9272c87072c359ce"),
        ],
    )
    def test_verbose_survey_bytes_are_pinned(self, sign, digest):
        # sha256 of the JSON report in the layout `survey --format json`
        # prints, with each record's trail, for every odd k <= 999 and
        # n <= 64: any change to a verdict, method, witness or round count
        # of a primality test shows.
        records = disqualify.survey_range(1, 999, sign, 64, verbose=True)
        text = json.dumps([disqualify.record_to_dict(r) for r in records], indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_text_table(self):
        records = disqualify.survey_range(45, 49, 1, 8)
        text = disqualify.records_to_text(records)
        assert "none <= 8" in text  # k=47 survives
        assert text.splitlines()[0].split() == ["k", "n", "method"]
