import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coverscope import arith
from coverscope.check import MAX_LCM
from oracles import (
    PSI_13,
    factorize_naive,
    jacobi_naive,
    next_prime_naive,
    offset_naive,
    order_naive,
    prime_naive,
    primes_below_naive,
    strong_probable_prime,
    trial_division_prime,
)


BOUNDS = (1, 2, 3, 10, 50, 1000, MAX_LCM)

# Derandomized, as in every other test file: each run draws the same examples.
FUZZ_200, FUZZ_300, FUZZ_400 = (
    settings(max_examples=n, derandomize=True, deadline=None, database=None)
    for n in (200, 300, 400)
)


def period(d):
    return arith.order_and_offset(1, 1, d, MAX_LCM)[0]


class TestMultiplicativeOrder:
    """The period half of order_and_offset: b = ord_d(2)."""

    def test_known_values(self):
        assert period(3) == 2
        assert period(73) == 9
        assert period(241) == 24

    def test_no_order_when_not_coprime(self):
        # 2 is a unit mod every odd d, so the period exists even when k shares
        # a factor with d; only the offset is then absent.
        assert arith.order_and_offset(6, 1, 9, MAX_LCM) == (6, None)
        assert arith.order_and_offset(9, -1, 9, MAX_LCM) == (6, None)

    def test_rejects_even_or_small_d(self):
        with pytest.raises(ValueError):
            arith.order_and_offset(1, 1, 8, MAX_LCM)
        with pytest.raises(ValueError):
            arith.order_and_offset(1, 1, 1, MAX_LCM)

    def test_divides_d_minus_1_for_primes(self):
        # Fermat: 2^(d-1) == 1 (mod d), so the order divides d-1.
        for d in range(3, 1000, 2):
            if trial_division_prime(d):
                assert (d - 1) % period(d) == 0

    def test_minimality_exhaustive(self):
        for d in range(3, 1000, 2):
            b = period(d)
            assert b == order_naive(2, d)
            assert pow(2, b, d) == 1
            for j in range(1, b):
                assert pow(2, j, d) != 1

    def test_large_primes_have_minimal_periods(self):
        for d in (1000003, 6700417, 2147483647):
            assert trial_division_prime(d)
            got = period(d)
            assert pow(2, got, d) == 1
            # minimality via the divisor lattice of the order itself
            for p in factorize_naive(got):
                assert pow(2, got // p, d) != 1
        assert period(6700417) == 64
        assert period(1000003) == 1000002

    def test_giant_phase_at_the_real_bound(self):
        # 10007 is prime with ord(2) = 5003, past the isqrt(MAX_LCM) + 1 =
        # 3163 baby steps, so both period and offset come from giant steps.
        d = 10007
        assert order_naive(2, d) == 5003 > math.isqrt(MAX_LCM) + 1
        for k, sign in ((78557, 1), (78557, -1), (3 * 2**4000 + 1, 1), (10**12 + 39, -1)):
            b, c = arith.order_and_offset(k, sign, d, MAX_LCM)
            assert b == 5003
            assert c == offset_naive(k, sign, d, b)
        # k = 2**-c reaches 1 (sign -1) at exactly c: 1000 is within the
        # 3163 baby steps, 4000 is past them and so found by a giant step.
        assert arith.order_and_offset(pow(2, -1000, d), -1, d, MAX_LCM) == (5003, 1000)
        assert arith.order_and_offset(pow(2, -4000, d), -1, d, MAX_LCM) == (5003, 4000)

    def test_period_above_the_bound_is_none(self):
        # ord(2) mod 1000003 is 1000002; the walk stops at the bound without
        # learning it, and so it does for the hang inputs past 10^12.
        assert arith.order_and_offset(78557, 1, 1000003, 1000001) is None
        assert arith.order_and_offset(78557, 1, 1000003, 1000002) == (1000002, 559206)
        for d in (1000000000039, 1000003 * 1000033, 1208925819614629174708367):
            assert arith.order_and_offset(78557, 1, d, MAX_LCM) is None


class TestFindOffset:
    """The offset half of order_and_offset: the least c in 0..b-1 with
    d | k*2**c + sign."""

    def test_known_values(self):
        assert arith.order_and_offset(78557, 1, 5, MAX_LCM) == (4, 1)
        assert arith.order_and_offset(78557, 1, 73, MAX_LCM) == (9, 3)
        assert arith.order_and_offset(509203, -1, 3, MAX_LCM) == (2, 0)

    def test_absent(self):
        assert arith.order_and_offset(78557, 1, 23, MAX_LCM) == (11, None)

    def test_divisor_of_k_has_no_offset(self):
        # 17 | 78557, so every term is 1 mod 17
        assert arith.order_and_offset(78557, 1, 17, MAX_LCM) == (8, None)

    def test_minimality_and_validity(self):
        rng = random.Random(123)
        for _ in range(300):
            d = rng.randrange(3, 2000) | 1
            k = rng.randrange(1, 10**12) | 1
            sign = rng.choice((1, -1))
            b, c = arith.order_and_offset(k, sign, d, MAX_LCM)
            assert c == offset_naive(k, sign, d, b)
            if c is not None:
                assert (k * 2**c + sign) % d == 0
        # d past 2**64: 2**89 - 1 with its order b = 89, where k*2**c is a
        # rotation of k's 89 bits.  The first two k have offsets 49 and 30.
        d = 2**89 - 1
        for k, sign in ((d - 2**40, 1), (d + 2**59, -1), (10**12 + 39, 1), (10**12 + 39, -1)):
            b, c = arith.order_and_offset(k, sign, d, MAX_LCM)
            assert b == 89
            assert c == offset_naive(k, sign, d, 89)
            if c is not None:
                assert (k * 2**c + sign) % d == 0

    def test_bignum_k(self):
        a = 3896845303873881175159314620808887046066972469809
        b, c = arith.order_and_offset(a * a, -1, 7, MAX_LCM)
        assert b == 3
        assert c is not None and (a * a * 2**c - 1) % 7 == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            arith.order_and_offset(5, 2, 7, MAX_LCM)
        with pytest.raises(ValueError):
            arith.order_and_offset(5, 1, 4, MAX_LCM)


def test_order_and_offset_match_the_oracles_at_every_bound():
    # Odd d up to about twice SIEVE_BOUND: the tables below it, the walk
    # above it.  A bound below the period makes the walk take giant steps
    # and then give up, and the table path return None once it is built.
    rng = random.Random(13)
    for d in range(3, 2 * arith.SIEVE_BOUND + 52, 2):
        b = order_naive(2, d)
        for k in (rng.randrange(1, 10**12), d * rng.randrange(1, 10**6),
                  3 * rng.randrange(1, 10**6), 5 * rng.randrange(1, 10**6)):
            for sign in (1, -1):
                c = offset_naive(k, sign, d, b)
                for bound in BOUNDS:
                    want = (b, c) if b <= bound else None
                    assert arith.order_and_offset(k, sign, d, bound) == want, (k, sign, d, bound)


@pytest.mark.parametrize("d", [1023, 1025])  # 3*11*31 with a table, 5**2*41 walked
def test_order_and_offset_on_each_side_of_the_table_bound(d):
    assert (d <= arith.SIEVE_BOUND) == (d == 1023)
    rng = random.Random(d)
    big = rng.randrange(2**4000, 2**4001)
    b = order_naive(2, d)
    assert b == (10 if d == 1023 else 20)
    for k in (0, d, 7 * d, big, big * d, big - big % d + 31, 78557, *rng.sample(range(1, d), 40)):
        for sign in (1, -1):
            c = offset_naive(k, sign, d, b)
            for bound in (b - 1, b, MAX_LCM):
                want = (b, c) if b <= bound else None
                assert arith.order_and_offset(k, sign, d, bound) == want, (k, sign, bound)
    assert (d in arith._LOG_TABLES) == (d <= arith.SIEVE_BOUND)


@FUZZ_200
@given(
    st.integers(1, arith.SIEVE_BOUND + 200).map(lambda i: 2 * i + 1),
    st.lists(
        st.tuples(
            st.integers(0, 2**70) | st.integers(1, 2**20).map(lambda m: m * 3 * 5 * 7),
            st.sampled_from((1, -1)),
            st.integers(1, 3000),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_calls_on_one_divisor_interleave_freely(d, calls):
    # The first call on d builds its table, at whatever bound it asks for;
    # the later ones read it.  Dropping d's table first rebuilds it here.
    arith._LOG_TABLES.pop(d, None)
    b = order_naive(2, d)
    for k, sign, bound in calls:
        want = (b, offset_naive(k, sign, d, b)) if b <= bound else None
        assert arith.order_and_offset(k, sign, d, bound) == want, (k, sign, bound)


def test_the_tables_hold_one_entry_per_power_of_2():
    # The memory the tables may take: one entry for each j < ord_d(2), for
    # each odd d up to SIEVE_BOUND, and nothing for larger d.
    for d in range(3, arith.SIEVE_BOUND + 1, 2):
        # Every period is above 1: the call builds d's table, then refuses.
        assert arith.order_and_offset(1, 1, d, 1) is None
    tables = arith._LOG_TABLES
    assert sorted(tables) == list(range(3, arith.SIEVE_BOUND + 1, 2))  # 511 divisors
    for d, table in tables.items():
        assert table == {pow(2, j, d): j for j in range(order_naive(2, d))}, d
    assert sum(len(t) for t in tables.values()) == 84166
    arith.order_and_offset(78557, 1, arith.SIEVE_BOUND + 1, MAX_LCM)
    arith.order_and_offset(78557, 1, 1000003, MAX_LCM)
    assert len(arith._LOG_TABLES) == 511


class TestJacobi:
    def test_matches_factorization_oracle(self):
        rng = random.Random(7)
        for _ in range(1500):
            n = rng.randrange(3, 10**6) | 1
            a = rng.randrange(0, 10**7)
            assert arith.jacobi(a, n) == jacobi_naive(a, n), (a, n)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            arith.jacobi(3, 10)


class TestIsPrime:
    def test_small_prime(self):
        result = arith.is_prime(7)
        assert result.is_prime and result.method == arith.METHOD_MR_DETERMINISTIC
        assert result.rounds == 0

    def test_known_large_prime(self):
        result = arith.is_prime(143 * 2**53 + 1)
        assert result.is_prime

    def test_known_composite(self):
        result = arith.is_prime(78557)
        assert not result.is_prime
        assert 78557 == 17 * 4621

    def test_agrees_with_trial_division_above_20000(self):
        rng = random.Random(21)
        ns = [rng.randrange(20000, 10**8) for _ in range(2000)] + [1021**2, 1031**2, 1021 * 1031]
        for n in ns:
            assert arith.is_prime(n).is_prime == trial_division_prime(n), n

    def test_above_word_limit_deterministic(self):
        n = 2**67 - 1  # composite: 193707721 * 761838257287
        result = arith.is_prime(n)
        assert not result.is_prime
        assert result.method == arith.METHOD_MR_DETERMINISTIC
        assert arith.is_prime(2**89 - 1).is_prime  # Mersenne prime, Proth-free path

    def test_probabilistic_flagged(self):
        # 2^89 - 1 exceeds the deterministic bound and is not Proth-form
        result = arith.is_prime(2**89 - 1)
        assert result.method == arith.METHOD_MR_PROBABILISTIC
        assert result.rounds >= 40
        composite = arith.is_prime(2**91 - 1)
        assert not composite.is_prime
        assert composite.rounds >= 40

    def test_proth_dispatch_above_bound(self):
        # 5*2^100 + 1 is above the deterministic bound and Proth-form
        result = arith.is_prime(5 * 2**100 + 1)
        assert result.method == arith.METHOD_PROTH
        assert not result.is_prime

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            arith.is_prime(-1)

    def test_negative_rejected_at_every_size(self):
        # The negatives of a sieve prime, a prime past SIEVE_BOUND, the
        # largest prime below 2**64 and a Proth-form number past the bound.
        for n in (-7, -1031, -(2**64 - 59), -(5 * 2**100 + 1)):
            with pytest.raises(ValueError):
                arith.is_prime(n)

    def test_word_boundary(self):
        largest = arith.is_prime(2**64 - 59)  # largest prime below 2**64
        assert largest.is_prime and largest.method == arith.METHOD_MR_DETERMINISTIC
        assert largest.witness == 0
        assert not arith.is_prime(2**64 - 1).is_prime  # Fermat numbers F0 * ... * F5
        assert arith.is_prime(2**61 - 1).is_prime  # Mersenne prime


# psi_t for t <= 12, each distinct value once with the largest t it is psi_t
# for (psi_7 = psi_8 and psi_9 = psi_10 = psi_11), so base t + 1 catches it.
PSI_TIERS = [(t, arith._PSI[t - 1]) for t in range(1, 13) if arith._PSI[t - 1] != arith._PSI[t]]


def n_minus_1(k, m):
    """The base that proves N = k*2**m + 1 prime by the N-1 proof with F
    from _factored_part, else 0."""
    result = arith._nminus1_proof(k, m, *arith._factored_part(k, m, 1))
    return result.witness if result is not None and result.is_prime else 0


def n_plus_1(k, m):
    """The start that proves N = k*2**m - 1 prime by the N+1 proof with F
    from _factored_part, else 0."""
    return arith._nplus1_proof(k, m, *arith._factored_part(k, m, -1))


def side_proof(k, m, sign):
    """n_minus_1 or n_plus_1: the proof of N = k*2**m + sign's side."""
    return (n_minus_1 if sign > 0 else n_plus_1)(k, m)


def _km(n, sign):
    """(k, m) with n = k*2**m + sign, k odd."""
    m = ((n - sign) & (sign - n)).bit_length() - 1
    return (n - sign) >> m, m


def _proves(n, sign):
    """Whether the proof of n's side proves n = k*2**m + sign prime with
    the part _factored_part gives."""
    return bool(side_proof(*_km(n, sign), sign))


@pytest.fixture
def trigger_proofs(monkeypatch):
    """("N-1" or "N+1", k, m) for each proof is_prime's trigger runs, in
    order; the N-1 proof proth_test runs is not counted."""
    runs, active = [], []
    real_trigger = arith._proved_on_its_side

    def trigger(n, d, s):
        active.append(n)
        try:
            return real_trigger(n, d, s)
        finally:
            active.pop()

    def counting(side, real):
        def proof(k, m, f, qs, lo):
            if active:
                runs.append((side, k, m))
            return real(k, m, f, qs, lo)
        return proof

    monkeypatch.setattr(arith, "_proved_on_its_side", trigger)
    monkeypatch.setattr(arith, "_nminus1_proof", counting("N-1", arith._nminus1_proof))
    monkeypatch.setattr(arith, "_nplus1_proof", counting("N+1", arith._nplus1_proof))
    return runs


@pytest.fixture
def mr_bases(monkeypatch):
    """(n, a) for each Miller-Rabin base a that is_prime runs on n, in order."""
    runs = []
    real = arith._mr_composite

    def counting(n, a, d, s):
        runs.append((n, a))
        return real(n, a, d, s)

    monkeypatch.setattr(arith, "_mr_composite", counting)
    return runs


def lucas_v_by_matrix(p, j, n):
    """V_j(p) mod n as the trace of [[p, -1], [1, 0]]**j mod n, whose
    eigenvalues are the roots alpha, 1/alpha of x**2 - p*x + 1."""
    result, base = ((1, 0), (0, 1)), ((p % n, n - 1), (1, 0))

    def times(x, y):
        return tuple(
            tuple(sum(x[r][i] * y[i][c] for i in range(2)) % n for c in range(2))
            for r in range(2)
        )

    while j:
        if j & 1:
            result = times(result, base)
        base = times(base, base)
        j >>= 1
    return (result[0][0] + result[1][1]) % n


def test_f_is_2_to_the_m_whenever_2_to_the_m_exceeds_k():
    # proth_test runs the N-1 proof with F = 2**m and no odd q, the part
    # _factored_part gives whenever 2**m > k, on either side, from m = 2.
    for m in range(2, 14):
        for k in range(1, 2**m, 2):
            for sign in (1, -1):
                assert arith._factored_part(k, m, sign) == (2**m, (), 1), (k, m, sign)


def test_the_trigger_proves_no_composite_and_most_primes_in_form():
    rng = random.Random(40)
    ns = [rng.randrange(2**32, 2**90) | 1 for _ in range(600)]
    for sign in (1, -1):
        ns += [k * 2**m + sign for k, m in (_in_form_above_psi_13(rng, sign=sign) for _ in range(300))]
        ns += [k * 2**m + sign for k, m in (_in_form_above_psi_13(rng, True, sign) for _ in range(30))]
    proved = 0
    for n in ns:
        d, s = arith._mr_decompose(n)
        if arith._proved_on_its_side(n, d, s):
            assert prime_naive(n), n
            proved += 1
    assert proved > 50


def test_a_proth_form_prime_is_proved_without_the_trigger(trigger_proofs):
    # is_prime hands k*2**m + 1 with 2**m > k to proth_test, whose N-1
    # proof the trigger's counter leaves out.
    n = 47 * 2**583 + 1
    result = arith.is_prime(n)
    assert result.is_prime and result.method == arith.METHOD_PROTH
    assert trigger_proofs == []


def _recheck_rule(n):
    """The deterministic record of an odd n from SIEVE_SQUARE up to 2**64:
    the first t bases of MR_DETERMINISTIC_BASES for the least t with n below
    psi_t, composite witness 0."""
    t = next(t for t, psi in enumerate(arith._PSI, 1) if n < psi)
    verdict = all(strong_probable_prime(n, a) for a in arith.MR_DETERMINISTIC_BASES[:t])
    return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, verdict)


class TestPsiTiers:
    def test_table(self):
        assert len(arith._PSI) == len(arith.MR_DETERMINISTIC_BASES) == 13
        assert arith._PSI[-1] == arith.MR_DETERMINISTIC_BOUND
        assert list(arith._PSI) == sorted(arith._PSI)
        assert [t for t, _ in PSI_TIERS] == [1, 2, 3, 4, 5, 6, 8, 11, 12]

    def test_each_psi_fools_its_bases_and_the_next_base_catches_it(self):
        bases = arith.MR_DETERMINISTIC_BASES
        for t, psi in PSI_TIERS:
            assert all(strong_probable_prime(psi, a) for a in bases[:t]), psi
            assert not strong_probable_prime(psi, bases[t]), psi  # so psi is composite
            assert not arith.is_prime(psi).is_prime, psi

    def test_agrees_with_a_sieve_below_2_to_the_21(self):
        # Covers both sides of SIEVE_BOUND, where is_prime reads n from
        # _SIEVE_PRIME_SET (1021 and 1031 are prime, 1023 = 3*11*31, 1025 =
        # 5^2*41 and 1027 = 13*79 are not), SIEVE_SQUARE and the tier edges
        # psi_1 = 2047 and psi_2 = 1373653.
        flags = primes_below_naive(2**21)
        wrong = [n for n in range(2**21) if arith.is_prime(n).is_prime != flags[n]]
        assert wrong == []

    def test_each_row_bound_below_2_to_the_64_fools_its_bases(self):
        bounds = [bound for bound, _ in arith._MR_ROWS]
        assert bounds == sorted(bounds) and bounds[-1] == arith.MR_DETERMINISTIC_BOUND
        assert arith.SIEVE_NEXT_PRIME == next_prime_naive(arith.SIEVE_BOUND) == 1031
        assert arith.SIEVE_SQUARE == 1031**2 < bounds[0]
        low = [(bound, bases) for bound, bases in arith._MR_ROWS if bound < 2**64]
        assert len(low) == 6
        for bound, bases in low:
            assert all(strong_probable_prime(bound, a) for a in bases), bound
            assert not arith.is_prime(bound).is_prime, bound

class TestNPlus1Proof:
    def test_agrees_with_a_sieve_below_2_to_the_22(self):
        flags = primes_below_naive(2**22)
        seen = 0
        for m in range(2, 22):
            for k in range(1, min(2**m, 2**22 >> m), 2):
                n = k * 2**m - 1
                assert n < 2**22
                p = n_plus_1(k, m)
                assert bool(p) == flags[n], (k, m)
                if p:
                    assert arith.jacobi(p - 2, n) == 1 and arith.jacobi(p + 2, n) == -1
                seen += 1
        assert seen > 2000

    def test_is_prime_follows_the_recheck_rule_on_riesel_form_n_to_2_to_the_24(self):
        seen = 0
        for m in range(2, 24):
            for k in range(1, min(2**m, 2**24 >> m), 2):
                n = k * 2**m - 1
                if n >= arith.SIEVE_SQUARE:
                    assert arith.is_prime(n) == _recheck_rule(n), n
                    seen += 1
        assert seen > 4000

    def test_the_start_rechecks_by_a_matrix_power(self):
        # Primes N = k*2**m - 1, with and without odd q in F, up to past
        # psi_13: the start P the proof returns is one of Rodseth's, and,
        # with V_j taken apart from the Lucas ladder as the trace of
        # [[P, -1], [1, 0]]**j, V_{(N+1)/4}(P) == 0 and every q's gcd is 1.
        cases = (
            (17, 4),
            (3**5 * 35, 2),
            (111546435, 3),
            (557732175, 2),
            (3, 94),
            (208458014172092995, 25),
            (10605807533490612797, 30),
        )
        for k, m in cases:
            n = k * 2**m - 1
            assert prime_naive(n), (k, m)
            _, qs, _ = arith._factored_part(k, m, -1)
            p = n_plus_1(k, m)
            assert arith.jacobi(p - 2, n) == 1 and arith.jacobi(p + 2, n) == -1, (k, m)
            assert lucas_v_by_matrix(p, (n + 1) // 4, n) == 0, (k, m)
            for q in qs:
                v = lucas_v_by_matrix(p, (n + 1) // q, n)
                assert math.gcd(v - 2, n) == 1, (k, m, q)

@FUZZ_400
@given(st.integers(2, 81).flatmap(
    lambda m: st.tuples(
        st.integers(0, (min(2**m - 1, PSI_13 >> m) - 1) // 2), st.just(m)
    )
))
def test_the_nplus1_proof_agrees_with_the_oracle_below_psi_13(km):
    j, m = km
    k = 2 * j + 1
    n = k * 2**m - 1
    assert k < 2**m and n < PSI_13
    assert bool(n_plus_1(k, m)) == prime_naive(n), (k, m)


def _in_form_above_psi_13(rng, primes_only=False, sign=-1):
    """(k, m) with k odd, 2**m <= k and psi_13 <= k*2**m + sign < 2**100,
    in the form of sign's proof (N+1 for -1, N-1 for +1); for half the
    draws k is multiplied by one to three odd primes up to SIEVE_BOUND."""
    while True:
        m = rng.randrange(2, 50)
        k = rng.randrange(max(PSI_13 >> m, 2**m), 2**100 >> m) | 1
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 4)):
                k *= rng.choice(arith.SIEVE_PRIMES)
        n = k * 2**m + sign
        if n >> 100 or not arith._factored_part(k, m, sign):
            continue
        if not primes_only or prime_naive(n):
            return k, m


@st.composite
def riesel_above_psi_13(draw):
    """(k, m) with k odd, 2**m <= k and k*2**m - 1 >= psi_13; for half the
    draws k is multiplied by one to three odd primes up to SIEVE_BOUND."""
    m = draw(st.integers(2, 49))
    k = draw(st.integers(max(PSI_13 >> m, 2**m), (2**100 >> m) - 1)) | 1
    if draw(st.booleans()):
        k *= math.prod(draw(st.lists(st.sampled_from(arith.SIEVE_PRIMES), min_size=1, max_size=3)))
    return k, m


@FUZZ_400
@given(riesel_above_psi_13())
def test_an_nplus1_proof_above_psi_13_is_a_prime(km):
    # prime_naive above psi_13 is 13 strong bases: every prime passes them.
    k, m = km
    assume(arith._factored_part(k, m, -1))
    if n_plus_1(k, m):
        assert prime_naive(k * 2**m - 1), (k, m)


@st.composite
def sierpinski_in_form(draw, low, high):
    """(k, m) with k odd, 2**m <= k and low <= k*2**m + 1 < high, in
    the N-1 proof's form, k a draw times one to three odd primes up to
    SIEVE_BOUND."""
    m = draw(st.integers(1, 40))
    p = math.prod(draw(st.lists(st.sampled_from(arith.SIEVE_PRIMES), min_size=1, max_size=3)))
    lo, hi = max(low >> m, 2**m) // p + 1, (high >> m) // p
    assume(lo < hi)
    k = (draw(st.integers(lo, hi - 1)) | 1) * p
    assume(low <= k * 2**m + 1 < high and arith._factored_part(k, m, 1))
    return k, m


@FUZZ_300
@given(sierpinski_in_form(PSI_13, 2**100))
def test_an_nminus1_proof_above_psi_13_is_a_prime(km):
    # prime_naive above psi_13 is 13 strong bases: every prime passes them.
    k, m = km
    if n_minus_1(k, m):
        assert prime_naive(k * 2**m + 1), (k, m)


@FUZZ_300
@given(
    st.sampled_from((1, -1)),
    st.integers(2, 40),
    st.sampled_from((1, 3, 5, 15, 7, 105, 3**4, 1021)),
    st.integers(1, 2**20),
    st.integers(1, 2**20),
)
def test_no_proof_proves_a_product_of_two_factors_of_its_side(sign, j, f, a, b):
    # N = (a*F0 + 1)*(b*F0 + sign) with F0 = 2**j * f is composite, and
    # every prime factor of such an N is == 1 or == sign mod F0, the shape
    # the last check of each proof is there to rule out.
    f0 = 2**j * f
    n = (a * f0 + 1) * (b * f0 + sign)
    k, m = _km(n, sign)
    part = arith._factored_part(k, m, sign)
    assume(part is not None and k >= 2**m)
    assert side_proof(k, m, sign) == 0, (k, m, sign)


def _proth_record(n, prime):
    # proth_test's record for n = k*2**m + 1 < 2**20 with 2**m > k, k odd, from
    # the oracle's Jacobi symbol: the first base a = 3, 5, 7, ... with
    # jacobi(a, n) = -1 decides n, one with 1 < gcd(a, n) < n shows it
    # composite; with neither among the candidates, Miller-Rabin decides.
    for a in range(3, 3 + 2 * arith.PROTH_CANDIDATE_LIMIT, 2):
        if 1 < math.gcd(a, n) < n:
            return arith.PrimalityResult(n, arith.METHOD_PROTH, False, witness=a)
        if jacobi_naive(a, n) == -1:
            return arith.PrimalityResult(n, arith.METHOD_PROTH, prime, witness=a)
    return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, prime)


class TestNMinus1Proof:
    def test_agrees_with_a_sieve_below_2_to_the_18(self):
        # proth_test is the same base loop with F = 2**m: on every
        # Proth-form N below 2**20 its record is the first base a with
        # jacobi(a, N) = -1 or 1 < gcd(a, N) < N, else the fallback's, and
        # on a prime below 2**18 the N-1 proof with F from _factored_part
        # proves N with that base.
        flags = primes_below_naive(2**20)
        seen = proth_seen = 0
        for m in range(1, 20):
            for k in range(1, 2**20 >> m, 2):
                n = k * 2**m + 1
                proth = None
                if k < 2**m:
                    proth = arith.proth_test(k, m)
                    assert proth == _proth_record(n, flags[n]), (k, m)
                    proth_seen += 1
                if n >= 2**18 or arith._factored_part(k, m, 1) is None:
                    continue
                a = n_minus_1(k, m)
                assert bool(a) == flags[n], (k, m)
                if a:
                    assert arith.jacobi(a, n) == -1 and pow(a, n >> 1, n) == n - 1
                if proth is not None and flags[n]:
                    assert a == proth.witness, (k, m)
                seen += 1
        assert seen > 50000 and proth_seen > 1500

    def test_the_base_rechecks_from_the_result_alone(self):
        # Primes N = k*2**m + 1 with 2**m <= k and odd q in F: the base the
        # proof returns meets Euler's criterion and every q's gcd.
        cases = (
            (3**6 * 35, 2),
            (9279, 5),
            (171468703, 4),
            (111546435, 3),
            (557732175, 4),
            (41257931656341621, 20),
            (7139711239991325154707, 34),
        )
        for k, m in cases:
            n = k * 2**m + 1
            f, qs, _ = arith._factored_part(k, m, 1)
            assert k >= 2**m and qs and prime_naive(n), (k, m)
            a = n_minus_1(k, m)
            assert a and pow(a, n >> 1, n) == n - 1, (k, m)
            for q in qs:
                assert (n - 1) % (q * 2**m) == 0
                assert math.gcd(pow(a, (n - 1) // q, n) - 1, n) == 1, (k, m, q)

    def test_is_prime_follows_the_recheck_rule_from_2_to_the_32_to_2_to_the_64(self):
        # Every record of random odd n on both sides, in form or not, is the
        # re-check rule's, whether or not a proof proved it.
        rng = random.Random(36)
        ns = [rng.randrange(2**32, 2**64) | 1 for _ in range(3000)]
        ns += [k * 2**m + 1 for k, m in _in_form_below_psi_13(rng, 2**64, 1500)]
        assert sum(arith.is_prime(n).is_prime for n in ns) > 150
        for n in ns:
            assert arith.is_prime(n) == _recheck_rule(n), n

    def test_agrees_with_the_oracle_from_2_to_the_32_to_psi_13(self):
        rng = random.Random(38)
        kms = _in_form_below_psi_13(rng, PSI_13, 100, primes_only=True)
        kms += _in_form_below_psi_13(rng, PSI_13, 200)
        for k, m in kms:
            assert bool(n_minus_1(k, m)) == prime_naive(k * 2**m + 1), (k, m)


def _in_form_below_psi_13(rng, high, count, primes_only=False):
    """count (k, m) with 2**32 <= k*2**m + 1 < high in the N-1 proof's
    form, k a draw times one to three odd primes up to SIEVE_BOUND."""
    kms = []
    while len(kms) < count:
        m = rng.randrange(1, 40)
        p = math.prod(rng.choice(arith.SIEVE_PRIMES) for _ in range(rng.randrange(1, 4)))
        lo, hi = max(2**32 >> m, 2**m) // p + 1, (high >> m) // p
        if lo < hi:
            k = (rng.randrange(lo, hi) | 1) * p
            n = k * 2**m + 1
            if 2**32 <= n < high and arith._factored_part(k, m, 1):
                if not primes_only or prime_naive(n):
                    kms.append((k, m))
    return kms


# (n, the bases is_prime runs on the prime n, in order, or above psi_13 the
# number of its seeded rounds, and the proofs its trigger runs, in order),
# a guard against more bases, rounds or proofs that reads no clock.
PRIME_RUNS = (
    # The largest prime below each row bound of _MR_ROWS, and below
    # 1031**2: no base up to the sieve square.  Three are in form on their
    # side, so the N-1 proof proves each after one base: 2**64 - 59 with
    # n - 1 = 4*k and F = 4*547*137*11 by the cube bound, 4759123129 with
    # F = 8*53*3 and 2**64 - 83 with F = 4*193*67*43 by the bound 1031 on
    # what is left of k.  9080189 is in form but below 2**32, the
    # crossover.  The largest primes below their bounds out of form,
    # 4759123079 (on the - side, k = 594890385 and m = 3) and 2**64 - 95,
    # run their whole rows.
    (1021, (), []),
    (1062949, (), []),
    (1373639, (2, 3), []),
    (9080189, (31, 73), []),
    (4759123129, (2,), [("N-1", 594890391, 3)]),
    (4759123079, (2, 7, 61), []),
    (1122004669603, (2, 13, 23, 1662803), []),
    (2152302898729, (2, 3, 5, 7, 11), []),
    (3474749660329, (2, 3, 5, 7, 11, 13), []),
    (2**64 - 59, (2,), [("N-1", (2**64 - 60) // 4, 2)]),
    (2**64 - 83, (2,), [("N-1", (2**64 - 84) // 4, 2)]),
    (2**64 - 95, (2, 325, 9375, 28178, 450775, 9780504, 1795265022), []),
    (318665857834031151167441, arith.MR_DETERMINISTIC_BASES[:12], []),
    (3317044064679887385961813, arith.MR_DETERMINISTIC_BASES, []),
    # The largest prime k*2**m - 1 with 2**m > k below each row bound, each
    # above the previous bound (and the first above 1031**2): its row's
    # first base, then the N+1 proof.
    (669 * 2**11 - 1, (2,), [("N+1", 669, 11)]),
    (1105 * 2**13 - 1, (31,), [("N+1", 1105, 13)]),
    (18153 * 2**18 - 1, (2,), [("N+1", 18153, 18)]),
    (133749 * 2**23 - 1, (2,), [("N+1", 133749, 23)]),
    (513143 * 2**22 - 1, (2,), [("N+1", 513143, 22)]),
    (828437 * 2**22 - 1, (2,), [("N+1", 828437, 22)]),
    (4294967247 * 2**32 - 1, (2,), [("N+1", 4294967247, 32)]),
    (289824909317 * 2**40 - 1, (2,), [("N+1", 289824909317, 40)]),
    (1508417001169 * 2**41 - 1, (2,), [("N+1", 1508417001169, 41)]),
    # In [2**64, psi_13): F = 2**20 * 13 * 3, F = 2**16 * 761, and F =
    # 2**21 * 5 with the bound 1031 on the rest of k.
    (41257931656341621 * 2**20 + 1, (2,), [("N-1", 41257931656341621, 20)]),
    (111411527898315965 * 2**16 - 1, (2,), [("N+1", 111411527898315965, 16)]),
    (25906288222960415 * 2**21 + 1, (2,), [("N-1", 25906288222960415, 21)]),
    # - side below 2**64 with two odd q, F = 2**10 * 811 * 17: the Lucas
    # ladders cost more than the row, so the whole row and no proof.
    (16935981269394083 * 2**10 - 1, arith._MR_ROWS[6][1], []),
    # Above psi_13 one round and one proof in form: F = 2**34 * 1021; F =
    # 2**25 * 463, the first prime of the pinned disqualify scan; F = 2**94,
    # as 2**94 > 3; F = 2**30 with the bound 1031 on k, a prime with no
    # factor up to SIEVE_BOUND; F = 2**26 * 3 with the bound 1031 on the
    # rest of k, the first prime of the other pinned disqualify scan.
    (7139711239991325154707 * 2**34 + 1, 1, [("N-1", 7139711239991325154707, 34)]),
    (208458014172092995 * 2**25 - 1, 1, [("N+1", 208458014172092995, 25)]),
    (3 * 2**94 - 1, 1, [("N+1", 3, 94)]),
    (10605807533490612797 * 2**30 - 1, 1, [("N+1", 10605807533490612797, 30)]),
    (4347139270569672657 * 2**26 - 1, 1, [("N+1", 4347139270569672657, 26)]),
    # Out of form, all the rounds: k has no odd factor up to SIEVE_BOUND
    # and (2**2 - 1)**3 < N; k is a prime with no factor up to SIEVE_BOUND,
    # and F = 2**8 falls short of the bound 1031 on k.
    (829261016169971846490977 * 2**2 - 1, arith.MR_PROBABILISTIC_ROUNDS, []),
    (37778931862957161710357 * 2**8 - 1, arith.MR_PROBABILISTIC_ROUNDS, []),
)


def _on_side(rows, sign):
    """The rows of a (sign, ...) table on sign's side, without the sign."""
    side = [row[1:] for row in rows if row[0] == sign]
    assert side, sign
    return side


class TestBothSides:
    """Each claim on the N-1 and the N+1 proof, with a sign column: -1
    takes the N+1 proof, +1 the N-1 proof."""

    @pytest.mark.parametrize("sign", (1, -1))
    def test_form_violations_rejected(self, sign):
        # 1031 and 1033 are the least primes above SIEVE_BOUND: k has no
        # factor to add to F = 2**m, (F - 1)**3 <= N, and the bound 1031 on
        # k leaves more than three t for the split.  With 2**20 it leaves
        # two, and 1031**5 * 2**20 + sign is in form.
        for k, m in ((1031, 2), (1031**5, 10), (1031 * 1033, 4)):
            assert arith._factored_part(k, m, sign) is None, (k, m, sign)
        assert arith._factored_part(1031**5, 20, sign) == (2**20, (), 1031)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_valid_forms(self, sign):
        # (sign, k, m, F, the odd primes taken into F, N = k*2**m + sign
        # prime).  2**m alone reaches the cube bound for 3*2**4 + 1 = 49,
        # 13*2**8 + 1, 17*2**4 - 1 = 271 and 1031*2**10 - 1; 9279 = 3**2 *
        # 1031 takes its power 3**2, and 171468703 = 7*23*1031*1033 takes 23
        # before 7; 111546435 = 3*5*...*23 takes 23 and 19, and 557732175 =
        # 5*111546435 takes its power 5**2 before 23.
        cases = (
            (1, 3, 4, 16, (), False),
            (1, 13, 8, 2**8, (), True),
            (1, 3**6 * 35, 2, 4 * 3**6, (3,), True),
            (1, 9279, 5, 32 * 9, (3,), True),
            (1, 171468703, 4, 16 * 23 * 7, (23, 7), True),
            (1, 111546435, 3, 8 * 23 * 19, (23, 19), True),
            (1, 557732175, 4, 16 * 25 * 23, (5, 23), True),
            (1, 41257931656341621, 20, 2**20 * 13 * 3, (13, 3), True),
            (-1, 17, 4, 16, (), True),
            (-1, 1031, 10, 2**10, (), False),
            (-1, 3**5 * 35, 2, 4 * 3**5, (3,), True),
            (-1, 111546435, 3, 8 * 23 * 19, (23, 19), True),
            (-1, 557732175, 2, 4 * 25 * 23, (5, 23), True),
        )
        for k, m, f, qs, prime in _on_side(cases, sign):
            n = k * 2**m + sign
            assert prime_naive(n) == prime, (k, m, sign)
            assert arith._factored_part(k, m, sign) == (f, qs, 1), (k, m, sign)
            assert (f - 1) ** 3 > n and (n - sign) % f == 0
            assert bool(side_proof(k, m, sign)) == prime, (k, m, sign)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_two_factor_exclusion_carries_the_proof(self, monkeypatch, sign):
        # (sign, k, m, a, b): N = k*2**m + sign = (a*F + 1)*(b*F + sign) is
        # composite, yet it passes every check of its side's proof before
        # the last, with F from _factored_part: 2**m or 2**m times odd prime
        # powers of k.
        composites = _on_side((
            (1, 205, 4, 1, 12),
            (1, 46143, 8, 3, 60),
            (1, 56553, 5, 3, 12),
            (1, 694195, 4, 5, 30),
            (1, 74317959, 14, 63, 72),
            (1, 1815479325, 16, 27, 1026),
            (1, 44511738705, 12, 63, 126),
            (1, 4194304185, 20, 25, 160),
            (-1, 1155, 6, 3, 6),
            (-1, 3597, 8, 1, 14),
            (-1, 616035, 2, 42, 3),
            (-1, 4199121, 5, 4, 5),
            (-1, 258057, 10, 12, 21),
            (-1, 5165332095, 4, 30, 15),
            (-1, 4062192441766305, 22, 210, 315),
        ), sign)
        for k, m, a, b in composites:
            n = k * 2**m + sign
            f, _, _ = arith._factored_part(k, m, sign)
            assert n == (a * f + 1) * (b * f + sign) and k >= 2**m, (k, m, sign)
            assert arith._two_factor_split(n, f, sign, 1) == (a, b), (k, m, sign)
            assert side_proof(k, m, sign) == 0, (k, m, sign)
        monkeypatch.setattr(arith, "_two_factor_split", lambda n, f, sign, lo: None)
        for k, m, _, _ in composites:
            assert side_proof(k, m, sign), (k, m, sign)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_the_odd_q_checks_carry_the_proof(self, monkeypatch, sign):
        # (sign, k, m, F, qs) of composite N = k*2**m + sign that pass
        # Euler's check or the check of V_{(N+1)/4}, and the two-factor
        # exclusion with F, but not a q's gcd.
        composites = _on_side((
            (1, 4530375, 3, 1000, (5,)),
            (1, 876681, 4, 2032, (127,)),
            (1, 3219681465, 5, 20384, (7, 13)),
            (1, 2488321575, 13, 8347648, (1019,)),
            (1, 127075753875, 12, 2904064, (709,)),
            (-1, 405, 3, 648, (3,)),  # 41*79
            (-1, 1977, 4, 10544, (659,)),  # 673*47
            (-1, 3129, 5, 4768, (149,)),  # 449*223
            (-1, 26883, 4, 1648, (103,)),  # 929*463
            (-1, 639975, 9, 27136, (53,)),  # 25601*12799
        ), sign)
        for k, m, f, qs in composites:
            assert arith._factored_part(k, m, sign) == (f, qs, 1), (k, m, sign)
            assert not prime_naive(k * 2**m + sign)
            assert side_proof(k, m, sign) == 0, (k, m, sign)
        real = arith._factored_part
        monkeypatch.setattr(
            arith, "_factored_part", lambda k, m, sign: (real(k, m, sign)[0], (), 1)
        )
        for k, m, _, _ in composites:
            assert side_proof(k, m, sign), (k, m, sign)

    # (sign, seed, primes drawn, fewest of them proved, draws).
    @pytest.mark.parametrize(
        "sign, seed, primes, fewest, draws", ((-1, 29, 150, 120, 300), (1, 33, 100, 90, 200))
    )
    def test_most_primes_above_psi_13_are_proved_and_no_composite_is(
        self, sign, seed, primes, fewest, draws
    ):
        rng = random.Random(seed)
        kms = [_in_form_above_psi_13(rng, True, sign) for _ in range(primes)]
        proved = sum(bool(side_proof(k, m, sign)) for k, m in kms)
        assert proved > fewest, sign
        kms = [_in_form_above_psi_13(rng, sign=sign) for _ in range(draws)]
        proved = [(k, m) for k, m in kms if side_proof(k, m, sign)]
        assert all(prime_naive(k * 2**m + sign) for k, m in proved), proved

    @pytest.mark.parametrize("sign, seed", ((-1, 30), (1, 34)))
    def test_two_factor_split_finds_every_constructed_pair(self, sign, seed):
        rng = random.Random(seed)
        seen = 0
        for f in (1, 3, 35, 1155, 3**5, 1021):
            for m in range(2, 40):
                big_f = 2**m * f
                for _ in range(10):
                    a = rng.randrange(1, big_f)
                    b = rng.randrange(1, max(2, (big_f - 3) ** 3 // ((a * big_f + 1) * big_f)))
                    n = (a * big_f + 1) * (b * big_f + sign)
                    if n >= (big_f - 1) ** 3:
                        continue
                    split = arith._two_factor_split(n, big_f, sign, 1)
                    assert split is not None, (n, big_f)
                    a1, b1 = split
                    # On the + side the two factors are ordered.
                    assert min(a1, b1) >= 1 and (a1 <= b1 or sign < 0), (n, big_f)
                    assert (a1 * big_f + 1) * (b1 * big_f + sign) == n
                    seen += 1
        assert seen > 1500, sign

    @pytest.mark.parametrize("sign, seed", ((-1, 31), (1, 35)))
    def test_two_factor_split_finds_nothing_on_primes(self, sign, seed):
        rng = random.Random(seed)
        seen = 0
        for f in (1, 3, 35, 1155):
            for m in range(2, 30):
                big_f = 2**m * f
                for _ in range(20):
                    n = rng.randrange(1, (big_f - 1) ** 3 // big_f) * big_f + sign
                    if n > 2 and prime_naive(n):
                        assert arith._two_factor_split(n, big_f, sign, 1) is None, (n, big_f)
                        seen += 1
        assert seen > 100, sign

    def test_records_do_not_depend_on_the_proofs(self, monkeypatch):
        # A proof only skips bases or rounds and returns what they all
        # passing returns, and no proof runs the rounds from the same
        # generator: with the trigger never proving, every record comes out
        # the same from the bases alone.  Random - side n below psi_13, in
        # form on both sides above it, and + side n from 2**32 to psi_13.
        rng = random.Random(28)
        ns = []
        for m in range(11, 81):
            k_max = min(2**m, arith.MR_DETERMINISTIC_BOUND >> m)
            ns += [rng.randrange(1, k_max, 2) * 2**m - 1 for _ in range(60)]
        ns = [n for n in ns if arith.SIEVE_SQUARE <= n < arith.MR_DETERMINISTIC_BOUND]
        rng = random.Random(32)
        for sign in (-1, 1):
            kms = [_in_form_above_psi_13(rng, sign=sign) for _ in range(400)]
            kms += [_in_form_above_psi_13(rng, True, sign) for _ in range(40)]
            ns += [k * 2**m + sign for k, m in kms]
        ns += [k * 2**m - 1 for k in range(3, 200, 2) for m in (90, 99)]
        rng = random.Random(37)
        ns += [k * 2**m + 1 for k, m in _in_form_below_psi_13(rng, PSI_13, 1500)]
        ns += [rng.randrange(2**32, PSI_13) | 1 for _ in range(1500)]
        with_proofs = [arith.is_prime(n) for n in ns]
        assert sum(r.is_prime for r in with_proofs) > 230
        monkeypatch.setattr(arith, "_proved_on_its_side", lambda n, d, s: False)
        assert [arith.is_prime(n) for n in ns] == with_proofs

    @pytest.mark.parametrize("n, bases, proofs", PRIME_RUNS)
    def test_a_prime_runs_its_bases_and_its_proofs(
        self, mr_bases, trigger_proofs, n, bases, proofs
    ):
        deterministic = type(bases) is tuple
        method, rounds = (
            (arith.METHOD_MR_DETERMINISTIC, 0) if deterministic
            else (arith.METHOD_MR_PROBABILISTIC, arith.MR_PROBABILISTIC_ROUNDS)
        )
        assert arith.is_prime(n) == arith.PrimalityResult(n, method, True, rounds=rounds), n
        assert {x for x, _ in mr_bases} <= {n}, n
        run = tuple(a for _, a in mr_bases)
        assert (run if deterministic else len(run)) == bases, n
        assert trigger_proofs == proofs, n


# The 42 first primes k*2**n - 1 of the hunt benchmark's scans at seeds 1,
# 2, 7, 11 and 41 that are above psi_13 and out of reach of the cube bound:
# F = 2**n times k's prime powers up to SIEVE_BOUND, with the bound 1031 on
# the rest of k, proves each.
HUNT_TAIL = (
    (1086653604176734779, 25),
    (2236336567068312097, 29),
    (464456761652499999, 25),
    (6216718685019140015, 26),
    (4347139270569672657, 26),
    (304462195497059311, 29),
    (186835606763486113, 27),
    (2858494271639372369, 28),
    (352986073438849107, 25),
    (1102423317402290589, 25),
    (4053934868549075303, 26),
    (6213339443866970281, 27),
    (7088165485677093929, 28),
    (1364882766895919659, 25),
    (3773441612489885079, 25),
    (1225375921353214091, 26),
    (3594833835327013953, 28),
    (3136189529566446981, 27),
    (241768509304465401, 25),
    (3931251081489806817, 25),
    (2917766815407022197, 26),
    (192669875349804467, 28),
    (13822688378694450679, 27),
    (627874660105442691, 26),
    (1797687882458228921, 26),
    (1377890737247961941, 26),
    (461402875122347027, 28),
    (2098815111880120131, 25),
    (940768008382198267, 25),
    (7134108558346712361, 25),
    (1602756732887408873, 30),
    (471819917302432161, 25),
    (1886333741198410457, 28),
    (479638418068028407, 25),
    (7829661265606885067, 26),
    (2521924521467821919, 28),
    (107668950405828167, 26),
    (13639000118259585235, 25),
    (7580368103610779953, 27),
    (3051408564783175187, 30),
    (2184016282656104797, 29),
    (356534318758597757, 26),
)


# Every first prime above psi_13 and not of Proth form in the hunt
# benchmark's scans at seeds 1, 2, 7, 11 and 41, as (k, n) of
# k*2**n - 1 and of k*2**n + 1, in scan order: 410, of which 62 take
# the bound 1031, HUNT_TAIL's 42 among them.  Hard-coded from
# perfbench/workloads.hunt_jobs; tests do not import perfbench.
HUNT_BIG_RIESEL = (
    (1086653604176734779, 25), (2236336567068312097, 29), (3887281973, 50),
    (208458014172092995, 25), (464456761652499999, 25), (6216718685019140015, 26),
    (4934542625629055137, 29), (3845379069520942867, 29), (360650043058722683, 26),
    (3503621932310432489, 32), (48078368041875325, 27), (102153908633666349, 29),
    (271577675699994937, 29), (537812050812231455, 32), (4968482468521005867, 25),
    (1296401281152603653, 30), (63144306025247467, 29), (113227145386491361, 29),
    (4421402612637688847, 32), (79827456762193295, 32), (83175997071651799, 29),
    (2286055824892174825, 27), (95650371919, 45), (10605807533490612797, 30),
    (4347139270569672657, 26), (1308194044323802655, 28), (207459355850461463, 32),
    (178305630798102341, 30), (304462195497059311, 29), (986791470708816689, 32),
    (973979359197011131, 31), (565885473433729093, 31), (116783300051889603, 28),
    (123486758211769917, 29), (169581332110114235, 26), (186835606763486113, 27),
    (1177581121929127621, 25), (47381856959907347, 28), (120407960163713463, 30),
    (63709559, 56), (1920631412226107457, 28), (4804939140089034803, 28),
    (300137474993312171, 30), (123259721240908933, 31), (53893005148732985, 30),
    (957157817951638851, 31), (620210251402943049, 25), (454691529352005561, 29),
    (5809983768186612039, 29), (80452041554318851, 27), (60706752157869617, 30),
    (2697607959095569061, 30), (3592306198569532873, 31), (1874808175485355399, 25),
    (2819393708324535171, 30), (5584247120216360207, 32), (60248402617386569, 28),
    (1626118234847866731, 27), (502315205037014369, 32), (71057043323714679, 32),
    (6988621113971715875, 26), (862277634313846053, 28), (7064180894898531701, 26),
    (306829519377804031, 27), (215443465739105185, 29), (1390311819007773055, 27),
    (223992298781582973, 31), (697432767569991489, 29), (688460593845336295, 29),
    (1654223080642027967, 28), (847891188873591471, 31), (101103151368740569, 31),
    (694620001543436757, 25), (2858494271639372369, 28), (230965618048509903, 30),
    (209297387947264477, 29), (5765787017137674375, 28), (59521368438106359, 31),
    (4401729267346301665, 31), (3277767317167655023, 31), (57208815599659341, 27),
    (12511412393, 48), (58511322416544629, 28), (456723376171680739, 31),
    (453893267348011879, 27), (352986073438849107, 25), (51448961829277439, 28),
    (46174797001832975, 28), (310732152122090601, 26), (641596327227955507, 25),
    (1516221104253870959, 32), (382216792004270829, 29), (1102423317402290589, 25),
    (449736040616498779, 27), (249663417018170009, 32), (63422814304150455, 27),
    (4907379673772275375, 29), (116852379977509427, 26), (84435424101057403, 31),
    (881673673586609329, 29), (205158310421463027, 24), (69247821905297793, 30),
    (739003047147218133, 28), (109868695560762455, 28), (4053934868549075303, 26),
    (51626248287763615, 27), (1485513395525156979, 31), (103207468622169541, 29),
    (6213339443866970281, 27), (7088165485677093929, 28), (247372143856600321, 29),
    (242762336968029679, 27), (181542701079819919, 29), (1364882766895919659, 25),
    (1546349902017737085, 29), (4535813274066503887, 25), (67929849105376847, 28),
    (243656508128370959, 32), (274617319297068833, 32), (77609049791022009, 29),
    (409856272093101047, 32), (1172328817649886825, 25), (602091512281962593, 28),
    (8517782105649203561, 26), (586271098985941239, 32), (40737489899858973, 32),
    (44084228887031639, 28), (226189802594437209, 31), (3254916781449324257, 30),
    (120230166391454461, 29), (4767371919533437135, 29), (3773441612489885079, 25),
    (138241727749592563, 31), (16398285752160837659, 32), (6156466635772626191, 26),
    (437749011296298243, 31), (6577000386189288303, 26), (928527154516603737, 29),
    (3408443888478815467, 25), (1225375921353214091, 26), (3594833835327013953, 28),
    (230097649816902259, 27), (86873608413924833, 26), (5124736199294214947, 26),
    (102652548115578189, 28), (3157776487892988127, 29), (1579656894285697857, 30),
    (46580175256823041, 29), (3433674841650595719, 31), (1441461036357437063, 28),
    (1913842765360682371, 27), (111388455802201995, 26), (822926882637087593, 32),
    (241418095019288647, 29), (3136189529566446981, 27), (47857791449734831, 27),
    (5786722893980131609, 27), (265050633391678005, 26), (670480811062445369, 32),
    (527092972838762725, 29), (593758421596223319, 27), (1597670518537366835, 28),
    (3289366861597331977, 29), (416024621502995525, 30), (400702342220109267, 30),
    (123181906038273125, 26), (2701685060344039655, 26), (1993413570290867493, 26),
    (241768509304465401, 25), (60792280622503061, 30), (3931251081489806817, 25),
    (76947652520130811, 27), (222426791300183959, 27), (2917766815407022197, 26),
    (51634618954924739, 28), (1125927258573018499, 29), (689525666997837331, 27),
    (3851138465998335095, 32), (182496615043154861, 26), (452069484651046181, 30),
    (69240722316115771, 29), (192669875349804467, 28), (872773717336715807, 26),
    (67478300041143183, 27), (13822688378694450679, 27), (627874660105442691, 26),
    (3406362673019556821, 26), (39904612597636147, 29), (1797687882458228921, 26),
    (92455485427882967, 28), (1377890737247961941, 26), (61653707181192349, 27),
    (461402875122347027, 28), (2098815111880120131, 25), (122850124600795709, 32),
    (1214226201100602549, 27), (265860414121337487, 29), (968199359133475889, 28),
    (1936268725293916353, 32), (410599687274470375, 27), (5374109484729749271, 30),
    (1935901307909729395, 29), (38099201898557251, 29), (89577500162147061, 29),
    (4340942867782575719, 28), (280890162544652065, 25), (496314003793626709, 27),
    (59567144444264311, 31), (1097966165721697123, 27), (2861003584894342695, 27),
    (940768008382198267, 25), (5307430822004292835, 25), (7134108558346712361, 25),
    (117167706124989921, 31), (248365233145307365, 27), (69554714354244177, 28),
    (5422694600754085267, 29), (7598831045454082055, 32), (98439619086677387, 26),
    (2049305865186364735, 31), (471022617432368539, 29), (1602756732887408873, 30),
    (471819917302432161, 25), (807541436260651361, 30), (2700987563752560117, 26),
    (1886333741198410457, 28), (2920172713453010039, 28), (322690636549719949, 31),
    (107737781338004021, 26), (294802586784963139, 25), (479638418068028407, 25),
    (53765870173843237, 29), (7829661265606885067, 26), (5116009659752324815, 31),
    (285743593095615739, 29), (138907475008828361, 30), (141785246275555861, 29),
    (466124862816446713, 27), (5210603162958638219, 32), (8309277572487417677, 26),
    (3233676708405810929, 28), (1106478895312251189, 29), (615174793344708733, 27),
    (220350484426322229, 31), (211611751983486363, 27), (3113069507724238029, 25),
    (71832108941268529, 27), (2021189738289794127, 29), (317904925246357157, 30),
    (4991859068619246043, 27), (1866982078830499937, 28), (89400480386575479, 27),
    (375771705765825807, 32), (123153506055650781, 26), (395986850301300583, 27),
    (4358047584262281017, 28), (125851655228523309, 28), (67414641724622959, 29),
    (60480117661779295, 29), (370290609452012775, 28), (291788169732140757, 32),
    (1870398699309400231, 25), (126838399292035691, 26), (802331143862058767, 30),
    (1426420312717951005, 25), (203157290711178313, 27), (2521924521467821919, 28),
    (488536974309927095, 28), (50343224502038073, 27), (116520309042828295, 29),
    (5433003507227252657, 26), (3490682148291735943, 27), (7071264558404327109, 29),
    (3283395942007534675, 27), (116099916613824709, 27), (708500222481516617, 32),
    (58784328584724979, 27), (122347340821338191, 26), (250705585332036741, 27),
    (66233770353210913, 27), (143094396294194385, 31), (4617408123068089385, 28),
    (43472377266360625, 27), (107668950405828167, 26), (37872179330462253, 27),
    (306744616445024821, 25), (906580398140356691, 30), (1122664532592462601, 29),
    (77152413194506463, 30), (1014692525489612107, 29), (195795300901836705, 30),
    (184110614977869511, 25), (5435664716414410135, 25), (1864183677460651143, 27),
    (1789862801439275059, 25), (320109687772355711, 26), (2034146812014800003, 26),
    (2429696284267665583, 27), (9191490754851423395, 26), (1097597151629238879, 29),
    (4879172386610101553, 28), (43288536264359325, 28), (789647849525101865, 32),
    (433987960265686443, 26), (645600986356960135, 25), (4250611481916106659, 31),
    (5002184885304855271, 31), (59061973538148957, 32), (3800691741119586597, 32),
    (8534238136853472293, 28), (2071928665746839323, 27), (260771410400422735, 25),
    (268810176813799575, 27), (2221517951825701467, 29), (2994696915213261821, 30),
    (359054471636784689, 28), (2105105490666194213, 28), (832693802361460253, 32),
    (13639000118259585235, 25), (246733546032890539, 29), (155751880042942399, 29),
    (3569583134895465167, 26), (160308907458954619, 25), (221631680526192001, 31),
    (1019202507247218325, 25), (531353332656757969, 29), (2529849181417298057, 28),
    (1321981977771546931, 31), (326314571904333341, 26), (885084551052378755, 26),
    (896789159294007507, 29), (4585429068671144935, 27), (152579256922518395, 32),
    (1685161523966807395, 29), (62489642702431595, 32), (84061319545433219, 32),
    (983110510164990593, 26), (558472509578328895, 23), (47327342432175017, 28),
    (8994969734933389251, 25), (378247192195145703, 27), (205057168283201523, 30),
    (117721653080876129, 28), (858097110249561129, 27), (3077865539760248783, 28),
    (185438599635079071, 26), (904936926120115295, 28), (658929086960032551, 30),
    (5140291679061093331, 25), (81034620119577979, 29), (560515893429905079, 31),
    (1040882356335359855, 30), (7580368103610779953, 27), (3051408564783175187, 30),
    (2495305222547495395, 25), (2184016282656104797, 29), (718863691207422337, 29),
    (408624241016125267, 29), (252618458894823153, 30), (260312272781952065, 26),
    (5896368816830284773, 28), (2075165136194503451, 30), (58885681897682803, 31),
    (52870648145912839, 29), (37642373047205863, 27), (4518666515168266901, 26),
    (516077369266574367, 26), (225562267013628893, 30), (1980799808389643929, 27),
    (342903916154315951, 26), (7189991912489253543, 27), (2196154605544101189, 29),
    (134136998862347953, 31), (272771033091758653, 27), (356534318758597757, 26),
    (202007295596662225, 29), (746752591928344803, 27), (87130753081911489, 29),
    (4717493313682338501, 29), (8169500048237082953, 26), (506786289230573199, 29),
    (45773876200832901, 27), (1756852028211106187, 32), (46554195163289203, 31),
    (4565784062950825161, 29), (121085222565991167, 29), (10224523702282090651, 31),
    (83789532946218993, 30), (64025476755832637, 32), (309544701870549575, 28),
    (55537039849172007, 30), (199542793145237293, 31), (106542473532067185, 30),
    (4562574066405013571, 30), (202682273747498043, 30), (46178496380250319, 29),
    (3935743003848185347, 25), (79991944835179181, 26), (2090937217891030153, 31),
    (7381830854801440123, 27), (1194251909561880371, 26), (2692077016566782133, 30),
    (4927507738910972319, 32), (114186110100930181, 27), (1681936981258875019, 29),
    (1068376571068752377, 26),
)
HUNT_BIG_PLUS = (
    (3921028932213976825, 20), (67028937074671, 36), (1594379108707343003, 21),
    (1796346670083504015, 21),
)


class TestBoundOnTheRestOfK:
    """N = k*2**m + sign with F = 2**m times k's prime powers up to
    SIEVE_BOUND short of the cube bound: R = (N - sign)/F has no prime
    factor below lo = 1031, and one more gcd bounds every prime factor of
    N from below by F*lo - 1."""

    def test_the_hunt_tail_is_proved(self):
        assert len(HUNT_TAIL) == 42
        for k, m in HUNT_TAIL:
            n = k * 2**m - 1
            assert n >= arith.MR_DETERMINISTIC_BOUND and prime_naive(n), (k, m)
            f, qs, lo = arith._factored_part(k, m, -1)
            assert lo == 1031 and (f - 1) ** 3 <= n < (f * lo - 1) ** 3, (k, m)
            assert arith._proved_on_its_side(n, *arith._mr_decompose(n)), (k, m)

    def test_every_big_hunt_first_prime_is_proved(self, monkeypatch):
        assert len(HUNT_BIG_RIESEL) + len(HUNT_BIG_PLUS) == 410
        assert set(HUNT_TAIL) <= set(HUNT_BIG_RIESEL)

        def no_primality_test(n):
            raise AssertionError(f"_factored_part tested {n} for primality")

        with_the_bound = 0
        for sign, pairs in ((-1, HUNT_BIG_RIESEL), (1, HUNT_BIG_PLUS)):
            for k, m in pairs:
                n = (k << m) + sign
                assert n >= arith.MR_DETERMINISTIC_BOUND and (sign < 0 or k >> m), (k, m)
                # F comes from the sieve alone: no primality test, every q a
                # sieve prime.
                with monkeypatch.context() as patch:
                    patch.setattr(arith, "_miller_rabin", no_primality_test)
                    _, qs, lo = arith._factored_part(k, m, sign)
                assert set(qs) <= set(arith.SIEVE_PRIMES), (k, m, sign)
                with_the_bound += lo > 1
                assert arith._proved_on_its_side(n, *arith._mr_decompose(n)), (k, m, sign)
        assert with_the_bound == 62

    # (sign, F, a, b): N = (a*F + 1)*(b*F + sign) with a, b >= 1031 and
    # both factors prime, in the form with F and lo = 1031.  The first base
    # or start passes every check of the proof before the split.
    SEMIPRIMES = (
        (1, 3 * 2**15, 3923, 15692),
        (1, 3 * 2**19, 14153, 56612),
        (1, 3 * 2**23, 3373, 13492),
        (-1, 3 * 2**16, 7646, 3823),
        (-1, 3 * 2**18, 9094, 4547),
        (-1, 2**24, 105438, 17573),
        (-1, 2**25, 29814, 4969),
    )

    def test_the_split_carries_the_proof(self, monkeypatch):
        for sign, f, a, b in self.SEMIPRIMES:
            n = (a * f + 1) * (b * f + sign)
            k, m = _km(n, sign)
            assert arith._factored_part(k, m, sign)[::2] == (f, 1031), (sign, f)
            assert arith._two_factor_split(n, f, sign, 1031) == (a, b), (sign, f)
            assert not _proves(n, sign), (sign, f)
        monkeypatch.setattr(arith, "_two_factor_split", lambda n, f, sign, lo: None)
        for sign, f, a, b in self.SEMIPRIMES:
            assert _proves((a * f + 1) * (b * f + sign), sign), (sign, f)

    def test_the_split_finds_every_constructed_pair_and_no_proof_passes(self):
        rng = random.Random(41)
        lo = arith.SIEVE_NEXT_PRIME
        seen = {1: 0, -1: 0}
        for sign in (1, -1):
            for f in (1, 3, 35, 1155):
                for j in range(2, 40):
                    big_f = 2**j * f
                    for _ in range(20):
                        a = rng.randrange(lo, 4 * lo)
                        b = rng.randrange(lo, max(lo + 1, 3 * lo * big_f // (2 * a)))
                        n = (a * big_f + 1) * (b * big_f + sign)
                        part = arith._factored_part(*_km(n, sign), sign)
                        if part is None or part[::2] != (big_f, lo):
                            continue
                        a1, b1 = arith._two_factor_split(n, big_f, sign, lo)
                        assert a1 >= lo and b1 >= lo, (n, big_f)
                        assert (a1 * big_f + 1) * (b1 * big_f + sign) == n
                        assert not _proves(n, sign), (n, big_f)
                        seen[sign] += 1
        assert min(seen.values()) > 150, seen

    # (sign, F, a, b): N = (a*F + 1)*(b*F + sign) with a, b < 1031, in the
    # form with F and lo = 1031, and the order of 3 mod each prime factor
    # (of alpha for the start P = 3, with D = 5) exactly F.  Base 3 or start
    # 3 passes Euler's check or the Lucas check and every q's gcd, and no
    # split with a, b >= 1031 exists; only gcd(3**F - 1, N) or
    # gcd(V_F(3) - 2, N) shows that the order divides F.
    ORDER_F_COMPOSITES = (
        (1, 928, 6, 235),
        (1, 2154, 148, 373),
        (1, 2168, 71, 90),
        (1, 2778, 227, 606),
        (1, 4496, 65, 96),
        (1, 4722, 14, 765),
        (-1, 464, 2, 597),
        (-1, 1128, 136, 23),
        (-1, 1668, 6, 661),
        (-1, 4044, 110, 97),
        (-1, 4416, 130, 453),
        (-1, 5532, 74, 489),
    )

    def test_the_gcd_of_the_bound_carries_the_proof(self, monkeypatch):
        monkeypatch.setattr(arith, "_two_factor_split", lambda n, f, sign, lo: None)
        for sign, f, a, b in self.ORDER_F_COMPOSITES:
            n = (a * f + 1) * (b * f + sign)
            k, m = _km(n, sign)
            big_f, qs, lo = arith._factored_part(k, m, sign)
            assert (big_f, lo) == (f, 1031), (sign, f)
            if sign > 0:
                assert arith.jacobi(3, n) == -1 and pow(3, n >> 1, n) == n - 1
                assert all(math.gcd(pow(3, (n - 1) // q, n) - 1, n) == 1 for q in qs)
                assert pow(3, f, n) == 1
            else:
                assert arith.jacobi(5, n) == -1 and lucas_v_by_matrix(3, (n + 1) // 4, n) == 0
                assert all(
                    math.gcd(lucas_v_by_matrix(3, (n + 1) // q, n) - 2, n) == 1 for q in qs
                )
                assert lucas_v_by_matrix(3, f, n) == 2
            assert not _proves(n, sign), (sign, f)

    def test_no_composite_below_2_to_the_26_in_this_form_is_proved(self):
        # Every N in the form has F = 2**m times all of k's prime powers up
        # to SIEVE_BOUND and R coprime to SIEVE_PRODUCT; its t range holds
        # more than lo/(F + 1) integers, so F > lo/3 - 1, and (F - 1)**3 <= N.
        # The least such N is above 2**25.
        lo, bound = arith.SIEVE_NEXT_PRIME, 2**26
        seen = proved = 0
        for sign in (1, -1):
            for f in range(lo // 3 - 1, bound, 2):
                if (f - 1) ** 3 >= bound:
                    break
                m = (f & -f).bit_length() - 1
                if sign < 0 and m < 2:
                    continue
                r_min = max(lo, ((f - 1) ** 3 - sign) // f) | 1
                for r in range(r_min, (bound - sign) // f + 1, 2):
                    if math.gcd(r, arith.SIEVE_PRODUCT) != 1:
                        continue
                    n, k = f * r + sign, (f >> m) * r
                    part = arith._factored_part(k, m, sign)
                    if part is None or part[2] == 1:
                        continue
                    assert part[0] == f
                    prime = _proves(n, sign)
                    assert prime == prime_naive(n), (k, m, sign)
                    seen += 1
                    proved += prime
        assert seen > 25000 and proved > 2500


class TestProth:
    def test_prime_with_recheckable_witness(self):
        for k, m in ((143, 53), (47, 583)):
            result = arith.proth_test(k, m)
            n = k * 2**m + 1
            assert result.is_prime and result.method == arith.METHOD_PROTH
            assert result.n == n
            # the whole claim re-verifies from the result alone
            assert arith.jacobi(result.witness, n) == -1
            assert pow(result.witness, (n - 1) // 2, n) == n - 1

    def test_composite(self):
        result = arith.proth_test(7, 5)  # 225 = 15^2
        assert not result.is_prime

    def test_perfect_square_falls_back(self):
        # N = 3*2^3 + 1 = 25: no base has Jacobi -1, gcd branch catches 5
        result = arith.proth_test(3, 3)
        assert not result.is_prime

    def test_small_fermat_numbers(self):
        for m, expected in ((1, True), (2, True), (4, True), (5, False)):
            n = 2**(2**m) + 1
            assert arith.proth_test(1, 2**m).is_prime == expected, n

    def test_form_violations_rejected(self):
        with pytest.raises(ValueError):
            arith.proth_test(4, 10)
        with pytest.raises(ValueError):
            arith.proth_test(17, 4)  # 2^4 = 16 <= 17

    def test_a_prime_square_with_no_small_factor_falls_back(self):
        # N = 65537**2 = 32769*2**17 + 1: every a coprime to N has
        # jacobi(a, N) = jacobi(a, 65537)**2 = 1, and no candidate shares a
        # factor with it, so the N-1 proof is undecided and Miller-Rabin
        # decides.
        k, m = 32769, 17
        n = k * 2**m + 1
        assert n == 65537**2 and 2**m > k
        assert arith._nminus1_proof(k, m, 2**m, (), 1) is None
        assert arith.proth_test(k, m) == arith.PrimalityResult(
            n, arith.METHOD_MR_DETERMINISTIC, False
        )

    def test_a_composite_record_names_a_base_that_shows_it(self):
        # The base of a METHOD_PROTH composite shares a factor with N, or
        # is a non-residue that fails Euler's criterion: either proves N
        # composite from the result alone.
        rng = random.Random(39)
        seen = 0
        while seen < 200:
            m = rng.randrange(10, 100)
            k = rng.randrange(1, 2**m, 2)
            n = k * 2**m + 1
            if prime_naive(n):
                continue
            result = arith.proth_test(k, m)
            assert not result.is_prime and result.method == arith.METHOD_PROTH, (k, m)
            a = result.witness
            assert 1 < math.gcd(a, n) < n or (
                arith.jacobi(a, n) == -1 and pow(a, n >> 1, n) != n - 1
            ), (k, m)
            seen += 1


class TestSmallFactor:
    def test_sieve_primes_are_the_odd_primes_to_the_bound(self):
        expected = tuple(p for p in range(3, arith.SIEVE_BOUND + 1) if trial_division_prime(p))
        assert arith.SIEVE_PRIMES == expected
        assert arith.SIEVE_PRODUCT == math.prod(expected)

    def test_least_small_prime_below_n(self):
        for n in range(20000):
            odd = [p for p in factorize_naive(n) if p % 2 == 1]
            p = min(odd, default=0)
            expected = p if p <= arith.SIEVE_BOUND and p < n else 0
            assert arith.small_factor(n) == expected, n

    def test_bignum_terms(self):
        assert arith.small_factor(78557 * 2**1000 + 1) == 3
        n = 1021 * 1031 * (2**89 - 1)  # least factor the largest sieve prime
        assert arith.small_factor(n) == 1021
        assert arith.small_factor(1031 * (2**89 - 1)) == 0  # 1031 > SIEVE_BOUND

    def test_split_of_the_product(self):
        low, high = arith.SIEVE_PRODUCT_LOW, arith.SIEVE_PRODUCT_HIGH
        assert low * high == arith.SIEVE_PRODUCT and math.gcd(low, high) == 1
        assert max(factorize_naive(low)) == arith.SIEVE_SPLIT < min(factorize_naive(high))

    def test_least_factor_across_the_split(self):
        split = arith.SIEVE_SPLIT
        above = min(p for p in arith.SIEVE_PRIMES if p > split)
        cases = [
            (61 * 67, 61), (67 * 1021, 67), (61, 0), (67, 0),
            (split * above, split), (above * 1021, above), (split, 0), (above, 0),
            (3 * above, 3), (above * (2**89 - 1), above),
        ]
        for n, expected in cases:
            assert arith.small_factor(n) == expected, n


def _is_prime_u64_reference(n):
    """Deterministic Miller-Rabin for 0 <= n < 2**64 with the first twelve
    prime bases, as is_prime once ran it below 2**64."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for a in bases:
        if n == a:
            return True
        if n % a == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _nonproth_reference(n):
    """_miller_rabin's records by plain Miller-Rabin, with no sieve, row or
    proof: the first twelve prime bases below 2**64, the first thirteen
    up to psi_13, then the seeded rounds in a loop of their own.  Kept as
    the reference for _miller_rabin's one base loop, which is is_prime
    without the Proth branch and proth_test's fallback."""
    if n < 2:
        return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, False)
    if n == 2:
        return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, True)
    if n % 2 == 0:
        return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, False, witness=2)
    if n < 2**64:
        return arith.PrimalityResult(
            n, arith.METHOD_MR_DETERMINISTIC, _is_prime_u64_reference(n)
        )
    d, s = arith._mr_decompose(n)
    if n < arith.MR_DETERMINISTIC_BOUND:
        for a in arith.MR_DETERMINISTIC_BASES:
            if n == a:
                return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, True)
            if n % a == 0 or arith._mr_composite(n, a, d, s):
                return arith.PrimalityResult(
                    n, arith.METHOD_MR_DETERMINISTIC, False, witness=a
                )
        return arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, True)
    rng = random.Random(n)
    rounds = arith.MR_PROBABILISTIC_ROUNDS
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if arith._mr_composite(n, a, d, s):
            return arith.PrimalityResult(
                n, arith.METHOD_MR_PROBABILISTIC, False, witness=a, rounds=rounds
            )
    return arith.PrimalityResult(n, arith.METHOD_MR_PROBABILISTIC, True, rounds=rounds)


class TestDispatcher:
    def test_same_results_as_the_old_branch(self):
        rng = random.Random(17)
        ns = list(range(0, 2000))
        ns += list(range(2**64 - 300, 2**64 + 300))
        # a <= 41, so these multiples stay below the deterministic bound
        ns += [a * rng.randrange(2**64, 2**75) for a in arith.MR_DETERMINISTIC_BASES]
        ns += [rng.randrange(2**64, arith.MR_DETERMINISTIC_BOUND) for _ in range(300)]
        ns += [rng.randrange(2**82, 2**100) for _ in range(100)]
        ns += [2**89 - 1, 2**67 - 1, 2**61 - 1]
        ns += [rng.randrange(2**63, 2**64) for _ in range(1000)]
        # After the draws above, so that none of them changes: each tier
        # edge, each row bound and the sieve square.
        edges = {*arith._PSI, *(bound for bound, _ in arith._MR_ROWS), arith.SIEVE_SQUARE}
        ns += [n for edge in sorted(edges) for n in range(edge - 300, edge + 301)]
        assert any(_nonproth_reference(n).is_prime for n in ns if n > 2**64)
        for n in ns:
            assert arith._miller_rabin(n) == _nonproth_reference(n), n
            if n < arith.MR_DETERMINISTIC_BOUND:
                assert arith.is_prime(n) == _nonproth_reference(n), n

    def test_proth_fallback_on_a_square(self):
        # 65537**2 = 32769*2**17 + 1 is Proth-form, but a square has no
        # Jacobi -1 base, so the candidate scan gives up and falls back.
        n = 65537**2
        assert n == 32769 * 2**17 + 1
        candidates = range(3, 3 + 2 * arith.PROTH_CANDIDATE_LIMIT, 2)
        assert all(arith.jacobi(a, n) != -1 for a in candidates)
        expected = arith.PrimalityResult(n, arith.METHOD_MR_DETERMINISTIC, False)
        assert arith.proth_test(32769, 17) == expected == _nonproth_reference(n)


# The ranges is_prime decides by one rule each: the sieve up to SIEVE_BOUND,
# the gcd below SIEVE_SQUARE, then one row of _MR_ROWS each.
_ROW_EDGES = (0, arith.SIEVE_BOUND + 1, arith.SIEVE_SQUARE, *(b for b, _ in arith._MR_ROWS))
ROW_RANGES = tuple(zip(_ROW_EDGES, (edge - 1 for edge in _ROW_EDGES[1:])))


@FUZZ_400
@given(st.sampled_from(ROW_RANGES).flatmap(lambda r: st.integers(*r)))
def test_is_prime_agrees_with_the_oracle_in_each_row(n):
    assert arith.is_prime(n).is_prime == prime_naive(n), n


@FUZZ_200
@given(st.integers(1025, 2**32).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(1025, 2**62 // x))
))
def test_products_of_two_primes_above_1024_are_refused(xy):
    # The least primes p >= x and q >= y are below 2x and 2y (Bertrand's
    # postulate), so p * q < 4xy <= 2**64, and the sieve finds no factor.
    p, q = map(next_prime_naive, xy)
    n = p * q
    assert n < 2**64
    assert (arith.is_prime(n).is_prime, prime_naive(n)) == (False, False), (p, q)


def test_order_exists_iff_coprime_property():
    # ord_d(2) exists for every odd d, and an offset needs k to be a unit
    # mod d: gcd(k, d) divides k*2**c, so it divides the sign too.
    rng = random.Random(42)
    for _ in range(200):
        d = rng.randrange(3, 3000) | 1
        k = rng.randrange(2, 10**6)
        sign = rng.choice((1, -1))
        b, c = arith.order_and_offset(k, sign, d, MAX_LCM)
        assert b == order_naive(2, d)
        if math.gcd(k, d) != 1:
            assert c is None
        else:
            assert c == offset_naive(k, sign, d, b)
