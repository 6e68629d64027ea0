"""Exact integer arithmetic for the verification engine.

Period and offset of a divisor (one lookup in a discrete-log table for
d <= SIEVE_BOUND, one bounded discrete-log walk above it), and primality
testing with checkable evidence.  Everything is pure Python, exact, and
float-free.
"""

import math
import random
from dataclasses import dataclass

METHOD_PROTH = "proth"
METHOD_MR_DETERMINISTIC = "miller-rabin-deterministic"
METHOD_MR_PROBABILISTIC = "miller-rabin-probabilistic"
METHOD_SIEVE = "sieve"

# Deterministic Miller-Rabin: _PSI[t-1] is psi_t, the least strong
# pseudoprime to all of the first t prime bases (Jaeschke 1993; Sorenson and
# Webster 2015 for psi_12 and psi_13), so below psi_t those t bases decide n.
# That is the rule a deterministic result is re-checked by (PrimalityResult);
# is_prime reaches the same verdicts with fewer exponentiations, from the
# sieve and _MR_ROWS.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
MR_DETERMINISTIC_BOUND = _PSI[-1]
MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, bases) in increasing bound: the bases decide every n below the
# bound, and is_prime runs those of the first row above n.  Each bound below
# 2**64 is a strong pseudoprime to all of its row's bases.  The first four
# rows are Jaeschke's (1993), the next two psi_5 and psi_6; below 2**64,
# Sinclair's seven bases, checked against Feitsma's list of base-2 strong
# pseudoprimes below 2**64.  Above 2**64 the rows are psi_12 and psi_13 with
# the re-check rule's bases in its order, so the composite witness written
# there, the first base that shows n composite, is the one the rule finds.
# Every base is below every n its row meets, and one that shares a factor
# with n shows n composite: no power of it is 1 or -1 mod n.
_MR_ROWS = (
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (_PSI[4], MR_DETERMINISTIC_BASES[:5]),
    (_PSI[5], MR_DETERMINISTIC_BASES[:6]),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (_PSI[11], MR_DETERMINISTIC_BASES[:12]),
    (_PSI[12], MR_DETERMINISTIC_BASES),
)

MR_PROBABILISTIC_ROUNDS = 40

# The bound of the sieve and of the discrete-log tables.  A first-prime scan
# crosses out every term with an odd prime factor up to it before any
# primality test.  Measured at 128..16384 (CHANGES.md) under a single gcd
# with the whole product per term: above 1024 that gcd costs short scans
# more than the tests it saves; below it, long scans of large terms test
# more survivors.  Not measured again under the split below, which runs the
# long gcd on a quarter of the terms.
# order_and_offset keeps one table of ord_d(2) entries for each odd d up to
# the bound it meets: 84,166 entries (about 5 MB) when it has met all 511.
# The bound also fixes SIEVE_SQUARE, below which is_prime decides n by the
# sieve alone.
SIEVE_BOUND = 1024

# How many candidates proth_test (bases, hunting for a quadratic
# non-residue) and llr_test (starts P) examine before giving up: proth_test
# then falls back to Miller-Rabin, and llr_test proves nothing.
PROTH_CANDIDATE_LIMIT = 1000


@dataclass(frozen=True)
class PrimalityResult:
    """Outcome of one primality test, with enough data to re-check it.

    n is the integer that was tested.  method names the rule that re-checks
    the claim, not the exponentiations that generation ran.  For the Proth
    method, witness is the base a with jacobi(a, n) = -1; n is prime iff
    a**((n-1)/2) == -1 (mod n), so the claim re-verifies from this record
    alone.  For Miller-Rabin, witness is the base that certified
    compositeness (0 when none is singled out, as below 2**64); a
    deterministic result re-verifies by running the first t bases of
    MR_DETERMINISTIC_BASES, for the least t with n below psi_t, the t-th
    entry of _PSI, although is_prime may have decided n by the sieve, by
    a shorter base set of _MR_ROWS, or, for a prime n = k*2**m - 1 with
    2**m > k, by one base and one llr_test run; the record is the same
    either way.  For the sieve method, witness is a prime
    p <= SIEVE_BOUND with p | n and p < n, so n is composite by one
    reduction.  rounds is nonzero only for the probabilistic method.
    """

    n: int
    method: str
    is_prime: bool
    witness: int = 0
    rounds: int = 0


# _LOG_TABLES[d] = {2**j mod d: j for 0 <= j < ord_d(2)}, for odd
# d <= SIEVE_BOUND, each built on first use.
_LOG_TABLES = {}


def _log_table(d):
    table, y = {1: 0}, 2
    while y != 1:
        table[y] = len(table)
        y = 2 * y % d
    _LOG_TABLES[d] = table
    return table


def order_and_offset(k: int, sign: int, d: int, bound: int) -> tuple[int, int | None] | None:
    """(b, c) for odd d >= 3, or None when b > bound.

    b is ord_d(2) and c the least c in 0..b-1 with d | k*2**c + sign, or
    None when there is no such c.

    For d <= SIEVE_BOUND both come from d's discrete-log table, the powers
    of 2 mod d: b is its size, and k*2**c == -sign (mod d) exactly when
    -sign*k == 2**-c, so c = -j mod b for the j with 2**j == -sign*k.
    Every power of 2 is a unit mod d, so when gcd(k, d) > 1 (k == 0 mod d
    included) -sign*k is no entry and there is no c.

    Above the bound, one baby-step giant-step walk (Shanks 1971) of
    y = k*2**j mod d decides both in at most about 2*sqrt(bound) steps,
    with no factoring: when y returns to k mod d within the isqrt(bound) + 1
    baby steps, that step is b and c is the index of -sign mod d in the
    walk; otherwise every baby step is distinct, and giant steps of 2**-m
    from k and from -sign meet them at b and at c.  When gcd(k, d) > 1 no
    term is divisible by d, and the walk runs over 2**j from 1 with a
    target, d, that no residue equals.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be odd and >= 3, got {d}")
    if d <= SIEVE_BOUND:
        table = _LOG_TABLES.get(d) or _log_table(d)
        b = len(table)
        if b > bound:
            return None
        j = table.get(-sign * k % d)
        return b, None if j is None else -j % b
    start, target = k % d, -sign % d
    if math.gcd(start, d) != 1:
        start, target = 1, d
    m = math.isqrt(bound) + 1
    walk = []  # walk[j] = start*2**j mod d
    y = start
    for b in range(1, m + 1):
        walk.append(y)
        y = 2 * y % d
        if y == start:
            if b > bound:
                return None
            return b, walk.index(target) if target in walk else None
    # The order is above m, so the m baby steps are distinct residues.
    baby = {y: j for j, y in enumerate(walk)}
    c = baby.get(target)
    giant = pow(2, -m, d)
    x, t = start, target
    for i in range(1, bound // m + 1):
        if c is None:
            t = t * giant % d
            j = baby.get(t)
            if j is not None:
                c = i * m + j
        x = x * giant % d
        j = baby.get(x)
        if j is not None:
            b = i * m + j
            return (b, c) if b <= bound else None
    return None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _mr_decompose(n):
    # n - 1 = d * 2**s with d odd; (n - 1) & (1 - n) is the lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return (n - 1) >> s, s


def _mr_composite(n, a, d, s):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _odd_primes_upto(bound):
    # Eratosthenes: a fraction of a millisecond at import, where trial
    # division of every odd number takes about ten times as long.
    is_p = bytearray([1]) * (bound + 1)
    for p in range(3, math.isqrt(bound) + 1, 2):
        if is_p[p]:
            is_p[p * p :: 2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))
    return tuple(p for p in range(3, bound + 1, 2) if is_p[p])


SIEVE_PRIMES = _odd_primes_upto(SIEVE_BOUND)
SIEVE_PRODUCT = math.prod(SIEVE_PRIMES)
# SIEVE_PRODUCT split in two at SIEVE_SPLIT.  The low half, 3*5*...*23, fits
# one 30-bit CPython digit, so a gcd with it costs one single-digit division
# of n; it finds a factor in three of four scanned terms, and the gcd with the
# 1392-bit high half runs only for the rest.  Both gcds over the terms one
# survey and one hunt pass scan cost, in ns a term (survey/hunt): split at
# 19..23, 350/570; at 31..47, 360/620; at 53..61, 390/690 (CHANGES.md).
SIEVE_SPLIT = 23
SIEVE_PRODUCT_LOW = math.prod(p for p in SIEVE_PRIMES if p <= SIEVE_SPLIT)
SIEVE_PRODUCT_HIGH = SIEVE_PRODUCT // SIEVE_PRODUCT_LOW
_SIEVE_PRIME_SET = frozenset((2, *SIEVE_PRIMES))
# The square of the least prime above SIEVE_BOUND, 1031**2: a composite
# below it has a prime factor up to the bound, so an odd n from SIEVE_BOUND
# up to it is prime exactly when gcd(n, SIEVE_PRODUCT) == 1.
SIEVE_SQUARE = next(p for p in _odd_primes_upto(2 * SIEVE_BOUND) if p > SIEVE_BOUND) ** 2


def small_factor(n: int) -> int:
    """Least odd prime p <= SIEVE_BOUND with p | n and p < n, else 0.

    A nonzero result proves n composite; 0 decides nothing.  A gcd with
    SIEVE_PRODUCT_LOW, then with SIEVE_PRODUCT_HIGH only when the first is
    1, finds whether any such p exists; every prime of the low half is
    below every prime of the high half, so the least p divides the first
    gcd above 1.
    """
    g = math.gcd(n, SIEVE_PRODUCT_LOW)
    if g == 1:
        g = math.gcd(n, SIEVE_PRODUCT_HIGH)
        if g == 1:
            return 0
    for p in SIEVE_PRIMES:
        if g % p == 0:
            return p if p < n else 0
    return 0


def proth_test(k: int, m: int) -> PrimalityResult:
    """Decisive primality test for N = k*2**m + 1 with 2**m > k, k odd.

    Scans a = 3, 5, 7, ... for a base with jacobi(a, N) = -1.  For prime N
    Euler's criterion forces a**((N-1)/2) == -1 at such a base, and with
    2**m > k the converse holds too, so the first non-residue decides N
    either way with one exponentiation.  When no non-residue turns up
    within PROTH_CANDIDATE_LIMIT candidates (N a perfect square, say),
    falls back to Miller-Rabin.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and positive, got {k}")
    if m < 1 or (1 << m) <= k:
        raise ValueError(f"Proth form needs 2**m > k, got k={k}, m={m}")
    n = k * (1 << m) + 1
    half = (n - 1) // 2
    a = 3
    for _ in range(PROTH_CANDIDATE_LIMIT):
        j = jacobi(a, n)
        if j == 0:
            g = math.gcd(a, n)
            if 1 < g < n:
                # a supplies a proper factor
                return PrimalityResult(n, METHOD_PROTH, False, witness=a)
        elif j == -1:
            if pow(a, half, n) == n - 1:
                return PrimalityResult(n, METHOD_PROTH, True, witness=a)
            return PrimalityResult(n, METHOD_PROTH, False, witness=a)
        a += 2
    # No non-residue among the candidates (n a perfect square, say).
    return _miller_rabin(n)


def llr_test(k: int, m: int) -> int:
    """Lucas-Lehmer-Riesel proof that N = k*2**m - 1 is prime, for k odd,
    2**m > k and m >= 2: the start P that proves it, or 0 for no proof.

    Takes the least P >= 3, among PROTH_CANDIDATE_LIMIT candidates, with
    jacobi(P-2, N) = 1 and jacobi(P+2, N) = -1 (Rodseth 1994), computes
    u = V_k(P) by the Lucas ladder (V_{2j} = V_j**2 - 2, V_{2j+1} =
    V_j*V_{j+1} - P), then u = u**2 - 2 for m - 2 steps, which leaves
    V_{(N+1)/4}(P) mod N (Riesel 1969).  For prime N that start makes u
    end at 0.  No P found, a Jacobi symbol of 0 or a nonzero u decide
    nothing, and 0 is returned.

    u ending at 0 proves N prime for any P.  Let alpha be a root of
    x**2 - P*x + 1, so V_j = alpha**j + alpha**-j.  For a prime q | N,
    V_{(N+1)/4} == 0 (mod q) gives alpha**((N+1)/2) == -1, so alpha is no
    +-1 (m >= 2), q does not divide P**2 - 4, and the order of alpha,
    which divides N + 1 = k*2**m but not (N+1)/2, is a multiple of 2**m.
    That order divides q - 1 or q + 1, so q == +-1 (mod 2**m) and
    q >= 2**m - 1.  A composite N would be a product of at least two
    such q.  If one is 2**m - 1, the cofactor N/q == 1 (mod 2**m), as
    N == q == -1, so it is at least 2**m + 1 and N >= 2**(2m) - 1;
    otherwise N >= (2**m + 1)**2.  Both exceed N = k*2**m - 1 <
    2**(2m) - 1.  So a wrong start can only cost time, never a verdict.
    Stdlib only, with plain %.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and positive, got {k}")
    if m < 2 or (1 << m) <= k:
        raise ValueError(f"Riesel form needs m >= 2 and 2**m > k, got k={k}, m={m}")
    n = (k << m) - 1
    for p in range(3, 3 + PROTH_CANDIDATE_LIMIT):
        j = jacobi(p - 2, n)
        if j == 1:
            j = jacobi(p + 2, n)
            if j == -1:
                break
        if j == 0:
            return 0
    else:
        return 0
    # x, y = V_j, V_{j+1} for j the leading bits of k read so far
    x, y = p % n, (p * p - 2) % n
    for bit in bin(k)[3:]:
        if bit == "1":
            x, y = (x * y - p) % n, (y * y - 2) % n
        else:
            x, y = (x * x - 2) % n, (x * y - p) % n
    for _ in range(m - 2):
        x = (x * x - 2) % n
    return p if x == 0 else 0


def is_prime(n: int) -> PrimalityResult:
    """Primality of n with the method recorded in the result.

    Deterministic below MR_DETERMINISTIC_BOUND (the sieve below
    SIEVE_SQUARE, above it Miller-Rabin with the bases of n's row of
    _MR_ROWS, where one llr_test run after the first base proves a prime
    n = k*2**m - 1 with 2**m > k); a decisive Proth test for
    n = k*2**m + 1 with 2**m > k; otherwise MR_PROBABILISTIC_ROUNDS rounds
    of Miller-Rabin, flagged probabilistic.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= MR_DETERMINISTIC_BOUND:
        k, m = _mr_decompose(n)  # n = k*2**m + 1 with k odd
        if (1 << m) > k:
            return proth_test(k, m)
    return _miller_rabin(n)


def _miller_rabin(n):
    """is_prime without the Proth branch, which proth_test falls back to.

    An odd n up to SIEVE_BOUND is read from the sieve, one below
    SIEVE_SQUARE is prime iff coprime to SIEVE_PRODUCT, and one below
    MR_DETERMINISTIC_BOUND is decided by the bases of the first row of
    _MR_ROWS above it.  There, when n + 1 = k*2**m with k odd and
    2**m > k and the row's first base does not show n composite, one
    llr_test run follows: a proof of primality skips the other bases, and
    no proof lets them all run, so the record is the bases' in either case,
    a composite at or above 2**64 keeping the first base that shows it as
    its witness.  Repeated probabilistic runs report identically: their
    bases come from an n-seeded generator.
    """
    if n > 2 and n % 2 == 0:
        return PrimalityResult(n, METHOD_MR_DETERMINISTIC, False, witness=2)
    if n <= SIEVE_BOUND:
        return PrimalityResult(n, METHOD_MR_DETERMINISTIC, n in _SIEVE_PRIME_SET)
    if n < SIEVE_SQUARE:
        return PrimalityResult(n, METHOD_MR_DETERMINISTIC, math.gcd(n, SIEVE_PRODUCT) == 1)
    d, s = _mr_decompose(n)
    if n < MR_DETERMINISTIC_BOUND:
        for bound, bases in _MR_ROWS:
            if n < bound:
                break
        # n + 1 = k*2**m with k odd; Riesel form when 2**m > k
        m = ((n + 1) & ~n).bit_length() - 1
        k = (n + 1) >> m
        riesel = k >> m == 0
        for a in bases:
            if _mr_composite(n, a, d, s):
                # A composite below 2**64 is reported with witness 0.
                witness = a if n >> 64 else 0
                return PrimalityResult(n, METHOD_MR_DETERMINISTIC, False, witness=witness)
            if riesel:
                # after the first base only: a proof skips the rest
                if llr_test(k, m):
                    break
                riesel = False
        return PrimalityResult(n, METHOD_MR_DETERMINISTIC, True)
    rng = random.Random(n)
    for _ in range(MR_PROBABILISTIC_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_composite(n, a, d, s):
            return PrimalityResult(
                n, METHOD_MR_PROBABILISTIC, False, witness=a, rounds=MR_PROBABILISTIC_ROUNDS
            )
    return PrimalityResult(n, METHOD_MR_PROBABILISTIC, True, rounds=MR_PROBABILISTIC_ROUNDS)
