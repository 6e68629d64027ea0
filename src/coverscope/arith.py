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

# How many candidates the N-1 proof (bases, hunting for a quadratic
# non-residue) and the N+1 proof (starts P) examine before giving up:
# proth_test then falls back to Miller-Rabin, and the trigger proves
# nothing.
PROTH_CANDIDATE_LIMIT = 1000


@dataclass(frozen=True)
class PrimalityResult:
    """Outcome of one primality test, with enough data to re-check it.

    n is the integer that was tested.  method names the rule that re-checks
    the claim, not the exponentiations that generation ran.  The Proth
    method is the N-1 proof with F = 2**m for n = k*2**m + 1, 2**m > k:
    witness is the base a with jacobi(a, n) = -1, and n is prime iff
    a**((n-1)/2) == -1 (mod n), or, for a composite, a base with
    1 < gcd(a, n) < n, so the claim re-verifies from this record alone.
    For Miller-Rabin, witness is the base that certified compositeness (0
    when none is singled out, as below 2**64); a deterministic result
    re-verifies by running the first t bases of
    MR_DETERMINISTIC_BASES, for the least t with n below psi_t, the t-th
    entry of _PSI, although is_prime may have decided n by the sieve, by
    a shorter base set of _MR_ROWS, or, for a prime in form on its side,
    by one base and one N-1 or N+1 proof (_nminus1_proof, _nplus1_proof);
    the record is the same either way.  A probabilistic prime has witness
    0 and rounds MR_PROBABILISTIC_ROUNDS, also when is_prime proved it by
    one round and one such proof: the record states no more than the
    rounds would, and a checker that relabels such a verdict decisive must
    re-run the proof.
    For the sieve method, witness is a prime p <= SIEVE_BOUND with p | n
    and p < n, so n is composite by one reduction.  rounds is nonzero only
    for the probabilistic method.
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
# The least prime above SIEVE_BOUND, 1031: a number with every prime factor
# up to the bound divided out has none below it.
SIEVE_NEXT_PRIME = next(p for p in _odd_primes_upto(2 * SIEVE_BOUND) if p > SIEVE_BOUND)
# Its square, 1031**2: a composite below it has a prime factor up to the
# bound, so an odd n from SIEVE_BOUND up to it is prime exactly when
# gcd(n, SIEVE_PRODUCT) == 1.
SIEVE_SQUARE = SIEVE_NEXT_PRIME**2


def small_factor(n: int) -> int:
    """Least odd prime p <= SIEVE_BOUND with p | n and p < n, else 0.

    A nonzero result proves n composite; 0 decides nothing.  One gcd with
    SIEVE_PRODUCT finds whether any such p exists.
    """
    g = math.gcd(n, SIEVE_PRODUCT)
    for p in SIEVE_PRIMES:
        if g % p == 0:
            return p if p < n else 0
    return 0


def proth_test(k: int, m: int) -> PrimalityResult:
    """Decisive primality test for N = k*2**m + 1 with 2**m > k, k odd.

    The N-1 proof (_nminus1_proof) with F = 2**m and no odd q: the first
    base a = 3, 5, 7, ... with jacobi(a, N) = -1 decides N either way
    with one exponentiation, as Euler's criterion makes a**((N-1)/2) == -1 for prime N and, with
    2**m > k, Proth's theorem proves N prime from it.  A base with
    1 < gcd(a, N) < N shows N composite first.  When no non-residue turns
    up within PROTH_CANDIDATE_LIMIT candidates (N a perfect square, say),
    falls back to Miller-Rabin.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and positive, got {k}")
    if m < 1 or (1 << m) <= k:
        raise ValueError(f"Proth form needs 2**m > k, got k={k}, m={m}")
    return _nminus1_proof(k, m, 1 << m, (), 1) or _miller_rabin((k << m) + 1)


def _lucas_v(p, j, n):
    # V_j(p) mod n for j >= 1 by the Lucas ladder: x, y = V_i, V_{i+1} for
    # i the leading bits of j read so far (V_{2i} = V_i**2 - 2,
    # V_{2i+1} = V_i*V_{i+1} - p).
    x, y = p % n, (p * p - 2) % n
    for bit in bin(j)[3:]:
        if bit == "1":
            x, y = (x * y - p) % n, (y * y - 2) % n
        else:
            x, y = (x * x - 2) % n, (x * y - p) % n
    return x


def _rodseth_starts(n):
    # Each P >= 3 among PROTH_CANDIDATE_LIMIT candidates with
    # jacobi(P-2, n) = 1 and jacobi(P+2, n) = -1 (Rodseth 1994), in order,
    # up to the first Jacobi symbol of 0.
    for p in range(3, 3 + PROTH_CANDIDATE_LIMIT):
        j = jacobi(p - 2, n)
        if j == 1:
            j = jacobi(p + 2, n)
            if j == -1:
                yield p
        if j == 0:
            return


def _factored_part(k, m, sign):
    """(F, qs, lo) for N = k*2**m + sign, or None when N is out of form on
    its side: no F reaches a bound.  The proofs show every prime factor of
    a composite N at least F*lo - 1.

    F = 2**m * q**e over the odd primes q in qs, each q <= SIEVE_BOUND with
    q**e the full power of q in k, taken largest q**e first until
    (F - 1)**3 > N, with lo = 1.  With 2**m > k, F = 2**m already does,
    and qs is empty.  When every such q falls short, R = (N - sign)/F,
    what is left of k, has no prime factor below lo = SIEVE_NEXT_PRIME: N
    is in form with that lo when R > 1, (F*lo - 1)**3 > N and the range of
    t = a*b that _two_factor_split searches holds at most three integers.
    F comes from k and m alone, with no primality test: every q in qs is
    in SIEVE_PRIMES.
    """
    n = (k << m) + sign
    f = 1 << m
    if (f - 1) ** 3 > n:
        return f, (), 1
    # g is squarefree: once q*q > g, what is left of it is 1 or a prime.
    g = math.gcd(k, SIEVE_PRODUCT)
    primes = []
    for q in SIEVE_PRIMES:
        if q * q > g:
            break
        if g % q == 0:
            g //= q
            primes.append(q)
    if g > 1:
        primes.append(g)
    powers = []
    for q in primes:
        e = q
        while k % (e * q) == 0:
            e *= q
        powers.append((e, q))
    qs = []
    for e, q in sorted(powers, reverse=True):
        f *= e
        qs.append(q)
        if (f - 1) ** 3 > n:
            return f, tuple(qs), 1
    lo = SIEVE_NEXT_PRIME
    if f < n - sign and (f * lo - 1) ** 3 > n and len(_split_range(n, f, sign, lo)) <= 3:
        return f, tuple(qs), lo
    return None


def _split_range(n, f, sign, lo):
    # The t = a*b that _two_factor_split(n, f, sign, lo) tries.
    r = (n - sign) // f
    return range(max(1, (r - lo) * lo // (f * lo + 1)), r * lo // (f * lo - 1) + 1)


def _two_factor_split(n, f, sign, lo):
    """(a, b) with lo <= a <= b for sign +1, a, b >= lo for sign -1, and
    n = (a*f + 1)*(b*f + sign), or None when there is no such pair; for
    f >= 4 dividing n - sign and lo >= 1.

    Such a split gives (n - sign)/f = r = t*f + delta with t = a*b and
    delta = b + sign*a.  (a - lo)*(b - lo) >= 0 gives a + b <= t/lo + lo,
    so 2 <= delta <= t/lo + lo for sign +1 and |delta| = |b - a| <=
    t/lo - lo for sign -1; either way
    (r - lo)*lo/(f*lo + 1) <= t <= r*lo/(f*lo - 1) (_split_range).  With
    lo = 1 and n < (f - 1)**3, r < f**2 - 1 and that range holds at most
    three integers; _factored_part gives a larger lo only where it does
    too.  For each t, (b - sign*a)**2 = delta**2 - 4*sign*t, so one isqrt
    decides it, and a pair found with a, b >= lo meets both equations, so
    it is a split.
    """
    r = (n - sign) // f
    for t in _split_range(n, f, sign, lo):
        delta = r - t * f
        square = delta * delta - 4 * sign * t
        if square < 0:
            continue
        s = math.isqrt(square)
        a, b = sign * (delta - s) // 2, (delta + s) // 2
        if s * s == square and a >= lo and b >= lo:
            return a, b
    return None


def _nminus1_proof(k, m, f, qs, lo):
    """N-1 proof for N = k*2**m + 1, k odd and m >= 1, with F = f the
    factored part of N - 1, qs the odd q taken into it and lo the bound on
    the prime factors of R = (N-1)/F (_factored_part, or 2**m, () and 1
    when 2**m > k, as proth_test runs it).

    Tries the bases a = 3, 5, 7, ..., among PROTH_CANDIDATE_LIMIT
    candidates, with jacobi(a, N) = -1, in order.  For prime N Euler's
    criterion makes a**((N-1)/2) == -1 at every such a, so any other value
    shows N composite, as does a base with 1 < gcd(a, N) < N; a base that
    is a multiple of N (N below the candidates) is passed over.  N is
    proved prime by a when also gcd(a**((N-1)/q) - 1, N) = 1 for every q
    in qs, gcd(a**F - 1, N) = 1 when lo > 1, and, when 2**m <= k, N is not
    (a'*F + 1)*(b'*F + 1) for any a', b' >= lo (_two_factor_split;
    Pocklington's theorem with the cube-root bound of Brillhart, Lehmer
    and Selfridge 1975).  A prime fails a q's gcd for about one base in q,
    and the gcd of a**F for about one in R; then the next base is tried.

    A METHOD_PROTH result, proth_test's record when 2**m > k, that is
    prime with the base that proves N prime or composite with the base
    that shows it; or None, undecided: no base left or a split found.

    A proof holds for any a.  Let p be a prime factor of N.
    a**((N-1)/2) == -1 (mod p), so the order of a mod p divides
    N - 1 = k*2**m but not (N-1)/2, and 2**m divides it; a gcd of 1 gives
    a**((N-1)/q) != 1 mod p, so the full power q**e of N - 1 divides it
    too.  So F divides p - 1 and p >= F + 1.  With lo > 1, the order
    divides F*R and, by the gcd of a**F, not F, so a prime r | R divides
    it too; r >= lo, so F*r divides p - 1 and p >= F*lo + 1.  With
    2**m > k, p >= F + 1 is p > sqrt(N) (Proth's theorem), so N is prime.
    With 2**m <= k, three such factors would exceed N < (F*lo - 1)**3, so
    a composite N is p*p' with both == 1 (mod F) and (p - 1)/F,
    (p' - 1)/F >= lo: N = (a'*F + 1)*(b'*F + 1) with a', b' >= lo, which
    the last check rules out.  So a wrong base can only cost time, never
    a verdict.  Stdlib only, with plain pow.
    """
    n = (k << m) + 1
    for a in range(3, 3 + 2 * PROTH_CANDIDATE_LIMIT, 2):
        j = jacobi(a, n)
        if j == 0:
            if 1 < math.gcd(a, n) < n:
                return PrimalityResult(n, METHOD_PROTH, False, a)
        elif j < 0:
            if pow(a, n >> 1, n) != n - 1:
                return PrimalityResult(n, METHOD_PROTH, False, a)
            if any(math.gcd(pow(a, (n - 1) // q, n) - 1, n) != 1 for q in qs):
                continue
            if lo > 1 and math.gcd(pow(a, f, n) - 1, n) != 1:
                continue
            if k >> m and _two_factor_split(n, f, 1, lo):
                return None
            return PrimalityResult(n, METHOD_PROTH, True, a)
    return None


def _nplus1_proof(k, m, f, qs, lo):
    """N+1 proof for N = k*2**m - 1, k odd and m >= 2, with F = f the
    factored part of N + 1, qs the odd q taken into it and lo the bound on
    the prime factors of R = (N+1)/F (_factored_part): the start P that
    proves N prime, or 0 for no proof.

    Tries the starts P >= 3, among PROTH_CANDIDATE_LIMIT candidates, with
    jacobi(P-2, N) = 1 and jacobi(P+2, N) = -1 (Rodseth 1994), in order.
    For each it computes V_{(N+1)/4}(P) mod N by the Lucas ladder (Riesel
    1969), as V_k(V_{2**(m-2)}(P)); for prime N every such start makes it 0,
    so a nonzero value ends the test.  Then, for each q in qs,
    V_{(N+1)/q}(P) = V_{k/q}(V_{2**m}(P)), and when lo > 1,
    V_F(P) = V_{F/2**m}(V_{2**m}(P)).  N is proved prime, and P returned,
    when gcd(V_{(N+1)/q}(P) - 2, N) = 1 for every such q,
    gcd(V_F(P) - 2, N) = 1 when lo > 1, and, when 2**m <= k, N is not
    (a*F + 1)*(b*F - 1) for any a, b >= lo (_two_factor_split; Morrison's
    N+1 test with the cube-root bound of Brillhart, Lehmer and Selfridge
    1975).  A prime fails a q's gcd for about one start in q, and that of
    V_F for about one in R; then the next start is tried.  No start left,
    a Jacobi symbol of 0 or a split found give 0: no proof, no verdict.

    A proof holds for any P.  Let alpha be a root of x**2 - P*x + 1, so
    V_j = alpha**j + alpha**-j, and let p be a prime factor of N.
    V_{(N+1)/4} == 0 (mod p) gives alpha**((N+1)/2) == -1, so P is not
    +-2 mod p, x**2 - P*x + 1 has distinct roots mod p, and alpha lies in
    F_p or in F_{p**2} with norm 1, with an order that divides p - 1 or
    p + 1.  That order divides N + 1 = k*2**m but not (N+1)/2, so 2**m
    divides it.  V_j - 2 = alpha**-j * (alpha**j - 1)**2, so a gcd of 1
    gives alpha**((N+1)/q) != 1 mod p, and the full power q**e of N + 1
    divides the order too.  So F divides p - 1 or p + 1, and p >= F - 1.
    With lo > 1, the order divides F*R and, by the gcd of V_F, not F, so a
    prime r | R divides it too; r >= lo, so F*r divides p - 1 or p + 1,
    and p >= F*lo - 1.  With 2**m > k, a composite N would be a product
    of at least two such p.  If one is 2**m - 1, the cofactor
    N/p == 1 (mod 2**m), as N == p == -1, so it is at least 2**m + 1 and
    N >= 2**(2m) - 1; otherwise N >= (2**m + 1)**2.  Both exceed
    N = k*2**m - 1 < 2**(2m) - 1.  With 2**m <= k, three such factors
    would exceed N < (F*lo - 1)**3, so a composite N is p*p' with
    p*p' == -1 (mod F), one factor == 1 and the other == -1 (F >= 4), each
    F times at least lo away from +-1: N = (a*F + 1)*(b*F - 1) with
    a, b >= lo, which the last check rules out.  So a wrong start can only
    cost time, never a verdict.  Stdlib only, with plain %.
    """
    n = (k << m) - 1
    for p in _rodseth_starts(n):
        w = p  # V_{2**(m-2)}(P)
        for _ in range(m - 2):
            w = (w * w - 2) % n
        if _lucas_v(w, k, n):
            return 0
        if qs or lo > 1:
            w = ((w * w - 2) ** 2 - 2) % n  # V_{2**m}(P)
            if any(math.gcd(_lucas_v(w, k // q, n) - 2, n) != 1 for q in qs):
                continue
            if lo > 1 and math.gcd(_lucas_v(w, f >> m, n) - 2, n) != 1:
                continue
        return 0 if k >> m and _two_factor_split(n, f, -1, lo) else p
    return 0


def is_prime(n: int) -> PrimalityResult:
    """Primality of n with the method recorded in the result.

    Deterministic below MR_DETERMINISTIC_BOUND (the sieve below
    SIEVE_SQUARE, above it Miller-Rabin with the bases of n's row of
    _MR_ROWS, where one proof on n's side after the first base can skip
    the rest); a decisive Proth test for n = k*2**m + 1 with 2**m > k;
    otherwise MR_PROBABILISTIC_ROUNDS rounds of Miller-Rabin, flagged
    probabilistic, where one proof on n's side after the first round can
    skip the rest (_miller_rabin).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= MR_DETERMINISTIC_BOUND:
        k, m = _mr_decompose(n)  # n = k*2**m + 1 with k odd
        if (1 << m) > k:
            return proth_test(k, m)
    return _miller_rabin(n)


def _proved_on_its_side(n, d, s):
    # Whether one proof proves odd n = d*2**s + 1 prime: n == 1 (mod 4) is
    # k*2**m + 1 with m = s >= 2 (_nminus1_proof), n == 3 (mod 4) is
    # k*2**m - 1 with m >= 2 (_nplus1_proof), each when in its form
    # (_factored_part).  Below psi_13 only from 2**32 up, the crossover
    # measured on first-prime scans, or for k*2**m - 1 with 2**m > k.
    # Below 2**64 not for k*2**m - 1 with two or more odd q in F: each q
    # adds a Lucas ladder over k/q, which costs more than the rest of the
    # row.
    if s >= 2:
        sign, k, m = 1, d, s
    else:
        m = ((n + 1) & ~n).bit_length() - 1
        sign, k = -1, (n + 1) >> m
    if n < MR_DETERMINISTIC_BOUND and not (n >> 32 or sign < 0 and k >> m == 0):
        return False
    part = _factored_part(k, m, sign)
    if part is None or sign < 0 and len(part[1]) > 1 and not n >> 64:
        return False
    if sign < 0:
        return _nplus1_proof(k, m, *part) > 0
    result = _nminus1_proof(k, m, *part)
    return result is not None and result.is_prime


def _miller_rabin(n):
    """is_prime without the Proth branch, which proth_test falls back to.

    An odd n up to SIEVE_BOUND is read from the sieve, one below
    SIEVE_SQUARE is prime iff coprime to SIEVE_PRODUCT.  Above that one
    loop runs the bases: below MR_DETERMINISTIC_BOUND those of the first
    row of _MR_ROWS above n, at or above it MR_PROBABILISTIC_ROUNDS bases
    from an n-seeded generator, so repeated runs report identically.  A
    composite at or above 2**64 keeps the first base that shows it as its
    witness.  When the first base does not show n composite and n is in
    form on its side, one proof follows (_proved_on_its_side):
    _nminus1_proof for n == 1 (mod 4), _nplus1_proof for n == 3 (mod 4),
    with F from _factored_part.  A proof skips the other bases
    and returns what all of them passing gives, as a prime passes every
    one; no proof runs them all (the rounds from the same generator), so
    every record, a composite's witness included, is what the bases alone
    give.
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
        method, rounds = METHOD_MR_DETERMINISTIC, 0
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(MR_PROBABILISTIC_ROUNDS))
        method, rounds = METHOD_MR_PROBABILISTIC, MR_PROBABILISTIC_ROUNDS
    for i, a in enumerate(bases):
        if _mr_composite(n, a, d, s):
            # A composite below 2**64 is reported with witness 0.
            return PrimalityResult(n, method, False, a if n >> 64 else 0, rounds)
        if i == 0 and _proved_on_its_side(n, d, s):
            break
    return PrimalityResult(n, method, True, 0, rounds)
