"""Brute-force oracles the tests check the library against.

Everything here is deliberately naive - direct scans, repeated
multiplication, trial division - and independent of the code under test.
"""


def order_naive(base, d):
    """Scan b = 1..d-1 for the first base**b == 1 (mod d)."""
    x = base % d
    for b in range(1, d):
        if x == 1:
            return b
        x = x * base % d
    return None


def offset_naive(k, sign, d, b):
    """Scan c = 0..b-1 for the first d | k*2**c + sign, by full arithmetic."""
    for c in range(b):
        if (k * 2**c + sign) % d == 0:
            return c
    return None


def trial_division_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def least_odd_prime_factor(n, bound):
    """Least odd prime p <= bound with p | n, or None, for n >= 1: trial
    division by 3, 5, 7, ...; the first odd divisor found is prime."""
    for f in range(3, bound + 1, 2):
        if n % f == 0:
            return f
    return None


def primes_below_naive(bound):
    """flags[n] == 1 iff n is prime, for 0 <= n < bound (bound >= 2): the
    sieve of Eratosthenes over every integer, even ones included."""
    flags = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    p = 2
    while p * p < bound:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
        p += 1
    return flags


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin round for base a: with
    n - 1 = d * 2**s, d odd, a**d == 1 or a**(d * 2**j) == -1 (mod n) for
    some j < s.  Read off the whole power sequence, not stopped early."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    powers = [pow(a, d * 2**j, n) for j in range(s)]
    return powers[0] == 1 or n - 1 in powers


# Sorenson and Webster (2015): every n below PSI_13 that is a strong probable
# prime to each of the first 13 primes is prime (the first 12 decide every
# n below 2**64).
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def prime_naive(n):
    """Primality of 0 <= n < PSI_13: trial division below 10**7, above it a
    strong-probable-prime check to each of FIRST_13_PRIMES."""
    if n < 10**7:
        return trial_division_prime(n)
    return n % 2 == 1 and all(strong_probable_prime(n, a) for a in FIRST_13_PRIMES)


def next_prime_naive(n):
    """The least prime >= n, for n < PSI_13, by prime_naive."""
    while not prime_naive(n):
        n += 1
    return n


def factorize_naive(n):
    factors = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def jacobi_naive(a, n):
    """Jacobi symbol as the product of Legendre symbols over n's factorization."""
    result = 1
    for p, e in factorize_naive(n).items():
        ls = pow(a, (p - 1) // 2, p)
        legendre = -1 if ls == p - 1 else ls
        result *= legendre**e
    return result


def matches(r, b, c):
    """Whether residue r lies on the progression c, c + b, c + 2b, ...: the
    checker's rule, under which an entry with c >= b matches r = c but not
    r = c - b."""
    return c <= r and (r - c) % b == 0


def smallest_uncovered(entries, lcm, predicate=None):
    """First residue r in 0..lcm-1 (meeting the predicate, when given) with
    no entry (d, b, c) whose progression holds r; None when covered."""
    for r in range(lcm):
        if predicate is not None and not predicate(r):
            continue
        if not any(matches(r, b, c) for _, b, c in entries):
            return r
    return None


# The file format's name for the n a cover's entries claim ("all" for a
# full cover, else the partial cover's predicate field) -> whether they
# claim residue r.
CLAIMED = {
    "all": lambda r: True,
    "mod4ne2": lambda r: r % 4 != 2,
    "odd": lambda r: r % 2 == 1,
}


def claimed_by(family):
    """CLAIMED for the entries of a certificate with this factor family,
    looked up by the family's name in the file format."""
    return CLAIMED["all" if family is None else family.predicate]


def first_match_table(entries, lcm, claimed):
    """The residue table as a per-residue scan: the index of the first entry
    (in cover order) whose progression holds r, None where unclaimed or
    unmatched."""
    return [
        next((i for i, e in enumerate(entries) if matches(r, e.b, e.c)), None)
        if claimed(r) else None
        for r in range(lcm)
    ]


def witness_counts_naive(entries, lcm, claimed):
    """How many residues mod lcm each entry claims, counted over the whole
    per-residue scan."""
    table = first_match_table(entries, lcm, claimed)
    return tuple(table.count(i) for i in range(len(entries)))


def first_audit_failure_naive(certificate, n_max):
    """Smallest claimed n in 1..n_max whose witness d is not a proper divisor
    of k*2^n + sign, or None: each witness from the per-residue scan and
    every term built as a bignum, the loop coverscope.check.first_audit_failure
    used to run.  The properness test comes before the division, so a
    witness d <= 1 fails where the division by 0 would have raised."""
    table = first_match_table(certificate.entries, certificate.lcm, claimed_by(certificate.family))
    for n in range(1, n_max + 1):
        idx = table[n % certificate.lcm]
        if idx is None:
            continue
        d = certificate.entries[idx].d
        term = certificate.candidate.k * 2**n + certificate.candidate.sign
        if not 1 < d < term or term % d != 0:
            return n
    return None


def entry_holds_naive(certificate, entry):
    """Whether an entry's divisibility facts hold, every power built whole:
    d > 1, b | L, d | 2^b - 1 and d | k*2^c + sign."""
    k, sign = certificate.candidate.k, certificate.candidate.sign
    d, b, c = entry.d, entry.b, entry.c
    return (
        d > 1
        and certificate.lcm % b == 0
        and (2**b - 1) % d == 0
        and (k * 2**c + sign) % d == 0
    )


def coverless_cross_check_naive(cert, n_max):
    """Smallest n in 1..n_max where a coverless certificate's term-by-term
    cross-check fails, or None: first_audit_failure_naive for the n the
    partial cover claims, and for the rest (n >= 2) the product of
    case.halves, which must be the term, with its first half a proper
    divisor of it."""
    case = cert.family
    claimed = claimed_by(case)
    failures = [first_audit_failure_naive(cert, n_max)]
    for n in range(2, n_max + 1):
        if not claimed(n):
            factor, cofactor = case.halves(case.root * 2 ** (n // case.power))
            term = case.k * 2**n + case.sign
            if factor * cofactor != term or not 1 < factor < term:
                failures.append(n)
                break
    return min([n for n in failures if n is not None], default=None)


def check_induction_identity(candidate, entry, j_max):
    """Exact check of the telescoping step behind the progression claim.

    For j = 0..j_max, k*2^(b(j+1)+c) + sign must equal
    [k*2^(bj+c) * (2^b - 1)] + [k*2^(bj+c) + sign] as integers, with d
    dividing both bracketed summands (the first because d | 2^b - 1, the
    second being the previous term).
    """
    k, sign, d = candidate.k, candidate.sign, entry.d
    step = (1 << entry.b) - 1
    for j in range(j_max + 1):
        scaled = k << (entry.b * j + entry.c)  # k * 2^(bj+c)
        left = scaled * step
        right = scaled + sign
        if (scaled << entry.b) + sign != left + right:
            return False
        if left % d != 0 or right % d != 0:
            return False
    return True


def coverless_facts_per_n(cert, divisibility_problem):
    """The coverless facts check as it ran before the coefficient argument:
    the partial cover's divisibility facts (divisibility_problem, the shared
    part), then at every n up to the bit length of the largest divisor
    either the partial cover's witness or the bignum factor split, which
    must multiply back to the term and be a proper divisor of it."""
    problem = divisibility_problem(cert)
    if problem is not None:
        return problem
    root = cert.family.root
    k, sign = cert.candidate.k, cert.candidate.sign
    table = first_match_table(cert.entries, cert.lcm, claimed_by(cert.family))
    depth = max(e.d for e in cert.entries).bit_length()
    for n in range(1, depth + 1):
        term = k * 2**n + sign
        idx = table[n % cert.lcm]
        if idx is not None:
            d = cert.entries[idx].d
            ok = 1 < d < term and term % d == 0
        elif sign == 1:  # k = root^4, n = 4m + 2
            x = 2 ** (n // 4)
            a, b = 2 * root * root, 2 * root
            factor = a * x * x + b * x + 1
            ok = factor * (a * x * x - b * x + 1) == term and 1 < factor < term
        else:  # k = root^2, n even
            x = root * 2 ** (n // 2)
            ok = (x + 1) * (x - 1) == term and 1 < x + 1 < term
        if not ok:
            return f"factor check failed at n={n}"
    return None
