"""Independent arithmetic that checks coverscope's answers.

Nothing here imports coverscope.  Every routine is the plainest loop that
gives the answer, so a fault in the program under test cannot hide itself
by being shared with its checker.
"""

# Strong-probable-prime bases: the first 13 primes.  Deterministic for every
# n < 3317044064679887385961981; above that a composite passing all 13 is a
# strong pseudoprime to every one of them, which no known test input is.
SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the fixed bases in SPRP_BASES."""
    if n < 2:
        return False
    for p in SPRP_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SPRP_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1."""
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


def proth_witness_holds(n: int, a: int) -> bool:
    """Proth's theorem: n = h*2^m + 1 with odd h < 2^m is prime when some a
    has a^((n-1)/2) == -1 (mod n); a non-residue a is the usual choice."""
    if n < 3 or n % 2 == 0:
        return False
    m = 0
    h = n - 1
    while h % 2 == 0:
        h //= 2
        m += 1
    if h >= 1 << m:
        return False
    return jacobi(a, n) == -1 and pow(a, (n - 1) // 2, n) == n - 1


def term(k: int, sign: int, n: int) -> int:
    return k * (1 << n) + sign


def first_prime_exponent(k: int, sign: int, n_max: int) -> int | None:
    """Least n in 1..n_max with k*2^n + sign a (probable) prime."""
    for n in range(1, n_max + 1):
        if is_probable_prime(term(k, sign, n)):
            return n
    return None


def order_of_two(d: int) -> int:
    """Least b >= 1 with 2^b == 1 (mod d), for odd d >= 3."""
    x, b = 2 % d, 1
    while x != 1:
        x = 2 * x % d
        b += 1
    return b


def offset(k: int, sign: int, d: int, b: int) -> int | None:
    """Least c in 0..b-1 with d | k*2^c + sign."""
    for c in range(b):
        if (k * pow(2, c, d) + sign) % d == 0:
            return c
    return None


def cover_entries(k: int, sign: int, divisors) -> tuple[tuple[int, int, int], ...]:
    """(d, b, c) for each divisor, in cover order."""
    entries = []
    for d in divisors:
        b = order_of_two(d)
        entries.append((d, b, offset(k, sign, d, b)))
    return tuple(entries)


def table_problem(entries, lcm: int, table, claimed=lambda r: True) -> str | None:
    """First way in which table fails to give, for each residue r mod lcm
    that `claimed` selects, the index of the first entry (d, b, c) with
    r == c (mod b); residues not selected must hold None."""
    if len(table) != lcm:
        return f"table has {len(table)} slots for L={lcm}"
    for r, idx in enumerate(table):
        if not claimed(r):
            if idx is not None:
                return f"residue {r} is outside the cover but holds {idx}"
            continue
        first = next((i for i, (_, b, c) in enumerate(entries) if r % b == c), None)
        if first is None or idx != first:
            return f"residue {r} maps to {idx}, first match is {first}"
    return None


def crt_k(entries, sign: int) -> int:
    """The odd k below 2P, P the product of the (distinct prime) divisors,
    with d | k*2^c + sign for every entry (d, b, c)."""
    k, modulus = 0, 1
    for d, _, c in entries:
        want = -sign * pow(pow(2, c, d), -1, d) % d
        k += modulus * ((want - k) * pow(modulus, -1, d) % d)
        modulus *= d
    return k if k % 2 else k + modulus
