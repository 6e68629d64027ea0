"""Disqualification engine: prove k is NOT Sierpinski/Riesel by finding a
prime in its sequence.

The scan is ordered, so a hit is the first prime exponent.  A term with a
prime factor p <= arith.SIEVE_BOUND below itself is crossed out with no
primality test: a gcd with the word-size arith.SIEVE_PRODUCT_LOW, and only
when that is 1 a gcd with arith.SIEVE_PRODUCT_HIGH, shows whether such a p
exists.  The least p is searched for only when a verbose trail records it
(method "sieve", witness p) or when the term is at most SIEVE_BOUND and may
be p itself.  Every other term is tested: on the +1 side, once 2^n outgrows
k every term is Proth-form and one exponentiation decides it (leaving a
re-checkable witness).  arith.is_prime decides the rest: a term below
arith.SIEVE_SQUARE by one more gcd, one below 2**64 with at most seven
exponentiations.  A prime in form on its side, with F = 2^m times small
prime powers of its own k' (N = k'*2^m +- 1, m >= 2) reaching
(F - 1)^3 > N, or (1031*F - 1)^3 > N with the rest of k' free of primes
below 1031 (arith._factored_part), is proved by one base or round and one
N-1 or N+1 proof (arith._nminus1_proof, arith._nplus1_proof): below
psi_13 from 2**32 up, and for every k'*2^m - 1 with 2^m > k'.  The JSON
record writes the found prime in full, also past Python's limit on
printing an int, while a verbose trail stops before the first term over
it, or over Python's default limit when the limit is higher or off.
"""

import sys
from dataclasses import dataclass
from math import gcd

from coverscope import arith
from coverscope.check import Candidate

DEFAULT_SINGLE_N_MAX = 600
DEFAULT_SURVEY_N_MAX = 16
# Work is bounded up front: the largest n_max of one scan and the most odd k
# of one survey_range call.  Above either, ValueError comes before any work.
MAX_SCAN_N = 100_000
MAX_SURVEY_K = 10**6


@dataclass(frozen=True)
class DisqualificationRecord:
    """Result of scanning one candidate.

    n_found is the first exponent whose term is prime (None when the whole
    range came up composite), primality the evidence for that term, and
    n_searched how far the scan went.  trail keeps every per-exponent
    result when the scan ran verbose, so minimality can be re-checked.
    """

    candidate: Candidate
    n_found: int | None
    primality: arith.PrimalityResult | None
    n_searched: int
    trail: tuple[arith.PrimalityResult, ...] | None = None

    @property
    def disqualified(self) -> bool:
        return self.n_found is not None


def first_prime_exponent(
    candidate: Candidate, n_max: int, verbose: bool = False
) -> DisqualificationRecord:
    """Scan n = 1..n_max in order for the first prime k*2^n + sign.  A
    verbose scan keeps every term in its trail, so it raises ValueError on
    reaching a term with more digits than Python prints
    (sys.get_int_max_str_digits()), or than Python's default limit
    (sys.int_info.default_max_str_digits) when the limit is higher or 0
    (no limit).  That bound is what bounds the trail's size, though
    primality_to_dict would write a term of any length."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > MAX_SCAN_N:
        raise ValueError(f"n_max = {n_max} is above the bound {MAX_SCAN_N}")
    k, sign = candidate.k, candidate.sign
    # 2^n > k, so k*2^n + 1 is Proth-form, from n = bit_length(k) on
    proth_from = k.bit_length() if sign == 1 else n_max + 1
    low, high = arith.SIEVE_PRODUCT_LOW, arith.SIEVE_PRODUCT_HIGH
    trail = [] if verbose else None
    n_stop = n_max
    if verbose:
        # The first term of more than limit digits is at the least n >= 1
        # with k*2^n >= 10^limit - sign; the scan stops before it.
        default = sys.int_info.default_max_str_digits
        printed = sys.get_int_max_str_digits()
        limit = min(printed or default, default)
        # Above the default limit, or with none, a longer term would print:
        # the stop bounds the trail's size alone.
        reason = ("too long to print in a verbose trail" if limit == printed
                  else "the most a verbose trail keeps")
        n_stop = min(n_max, max(1, ((10**limit - sign - 1) // k).bit_length()) - 1)
    for n in range(1, n_stop + 1):
        term = (k << n) + sign
        if gcd(term, low) > 1 or gcd(term, high) > 1:
            # some p <= SIEVE_BOUND divides term: composite unless term is p
            if trail is None and term > arith.SIEVE_BOUND:
                continue
            p = arith.small_factor(term)
            if p:
                if trail is not None:
                    trail.append(arith.PrimalityResult(term, arith.METHOD_SIEVE, False, witness=p))
                continue
        result = arith.proth_test(k, n) if n >= proth_from else arith.is_prime(term)
        if trail is not None:
            trail.append(result)
        if result.is_prime:
            return DisqualificationRecord(
                candidate, n, result, n, tuple(trail) if trail is not None else None
            )
    if n_stop < n_max:
        raise ValueError(
            f"the term at n={n_stop + 1} has more than {limit} digits, {reason}"
        )
    return DisqualificationRecord(
        candidate, None, None, n_max, tuple(trail) if trail is not None else None
    )


def survey_range(
    k_min: int, k_max: int, sign: int, n_max: int, verbose: bool = False
) -> list[DisqualificationRecord]:
    """One record per odd k in k_min..k_max, in order."""
    if k_min % 2 == 0 or k_max % 2 == 0:
        raise ValueError("survey bounds must be odd")
    if not 1 <= k_min <= k_max:
        raise ValueError(f"need 1 <= k_min <= k_max, got {k_min}..{k_max}")
    if (count := (k_max - k_min) // 2 + 1) > MAX_SURVEY_K:
        raise ValueError(f"the range holds {count} odd k, above the bound {MAX_SURVEY_K}")
    return [
        first_prime_exponent(Candidate(k, sign), n_max, verbose)
        for k in range(k_min, k_max + 1, 2)
    ]


def _decimal(x: int) -> str:
    """str(x) for x >= 0, also past sys.get_int_max_str_digits(), which a
    found prime may be: in pieces of the limit's digits, each of which
    Python prints.  The CLI holds k to the limit's digits and n to
    MAX_SCAN_N, which bounds the cost.  2**(3*limit) < 10**limit, so
    ordinary x are printed whole."""
    limit = sys.get_int_max_str_digits()
    if not limit or x.bit_length() <= 3 * limit:
        return str(x)
    unit, pieces = 10**limit, []
    while x >= unit:
        x, low = divmod(x, unit)
        pieces.append(str(low).zfill(limit))
    pieces.append(str(x))
    return "".join(reversed(pieces))


def primality_to_dict(result: arith.PrimalityResult) -> dict:
    return {
        "n": _decimal(result.n),
        "method": result.method,
        "is_prime": result.is_prime,
        "witness": _decimal(result.witness),
        "rounds": result.rounds,
    }


def record_to_dict(record: DisqualificationRecord) -> dict:
    doc = {
        "k": str(record.candidate.k),
        "sign": record.candidate.sign,
        "n_found": record.n_found,
        "n_searched": record.n_searched,
        "method": record.primality.method if record.primality else None,
    }
    if record.primality is not None:
        doc["primality"] = primality_to_dict(record.primality)
    if record.trail is not None:
        doc["trail"] = [primality_to_dict(r) for r in record.trail]
    return doc


def records_to_text(records) -> str:
    """Aligned (k, n, method) table; 'none <= n_max' rows for survivors."""
    rows = []
    for rec in records:
        if rec.disqualified:
            rows.append((str(rec.candidate.k), str(rec.n_found), rec.primality.method))
        else:
            rows.append((str(rec.candidate.k), f"none <= {rec.n_searched}", "-"))
    k_width = max(len("k"), max(len(r[0]) for r in rows))
    n_width = max(len("n"), max(len(r[1]) for r in rows))
    lines = [f"{'k':>{k_width}}  {'n':<{n_width}}  method"]
    for k_str, n_str, method in rows:
        lines.append(f"{k_str:>{k_width}}  {n_str:<{n_width}}  {method}")
    return "\n".join(lines) + "\n"
