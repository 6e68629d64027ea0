"""Covering-set construction and verification.

A cover for k (sign +1: the sequence k*2^n + 1, sign -1: k*2^n - 1) is a
list of odd divisors d, each pinned to an arithmetic progression of
exponents: d divides every term with n == c (mod b), where b is the
multiplicative order of 2 mod d and c the least offset with d | k*2^c + sign.
The argument closes when every exponent class mod L is claimed by some
entry, which one byte pass over the entries' progressions shows.

A full cover has no factor family: every n must be claimed by an entry.  A
partial cover, the cover half of a coverless proof (coverscope.algebraic),
has one, which takes the class n == c (mod b) as the first progression of
the byte pass and leaves the rest to the entries.  Both kinds share the one
certificate type, builder and serializer below, and the one parser and
proof function, prove, in coverscope.check.  L is the lcm of the periods
and the family's b, so n and n mod L always agree on the family's class.
"""

import dataclasses
import json
import math

from coverscope import arith
from coverscope.check import (
    MAX_CLAIMS,
    MAX_DIVISORS,
    MAX_LCM,
    SIGN_NAMES,
    Candidate,
    CoverCertificate,
    CoverEntry,
    CoverlessCase,
    VerificationError,
    digit_limit_exceeded,
    witness_index,
)

# The checker's names the benchmark in perfbench/ reaches through cover.
from coverscope.check import certificate_from_dict, first_audit_failure  # noqa: F401
from coverscope.check import prove as check_certificate_facts  # noqa: F401

TOOL_VERSION = "0.3.0"


class NoOffsetError(VerificationError):
    """No exponent class works for this divisor: it cannot join the cover."""

    def __init__(self, divisor, k, sign):
        self.divisor = divisor
        super().__init__(
            f"no offset: {divisor} divides no term of the "
            f"{SIGN_NAMES[sign]} sequence for k={k}"
        )


class UncoveredResidueError(VerificationError):
    """Some exponent class mod L is claimed by no divisor."""

    def __init__(self, residue, lcm):
        self.residue = residue
        self.lcm = lcm
        super().__init__(f"uncovered residue {residue} (mod {lcm})")


def _require_cover_k(candidate):
    # k = 1 is fine for prime hunting but not for covers: the first Riesel
    # term would be 1, which has no proper factor.
    if candidate.k < 3:
        raise ValueError(f"covers require k >= 3, got k={candidate.k}")


def build_entry(candidate: Candidate, d: int) -> CoverEntry:
    """Period and minimal offset for one divisor, from one table lookup or
    one walk bounded by MAX_LCM (arith.order_and_offset).

    Raises NoOffsetError when d divides no term (in particular whenever
    d | k, since then every term is sign mod d), and ValueError for a period
    above MAX_LCM, which the bounded walk finds without learning the period.
    """
    _require_cover_k(candidate)
    if d < 3 or d % 2 == 0:
        raise ValueError(f"cover divisors must be odd and >= 3, got {d}")
    walk = arith.order_and_offset(candidate.k, candidate.sign, d, MAX_LCM)
    if walk is None:
        raise ValueError(f"divisor {d} has period above the bound {MAX_LCM} on L")
    b, c = walk
    if c is None:
        raise NoOffsetError(d, candidate.k, candidate.sign)
    return CoverEntry(d, b, c)


def verify_cover(
    candidate: Candidate, divisors, family: CoverlessCase | None = None
) -> CoverCertificate:
    """Build entries for every divisor, then prove that every residue mod L
    outside the factor family's class, if a family is given, is claimed by
    some entry.

    Raises NoOffsetError (naming the divisor) or UncoveredResidueError
    (naming the smallest residue mod L left open), and ValueError
    for more than MAX_DIVISORS distinct divisors (before any walk), a
    divisor's period or L above MAX_LCM, or more than MAX_CLAIMS claimed
    residues.
    Deterministic: each residue takes the first matching entry in cover order.
    A repeated divisor is built once.
    """
    divisors = [int(d) for d in divisors]
    if not divisors:
        raise ValueError("cover must contain at least one divisor")
    # Built in first-seen order, so a repeat moves no error to another divisor.
    distinct = dict.fromkeys(divisors)
    if len(distinct) > MAX_DIVISORS:
        raise ValueError(
            f"the cover has {len(distinct)} distinct divisors, above the bound {MAX_DIVISORS}"
        )
    built = {d: build_entry(candidate, d) for d in distinct}
    lcm = math.lcm(*[e.b for e in built.values()], family.b if family else 1)
    if lcm > MAX_LCM:
        limit = digit_limit_exceeded(lcm)
        if limit:
            raise ValueError(f"L has more than {limit} digits, above the bound {MAX_LCM}")
        raise ValueError(f"L = {lcm} is above the bound {MAX_LCM}")
    # A tuple from a list, not a generator: tuple() of a generator resizes a
    # fresh tuple, which on release joins the free list of its final size;
    # those lists fill (2000 tuples a size) until a full garbage collection,
    # so peak memory would creep with the number of calls.
    entries = tuple([built[d] for d in divisors])
    cert = CoverCertificate(candidate, entries, lcm, family)
    if cert.claims > MAX_CLAIMS:
        raise ValueError(f"the divisors claim {cert.claims} residues mod L, above {MAX_CLAIMS}")
    hole = cert.uncovered_residue
    if hole is not None:
        raise UncoveredResidueError(hole, lcm)
    return cert


def witness(certificate: CoverCertificate, n: int) -> int:
    """The covering divisor for exponent n >= 1 (first match in cover order);
    n must lie outside the factor family's class."""
    if n < 1:
        raise ValueError("the sequence starts at n = 1")
    i = witness_index(certificate, n)
    if i is None:
        raise ValueError(f"no cover entry witnesses n={n}")
    return certificate.entries[i].d


def generate_family(candidate: Candidate, divisors, i: int) -> CoverCertificate:
    """Certificate of the i-th sibling k' = k + 2*i*P (P = product of the
    cover divisors), built once: k' == k (mod d) for every divisor, so the
    base's entries and L are the sibling's, the certificate `verify`
    writes for k'.  Proves nothing; check.prove re-checks every fact
    against k'.  A k' too long to print is refused before any walk."""
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    divisors = [int(d) for d in divisors]
    k = candidate.k + 2 * i * math.prod(divisors)
    limit = digit_limit_exceeded(k)
    if limit:
        raise ValueError(f"k' has more than {limit} digits")
    base = verify_cover(candidate, divisors)
    return dataclasses.replace(base, candidate=Candidate(k, candidate.sign))


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, predicate (partial covers only), entries: [{d, b, c}],
# lcm, tool_version}.  All unbounded integers travel as decimal strings.
# The residue table is not written: the entries fix it.  Certificates are
# written straight from their fields in the dumps_json layout, so identical
# certificates give identical bytes.


def _cover_object(cert: CoverCertificate, pad: str) -> str:
    """The certificate as a JSON object in the dumps_json layout, its
    lines after the first indented by pad.  A cover has at least one entry."""
    i = pad + "  "
    entries = ",\n".join([
        f'{i}  {{\n{i}    "d": "{e.d}",\n{i}    "b": "{e.b}",\n{i}    "c": "{e.c}"\n{i}  }}'
        for e in cert.entries
    ])
    predicate = "" if cert.family is None else f'{i}"predicate": "{cert.family.predicate}",\n'
    return (
        f'{{\n{i}"k": "{cert.candidate.k}",\n{i}"sign": {cert.candidate.sign},\n{predicate}'
        f'{i}"entries": [\n{entries}\n{i}],\n{i}"lcm": "{cert.lcm}",\n'
        f'{i}"tool_version": "{TOOL_VERSION}"\n{pad}}}'
    )


def dumps_json(doc) -> str:
    """The canonical layout of every JSON output: 2-space indentation and a
    final newline."""
    return json.dumps(doc, indent=2) + "\n"


def certificate_to_json(cert: CoverCertificate) -> str:
    return _cover_object(cert, "") + "\n"
