"""Covering-set construction and verification.

A cover for k (sign +1: the sequence k*2^n + 1, sign -1: k*2^n - 1) is a
list of odd divisors d, each pinned to an arithmetic progression of
exponents: d divides every term with n == c (mod b), where b is the
multiplicative order of 2 mod d and c the least offset with d | k*2^c + sign.
The argument closes when every exponent class mod L the cover's predicate
names is claimed by some entry, which the residue table derived from the
entries shows.

A full cover has the predicate `all` (modulus 1): every n must be claimed.
A partial cover, the cover half of a coverless proof (coverscope.algebraic),
has a predicate that names only some classes mod a small modulus; its
derived table holds None for the others.  Both kinds share the one
certificate type, builder and serializer below, and the one parser and
facts check in coverscope.check.  L is the lcm of the periods and the
predicate modulus, so n and n mod L always agree on the predicate.
"""

import json
import math

from coverscope import arith

# Defined in the trusted checker; these names stay importable from cover.
from coverscope.check import (  # noqa: F401
    MAX_AUDIT_N,
    MAX_CLAIMS,
    MAX_LCM,
    PREDICATE_ALL,
    PREDICATE_MOD4_NE_2,
    PREDICATE_ODD,
    PREDICATES,
    SIGN_NAMES,
    Candidate,
    CertificateFormatError,
    CoverCertificate,
    CoverEntry,
    VerificationError,
    certificate_from_dict,
    check_certificate_facts,
    first_audit_failure,
    proof_depth,
)

TOOL_VERSION = "0.2.0"


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
    """Period and minimal offset for one divisor, from one walk bounded by
    MAX_LCM (arith.order_and_offset).

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
    candidate: Candidate, divisors, predicate: str = PREDICATE_ALL
) -> CoverCertificate:
    """Build entries for every divisor, then prove that every residue mod L
    the predicate claims is claimed by some entry.

    Raises NoOffsetError (naming the divisor) or UncoveredResidueError
    (naming the smallest claimed residue mod L left open), and ValueError
    for a divisor's period or L above MAX_LCM, or more than MAX_CLAIMS
    claimed residues.
    Deterministic: each residue takes the first matching entry in cover order.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    modulus = PREDICATES[predicate][0]
    divisors = [int(d) for d in divisors]
    if not divisors:
        raise ValueError("cover must contain at least one divisor")
    # Tuples from lists, not generators: tuple() of a generator resizes a
    # fresh tuple, which on release joins the free list of its final size;
    # those lists fill (2000 tuples a size) until a full garbage collection,
    # so peak memory would creep with the number of calls.
    entries = tuple([build_entry(candidate, d) for d in divisors])
    lcm = math.lcm(*[e.b for e in entries], modulus)
    if lcm > MAX_LCM:
        raise ValueError(f"L = {lcm} is above the bound {MAX_LCM}")
    primality = tuple([arith.is_prime(e.d).is_prime for e in entries])
    cert = CoverCertificate(candidate, entries, lcm, primality, predicate)
    if cert.claims > MAX_CLAIMS:
        raise ValueError(f"the divisors claim {cert.claims} residues mod L, above {MAX_CLAIMS}")
    hole = cert.uncovered_residue
    if hole is not None:
        raise UncoveredResidueError(hole, lcm)
    return cert


def witness(certificate: CoverCertificate, n: int) -> int:
    """The covering divisor for exponent n >= 1 (first match in cover order);
    n must satisfy the certificate's predicate."""
    if n < 1:
        raise ValueError("the sequence starts at n = 1")
    idx = certificate.table[n % certificate.lcm]
    if idx is None:
        raise ValueError(
            f"n={n} does not satisfy the {certificate.predicate} condition"
        )
    return certificate.entries[idx].d


def generate_family(candidate: Candidate, divisors, i: int) -> CoverCertificate:
    """Certificate of the i-th sibling k + 2*i*P (P = product of the cover
    divisors), which keeps the same cover: each divisor's period and offset
    are unchanged since k + 2*i*P == k (mod d).  Verified by building the
    sibling's certificate and requiring the base's entries."""
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    base = verify_cover(candidate, divisors)
    product = math.prod([e.d for e in base.entries])
    sibling = Candidate(candidate.k + 2 * i * product, candidate.sign)
    derived = verify_cover(sibling, divisors)
    if derived.entries != base.entries:
        raise VerificationError(
            f"family member k={sibling.k} does not reproduce the base cover"
        )
    return derived


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, predicate (partial covers only), entries: [{d, b, c}],
# lcm, divisor_primality_flags, tool_version}.  All unbounded integers
# travel as decimal strings.  The residue table is not written: the checker
# derives it from the entries.  Certificates are written straight from their
# fields in the dumps_json layout, so identical certificates give identical bytes.


def _cover_object(cert: CoverCertificate, pad: str) -> str:
    """The certificate as a JSON object in the dumps_json layout, its
    lines after the first indented by pad.  A cover has at least one entry."""
    i = pad + "  "
    entries = ",\n".join([
        f'{i}  {{\n{i}    "d": "{e.d}",\n{i}    "b": "{e.b}",\n{i}    "c": "{e.c}"\n{i}  }}'
        for e in cert.entries
    ])
    flags = ",\n".join([f"{i}  true" if f else f"{i}  false" for f in cert.divisor_primality])
    predicate = "" if cert.predicate == PREDICATE_ALL else f'{i}"predicate": "{cert.predicate}",\n'
    return (
        f'{{\n{i}"k": "{cert.candidate.k}",\n{i}"sign": {cert.candidate.sign},\n{predicate}'
        f'{i}"entries": [\n{entries}\n{i}],\n{i}"lcm": "{cert.lcm}",\n'
        f'{i}"divisor_primality_flags": [\n{flags}\n{i}],\n'
        f'{i}"tool_version": "{TOOL_VERSION}"\n{pad}}}'
    )


def dumps_json(doc) -> str:
    """The canonical layout of every JSON output: 2-space indentation and a
    final newline."""
    return json.dumps(doc, indent=2) + "\n"


def certificate_to_json(cert: CoverCertificate) -> str:
    return _cover_object(cert, "") + "\n"
