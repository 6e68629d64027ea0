"""Covering-set construction and verification.

A cover for k (sign +1: the sequence k*2^n + 1, sign -1: k*2^n - 1) is a
list of odd divisors d, each pinned to an arithmetic progression of
exponents: d divides every term with n == c (mod b), where b is the
multiplicative order of 2 mod d and c the least offset with d | k*2^c + sign.
The certificate closes the argument with a residue table over 0..L-1
proving that every exponent class the cover's predicate names is claimed.

A full cover has the predicate `all` (modulus 1): every n must be claimed.
A partial cover, the cover half of a coverless proof (coverscope.algebraic),
has a predicate that names only some classes mod a small modulus; its table
holds None for the others.  Both kinds share the one certificate type,
builder, serializer, parser and facts check below.  L is the lcm of the
periods and the predicate modulus, so n and n mod L always agree on the
predicate.
"""

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from operator import mod, mul

from coverscope import arith

TOOL_VERSION = "0.1.0"

# Largest term-by-term cross-check (--audit-n) the CLI runs.  The witness
# audit works on residues past the properness prefix, so its cost grows
# linearly: 78557 to N = 100000 takes about 8 ms (2 vCPUs, Python 3.11).
# The coverless cross-check still splits each open term as a bignum, which
# grows with the square of N and sets the bound: about 5 s for the R2 record.
MAX_AUDIT_N = 100_000

SIGN_SIERPINSKI = 1
SIGN_RIESEL = -1

_SIGN_NAMES = {SIGN_SIERPINSKI: "sierpinski", SIGN_RIESEL: "riesel"}

PREDICATE_ALL = "all"
PREDICATE_MOD4_NE_2 = "mod4ne2"
PREDICATE_ODD = "odd"

# predicate name -> (modulus, the residues mod modulus it claims)
_PREDICATES = {
    PREDICATE_ALL: (1, (0,)),
    PREDICATE_MOD4_NE_2: (4, (0, 1, 3)),
    PREDICATE_ODD: (2, (1,)),
}


class VerificationError(Exception):
    """A claim failed to verify; subclasses carry the failure data."""


class NoOffsetError(VerificationError):
    """No exponent class works for this divisor: it cannot join the cover."""

    def __init__(self, divisor, k, sign):
        self.divisor = divisor
        super().__init__(
            f"no offset: {divisor} divides no term of the "
            f"{_SIGN_NAMES[sign]} sequence for k={k}"
        )


class UncoveredResidueError(VerificationError):
    """Some exponent class mod L is claimed by no divisor."""

    def __init__(self, residue, lcm):
        self.residue = residue
        self.lcm = lcm
        super().__init__(f"uncovered residue {residue} (mod {lcm})")


class CertificateFormatError(ValueError):
    """A serialized certificate does not match the schema."""


@dataclass(frozen=True)
class Candidate:
    """An odd k with the sequence sign: +1 Sierpinski, -1 Riesel."""

    k: int
    sign: int

    def __post_init__(self):
        if self.sign not in (SIGN_SIERPINSKI, SIGN_RIESEL):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and positive, got {self.k}")

    def term(self, n: int) -> int:
        """k * 2**n + sign."""
        return self.k * (1 << n) + self.sign

    @property
    def sign_name(self) -> str:
        return _SIGN_NAMES[self.sign]


@dataclass(frozen=True)
class CoverEntry:
    """One divisor with its period b and offset c: d | k*2^n + sign
    whenever n == c (mod b)."""

    d: int
    b: int
    c: int


@dataclass(frozen=True)
class CoverCertificate:
    """Verified cover: entries, L = lcm of the periods and the predicate
    modulus, and the residue table mapping each claimed r in 0..L-1 to the
    first entry (in cover order) with r == c (mod b), and every other r to
    None.  divisor_primality flags composite divisors - legal in a cover,
    but worth a warning."""

    candidate: Candidate
    entries: tuple[CoverEntry, ...]
    lcm: int
    table: tuple[int | None, ...]
    divisor_primality: tuple[bool, ...]
    predicate: str = PREDICATE_ALL

    @property
    def witness_counts(self) -> tuple[int, ...]:
        """How many residues mod L each entry claims."""
        counts = Counter(self.table)
        return tuple(counts[idx] for idx in range(len(self.entries)))


def _require_cover_k(candidate):
    # k = 1 is fine for prime hunting but not for covers: the first Riesel
    # term would be 1, which has no proper factor.
    if candidate.k < 3:
        raise ValueError(f"covers require k >= 3, got k={candidate.k}")


def build_entry(candidate: Candidate, d: int) -> CoverEntry:
    """Period and minimal offset for one divisor.

    Raises NoOffsetError when d divides no term (in particular whenever
    d | k, since then every term is sign mod d).
    """
    _require_cover_k(candidate)
    if d < 3 or d % 2 == 0:
        raise ValueError(f"cover divisors must be odd and >= 3, got {d}")
    b = arith.multiplicative_order(2, d)
    c = arith.find_offset(candidate.k, candidate.sign, d, b)
    if c is None:
        raise NoOffsetError(d, candidate.k, candidate.sign)
    return CoverEntry(d, b, c)


def check_induction_identity(candidate: Candidate, entry: CoverEntry, j_max: int) -> bool:
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


def verify_cover(
    candidate: Candidate, divisors, predicate: str = PREDICATE_ALL
) -> CoverCertificate:
    """Build entries for every divisor, then prove that every residue mod L
    the predicate claims is claimed by some entry.

    Raises NoOffsetError (naming the divisor) or UncoveredResidueError
    (naming the smallest claimed residue mod L left open).  Deterministic:
    the table always picks the first matching entry in cover order.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    modulus, claimed = _PREDICATES[predicate]
    divisors = [int(d) for d in divisors]
    if not divisors:
        raise ValueError("cover must contain at least one divisor")
    # Tuples from lists, not generators: tuple() of a generator resizes a
    # fresh tuple, which on release joins the free list of its final size;
    # those lists fill (2000 tuples a size) until a full garbage collection,
    # so peak memory would creep with the number of calls.
    entries = tuple([build_entry(candidate, d) for d in divisors])
    lcm = arith.lcm_all([e.b for e in entries] + [modulus])
    table = [None] * lcm
    # Last entry first, so that an earlier entry overwrites a later one.
    for idx in reversed(range(len(entries))):
        e = entries[idx]
        table[e.c::e.b] = [idx] * len(range(e.c, lcm, e.b))
    holes = []
    for r in claimed:
        column = table[r::modulus]
        if None in column:
            holes.append(r + modulus * column.index(None))
    if holes:
        raise UncoveredResidueError(min(holes), lcm)
    for r in range(modulus):
        if r not in claimed:
            table[r::modulus] = [None] * len(range(r, lcm, modulus))
    primality = tuple([arith.is_prime(e.d).is_prime for e in entries])
    return CoverCertificate(candidate, entries, lcm, tuple(table), primality, predicate)


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


def first_audit_failure(certificate: CoverCertificate, n_max: int) -> int | None:
    """Smallest claimed n in 1..n_max where the witness is not a proper
    divisor of k*2^n + sign, or None when every claimed n passes.  A witness
    d <= 1 fails at its first claimed n.

    Exact, and independent of the facts check_certificate_facts proves: it
    reads k, the divisors and the table, and checks every claimed n.  Terms
    are built as bignums only in the properness prefix n <= proof_depth,
    where a term may not exceed its witness; past it the divisibility is
    decided on residues below the divisors, with one multiply-mod per
    claimed n, so the cost is linear in n_max."""
    k, sign = certificate.candidate.k, certificate.candidate.sign
    lcm, table, entries = certificate.lcm, certificate.table, certificate.entries
    depth = min(n_max, proof_depth(certificate))
    for n in range(1, depth + 1):
        idx = table[n % lcm]
        if idx is not None:
            d = entries[idx].d
            term = (k << n) + sign  # candidate.term(n), without the call
            if not 1 < d < term or term % d:
                return n
    return _first_residue_failure(certificate, depth, n_max) if n_max > depth else None


def _first_residue_failure(certificate: CoverCertificate, depth: int, n_max: int) -> int | None:
    """first_audit_failure over n = depth+1..n_max, where every term exceeds
    every divisor, so a witness d > 1 is proper exactly when it divides.

    Row 0 (the first L of those n) walks x = k*2^n mod M, M the lcm of the
    divisors > 1, doubling once per n.  Each later claimed n lies L above a
    claimed n of the row before, and its residue k*2^n mod d is the one at
    n - L times 2^L mod d.  Rows run in order of n, so the first miss is the
    smallest failing n."""
    k, sign = certificate.candidate.k, certificate.candidate.sign
    lcm, table = certificate.lcm, certificate.table
    divisors = [e.d for e in certificate.entries]
    modulus = math.lcm(*[d for d in divisors if d > 1])
    x = k % modulus * pow(2, depth, modulus) % modulus
    last = min(n_max, depth + lcm)
    starts, mods = [], []
    n_x = depth  # x = k*2^n_x mod M
    for n in range(depth + 1, last + 1):
        idx = table[n % lcm]
        if idx is not None:
            x = (x << (n - n_x)) % modulus
            n_x = n
            d = divisors[idx]
            if d <= 1 or (x + sign) % d:
                return n
            starts.append(n)
            mods.append(d)
    if not starts or starts[0] + lcm > n_max:
        return None
    step = {d: pow(2, lcm, d) for d in set(mods)}
    mults = [step[d] for d in mods]
    # Every claimed n of row 0 passed, so its residue k*2^n mod d is -sign.
    targets = [-sign % d for d in mods]
    residues = targets
    for shift in range(lcm, n_max - starts[0] + 1, lcm):
        if starts[-1] + shift > n_max:  # the last row stops at n_max
            width = bisect_right(starts, n_max - shift)
            starts, mods, mults, targets, residues = (
                v[:width] for v in (starts, mods, mults, targets, residues))
        residues = list(map(mod, map(mul, residues, mults), mods))
        if residues != targets:
            miss = next(i for i, (y, t) in enumerate(zip(residues, targets)) if y != t)
            return starts[miss] + shift
    return None


def audit_certificate(certificate: CoverCertificate, n_max: int) -> bool:
    """Check every claimed n = 1..n_max: its witness properly divides
    k*2^n + sign (first_audit_failure)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return first_audit_failure(certificate, n_max) is None


def cover_product(certificate: CoverCertificate) -> int:
    p = 1
    for e in certificate.entries:
        p *= e.d
    return p


def generate_family(candidate: Candidate, divisors, i: int) -> CoverCertificate:
    """Certificate of the i-th sibling k + 2*i*P (P = product of the cover
    divisors), which keeps the same cover: each divisor's period and offset
    are unchanged since k + 2*i*P == k (mod d).  Verified by building the
    sibling's certificate and requiring the base's entry table."""
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    base = verify_cover(candidate, divisors)
    sibling = Candidate(candidate.k + 2 * i * cover_product(base), candidate.sign)
    derived = verify_cover(sibling, divisors)
    if derived.entries != base.entries or derived.table != base.table:
        raise VerificationError(
            f"family member k={sibling.k} does not reproduce the base cover table"
        )
    return derived


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, predicate (partial covers only), entries: [{d, b, c}],
# lcm, table, divisor_primality_flags, tool_version}.  All unbounded
# integers travel as decimal strings; table holds small entry indexes, and
# null for the residues a partial cover's predicate leaves out.
# Serialization is canonical, so identical certificates give identical bytes.


def certificate_to_dict(cert: CoverCertificate) -> dict:
    doc = {"k": str(cert.candidate.k), "sign": cert.candidate.sign}
    if cert.predicate != PREDICATE_ALL:
        doc["predicate"] = cert.predicate
    doc["entries"] = [{"d": str(e.d), "b": str(e.b), "c": str(e.c)} for e in cert.entries]
    doc["lcm"] = str(cert.lcm)
    doc["table"] = list(cert.table)
    doc["divisor_primality_flags"] = list(cert.divisor_primality)
    doc["tool_version"] = TOOL_VERSION
    return doc


_FLAT_ITEM_TYPES = frozenset((int, bool, type(None)))


def dumps_json(doc) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte, for a JSON document
    with string keys.  Below Python 3.13 json indents in pure Python; here
    each list of int, bool and None (a residue table) takes one call of
    json's C encoder and is re-indented, strings take json's string encoder
    and ints their repr, which is what json.dumps writes for them."""
    return _indented(doc, "\n") + "\n"


def _indented(value, newline: str) -> str:
    # newline: "\n" plus the indent of the line the value closes on.
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        body = ("," + inner).join(
            _encode_str(key) + ": " + _indented(item, inner) for key, item in value.items()
        )
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if set(map(type, value)) <= _FLAT_ITEM_TYPES:
            # No item's text holds ", ", so the one-line form splits exactly.
            body = json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_indented(item, inner) for item in value)
    elif type(value) is str:
        return _encode_str(value)
    elif type(value) is int:
        return repr(value)
    else:
        return json.dumps(value)
    return brackets[0] + inner + body + newline + brackets[1] if value else brackets


def certificate_to_json(cert: CoverCertificate) -> str:
    return dumps_json(certificate_to_dict(cert))


def _parse_decimal(doc, key):
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise CertificateFormatError(f"missing field {key!r}") from None
    # isdigit() alone also admits other scripts' digits and superscripts.
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise CertificateFormatError(f"field {key!r} must be a decimal string")


def _parse_sign(doc):
    sign = doc.get("sign")
    # type(), not isinstance(): JSON true/false load as bools, which are ints.
    if type(sign) is not int or sign not in (SIGN_SIERPINSKI, SIGN_RIESEL):
        raise CertificateFormatError("sign must be the integer 1 or -1")
    return sign


def _parse_flags(doc, n_entries):
    flags = doc.get("divisor_primality_flags")
    if (
        not isinstance(flags, list)
        or len(flags) != n_entries
        or not all(isinstance(f, bool) for f in flags)
    ):
        raise CertificateFormatError(
            "divisor_primality_flags must hold one true/false per entry"
        )
    return tuple(flags)


def _parse_predicate(doc, predicate):
    # Only partial covers write the field, so one certificate has one form.
    if predicate == PREDICATE_ALL:
        if "predicate" in doc:
            raise CertificateFormatError("a full cover certificate has no predicate")
    elif doc.get("predicate") != predicate:
        raise CertificateFormatError(f"predicate must be {predicate!r}")


def certificate_from_dict(doc: dict, predicate: str = PREDICATE_ALL) -> CoverCertificate:
    """Rebuild a certificate with the given predicate from its JSON document.

    Structural validation only: entry progressions and the table are
    taken as stated, except that the table must hold an index exactly at
    the residues the predicate claims.  Run check_certificate_facts
    afterwards to prove the claim (that split keeps proof checking
    independent of proof generation).
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    modulus, claimed = _PREDICATES[predicate]
    _parse_predicate(doc, predicate)
    try:
        candidate = Candidate(_parse_decimal(doc, "k"), _parse_sign(doc))
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise CertificateFormatError("entries must be a nonempty list")
    entries = tuple([
        CoverEntry(_parse_decimal(e, "d"), _parse_decimal(e, "b"), _parse_decimal(e, "c"))
        for e in raw_entries
    ])
    lcm = _parse_decimal(doc, "lcm")
    table = doc.get("table")
    if not isinstance(table, list) or len(table) != lcm:
        raise CertificateFormatError("table must hold one slot per residue mod lcm")
    if lcm % modulus != 0:
        raise CertificateFormatError("lcm must be a multiple of the predicate modulus")
    for r in range(modulus):
        column = table[r::modulus]
        if r not in claimed:
            if column.count(None) != len(column):
                raise CertificateFormatError("residues outside the predicate must be null")
        elif not all(type(t) is int and 0 <= t < len(entries) for t in column):  # no bools
            raise CertificateFormatError("table must list a valid entry index per residue")
    flags = _parse_flags(doc, len(entries))
    return CoverCertificate(candidate, entries, lcm, tuple(table), flags, predicate)


def proof_depth(cert: CoverCertificate) -> int:
    """Past this exponent every term exceeds every divisor, so a witness
    that divides a term is a proper divisor of it."""
    # A loop, not max() over a generator, which costs about three times as
    # much for a short cover; each audit asks twice, here and in
    # first_audit_failure.
    largest = 0
    for e in cert.entries:
        if e.d > largest:
            largest = e.d
    return largest.bit_length()


def _divisibility_problem(cert: CoverCertificate) -> str | None:
    """d odd and >= 3, d | 2^b - 1, d | k*2^c + sign, c < b, L = lcm of the
    periods and the predicate modulus, and the table's shape and congruences:
    one slot per residue mod L, a valid entry index at every residue the
    predicate claims and None at every other."""
    for e in cert.entries:
        if e.d < 3 or e.d % 2 == 0:
            return f"divisor {e.d} is not odd and >= 3"
        if not 0 <= e.c < e.b:
            return f"offset {e.c} out of range for period {e.b} (d={e.d})"
        if arith.mod_pow(2, e.b, e.d) != 1:
            return f"{e.d} does not divide 2^{e.b} - 1"
        if (cert.candidate.k * arith.mod_pow(2, e.c, e.d) + cert.candidate.sign) % e.d != 0:
            return f"{e.d} does not divide k*2^{e.c} {cert.candidate.sign:+d}"
    modulus, claimed = _PREDICATES[cert.predicate]
    if cert.lcm != arith.lcm_all([e.b for e in cert.entries] + [modulus]):
        return "stated lcm does not match the entry periods"
    if len(cert.table) != cert.lcm:
        return f"table has {len(cert.table)} slots, not one per residue mod {cert.lcm}"
    n_entries = len(cert.entries)
    for r, idx in enumerate(cert.table):
        if r % modulus not in claimed:
            if idx is not None:
                return f"table assigns residue {r}, which the predicate does not claim"
            continue
        if type(idx) is not int or not 0 <= idx < n_entries:  # no bools
            return f"table has no valid entry index at claimed residue {r}"
        e = cert.entries[idx]
        if r % e.b != e.c:
            return f"table assigns residue {r} to d={e.d} but {r} != {e.c} (mod {e.b})"
    return None


def check_certificate_facts(cert: CoverCertificate) -> str | None:
    """Prove a stated certificate for every claimed n >= 1, without
    searching: the divisibility facts give d | k*2^n + sign for every
    n == c (mod b), so the table's witness divides every claimed term, and
    the proof_depth prefix audit shows each witness proper.  Returns a
    description of the first problem, or None when the claim holds."""
    problem = _divisibility_problem(cert)
    if problem is None and (n_bad := first_audit_failure(cert, proof_depth(cert))):
        problem = f"witness fails at n={n_bad}"
    return problem
