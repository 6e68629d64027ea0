"""Coverless numbers: partial covers plus exact algebraic factor families.

Two families are supported.  For k = i^4 (sign +1), exponents n != 2 (mod 4)
fall to a partial cover, and for n == 2 (mod 4) the term is 4*(i*2^m)^4 + 1
with m = n//4, which splits as (2x^2+2x+1)(2x^2-2x+1); the larger half
A*2^(2m) + B*2^m + 1 (A = 2i^2, B = 2i) is the emitted factor.  For k = a^2
(sign -1), odd exponents fall to a partial cover and even n give the
difference of squares (a*2^(n/2) + 1)(a*2^(n/2) - 1).
"""

import json
from dataclasses import dataclass

from coverscope import arith
from coverscope.cover import (
    TOOL_VERSION,
    Candidate,
    CertificateFormatError,
    CoverEntry,
    UncoveredResidueError,
    VerificationError,
    _first_match,
    _parse_decimal,
    _parse_flags,
    _parse_sign,
    build_entry,
)

KIND_FOURTH_POWER = "fourth_power"
KIND_SQUARE = "square"

PREDICATE_MOD4_NE_2 = "mod4ne2"
PREDICATE_ODD = "odd"

# predicate name -> (modulus the table length must absorb, test on n)
_PREDICATES = {
    PREDICATE_MOD4_NE_2: (4, lambda n: n % 4 != 2),
    PREDICATE_ODD: (2, lambda n: n % 2 == 1),
}


@dataclass(frozen=True)
class FourthPowerCase:
    """k = root**4 with a partial cover for n != 2 (mod 4)."""

    root: int
    partial_cover: tuple[int, ...]

    kind = KIND_FOURTH_POWER
    sign = 1
    predicate = PREDICATE_MOD4_NE_2

    def __post_init__(self):
        if self.root < 1:
            raise ValueError(f"root must be positive, got {self.root}")
        object.__setattr__(self, "partial_cover", tuple(self.partial_cover))

    @property
    def k(self) -> int:
        return self.root**4

    @property
    def A(self) -> int:
        """Quadratic coefficient of the residual factor: 2 * root**2."""
        return 2 * self.root * self.root

    @property
    def B(self) -> int:
        """Linear coefficient of the residual factor: 2 * root."""
        return 2 * self.root


@dataclass(frozen=True)
class SquareCase:
    """k = root**2 with a partial cover for odd n."""

    root: int
    partial_cover: tuple[int, ...]

    kind = KIND_SQUARE
    sign = -1
    predicate = PREDICATE_ODD

    def __post_init__(self):
        if self.root < 1:
            raise ValueError(f"root must be positive, got {self.root}")
        object.__setattr__(self, "partial_cover", tuple(self.partial_cover))

    @property
    def k(self) -> int:
        return self.root * self.root


@dataclass(frozen=True)
class PartialCoverCertificate:
    """Like a full cover certificate, but exhaustive only over the residues
    mod L that satisfy the predicate; other table slots are None.  L is a
    multiple of the predicate modulus, so n and n mod L always agree on
    the predicate."""

    candidate: Candidate
    predicate: str
    entries: tuple[CoverEntry, ...]
    lcm: int
    table: tuple[int | None, ...]
    witness_counts: tuple[int, ...]
    divisor_primality: tuple[bool, ...]


def fourth_power_factor(case: FourthPowerCase, n: int) -> int:
    """Residual factor A*2^(2m) + B*2^m + 1, m = n//4, for n == 2 (mod 4).

    Re-derives the whole split on every call: the cofactor
    A*2^(2m) - B*2^m + 1 must reconstruct k*2^n + 1 exactly, and the factor
    must be proper (1 < F < term; equality only threatens degenerate tiny
    roots, and is a hard failure).
    """
    if n < 2 or n % 4 != 2:
        raise ValueError(f"fourth-power factor needs n == 2 (mod 4), got n={n}")
    m = n // 4
    assert m == (n - 2) // 4
    hi = case.A << (2 * m)
    lo = case.B << m
    factor = hi + lo + 1
    cofactor = hi - lo + 1
    term = (case.k << n) + 1
    if factor * cofactor != term or term % factor != 0:
        raise VerificationError(
            f"factor split failed for k={case.k}, n={n}"
        )
    if not 1 < factor < term:
        raise VerificationError(
            f"factor {factor} of term at n={n} is not a proper divisor"
        )
    return factor


def square_factor(case: SquareCase, n: int) -> int:
    """Factor root*2^(n/2) + 1 of k*2^n - 1 = (root*2^(n/2))^2 - 1, even n."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"square factor needs even n >= 2, got n={n}")
    x = case.root << (n // 2)
    factor = x + 1
    term = (case.k << n) - 1
    if factor * (x - 1) != term or term % factor != 0:
        raise VerificationError(f"factor split failed for k={case.k}, n={n}")
    if not 1 < factor < term:
        raise VerificationError(
            f"factor {factor} of term at n={n} is not a proper divisor"
        )
    return factor


def verify_partial_cover(
    candidate: Candidate, divisors, predicate: str
) -> PartialCoverCertificate:
    """Residue exhaustiveness restricted to the predicate.

    Same per-divisor machinery as a full cover; L is forced to a multiple
    of the predicate modulus and only predicate-satisfying residues must be
    claimed.  Failure names the smallest such residue left unclaimed.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    modulus, pred = _PREDICATES[predicate]
    divisors = [int(d) for d in divisors]
    if not divisors:
        raise ValueError("partial cover must contain at least one divisor")
    entries = tuple(build_entry(candidate, d) for d in divisors)
    lcm = arith.lcm_all([e.b for e in entries] + [modulus])
    table: list[int | None] = []
    for r in range(lcm):
        if not pred(r):
            table.append(None)
            continue
        idx = _first_match(entries, r)
        if idx is None:
            raise UncoveredResidueError(r, lcm)
        table.append(idx)
    counts = [0] * len(entries)
    for idx in table:
        if idx is not None:
            counts[idx] += 1
    primality = tuple(arith.is_prime(e.d).is_prime for e in entries)
    return PartialCoverCertificate(
        candidate, predicate, entries, lcm, tuple(table), tuple(counts), primality
    )


def partial_witness(certificate: PartialCoverCertificate, n: int) -> int:
    """Covering divisor for an exponent n >= 1 satisfying the predicate."""
    if n < 1:
        raise ValueError("the sequence starts at n = 1")
    _, pred = _PREDICATES[certificate.predicate]
    if not pred(n):
        raise ValueError(
            f"n={n} does not satisfy the {certificate.predicate} condition"
        )
    idx = certificate.table[n % certificate.lcm]
    assert idx is not None, "predicate residues are always claimed"
    return certificate.entries[idx].d


def _case_candidate(case) -> Candidate:
    return Candidate(case.k, case.sign)


def verify_coverless(candidate: Candidate, case, n_max: int) -> bool:
    """Every exponent 1..n_max gets a proper factor: the partial cover's
    witness where the predicate holds, the algebraic factor elsewhere.
    All divisions exact, all factors strictly between 1 and the term."""
    if candidate.k != case.k or candidate.sign != case.sign:
        raise ValueError("candidate does not match the algebraic case")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    try:
        cert = verify_partial_cover(candidate, case.partial_cover, case.predicate)
    except VerificationError:
        return False
    return first_coverless_failure(candidate, case, cert, n_max) is None


def first_coverless_failure(candidate, case, partial_cert, n_max):
    """Smallest failing exponent in 1..n_max, or None. Split out so audits
    can report where a doctored certificate breaks."""
    _, pred = _PREDICATES[case.predicate]
    for n in range(1, n_max + 1):
        try:
            if pred(n):
                d = partial_witness(partial_cert, n)
                term = candidate.term(n)
                if term % d != 0 or not 1 < d < term:
                    return n
            elif case.kind == KIND_FOURTH_POWER:
                fourth_power_factor(case, n)
            else:
                square_factor(case, n)
        except VerificationError:
            return n
    return None


@dataclass(frozen=True)
class AlgebraicCertificate:
    """Partial cover plus the algebraic factor family, with the exponent
    range the combination was audited over."""

    case: FourthPowerCase | SquareCase
    partial: PartialCoverCertificate
    audited_n_max: int

    @property
    def candidate(self) -> Candidate:
        return self.partial.candidate


def build_algebraic_certificate(case, n_max: int = 200) -> AlgebraicCertificate:
    """Verify the partial cover, then the factor family up to n_max."""
    candidate = _case_candidate(case)
    partial = verify_partial_cover(candidate, case.partial_cover, case.predicate)
    n_bad = first_coverless_failure(candidate, case, partial, n_max)
    if n_bad is not None:
        raise VerificationError(f"coverless verification failed at n={n_bad}")
    return AlgebraicCertificate(case, partial, n_max)


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, kind, root, A, B (fourth_power only),
# partial_cover_certificate, audited_n_max, tool_version}.  The embedded
# partial certificate follows the cover schema plus a predicate field and
# null table slots outside the predicate.


def partial_certificate_to_dict(cert: PartialCoverCertificate) -> dict:
    return {
        "k": str(cert.candidate.k),
        "sign": cert.candidate.sign,
        "predicate": cert.predicate,
        "entries": [
            {"d": str(e.d), "b": str(e.b), "c": str(e.c)} for e in cert.entries
        ],
        "lcm": str(cert.lcm),
        "table": list(cert.table),
        "divisor_primality_flags": list(cert.divisor_primality),
        "tool_version": TOOL_VERSION,
    }


def certificate_to_dict(cert: AlgebraicCertificate) -> dict:
    doc = {
        "k": str(cert.candidate.k),
        "sign": cert.candidate.sign,
        "kind": cert.case.kind,
        "root": str(cert.case.root),
    }
    if cert.case.kind == KIND_FOURTH_POWER:
        doc["A"] = str(cert.case.A)
        doc["B"] = str(cert.case.B)
    doc["partial_cover_certificate"] = partial_certificate_to_dict(cert.partial)
    doc["audited_n_max"] = cert.audited_n_max
    doc["tool_version"] = TOOL_VERSION
    return doc


def certificate_to_json(cert: AlgebraicCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def partial_certificate_from_dict(doc: dict) -> PartialCoverCertificate:
    try:
        candidate = Candidate(_parse_decimal(doc, "k"), _parse_sign(doc))
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    predicate = doc.get("predicate")
    if predicate not in _PREDICATES:
        raise CertificateFormatError(f"unknown predicate {predicate!r}")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise CertificateFormatError("entries must be a nonempty list")
    entries = tuple(
        CoverEntry(_parse_decimal(e, "d"), _parse_decimal(e, "b"), _parse_decimal(e, "c"))
        for e in raw_entries
    )
    lcm = _parse_decimal(doc, "lcm")
    table = doc.get("table")
    if (
        not isinstance(table, list)
        or len(table) != lcm
        or not all(
            t is None or (type(t) is int and 0 <= t < len(entries)) for t in table  # no bools
        )
    ):
        raise CertificateFormatError("table must hold entry indexes or nulls")
    modulus, pred = _PREDICATES[predicate]
    if lcm % modulus != 0:
        raise CertificateFormatError("lcm must be a multiple of the predicate modulus")
    for r, idx in enumerate(table):
        if pred(r) and idx is None:
            raise CertificateFormatError(f"predicate residue {r} is unclaimed")
    flags = _parse_flags(doc, len(entries))
    counts = [0] * len(entries)
    for idx in table:
        if idx is not None:
            counts[idx] += 1
    return PartialCoverCertificate(
        candidate,
        predicate,
        entries,
        lcm,
        tuple(table),
        tuple(counts),
        flags,
    )


def certificate_from_dict(doc: dict) -> AlgebraicCertificate:
    kind = doc.get("kind")
    sign = _parse_sign(doc)
    root = _parse_decimal(doc, "root")
    k = _parse_decimal(doc, "k")
    partial_doc = doc.get("partial_cover_certificate")
    if not isinstance(partial_doc, dict):
        raise CertificateFormatError("missing partial_cover_certificate")
    partial = partial_certificate_from_dict(partial_doc)
    divisors = tuple(e.d for e in partial.entries)
    if kind == KIND_FOURTH_POWER:
        case = FourthPowerCase(root, divisors)
        if _parse_decimal(doc, "A") != case.A or _parse_decimal(doc, "B") != case.B:
            raise CertificateFormatError("stated A, B do not match 2*root^2, 2*root")
    elif kind == KIND_SQUARE:
        case = SquareCase(root, divisors)
    else:
        raise CertificateFormatError(f"unknown kind {kind!r}")
    if case.k != k or partial.candidate.k != k:
        raise CertificateFormatError("k does not match the stated root and kind")
    if sign != case.sign or partial.candidate.sign != case.sign:
        raise CertificateFormatError("sign does not match the kind")
    if partial.predicate != case.predicate:
        raise CertificateFormatError("partial certificate does not match the kind")
    audited = doc.get("audited_n_max")
    if type(audited) is not int or audited < 1:  # no bools
        raise CertificateFormatError("audited_n_max must be a positive integer")
    return AlgebraicCertificate(case, partial, audited)


def check_certificate_facts(cert: AlgebraicCertificate) -> str | None:
    """Divisibility-only re-check of a stated algebraic certificate: the
    partial table's congruences and progressions, then the factor family
    up to audited_n_max.  No order or offset searches."""
    candidate = cert.candidate
    for e in cert.partial.entries:
        if not 0 <= e.c < e.b:
            return f"offset {e.c} out of range for period {e.b} (d={e.d})"
        if arith.mod_pow(2, e.b, e.d) != 1:
            return f"{e.d} does not divide 2^{e.b} - 1"
        if (candidate.k * arith.mod_pow(2, e.c, e.d) + candidate.sign) % e.d != 0:
            return f"{e.d} does not divide k*2^{e.c} {candidate.sign:+d}"
    for r, idx in enumerate(cert.partial.table):
        if idx is None:
            continue
        e = cert.partial.entries[idx]
        if r % e.b != e.c:
            return f"table assigns residue {r} to d={e.d} but {r} != {e.c} (mod {e.b})"
    n_bad = first_coverless_failure(candidate, cert.case, cert.partial, cert.audited_n_max)
    if n_bad is not None:
        return f"factor check failed at n={n_bad}"
    return None
