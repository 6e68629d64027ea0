"""Coverless numbers: partial covers plus exact algebraic factor families.

Two families are supported.  For k = i^4 (sign +1), exponents n != 2 (mod 4)
fall to a partial cover, and for n == 2 (mod 4) the term is 4*(i*2^m)^4 + 1
with m = n//4, which splits as (2x^2+2x+1)(2x^2-2x+1); the larger half
A*2^(2m) + B*2^m + 1 (A = 2i^2, B = 2i) is the emitted factor.  For k = a^2
(sign -1), odd exponents fall to a partial cover and even n give the
difference of squares (a*2^(n/2) + 1)(a*2^(n/2) - 1).

The partial cover is an ordinary coverscope.cover certificate whose
predicate claims exactly the exponents the factor family leaves out, so
this module holds only the cases, the factor splits and the
AlgebraicCertificate that joins the two halves.
"""

from dataclasses import dataclass

from coverscope import cover
from coverscope.cover import (
    PREDICATE_MOD4_NE_2,
    PREDICATE_ODD,
    TOOL_VERSION,
    Candidate,
    CertificateFormatError,
    CoverCertificate,
    VerificationError,
    _divisibility_problem,
    _parse_decimal,
    _parse_sign,
)

KIND_FOURTH_POWER = "fourth_power"
KIND_SQUARE = "square"


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
    if factor * cofactor != term:
        raise VerificationError(f"factor split failed for k={case.k}, n={n}")
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
    if factor * (x - 1) != term:
        raise VerificationError(f"factor split failed for k={case.k}, n={n}")
    if not 1 < factor < term:
        raise VerificationError(
            f"factor {factor} of term at n={n} is not a proper divisor"
        )
    return factor


def first_coverless_failure(case, partial: CoverCertificate, n_max: int) -> int | None:
    """Smallest failing exponent in 1..n_max, or None: the partial cover's
    witness audit for the n it claims, the factor split for the rest.
    Split out so audits can report where a doctored certificate breaks."""
    n_bad = cover.first_audit_failure(partial, n_max)
    factor = fourth_power_factor if case.kind == KIND_FOURTH_POWER else square_factor
    for n in range(1, n_max + 1 if n_bad is None else n_bad):
        if partial.table[n % partial.lcm] is None:
            try:
                factor(case, n)
            except VerificationError:
                return n
    return n_bad


@dataclass(frozen=True)
class AlgebraicCertificate:
    """Partial cover plus the algebraic factor family, and the depth of the
    term-by-term cross-check run when it was built."""

    case: FourthPowerCase | SquareCase
    partial: CoverCertificate
    audited_n_max: int

    @property
    def candidate(self) -> Candidate:
        return self.partial.candidate


def build_algebraic_certificate(case, n_max: int | None = None) -> AlgebraicCertificate:
    """Verify the partial cover, then every factor and witness up to n_max
    (default 200, recorded as audited_n_max) or cover.proof_depth if deeper."""
    n_max = n_max or 200
    candidate = Candidate(case.k, case.sign)
    partial = cover.verify_cover(candidate, case.partial_cover, case.predicate)
    n_bad = first_coverless_failure(case, partial, max(n_max, cover.proof_depth(partial)))
    if n_bad is not None:
        raise VerificationError(f"coverless verification failed at n={n_bad}")
    return AlgebraicCertificate(case, partial, n_max)


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, kind, root, A, B (fourth_power only),
# partial_cover_certificate, audited_n_max, tool_version}.  The embedded
# partial certificate follows the cover schema, predicate field included.


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
    doc["partial_cover_certificate"] = cover.certificate_to_dict(cert.partial)
    doc["audited_n_max"] = cert.audited_n_max
    doc["tool_version"] = TOOL_VERSION
    return doc


def certificate_to_json(cert: AlgebraicCertificate) -> str:
    return cover.dumps_json(certificate_to_dict(cert))


def certificate_from_dict(doc: dict) -> AlgebraicCertificate:
    kind = doc.get("kind")
    if kind == KIND_FOURTH_POWER:
        case_type = FourthPowerCase
    elif kind == KIND_SQUARE:
        case_type = SquareCase
    else:
        raise CertificateFormatError(f"unknown kind {kind!r}")
    sign = _parse_sign(doc)
    root = _parse_decimal(doc, "root")
    k = _parse_decimal(doc, "k")
    partial_doc = doc.get("partial_cover_certificate")
    if not isinstance(partial_doc, dict):
        raise CertificateFormatError("missing partial_cover_certificate")
    partial = cover.certificate_from_dict(partial_doc, case_type.predicate)
    try:
        case = case_type(root, tuple(e.d for e in partial.entries))
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    if kind == KIND_FOURTH_POWER and (
        _parse_decimal(doc, "A") != case.A or _parse_decimal(doc, "B") != case.B
    ):
        raise CertificateFormatError("stated A, B do not match 2*root^2, 2*root")
    if case.k != k or partial.candidate.k != k:
        raise CertificateFormatError("k does not match the stated root and kind")
    if sign != case.sign or partial.candidate.sign != case.sign:
        raise CertificateFormatError("sign does not match the kind")
    audited = doc.get("audited_n_max")
    if type(audited) is not int or audited < 1:  # no bools
        raise CertificateFormatError("audited_n_max must be a positive integer")
    return AlgebraicCertificate(case, partial, audited)


def check_certificate_facts(cert: AlgebraicCertificate) -> str | None:
    """Prove a stated algebraic certificate for every n >= 1, without
    searching: the partial cover's divisibility facts, then its witnesses
    and the factor family up to cover.proof_depth, which is at least 2 as
    every d >= 3.  The splits are polynomial identities whose smaller half
    exceeds 1 past n = 2, the first exponent of both families."""
    problem = _divisibility_problem(cert.partial)
    if problem is not None:
        return problem
    n_bad = first_coverless_failure(cert.case, cert.partial, cover.proof_depth(cert.partial))
    if n_bad is not None:
        return f"factor check failed at n={n_bad}"
    return None
