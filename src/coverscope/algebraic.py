"""Coverless numbers: partial covers plus exact algebraic factor families.

One family per sign.  For k = i^4 (sign +1), n != 2 (mod 4) fall to a
partial cover, and n == 2 (mod 4) give 4x^4 + 1 = (2x^2+2x+1)(2x^2-2x+1)
at x = i*2^m, m = n//4, whose larger half A*2^(2m) + B*2^m + 1 (A = 2i^2,
B = 2i) is the emitted factor.  For k = a^2 (sign -1), odd n fall to a
partial cover and even n to the difference of squares x^2 - 1, x = a*2^(n/2).

The partial cover is an ordinary coverscope.cover certificate whose
predicate claims exactly the exponents the factor family leaves out.  The
cases (CoverlessCase subclasses, paired with their sign in CASE_BY_SIGN),
the AlgebraicCertificate that joins the two halves, its parser and proof,
and the one split function family_factor live in coverscope.check; this
module builds and writes them.
"""

from coverscope import check, cover

# Defined in the trusted checker; these names stay importable from algebraic.
from coverscope.check import (  # noqa: F401
    KIND_FOURTH_POWER,
    PREDICATE_MOD4_NE_2,
    PREDICATE_ODD,
    AlgebraicCertificate,
    Candidate,
    CertificateFormatError,
    FourthPowerCase,
    SquareCase,
    VerificationError,
    family_factor,
    first_coverless_failure,
)
from coverscope.check import algebraic_certificate_from_dict as certificate_from_dict  # noqa: F401
from coverscope.check import check_algebraic_certificate_facts as check_certificate_facts  # noqa: F401


def build_algebraic_certificate(case, n_max: int | None = None) -> AlgebraicCertificate:
    """Verify the partial cover, then every factor and witness up to n_max
    (default 200, recorded as audited_n_max) or check.proof_depth if deeper."""
    n_max = n_max or 200
    candidate = Candidate(case.k, case.sign)
    partial = cover.verify_cover(candidate, case.partial_cover, case.predicate)
    depth = max(n_max, check.proof_depth(partial))
    n_bad = check.first_coverless_failure(case, partial, depth)
    if n_bad is not None:
        raise VerificationError(f"coverless verification failed at n={n_bad}")
    return AlgebraicCertificate(case, partial, n_max)


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, kind, root, A, B (fourth_power only),
# partial_cover_certificate, audited_n_max, tool_version}.  The embedded
# partial certificate follows the cover schema, predicate field included
# and residue table left out, one level deeper in the same layout.


def certificate_to_json(cert: AlgebraicCertificate) -> str:
    case = cert.case
    coeffs = f'  "A": "{case.A}",\n  "B": "{case.B}",\n' if case.kind == KIND_FOURTH_POWER else ""
    # Not cover.certificate_to_json, whose bytes perfbench counts as cover.cert_bytes.
    return (
        f'{{\n  "k": "{cert.candidate.k}",\n  "sign": {cert.candidate.sign},\n'
        f'  "kind": "{case.kind}",\n  "root": "{case.root}",\n{coeffs}'
        f'  "partial_cover_certificate": {cover._cover_object(cert.partial, "  ")},\n'
        f'  "audited_n_max": {cert.audited_n_max},\n  "tool_version": "{cover.TOOL_VERSION}"\n}}\n'
    )
