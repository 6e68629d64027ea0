"""Coverless numbers: partial covers plus exact algebraic factor families.

One family per sign.  For k = i^4 (sign +1), n != 2 (mod 4) fall to a
partial cover, and n == 2 (mod 4) give 4x^4 + 1 = (2x^2+2x+1)(2x^2-2x+1)
at x = i*2^m, m = n//4, whose larger half A*2^(2m) + B*2^m + 1 (A = 2i^2,
B = 2i) is the emitted factor.  For k = a^2 (sign -1), odd n fall to a
partial cover and even n to the difference of squares x^2 - 1, x = a*2^(n/2).

A coverless certificate is an ordinary coverscope.cover certificate whose
factor family, the case, takes its class n == c (mod b) as the first
progression of the cover.  The cases (CoverlessCase subclasses, paired with
their sign in CASE_BY_SIGN), the coverless parser, the one split function
family_factor and the one proof function prove live in coverscope.check;
this module builds and writes them, and proves nothing.
"""

import dataclasses

from coverscope import cover
from coverscope.check import KIND_FOURTH_POWER, Candidate, CoverCertificate

# The checker's names the benchmark in perfbench/ reaches through algebraic.
from coverscope.check import (  # noqa: F401
    PREDICATE_MOD4_NE_2,
    PREDICATE_ODD,
    FourthPowerCase,
    SquareCase,
)
from coverscope.check import algebraic_certificate_from_dict as certificate_from_dict  # noqa: F401
from coverscope.check import prove as check_certificate_facts  # noqa: F401


def build_algebraic_certificate(case, n_max: int | None = None) -> CoverCertificate:
    """Build the partial cover with the case as its factor family,
    recording n_max (default 200) as audited_n_max: the depth to which the
    caller is to cross-check it with check.prove before emitting it.
    Proves nothing; raises only where verify_cover cannot build the cover."""
    cert = cover.verify_cover(Candidate(case.k, case.sign), case.partial_cover, case)
    return dataclasses.replace(cert, audited_n_max=n_max or 200)


# --- serialization -----------------------------------------------------------
# Schema: {k, sign, kind, root, A, B (fourth_power only),
# partial_cover_certificate, audited_n_max, tool_version}.  The embedded
# partial certificate follows the cover schema, its predicate field the
# file's name for the n outside the family's class, and residue table left
# out, one level deeper in the same layout.


def certificate_to_json(cert: CoverCertificate) -> str:
    case = cert.family
    coeffs = f'  "A": "{case.A}",\n  "B": "{case.B}",\n' if case.kind == KIND_FOURTH_POWER else ""
    # Not cover.certificate_to_json, whose bytes perfbench counts as cover.cert_bytes.
    return (
        f'{{\n  "k": "{cert.candidate.k}",\n  "sign": {cert.candidate.sign},\n'
        f'  "kind": "{case.kind}",\n  "root": "{case.root}",\n{coeffs}'
        f'  "partial_cover_certificate": {cover._cover_object(cert, "  ")},\n'
        f'  "audited_n_max": {cert.audited_n_max},\n  "tool_version": "{cover.TOOL_VERSION}"\n}}\n'
    )
