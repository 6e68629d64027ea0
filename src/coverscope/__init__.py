"""Verification of Sierpinski and Riesel numbers from first principles.

A Sierpinski (Riesel) number is an odd k whose sequence k*2^n + 1
(k*2^n - 1) is composite for every n >= 1.  This package proves such
claims with machine-checkable certificates: covering sets with residue
exhaustiveness over the lcm of the periods, or partial covers plus exact
algebraic factor families for numbers without a full cover.  It also
disproves candidacy by locating primes (Proth-backed on the +1 side).
All arithmetic is exact and pure Python.
"""

from coverscope.algebraic import (
    AlgebraicCertificate,
    FourthPowerCase,
    SquareCase,
    build_algebraic_certificate,
    fourth_power_factor,
    square_factor,
)
from coverscope.arith import PrimalityResult, is_prime, proth_test
from coverscope.cover import (
    TOOL_VERSION,
    Candidate,
    CoverCertificate,
    CoverEntry,
    NoOffsetError,
    UncoveredResidueError,
    VerificationError,
    audit_certificate,
    build_entry,
    generate_family,
    verify_cover,
    witness,
)
from coverscope.dataset import CorpusRecord, load_corpus, verify_corpus
from coverscope.disqualify import (
    DisqualificationRecord,
    first_prime_exponent,
    survey_range,
)

__version__ = TOOL_VERSION

__all__ = [
    "TOOL_VERSION",
    "AlgebraicCertificate",
    "Candidate",
    "CorpusRecord",
    "CoverCertificate",
    "CoverEntry",
    "DisqualificationRecord",
    "FourthPowerCase",
    "NoOffsetError",
    "PrimalityResult",
    "SquareCase",
    "UncoveredResidueError",
    "VerificationError",
    "audit_certificate",
    "build_algebraic_certificate",
    "build_entry",
    "first_prime_exponent",
    "fourth_power_factor",
    "generate_family",
    "is_prime",
    "load_corpus",
    "proth_test",
    "square_factor",
    "survey_range",
    "verify_cover",
    "verify_corpus",
    "witness",
]
