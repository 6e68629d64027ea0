"""Verification of Sierpinski and Riesel numbers from first principles.

A Sierpinski (Riesel) number is an odd k whose sequence k*2^n + 1
(k*2^n - 1) is composite for every n >= 1.  This package proves such
claims with machine-checkable certificates: covering sets with residue
exhaustiveness over the lcm of the periods, or partial covers plus exact
algebraic factor families for numbers without a full cover.  It also
disproves candidacy by locating primes (Proth-backed on the +1 side).
All arithmetic is exact and pure Python.
"""

import importlib

# Each public name is imported from its module on first use, so that
# `import coverscope.check` loads the trusted checker and nothing else.
_HOMES = {
    "algebraic": ("build_algebraic_certificate",),
    "arith": ("PrimalityResult", "is_prime", "proth_test"),
    "check": ("Candidate", "CoverCertificate", "CoverEntry", "FourthPowerCase", "SquareCase",
              "VerificationError", "family_factor"),
    "cover": ("TOOL_VERSION", "NoOffsetError", "UncoveredResidueError", "build_entry",
              "generate_family", "verify_cover", "witness"),
    "dataset": ("CorpusRecord", "load_corpus", "verify_corpus"),
    "disqualify": ("DisqualificationRecord", "first_prime_exponent", "survey_range"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name == "__version__":
        name = "TOOL_VERSION"
    if name not in _HOME:
        raise AttributeError(f"module 'coverscope' has no attribute {name!r}")
    return getattr(importlib.import_module(f"coverscope.{_HOME[name]}"), name)
