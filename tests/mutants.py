"""A fixed list of mutants of the proof code, each of which Tier-1 must kill.

A mutant is (name, module, old text, new text): the file
src/coverscope/<module>.py with the one occurrence of the old text replaced
by the new.  For each mutant the runner copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there and runs
Tier-1 under -x in the copy.  The run fails when Tier-1 passes on a mutant
(it survived) or when an old text does not occur exactly once in its
module: a change that rewrites a mutated line updates its mutant.  The
working tree is never written.  Stdlib only; run from anywhere as

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MUTANTS = (
    # The N-1 and N+1 proofs (arith): a gcd, a split check or the split
    # range left out lets a composite N be proved prime.
    (
        "nminus1-q-gcd-dropped", "arith",
        "if any(math.gcd(pow(a, (n - 1) // q, n) - 1, n) != 1 for q in qs):",
        "if False:",
    ),
    (
        "nminus1-lo-gcd-dropped", "arith",
        "if lo > 1 and math.gcd(pow(a, f, n) - 1, n) != 1:",
        "if False:",
    ),
    (
        "nminus1-split-check-dropped", "arith",
        "if k >> m and _two_factor_split(n, f, 1, lo):",
        "if False:",
    ),
    (
        "nplus1-q-gcd-dropped", "arith",
        "if any(math.gcd(_lucas_v(w, k // q, n) - 2, n) != 1 for q in qs):",
        "if False:",
    ),
    (
        "nplus1-lo-gcd-dropped", "arith",
        "if lo > 1 and math.gcd(_lucas_v(w, f >> m, n) - 2, n) != 1:",
        "if False:",
    ),
    (
        "nplus1-split-check-dropped", "arith",
        "return 0 if k >> m and _two_factor_split(n, f, -1, lo) else p",
        "return p",
    ),
    (
        "split-range-one-short", "arith",
        "r * lo // (f * lo - 1) + 1)",
        "r * lo // (f * lo - 1))",
    ),
    # The checker (check): an entry fact, the properness prefix, L's match
    # with the periods (the family's among them), the family's tie to k and
    # its root, or the family's class kept from the witnesses left out lets
    # a false cover be proved.
    (
        "divisor-1-accepted", "check",
        "if e.d < 3 or e.d % 2 == 0:",
        "if e.d < 1 or e.d % 2 == 0:",
    ),
    (
        "proof-depth-one-short", "check",
        "return largest.bit_length()",
        "return largest.bit_length() - 1",
    ),
    (
        "lcm-match-skipped", "check",
        "if lcm != math.lcm(*[e.b for e in cert.entries], cert.family.b if cert.family else 1):",
        "if False:",
    ),
    (
        "family-period-dropped-from-lcm", "check",
        "if lcm != math.lcm(*[e.b for e in cert.entries], cert.family.b if cert.family else 1):",
        "if lcm != math.lcm(*[e.b for e in cert.entries]):",
    ),
    (
        "family-tie-to-k-and-sign-dropped", "check",
        "if case.root < 2 or (cert.candidate.k, cert.candidate.sign) != (case.k, case.sign):",
        "if case.root < 2:",
    ),
    (
        "family-root-1-accepted", "check",
        "if case.root < 2 or",
        "if case.root < 1 or",
    ),
    (
        "witness-index-family-exclusion-dropped", "check",
        "if family is None or r not in range(family.c, lcm, family.b):",
        "if True:",
    ),
    # The parser (check): a number past Python's digit limit escapes as
    # Python's own ValueError.
    (
        "decimal-digit-guard-removed", "check",
        """        try:
            return int(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise CertificateFormatError(f"field {key!r} has more than {limit} digits") from None
""",
        """        return int(value)
""",
    ),
    (
        "json-digit-guard-removed", "check",
        """    except ValueError:
        raise CertificateFormatError(_long_json_integer(text)) from None
""",
        "",
    ),
)

ROOT = Path(__file__).resolve().parent.parent


def run(module, old, new):
    """'killed' or 'SURVIVED', with Tier-1's wall time in seconds, or an
    error naming why the mutant could not be applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "coverscope" / f"{module}.py"
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"ERROR: the old text occurs {text.count(old)} times in {module}.py"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=pythonpath),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed, 0 when all passed.
    verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exited {code}")
    return f"{verdict} in {seconds:.1f} s"


def main():
    failed = 0
    for name, module, old, new in MUTANTS:
        outcome = run(module, old, new)
        print(f"{name}: {outcome}", flush=True)
        failed += not outcome.startswith("killed")
    print(f"{failed} mutant(s) not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
