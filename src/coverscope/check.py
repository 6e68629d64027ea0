"""The trusted checker: everything `coverscope audit` relies on.

This module imports only the standard library.  It holds the certificate
types, the parsers that build them from JSON, and the checks that prove a
stated certificate for every n >= 1 without searching for an order, an
offset or a prime.  The builders in coverscope.cover and
coverscope.algebraic produce the same types.  `verify` and `family` run this
module's hole finder and prefix audit, but take the divisibility facts from
arith.order_and_offset; only `audit` and `verify-dataset` re-check those
facts, through check_facts.

A cover (full, or the partial cover of a coverless number) is proved by its
divisibility facts and a witness audit of the properness prefix
n <= proof_depth.  A coverless number's algebraic factor family is proved
once from its coefficients, which parsing fixes.  The term-by-term
cross-checks at the end of the module are opt-in (`--audit-n`) and trust
none of the facts.
"""

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mod, mul

# Largest term-by-term cross-check (--audit-n) the CLI runs.  The witness
# audit works on residues past the properness prefix, so its cost grows
# linearly: 78557 to N = 100000 takes about 8 ms (2 vCPUs, Python 3.11).
# The coverless cross-check still splits each open term as a bignum, which
# grows with the square of N and sets the bound: about 5 s for the R2 record.
MAX_AUDIT_N = 100_000

# Largest L a certificate may state or a cover may reach.  The residue table
# is derived, one slot per residue mod L, so this bound keeps every exponent
# that reaches pow, and every allocation, below 10^7.  It also caps the walk
# that finds each divisor's period and offset at about 2*sqrt(MAX_LCM) steps.
MAX_LCM = 10**7
# Most residues mod L the entries may claim, once per entry: deriving the
# table writes one slot per claim, 0.8 s at this bound (2 vCPUs, Python 3.11).
MAX_CLAIMS = 4 * MAX_LCM

SIGN_SIERPINSKI = 1
SIGN_RIESEL = -1

SIGN_NAMES = {SIGN_SIERPINSKI: "sierpinski", SIGN_RIESEL: "riesel"}

PREDICATE_ALL = "all"
PREDICATE_MOD4_NE_2 = "mod4ne2"
PREDICATE_ODD = "odd"

# predicate name -> (modulus, the residues mod modulus it claims)
PREDICATES = {
    PREDICATE_ALL: (1, (0,)),
    PREDICATE_MOD4_NE_2: (4, (0, 1, 3)),
    PREDICATE_ODD: (2, (1,)),
}

KIND_FOURTH_POWER = "fourth_power"
KIND_SQUARE = "square"


class VerificationError(Exception):
    """A claim failed to verify; subclasses carry the failure data."""


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
        return SIGN_NAMES[self.sign]


@dataclass(frozen=True)
class CoverEntry:
    """One divisor with its period b and offset c: d | k*2^n + sign
    whenever n == c (mod b)."""

    d: int
    b: int
    c: int


@dataclass(frozen=True)
class CoverCertificate:
    """Cover certificate: entries and L = lcm of the periods and the
    predicate modulus.  The residue table is derived from them.
    divisor_primality flags composite divisors - legal in a cover, but worth
    a warning."""

    candidate: Candidate
    entries: tuple[CoverEntry, ...]
    lcm: int
    divisor_primality: tuple[bool, ...]
    predicate: str = PREDICATE_ALL

    @cached_property
    def table(self) -> tuple[int | None, ...]:
        """Residue r in 0..L-1 -> index of the first entry (in cover order)
        with r == c (mod b), or None where no entry matches or the predicate
        does not claim r.  Needs every period b >= 1."""
        modulus, claimed = PREDICATES[self.predicate]
        lcm, entries = self.lcm, self.entries
        table = [None] * lcm
        # Last entry first, so that an earlier entry overwrites a later one.
        for idx in reversed(range(len(entries))):
            e = entries[idx]
            table[e.c::e.b] = [idx] * len(range(e.c, lcm, e.b))
        for r in range(modulus):
            if r not in claimed:
                table[r::modulus] = [None] * len(range(r, lcm, modulus))
        return tuple(table)

    @property
    def claims(self) -> int:
        """Residues mod L the entries claim, once per entry: the table's cost."""
        return sum([len(range(e.c, self.lcm, e.b)) for e in self.entries])

    @property
    def uncovered_residue(self) -> int | None:
        """Least residue mod L the predicate claims but no entry matches, or None."""
        modulus, claimed = PREDICATES[self.predicate]
        columns = [(r, self.table[r::modulus]) for r in claimed]
        return min([r + modulus * c.index(None) for r, c in columns if None in c], default=None)

    @property
    def witness_counts(self) -> tuple[int, ...]:
        """How many residues mod L each entry claims."""
        counts = Counter(self.table)
        return tuple(counts[idx] for idx in range(len(self.entries)))


@dataclass(frozen=True)
class CoverlessCase:
    """k = root**power with a partial cover for the n its predicate claims;
    a subclass states the factor family that splits every other n >= 2."""

    root: int
    partial_cover: tuple[int, ...]

    def __post_init__(self):
        if self.root < 1:
            raise ValueError(f"root must be positive, got {self.root}")
        object.__setattr__(self, "partial_cover", tuple(self.partial_cover))

    @property
    def k(self) -> int:
        return self.root**self.power


class FourthPowerCase(CoverlessCase):
    """k = root**4 with a partial cover for n != 2 (mod 4); at
    x = root*2^(n//4) the rest is 4x^4 + 1 = (2x^2+2x+1)(2x^2-2x+1)."""

    kind = KIND_FOURTH_POWER
    sign = SIGN_SIERPINSKI
    predicate = PREDICATE_MOD4_NE_2
    power = 4

    @staticmethod
    def halves(x: int) -> tuple[int, int]:
        hi = 2 * x * x
        return hi + 2 * x + 1, hi - 2 * x + 1

    # The emitted half is A*2^(2m) + B*2^m + 1, m = n//4; certificates state A and B.
    @property
    def A(self) -> int:
        return 2 * self.root * self.root

    @property
    def B(self) -> int:
        return 2 * self.root


class SquareCase(CoverlessCase):
    """k = root**2 with a partial cover for odd n; at x = root*2^(n/2) the
    rest is x^2 - 1 = (x+1)(x-1)."""

    kind = KIND_SQUARE
    sign = SIGN_RIESEL
    predicate = PREDICATE_ODD
    power = 2

    @staticmethod
    def halves(x: int) -> tuple[int, int]:
        return x + 1, x - 1


# The one place a sign is paired with its factor family.
CASE_BY_SIGN = {SIGN_SIERPINSKI: FourthPowerCase, SIGN_RIESEL: SquareCase}


@dataclass(frozen=True)
class AlgebraicCertificate:
    """Partial cover plus the algebraic factor family, and the depth of the
    term-by-term cross-check run when it was built."""

    case: CoverlessCase
    partial: CoverCertificate
    audited_n_max: int

    @property
    def candidate(self) -> Candidate:
        return self.partial.candidate


# --- parsing -----------------------------------------------------------------
# Structural validation only: entry progressions are taken as stated, and
# the checks below prove them.  All unbounded integers travel as decimal
# strings.


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
    """Rebuild a cover certificate with the given predicate from its JSON
    document; run check_certificate_facts afterwards to prove the claim.  A
    version 0.1 document also states the residue table, which must equal
    the derived one."""
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
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
    if not all(e.b for e in entries):
        raise CertificateFormatError("every period b must be positive")
    lcm = _parse_decimal(doc, "lcm")
    if lcm > MAX_LCM:
        raise CertificateFormatError(f"lcm is above the bound {MAX_LCM}")
    if lcm % PREDICATES[predicate][0] != 0:
        raise CertificateFormatError("lcm must be a multiple of the predicate modulus")
    flags = _parse_flags(doc, len(entries))
    cert = CoverCertificate(candidate, entries, lcm, flags, predicate)
    if cert.claims > MAX_CLAIMS:
        raise CertificateFormatError(f"the entries claim more than {MAX_CLAIMS} residues mod L")
    if "table" in doc:
        # type(), not ==: true == 1 and 1.0 == 1 in Python.
        table = doc["table"]
        if not (
            isinstance(table, list)
            and len(table) == lcm
            and set(map(type, table)) <= {int, type(None)}
            and tuple(table) == cert.table
        ):
            raise CertificateFormatError("table is not the first-match table of the entries")
    return cert


def algebraic_certificate_from_dict(doc: dict) -> AlgebraicCertificate:
    """Rebuild a coverless certificate; its kind fixes the partial cover's
    predicate, and root fixes k and the factor coefficients."""
    kind = doc.get("kind")
    # ==, not a dict lookup: a JSON kind may be an unhashable list or object.
    case_type = next((t for t in CASE_BY_SIGN.values() if t.kind == kind), None)
    if case_type is None:
        raise CertificateFormatError(f"unknown kind {kind!r}")
    sign = _parse_sign(doc)
    root = _parse_decimal(doc, "root")
    k = _parse_decimal(doc, "k")
    partial_doc = doc.get("partial_cover_certificate")
    if not isinstance(partial_doc, dict):
        raise CertificateFormatError("missing partial_cover_certificate")
    partial = certificate_from_dict(partial_doc, case_type.predicate)
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


def certificate_from_json(text: str) -> CoverCertificate | AlgebraicCertificate:
    """Parse a certificate file: a coverless one states its kind."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CertificateFormatError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if "kind" in doc:
        return algebraic_certificate_from_dict(doc)
    return certificate_from_dict(doc)


# --- the proof ---------------------------------------------------------------


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
    periods and the predicate modulus, and no residue mod L the predicate
    claims left uncovered.  A period that does not divide the stated L
    refutes it before any exponentiation, so no exponent above L, which
    parsing bounds by MAX_LCM, reaches pow."""
    k, sign, lcm = cert.candidate.k, cert.candidate.sign, cert.lcm
    for e in cert.entries:
        if e.d < 3 or e.d % 2 == 0:
            return f"divisor {e.d} is not odd and >= 3"
        if not 0 <= e.c < e.b:
            return f"offset {e.c} out of range for period {e.b} (d={e.d})"
        if e.b > lcm or lcm % e.b:
            return "stated lcm does not match the entry periods"
        if pow(2, e.b, e.d) != 1:
            return f"{e.d} does not divide 2^{e.b} - 1"
        if (k * pow(2, e.c, e.d) + sign) % e.d != 0:
            return f"{e.d} does not divide k*2^{e.c} {sign:+d}"
    if lcm != math.lcm(*[e.b for e in cert.entries], PREDICATES[cert.predicate][0]):
        return "stated lcm does not match the entry periods"
    hole = cert.uncovered_residue
    return None if hole is None else f"uncovered residue {hole} (mod {lcm})"


def check_certificate_facts(cert: CoverCertificate) -> str | None:
    """Prove a stated cover certificate for every claimed n >= 1, without
    searching: the divisibility facts give d | k*2^n + sign for every
    n == c (mod b), so the first matching entry divides every claimed term,
    and the proof_depth prefix audit shows each witness proper.  Returns a
    description of the first problem, or None when the claim holds."""
    problem = _divisibility_problem(cert)
    if problem is None and (n_bad := first_audit_failure(cert, proof_depth(cert))):
        problem = f"witness fails at n={n_bad}"
    return problem


def check_algebraic_certificate_facts(cert: AlgebraicCertificate) -> str | None:
    """Prove a stated coverless certificate for every n >= 1, without
    searching.  The partial cover's facts and prefix audit prove the n it
    claims; the factor family proves the rest from its coefficients.  With
    x = 2^m, (A x^2 + B x + 1)(A x^2 - B x + 1) = A^2 x^4 + (2A - B^2) x^2 + 1,
    which at A = 2 root^2, B = 2 root is 4 root^4 x^4 + 1 = k*2^(4m+2) + 1;
    and (root*2^j)^2 - 1 = k*2^(2j) - 1.  The emitted factor (the + half)
    is proper unless the other half is 1: 2 root^2 - 2 root + 1 at m = 0,
    or 2 root - 1 at j = 1, so only at n = 2 with root = 1.  Parsing ties
    k, the sign, the partial cover's predicate and the coefficients to root;
    a certificate built in process where they disagree, or with root 1,
    fails at n = 2, the first exponent of both families, which lies in every
    prefix as every d >= 3."""
    problem = _divisibility_problem(cert.partial)
    if problem is not None:
        return problem
    partial, case = cert.partial, cert.case
    n_bad = first_audit_failure(partial, proof_depth(partial))
    stated = (partial.candidate.k, partial.candidate.sign, partial.predicate)
    if case.root < 2 or stated != (case.k, case.sign, case.predicate):
        n_bad = min(n_bad or 2, 2)
    return None if n_bad is None else f"factor check failed at n={n_bad}"


def check_facts(cert: CoverCertificate | AlgebraicCertificate) -> str | None:
    """The facts check of the certificate's kind."""
    if isinstance(cert, AlgebraicCertificate):
        return check_algebraic_certificate_facts(cert)
    return check_certificate_facts(cert)


# --- term-by-term audits -----------------------------------------------------


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


def family_factor(case: CoverlessCase, n: int) -> int:
    """The emitted factor of k*2^n + sign for an n >= 2 the case's predicate
    leaves out: the first of case.halves(x), x = root*2^(n//power).

    Re-derives the whole split on every call: the two halves must multiply
    back to the term exactly, and the emitted half must be proper
    (1 < F < term; only root 1 at n = 2 fails, and it is a hard failure).
    """
    modulus, claimed = PREDICATES[case.predicate]
    if n < 2 or n % modulus in claimed:
        raise ValueError(f"{case.kind} factor needs n >= 2 outside {case.predicate!r}, got n={n}")
    factor, cofactor = case.halves(case.root << (n // case.power))
    term = (case.k << n) + case.sign
    if factor * cofactor != term:
        raise VerificationError(f"factor split failed for k={case.k}, n={n}")
    if not 1 < factor < term:
        raise VerificationError(f"factor {factor} of term at n={n} is not a proper divisor")
    return factor


def first_coverless_failure(case, partial: CoverCertificate, n_max: int) -> int | None:
    """Smallest failing exponent in 1..n_max, or None: the partial cover's
    witness audit for the n it claims, family_factor's bignum split for the
    rest.  The opt-in cross-check of a coverless proof, which trusts neither
    the facts nor the coefficient argument."""
    n_bad = first_audit_failure(partial, n_max)
    for n in range(1, n_max + 1 if n_bad is None else n_bad):
        if partial.table[n % partial.lcm] is None:
            try:
                family_factor(case, n)
            except VerificationError:
                return n
    return n_bad


def cross_check(cert: CoverCertificate | AlgebraicCertificate, n_max: int) -> str | None:
    """The term-by-term cross-check of n = 1..n_max for the certificate's
    kind: the first failure, or None."""
    if isinstance(cert, AlgebraicCertificate):
        n_bad = first_coverless_failure(cert.case, cert.partial, n_max)
        return None if n_bad is None else f"factor check failed at n={n_bad}"
    n_bad = first_audit_failure(cert, n_max)
    return None if n_bad is None else f"witness fails at n={n_bad}"
