"""The trusted checker: everything a "proved" verdict relies on.

This module imports only the standard library.  It holds the certificate
type, the parsers that build it from JSON, and the checks that prove a
stated certificate for every n >= 1 without searching for an order, an
offset or a prime.  The builders in coverscope.cover and
coverscope.algebraic produce the same type but prove nothing: `verify`,
`family`, `audit` and `verify-dataset` all end in prove(), which re-checks
every divisibility fact a builder found, so a fault in a builder is
refused, not reported as a proof.

prove() is the one proof function.  A certificate is a cover: a list of
entries, each a divisor with its progression of exponents, and for a
coverless number an algebraic factor family that takes one class
n == c (mod b) and leaves the other n to the entries.  The cover is proved
by its divisibility facts and a witness audit, both read from the
progressions alone, the family's first: an entry whose facts hold divides
every term it witnesses, so it fails only where that term is the divisor
itself, which one divmod decides.  The family is proved once from its
coefficients, which parsing fixes.  The same audit call answers for every
claimed n = 1..n_max when asked, `--audit-n` or the audited_n_max recorded
in a coverless certificate that `verify` or `verify-dataset` builds, at the
same cost; a family adds the bignum split of each of its n below n_max.
The audit recomputes every entry's facts and refuses a cover where one
fails, which prove() never hands it, as the facts check comes first.
"""

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

# Largest term-by-term cross-check (--audit-n) the CLI runs.  The witness
# audit takes two pows per entry, whatever N.  The bound is set by the
# coverless cross-check alone, which splits each open term as a bignum and
# grows with the square of N: about 3.5 s wall for the R2 record (median;
# runs took 3.2 to 6.3 s on 2 shared vCPUs, Python 3.11).
MAX_AUDIT_N = 100_000

# Largest L a certificate may state or a cover may reach.  The hole check
# and the witness counts write one byte per residue mod L, so this bound
# keeps every exponent that reaches pow, and every allocation, below 10^7.
# It also caps the walk that finds each divisor's period and offset at about
# 2*sqrt(MAX_LCM) steps.
MAX_LCM = 10**7
# Most residues mod L the entries may claim, once per entry: each byte pass
# writes once per claim.  Ten extra copies of 3 on the L = 6000012 cover
# claim 38166749, and the byte pass takes 0.05 s (2 vCPUs, Python 3.11).
MAX_CLAIMS = 4 * MAX_LCM
# Most distinct divisors a cover may list, and distinct entries a
# certificate may state: a cover walks each distinct divisor once, and the
# facts check and the witness audit take two pows per entry.  Repeats are
# not counted, so every certificate a cover gives parses.  The corpus and
# benchmark covers hold at most 21.
MAX_DIVISORS = 1000

SIGN_SIERPINSKI = 1
SIGN_RIESEL = -1

SIGN_NAMES = {SIGN_SIERPINSKI: "sierpinski", SIGN_RIESEL: "riesel"}

# The file format's names for the n a partial cover claims.
PREDICATE_MOD4_NE_2 = "mod4ne2"
PREDICATE_ODD = "odd"

KIND_FOURTH_POWER = "fourth_power"
KIND_SQUARE = "square"


class VerificationError(Exception):
    """A claim failed to verify; subclasses carry the failure data."""


class CertificateFormatError(ValueError):
    """A serialized certificate does not match the schema."""


def digit_limit_exceeded(x: int) -> int:
    """Python's digit limit (sys.get_int_max_str_digits(), 0 for none) when
    x >= 0 has more decimal digits than it, so that str(x) raises; else 0.
    10**limit has more than 3*limit bits, so the bit length spares ordinary
    x that power."""
    limit = sys.get_int_max_str_digits()
    if limit and x.bit_length() > 3 * limit and x >= 10**limit:
        return limit
    return 0


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
class CoverlessCase:
    """k = root**power with a partial cover for the n its factor family
    leaves out; a subclass states the family, which takes every n >= 2 with
    n == c (mod b), and the file format's name for the rest."""

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
    b, c = 4, 2
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
    b, c = 2, 0
    power = 2

    @staticmethod
    def halves(x: int) -> tuple[int, int]:
        return x + 1, x - 1


# The one place a sign is paired with its factor family.
CASE_BY_SIGN = {SIGN_SIERPINSKI: FourthPowerCase, SIGN_RIESEL: SquareCase}


@dataclass(frozen=True)
class CoverCertificate:
    """Cover certificate: entries, the factor family of a coverless number
    or None, and L = lcm of the periods, the family's b among them.  The
    family takes n == c (mod b) as the first progression, and each entry
    the n of its progression that no earlier one holds; audited_n_max is the
    depth of the term-by-term cross-check run when a coverless certificate
    was built.  The hole check and the witness counts each read the
    progressions in one byte pass; the witness audit makes none, and the
    residue table is derived only to compare a version 0.1 file's.
    Whether a divisor is prime is no part of the claim: any d > 1 that
    divides a term and is smaller than it will do."""

    candidate: Candidate
    entries: tuple[CoverEntry, ...]
    lcm: int
    family: CoverlessCase | None = None
    audited_n_max: int | None = None

    # Only the benchmark in perfbench/ reads a coverless certificate's partial cover here.
    partial = property(lambda self: self)

    @property
    def table(self) -> tuple[int | None, ...]:
        """Residue r in 0..L-1 -> index of the first entry (in cover order)
        with r == c (mod b), or None where the family takes r or no entry
        matches.  Needs every period b >= 1."""
        lcm, entries, family = self.lcm, self.entries, self.family
        table = [None] * lcm
        # Last entry first, so that an earlier one overwrites a later one.
        for idx in reversed(range(len(entries))):
            e = entries[idx]
            table[e.c::e.b] = [idx] * len(range(e.c, lcm, e.b))
        if family is not None:
            table[family.c::family.b] = [None] * len(range(family.c, lcm, family.b))
        return tuple(table)

    @property
    def claims(self) -> int:
        """Residues mod L the entries claim, once per entry: a byte pass's cost."""
        return sum([len(range(e.c, self.lcm, e.b)) for e in self.entries])

    def _family_marked(self) -> bytearray:
        """One byte per residue mod L, the start of a byte pass: 1 on the
        family's progression, which is marked first, and 0 elsewhere."""
        lcm, family = self.lcm, self.family
        covered = bytearray(lcm)
        if family is not None:
            covered[family.c::family.b] = b"\1" * len(range(family.c, lcm, family.b))
        return covered

    @property
    def uncovered_residue(self) -> int | None:
        """Least residue mod L that neither the family nor any entry holds,
        or None: the first 0 left once every progression is marked is the
        hole.  Needs every period b >= 1."""
        lcm, covered = self.lcm, self._family_marked()
        for e in self.entries:
            covered[e.c::e.b] = b"\1" * len(range(e.c, lcm, e.b))
        hole = covered.find(0)
        return None if hole < 0 else hole

    def _progressions(self):
        """Each entry in cover order, with the bytes of its progression c,
        c+b, ... below L as they were before the entry marked them: a 0 is
        a residue that neither the family nor an earlier entry holds, one
        the entry witnesses."""
        covered = self._family_marked()
        for e in self.entries:
            before = covered[e.c::e.b]
            yield e, before
            covered[e.c::e.b] = b"\1" * len(before)

    @property
    def witness_counts(self) -> tuple[int, ...]:
        """How many residues mod L each entry is the first match for."""
        return tuple([before.count(0) for _, before in self._progressions()])


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
        try:
            return int(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise CertificateFormatError(f"field {key!r} has more than {limit} digits") from None
    raise CertificateFormatError(f"field {key!r} must be a decimal string")


def _parse_sign(doc):
    sign = doc.get("sign")
    # type(), not isinstance(): JSON true/false load as bools, which are ints.
    if type(sign) is not int or sign not in (SIGN_SIERPINSKI, SIGN_RIESEL):
        raise CertificateFormatError("sign must be the integer 1 or -1")
    return sign


def _check_legacy_flags(doc, n_entries):
    # Files of tool_version 0.1 and 0.2 state a primality flag per entry,
    # which no proof reads: its shape is checked, its values are not kept.
    if "divisor_primality_flags" not in doc:
        return
    flags = doc["divisor_primality_flags"]
    if (
        not isinstance(flags, list)
        or len(flags) != n_entries
        or not all(isinstance(f, bool) for f in flags)
    ):
        raise CertificateFormatError(
            "divisor_primality_flags must hold one true/false per entry"
        )


def certificate_from_dict(doc: dict, family=None) -> CoverCertificate:
    """Rebuild a cover certificate from its JSON document; run prove
    afterwards to prove the claim.  family is None for a full cover, or the
    case type of the factor family whose class n == c (mod b) a partial
    cover leaves out; the coverless parser then joins its case.  A version
    0.1 document also states the residue table, which must equal the
    derived one."""
    # Only partial covers write the field, so one certificate has one form.
    if family is None:
        if "predicate" in doc:
            raise CertificateFormatError("a full cover certificate has no predicate")
    elif doc.get("predicate") != family.predicate:
        raise CertificateFormatError(f"predicate must be {family.predicate!r}")
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
    if len(entries) > MAX_DIVISORS and len(set(entries)) > MAX_DIVISORS:
        raise CertificateFormatError(
            f"the certificate states more than {MAX_DIVISORS} distinct entries"
        )
    if not all(e.b for e in entries):
        raise CertificateFormatError("every period b must be positive")
    lcm = _parse_decimal(doc, "lcm")
    if lcm > MAX_LCM:
        raise CertificateFormatError(f"lcm is above the bound {MAX_LCM}")
    if family is not None and lcm % family.b != 0:
        raise CertificateFormatError("lcm must be a multiple of the predicate modulus")
    _check_legacy_flags(doc, len(entries))
    cert = CoverCertificate(candidate, entries, lcm, family)
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


def algebraic_certificate_from_dict(doc: dict) -> CoverCertificate:
    """Rebuild a coverless certificate; its kind fixes the factor family,
    and root fixes k and the family's coefficients."""
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
    partial = certificate_from_dict(partial_doc, case_type)
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
    return dataclasses.replace(partial, family=case, audited_n_max=audited)


def _long_json_integer(text):
    # Only a JSON integer past Python's digit limit makes json.loads raise a
    # ValueError that is no JSONDecodeError, and it names no field.  On this
    # error path only, parse again with such integers kept as a marker, and
    # name the innermost field that holds one, unless what follows the
    # integer is malformed too.
    limit = sys.get_int_max_str_digits()
    marker, fields = object(), []

    def pairs(items):
        fields.extend(key for key, value in items if value is marker)
        return dict(items)

    def parse_int(digits):
        return marker if len(digits.lstrip("-")) > limit else int(digits)

    try:
        json.loads(text, object_pairs_hook=pairs, parse_int=parse_int)
    except (ValueError, RecursionError):
        pass
    where = f"field {fields[0]!r}" if fields else "a JSON integer"
    return f"{where} has more than {limit} digits"


def certificate_from_json(text: str) -> CoverCertificate:
    """Parse a certificate file: a coverless one states its kind."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CertificateFormatError("JSON nested too deeply") from None
    except ValueError:
        raise CertificateFormatError(_long_json_integer(text)) from None
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
    # much for a short cover; every proof asks for it.
    largest = 0
    for e in cert.entries:
        if e.d > largest:
            largest = e.d
    return largest.bit_length()


def _divisibility_problem(cert: CoverCertificate) -> str | None:
    """d odd and >= 3, d | 2^b - 1, d | k*2^c + sign, c < b, L = lcm of the
    periods and the family's b, and no residue mod L that neither the
    family nor an entry holds.  A period that does not divide the stated L
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
    if lcm != math.lcm(*[e.b for e in cert.entries], cert.family.b if cert.family else 1):
        return "stated lcm does not match the entry periods"
    hole = cert.uncovered_residue
    return None if hole is None else f"uncovered residue {hole} (mod {lcm})"


def witness_index(certificate: CoverCertificate, n: int) -> int | None:
    """Index of the witness of n: the first entry in cover order whose
    progression range(c, L, b) holds n mod L, or None where the family's
    progression, first in order, holds it or no entry matches."""
    lcm, family = certificate.lcm, certificate.family
    r = n % lcm
    if family is None or r not in range(family.c, lcm, family.b):
        for i, e in enumerate(certificate.entries):
            if r in range(e.c, lcm, e.b):
                return i
    return None


def first_audit_failure(certificate: CoverCertificate, n_max: int) -> int | None:
    """Smallest claimed n in 1..n_max where the witness (witness_index) is
    not a proper divisor of k*2^n + sign, or None when every claimed n
    passes.  Raises VerificationError, naming the first entry that does not
    hold, unless every entry does: it reads k and the entries, and trusts
    no facts check run before it.

    An entry holds when d > 1, b | L, 2^b == 1 (mod d) and
    d | k*2^c + sign.  A holding entry divides every term it witnesses:
    each such n is == c (mod b), as b | L, so 2^n == 2^c (mod d).  Every
    term is positive, so it fails only where k*2^n + sign == d, which one
    divmod of d - sign by k decides: the quotient must be 2^n with n >= 1,
    and the entry must witness that n.  So the audit costs two pows per
    entry, whatever n_max, and builds no term.  prove() calls it only once
    the facts check has passed, which every entry then holds."""
    k, sign = certificate.candidate.k, certificate.candidate.sign
    lcm = certificate.lcm
    n_bad = n_max + 1
    for i, e in enumerate(certificate.entries):
        d = e.d
        if not (d > 1 and lcm % e.b == 0 and pow(2, e.b, d) == 1
                and (k % d * pow(2, e.c, d) + sign) % d == 0):
            raise VerificationError(f"cover entry {i} does not hold its divisibility facts")
        q, rem = divmod(d - sign, k)
        n = q.bit_length() - 1
        if not rem and 0 < n < n_bad and q == 1 << n and witness_index(certificate, n) == i:
            n_bad = n
    return n_bad if n_bad <= n_max else None


def family_factor(case: CoverlessCase, n: int) -> int:
    """The emitted factor of k*2^n + sign for an n >= 2 in the family's class
    n == c (mod b): the first of case.halves(x), x = root*2^(n//power).

    Re-derives the whole split on every call: the two halves must multiply
    back to the term exactly, and the emitted half must be proper
    (1 < F < term; only root 1 at n = 2 fails, and it is a hard failure).
    """
    if n < 2 or n % case.b != case.c:
        raise ValueError(f"{case.kind} factor needs n >= 2, n == {case.c} (mod {case.b}), got {n}")
    factor, cofactor = case.halves(case.root << (n // case.power))
    term = (case.k << n) + case.sign
    if factor * cofactor != term:
        raise VerificationError(f"factor split failed for k={case.k}, n={n}")
    if not 1 < factor < term:
        raise VerificationError(f"factor {factor} of term at n={n} is not a proper divisor")
    return factor


def prove(cert: CoverCertificate, n_max: int | None = None) -> str | None:
    """The one proof of every "proved", for every n >= 1 without searching.
    Returns a description of the first problem, or None when the claim holds.

    The entries, full cover or partial: the divisibility facts give
    d | k*2^n + sign for every n == c (mod b), so the witness, the first
    entry whose progression holds n mod L where the family's does not,
    divides every term it witnesses, and is proper unless the term is d
    itself.  One first_audit_failure call finds any such n, all of which
    lie in the properness prefix n <= proof_depth, and, when n_max is
    given, cross-checks every witnessed n <= n_max, trusting none of the
    facts.

    A coverless certificate proves the family's n == c (mod b), n >= 2,
    from its coefficients.  With x = 2^m,
    (A x^2 + B x + 1)(A x^2 - B x + 1) = A^2 x^4 + (2A - B^2) x^2 + 1, which
    at A = 2 root^2, B = 2 root is 4 root^4 x^4 + 1 = k*2^(4m+2) + 1; and
    (root*2^j)^2 - 1 = k*2^(2j) - 1.  The emitted factor (the + half) is
    proper unless the other half is 1: 2 root^2 - 2 root + 1 at m = 0, or
    2 root - 1 at j = 1, so only at n = 2 with root = 1.  Parsing ties k,
    the sign and the coefficients to root, and the family's b to L; a
    certificate built in process where k or the sign disagrees, or with
    root 1, fails at n = 2, the first exponent of both families, which lies
    in every prefix as every d >= 3.  When n_max is given and the prefix
    passed, family_factor's bignum split then cross-checks each of the
    family's n below the first audit failure, trusting neither the facts
    nor this argument.
    """
    problem = _divisibility_problem(cert)
    if problem is not None:
        return problem
    depth = proof_depth(cert)
    n_bad = first_audit_failure(cert, max(depth, n_max or 0))
    case = cert.family
    if case is None:
        return n_bad and f"witness fails at n={n_bad}"
    if case.root < 2 or (cert.candidate.k, cert.candidate.sign) != (case.k, case.sign):
        n_bad = min(n_bad or 2, 2)
    if n_max and (n_bad is None or n_bad > depth):
        # Both families take n = 2 first.
        for n in range(2, n_bad or n_max + 1, case.b):
            try:
                family_factor(case, n)
            except VerificationError:
                n_bad = n
                break
    return n_bad and f"factor check failed at n={n_bad}"
