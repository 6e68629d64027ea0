"""Bundled corpus of verified numbers, and the whole-corpus regression run.

Corpus file format (UTF-8, '#' comments, one record per line):

    S  <k> <d1,d2,...>                       cover for k*2^n + 1
    R  <k> <d1,d2,...>                       cover for k*2^n - 1
    B  <k> R:<d,...> S:<d,...>               covers for both signs
    S4 <k> root=<i> partial=<d,...>          coverless, k = i^4, sign +1
    R2 root=<a> partial=<d,...>              coverless, k = a^2, sign -1

LAYOUTS below is the one definition of these layouts.  Any line may end
with note="free text".  The R2 line stores only the root; k = root^2 is
computed at load so the big square never risks transcription drift.
Parsing is total: malformed lines are hard errors with their line number.
"""

import os
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources

from coverscope import algebraic, check, cover
from coverscope.cover import Candidate, VerificationError

KIND_S = "sierpinski-cover"
KIND_R = "riesel-cover"
KIND_BOTH = "both-covers"
KIND_S4 = "sierpinski-coverless"
KIND_R2 = "riesel-coverless"

# tag -> (kind, the fields after the tag, each <slot> behind its prefix).
# A slot is k, cover, or the root (named i or a).
LAYOUTS = {
    "S": (KIND_S, "<k> <cover>"),
    "R": (KIND_R, "<k> <cover>"),
    "B": (KIND_BOTH, "<k> R:<cover> S:<cover>"),
    "S4": (KIND_S4, "<k> root=<i> partial=<cover>"),
    "R2": (KIND_R2, "root=<a> partial=<cover>"),
}
_KIND_TO_TAG = {kind: tag for tag, (kind, _) in LAYOUTS.items()}
_SLOTS = {  # tag -> [(prefix, slot), ...]
    tag: [tuple(field[:-1].split("<")) for field in layout.split()]
    for tag, (_, layout) in LAYOUTS.items()
}
# A cover's list label comes from its prefix, its sign from an R: or S:
# prefix, else from the tag's first letter.
_LABELS = {"R:": "Riesel cover", "S:": "Sierpinski cover", "partial=": "partial cover"}
_SIGNS = {"S": 1, "R": -1}

_NOTE_RE = re.compile(r'^(.*?)\s+note="([^"]*)"\s*$')

ENV_CORPUS = "COVERSCOPE_CORPUS"


class CorpusError(ValueError):
    """Malformed corpus line; message carries the location."""


@dataclass(frozen=True)
class CorpusRecord:
    """One corpus line.  covers holds (sign, divisors) pairs: one pair for
    single-sign kinds (the partial cover for coverless kinds), two for
    both-covers.  root is set only for coverless kinds."""

    kind: str
    k: int
    covers: tuple[tuple[int, tuple[int, ...]], ...]
    root: int | None = None
    note: str = ""
    line_no: int = 0


def _parse_int(text, line_no, what):
    if not (text.isascii() and text.isdigit()):
        raise CorpusError(f"line {line_no}: {what} must be a decimal integer, got {text!r}")
    return int(text)


def _parse_divisors(text, line_no, what):
    if not text:
        raise CorpusError(f"line {line_no}: empty {what}")
    return tuple(_parse_int(part, line_no, f"{what} divisor") for part in text.split(","))


def _corpus_k(k, line_no):
    """k, stated or derived, if odd, positive and short enough to print:
    reports write k in decimal, which Python refuses past its digit limit
    (sys.get_int_max_str_digits(), 0 for none).  10^limit has more than
    3*limit bits, so the bit length spares ordinary k that power."""
    limit = sys.get_int_max_str_digits()
    if limit and k.bit_length() > 3 * limit and k >= 10**limit:
        raise CorpusError(f"line {line_no}: k has more than {limit} digits")
    if k % 2 == 0 or k < 1:
        raise CorpusError(f"line {line_no}: k must be odd and positive, got {k}")
    return k


def _parse_record(tag, fields, line_no, note):
    kind, layout = LAYOUTS[tag]
    if len(fields) != len(_SLOTS[tag]):
        raise CorpusError(f"line {line_no}: expected '{tag} {layout}'")
    k = root = None
    covers = []
    for (prefix, slot), field in zip(_SLOTS[tag], fields):
        if not field.startswith(prefix):
            raise CorpusError(f"line {line_no}: expected {prefix}..., got {field!r}")
        value = field[len(prefix):]
        if slot == "cover":
            sign = _SIGNS[prefix[0] if prefix in ("R:", "S:") else tag[0]]
            covers.append((sign, _parse_divisors(value, line_no, _LABELS.get(prefix, "cover"))))
        elif slot == "k":
            k = _corpus_k(_parse_int(value, line_no, "k"), line_no)
        else:
            root = _parse_int(value, line_no, "root")
    if root is not None:  # coverless: k = root^power, derived when not stated
        power = check.CASE_BY_SIGN[_SIGNS[tag[0]]].power
        if k is None:
            k = _corpus_k(root**power, line_no)
        elif root**power != k:
            raise CorpusError(f"line {line_no}: root^{power} != k")
    return CorpusRecord(kind, k, tuple(covers), root, note, line_no)


def parse_corpus(text: str) -> list[CorpusRecord]:
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        line, note = match.groups() if (match := _NOTE_RE.match(line)) else (line, "")
        tag, *fields = line.split()
        if tag not in LAYOUTS:
            raise CorpusError(f"line {line_no}: unknown kind tag {tag!r}")
        try:
            records.append(_parse_record(tag, fields, line_no, note))
        except CorpusError:
            raise
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None
    return records


def serialize_record(record: CorpusRecord) -> str:
    tag = _KIND_TO_TAG[record.kind]
    covers = iter(record.covers)
    fields = [tag]
    for prefix, slot in _SLOTS[tag]:
        if slot == "cover":
            value = ",".join(str(d) for d in next(covers)[1])
        else:
            value = record.k if slot == "k" else record.root
        fields.append(f"{prefix}{value}")
    if record.note:
        fields.append(f'note="{record.note}"')
    return " ".join(fields)


def serialize_corpus(records) -> str:
    return "".join(serialize_record(r) + "\n" for r in records)


def load_corpus(path) -> list[CorpusRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def default_corpus_path() -> str:
    """The bundled corpus, unless COVERSCOPE_CORPUS points elsewhere."""
    override = os.environ.get(ENV_CORPUS)
    if override:
        return override
    return str(resources.files("coverscope").joinpath("data/appendix.txt"))


# --- whole-corpus verification ------------------------------------------------


@dataclass(frozen=True)
class RecordResult:
    record: CorpusRecord
    ok: bool
    detail: str
    lcms: tuple[int, ...]
    seconds: float


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[RecordResult, ...]
    total_seconds: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _verify_record(record: CorpusRecord) -> RecordResult:
    start = time.perf_counter()
    lcms = []
    ok, detail = True, "ok"
    try:
        if record.kind in (KIND_S, KIND_R, KIND_BOTH):
            for sign, divisors in record.covers:
                cert = cover.verify_cover(Candidate(record.k, sign), divisors)
                lcms.append(cert.lcm)
                if problem := cover.check_certificate_facts(cert):
                    raise VerificationError(problem)
        else:
            sign, divisors = record.covers[0]
            case = check.CASE_BY_SIGN[sign](record.root, divisors)
            cert = algebraic.build_algebraic_certificate(case)
            lcms.append(cert.partial.lcm)
            if problem := check.check_facts(cert):
                raise VerificationError(problem)
    except (VerificationError, ValueError) as exc:
        ok, detail = False, str(exc)
    return RecordResult(record, ok, detail, tuple(lcms), time.perf_counter() - start)


def verify_corpus(records) -> CorpusReport:
    """Prove every record for all n >= 1 through check.check_facts;
    results keep input order.  Coverless records are also cross-checked term
    by term to build_algebraic_certificate's default depth."""
    start = time.perf_counter()
    results = tuple(_verify_record(r) for r in records)
    return CorpusReport(results, time.perf_counter() - start)


def _short_k(k: int) -> str:
    s = str(k)
    return s if len(s) <= 24 else f"{s[:10]}...{s[-7:]}({len(s)}d)"


def report_to_text(report: CorpusReport) -> str:
    lines = []
    for res in report.results:
        tag = _KIND_TO_TAG[res.record.kind]
        status = "ok  " if res.ok else "FAIL"
        lcm_str = "/".join(str(x) for x in res.lcms) if res.lcms else "-"
        extra = "" if res.ok else f"  {res.detail}"
        lines.append(
            f"{status} {tag:<2} {_short_k(res.record.k):>24}  L={lcm_str:<8} "
            f"{res.seconds * 1000:7.1f}ms{extra}"
        )
    n_ok = sum(1 for r in report.results if r.ok)
    lines.append(
        f"{len(report.results)} records: {n_ok} ok, "
        f"{len(report.results) - n_ok} failed ({report.total_seconds:.2f}s)"
    )
    return "\n".join(lines) + "\n"


def report_to_dict(report: CorpusReport) -> dict:
    return {
        "ok": report.ok,
        "total_ms": round(report.total_seconds * 1000),
        "records": [
            {
                "kind": res.record.kind,
                "k": str(res.record.k),
                "ok": res.ok,
                "detail": res.detail,
                "lcms": list(res.lcms),
                "ms": round(res.seconds * 1000),
            }
            for res in report.results
        ],
    }
