"""Bundled corpus of verified numbers, and the whole-corpus regression run.

Corpus file format (UTF-8, '#' comments, one record per line):

    S  <k> <d1,d2,...>                       cover for k*2^n + 1
    R  <k> <d1,d2,...>                       cover for k*2^n - 1
    B  <k> R:<d,...> S:<d,...>               covers for both signs
    S4 <k> root=<i> partial=<d,...>          coverless, k = i^4, sign +1
    R2 root=<a> partial=<d,...>              coverless, k = a^2, sign -1

Any line may end with note="free text".  The R2 line stores only the root;
k = root^2 is computed at load so the big square never risks transcription
drift.  Parsing is total: malformed lines are hard errors with their line
number.
"""

import os
import re
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

_TAG_TO_KIND = {"S": KIND_S, "R": KIND_R, "B": KIND_BOTH, "S4": KIND_S4, "R2": KIND_R2}
_KIND_TO_TAG = {v: k for k, v in _TAG_TO_KIND.items()}

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


def _parse_odd_k(text, line_no):
    k = _parse_int(text, line_no, "k")
    if k % 2 == 0 or k < 1:
        raise CorpusError(f"line {line_no}: k must be odd and positive, got {k}")
    return k


def _parse_keyed(field, key, line_no):
    prefix = key + "="
    if not field.startswith(prefix):
        raise CorpusError(f"line {line_no}: expected {key}=..., got {field!r}")
    return field[len(prefix):]


def parse_corpus(text: str) -> list[CorpusRecord]:
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        note = ""
        match = _NOTE_RE.match(line)
        if match:
            line, note = match.group(1), match.group(2)
        fields = line.split()
        tag = fields[0]
        kind = _TAG_TO_KIND.get(tag)
        if kind is None:
            raise CorpusError(f"line {line_no}: unknown kind tag {tag!r}")
        try:
            if kind in (KIND_S, KIND_R):
                if len(fields) != 3:
                    raise CorpusError(f"line {line_no}: expected '{tag} <k> <cover>'")
                k = _parse_odd_k(fields[1], line_no)
                divisors = _parse_divisors(fields[2], line_no, "cover")
                sign = 1 if kind == KIND_S else -1
                records.append(CorpusRecord(kind, k, ((sign, divisors),), None, note, line_no))
            elif kind == KIND_BOTH:
                if len(fields) != 4:
                    raise CorpusError(
                        f"line {line_no}: expected '{tag} <k> R:<cover> S:<cover>'"
                    )
                k = _parse_odd_k(fields[1], line_no)
                r_cov = _parse_divisors(
                    _strip_tag(fields[2], "R", line_no), line_no, "Riesel cover"
                )
                s_cov = _parse_divisors(
                    _strip_tag(fields[3], "S", line_no), line_no, "Sierpinski cover"
                )
                records.append(
                    CorpusRecord(kind, k, ((-1, r_cov), (1, s_cov)), None, note, line_no)
                )
            elif kind == KIND_S4:
                if len(fields) != 4:
                    raise CorpusError(
                        f"line {line_no}: expected '{tag} <k> root=<i> partial=<cover>'"
                    )
                k = _parse_odd_k(fields[1], line_no)
                root = _parse_int(_parse_keyed(fields[2], "root", line_no), line_no, "root")
                divisors = _parse_divisors(
                    _parse_keyed(fields[3], "partial", line_no), line_no, "partial cover"
                )
                if root**4 != k:
                    raise CorpusError(f"line {line_no}: root^4 != k")
                records.append(CorpusRecord(kind, k, ((1, divisors),), root, note, line_no))
            else:  # KIND_R2
                if len(fields) != 3:
                    raise CorpusError(
                        f"line {line_no}: expected '{tag} root=<a> partial=<cover>'"
                    )
                root = _parse_int(_parse_keyed(fields[1], "root", line_no), line_no, "root")
                divisors = _parse_divisors(
                    _parse_keyed(fields[2], "partial", line_no), line_no, "partial cover"
                )
                records.append(
                    CorpusRecord(kind, root * root, ((-1, divisors),), root, note, line_no)
                )
        except CorpusError:
            raise
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None
    return records


def _strip_tag(field, tag, line_no):
    prefix = tag + ":"
    if not field.startswith(prefix):
        raise CorpusError(f"line {line_no}: expected {prefix}..., got {field!r}")
    return field[len(prefix):]


def serialize_record(record: CorpusRecord) -> str:
    tag = _KIND_TO_TAG[record.kind]
    if record.kind in (KIND_S, KIND_R):
        body = f"{tag} {record.k} {_join(record.covers[0][1])}"
    elif record.kind == KIND_BOTH:
        (_, r_cov), (_, s_cov) = record.covers
        body = f"{tag} {record.k} R:{_join(r_cov)} S:{_join(s_cov)}"
    elif record.kind == KIND_S4:
        body = f"{tag} {record.k} root={record.root} partial={_join(record.covers[0][1])}"
    else:
        body = f"{tag} root={record.root} partial={_join(record.covers[0][1])}"
    if record.note:
        body += f' note="{record.note}"'
    return body


def _join(divisors):
    return ",".join(str(d) for d in divisors)


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
    except (VerificationError, ValueError) as exc:
        ok, detail = False, str(exc)
    return RecordResult(record, ok, detail, tuple(lcms), time.perf_counter() - start)


def verify_corpus(records) -> CorpusReport:
    """Prove every record for all n >= 1 as its kind dictates; results keep
    input order.  Coverless records are also cross-checked term by term to
    build_algebraic_certificate's default depth."""
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
