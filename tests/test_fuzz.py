"""Fuzz the certificate and corpus parsers with mutated valid inputs.

Each certificate mutation spoils one field of a valid document (drops a
key, retypes a value, writes decimals in another script, cuts or grows a
list) or restates L, so `coverscope audit` must answer 1 (refuted) or 2
(malformed) and never raise.  The documents are the certificates written
now, one written by tool_version 0.1.0, which states its residue table, and
one written by 0.2.0, which states a primality flag per divisor.
Corpus mutations edit bundled lines at random; parse_corpus must return
records or raise CorpusError.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coverscope import algebraic, check, cover, dataset
from coverscope.check import Candidate
from coverscope.cli import main

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)

FULL_DOC = json.loads(cover.certificate_to_json(
    cover.verify_cover(Candidate(78557, 1), (3, 5, 7, 13, 19, 37, 73))
))
COVERLESS_DOC = json.loads(algebraic.certificate_to_json(
    algebraic.build_algebraic_certificate(
        check.FourthPowerCase(44745755, (3, 17, 97, 241, 257, 673)), 20
    )
))
V1_FULL_DOC = json.loads((Path(__file__).parent / "fixtures/v1/78557s.json").read_text())
V2_FULL_DOC = json.loads((Path(__file__).parent / "fixtures/v2/78557s.json").read_text())
OTHER_SCRIPT = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _paths(node, path=()):
    """Every path into the document below the root; tool_version is not
    checked by audit, so spoiling it proves nothing."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key == "tool_version":
            continue
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _spoiled(value):
    """Replacements that no valid document holds where value stood."""
    if isinstance(value, bool):
        return [0, 1, None, "true", [value]]
    if isinstance(value, int):
        return [True, False, None, str(value), float(value), [value]]
    if value is None:
        return [0, False, "null", []]
    if isinstance(value, str) and value.isdigit():
        return [value.translate(OTHER_SCRIPT), "", "+" + value, value + ".0", int(value), None]
    if isinstance(value, str):
        return ["x" + value, value.upper(), "", 7, True, None, [value]]
    if isinstance(value, list):
        return [value[:-1], value + value[-1:], [], {}, None]
    return [None, [], "x"]


@st.composite
def spoiled_documents(draw, base):
    doc = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    # A certificate without its table or flags is the current format, not a
    # spoiled one.
    optional = ("table", "divisor_primality_flags")
    if isinstance(key, str) and key not in optional and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(_spoiled(parent[key])))
    return doc


@st.composite
def restated_lcm(draw, base):
    """L doubled, or cut to a multiple of every family's period b that is too
    small for the periods; a stated table follows it, so it stays the
    derived one."""
    doc = json.loads(json.dumps(base))
    cert = doc.get("partial_cover_certificate", doc)
    table = cert.get("table")
    if draw(st.booleans()):
        cert["lcm"] = str(2 * int(cert["lcm"]))
        if table:
            cert["table"] = table * 2
    else:
        lcm = draw(st.sampled_from([4, 12]))
        cert["lcm"] = str(lcm)
        if table:
            cert["table"] = table[:lcm]
    if "audited_n_max" in doc:
        doc["audited_n_max"] = draw(st.integers(1, 20))
    return doc


def _audit(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["audit", path])


def test_unspoiled_documents_audit_ok():
    assert _audit(FULL_DOC) == 0
    assert _audit(COVERLESS_DOC) == 0
    assert _audit(V1_FULL_DOC) == 0
    assert _audit(V2_FULL_DOC) == 0


@FUZZ
@given(st.one_of(
    spoiled_documents(FULL_DOC), spoiled_documents(COVERLESS_DOC),
    spoiled_documents(V1_FULL_DOC), spoiled_documents(V2_FULL_DOC),
))
def test_spoiled_certificate_is_refuted_or_rejected(doc):
    assert _audit(doc) in (1, 2)


@FUZZ
@given(st.one_of(
    restated_lcm(FULL_DOC), restated_lcm(COVERLESS_DOC),
    restated_lcm(V1_FULL_DOC), restated_lcm(V2_FULL_DOC),
))
def test_restated_lcm_is_refuted(doc):
    assert _audit(doc) == 1


CORPUS_LINES = dataset.serialize_corpus(
    dataset.load_corpus(dataset.default_corpus_path())
).splitlines()
NOISE = st.sampled_from(
    list("0123456789 ,=:\"#-+SRB4x\t") + ["٧", "²", " ", "\x85", "\x00", "root=", "partial="]
)


@st.composite
def edited_lines(draw):
    line = draw(st.sampled_from(CORPUS_LINES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(line)))
        j = draw(st.integers(i, min(len(line), i + 8)))
        line = line[:i] + "".join(draw(st.lists(NOISE, max_size=3))) + line[j:]
    return line


@FUZZ
@given(st.lists(st.one_of(edited_lines(), st.text(max_size=40)), min_size=1, max_size=3))
def test_corpus_parse_returns_records_or_corpus_error(lines):
    try:
        records = dataset.parse_corpus("\n".join(lines))
    except dataset.CorpusError:
        return
    assert all(isinstance(r, dataset.CorpusRecord) for r in records)
