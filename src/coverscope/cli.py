"""Command-line surface.

Exit status discipline (stable): 0 = claim verified / prime found,
1 = claim refuted / nothing found, 2 = usage or parse error.  All numeric
flags take arbitrary-length strings of ASCII digits.  Signs are spelled s (terms
k*2^n + 1) and r (terms k*2^n - 1).
"""

import argparse
import functools
import json
import sys

from coverscope import algebraic, arith, check, cover, dataset, disqualify
from coverscope.check import Candidate, VerificationError


def _arg_int(text, what, minimum=None, odd=False, maximum=None):
    # int() alone also admits signs, spaces, underscores and other scripts' digits.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{what} must be a decimal integer")
    value = int(text)
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise argparse.ArgumentTypeError(f"{what} must be <= {maximum}")
    if odd and value % 2 == 0:
        raise argparse.ArgumentTypeError(f"{what} must be odd")
    return value


def _odd_k(text):
    return _arg_int(text, "k", minimum=1, odd=True)


def _sign(text):
    signs = {"s": 1, "r": -1}
    if text not in signs:
        raise argparse.ArgumentTypeError("sign must be s (k*2^n + 1) or r (k*2^n - 1)")
    return signs[text]


def _cover_list(text):
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise argparse.ArgumentTypeError("cover must list at least one divisor")
    return tuple(_arg_int(p, "cover divisor", minimum=3) for p in parts)


def _positive(text):
    return _arg_int(text, "value", minimum=1)


def _audit_n(text):
    return _arg_int(text, "value", minimum=1, maximum=check.MAX_AUDIT_N)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coverscope",
        description="Verify Sierpinski/Riesel claims from covers, algebraic "
        "factor families, and prime searches.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output mode"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="verify one cover claim")
    p.add_argument("--k", type=_odd_k, required=True)
    p.add_argument("--sign", type=_sign, required=True)
    p.add_argument("--cover", type=_cover_list, required=True, metavar="D1,D2,...")
    p.add_argument(
        "--partial",
        choices=(check.PREDICATE_MOD4_NE_2, check.PREDICATE_ODD),
        help="treat the cover as partial, valid on this exponent condition",
    )
    p.add_argument("--root", type=_positive, help="root with k = root^4 (s) or root^2 (r)")
    p.add_argument(
        "--audit-n",
        type=_audit_n,
        help=f"cross-check n = 1..N, N <= {check.MAX_AUDIT_N} (coverless default 200)",
    )
    p.add_argument("--out", help="write the certificate JSON to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "verify-dataset", parents=[common], help="verify every corpus record"
    )
    p.add_argument("--corpus", help=f"corpus file (default: ${dataset.ENV_CORPUS} or bundled)")
    p.set_defaults(func=cmd_verify_dataset)

    p = sub.add_parser(
        "disqualify", parents=[common], help="hunt the first prime in one sequence"
    )
    p.add_argument("--k", type=_odd_k, required=True)
    p.add_argument("--sign", type=_sign, required=True)
    p.add_argument("--max-n", type=_positive, default=disqualify.DEFAULT_SINGLE_N_MAX)
    p.add_argument(
        "--verbose", action="store_true", help="keep per-exponent primality results"
    )
    p.set_defaults(func=cmd_disqualify)

    p = sub.add_parser(
        "survey", parents=[common], help="disqualification table over a k range"
    )
    p.add_argument("--from", dest="k_min", type=_odd_k, required=True)
    p.add_argument("--to", dest="k_max", type=_odd_k, required=True)
    p.add_argument("--sign", type=_sign, required=True)
    p.add_argument("--max-n", type=_positive, default=disqualify.DEFAULT_SURVEY_N_MAX)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser(
        "family", parents=[common], help="derive k + 2*i*P with the same cover"
    )
    p.add_argument("--k", type=_odd_k, required=True)
    p.add_argument("--sign", type=_sign, required=True)
    p.add_argument("--cover", type=_cover_list, required=True, metavar="D1,D2,...")
    p.add_argument("--i", type=_positive, required=True)
    p.add_argument("--out", help="write the derived certificate JSON to this file")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser(
        "audit", parents=[common], help="re-check an emitted certificate file"
    )
    p.add_argument("file", help="certificate JSON produced by verify")
    p.add_argument(
        "--audit-n",
        type=_audit_n,
        help=f"cross-check n = 1..N, N <= {check.MAX_AUDIT_N}, after the proof",
    )
    p.set_defaults(func=cmd_audit)
    return parser


def _prove_and_emit(cert, n_max, to_json, args, summary):
    """Refuse cert unless check.prove proves it, cross-checked to n_max if
    given; then write its JSON to --out and, with --format json, to stdout,
    or print summary(cert).  Text output without --out never builds the JSON."""
    problem = check.prove(cert, n_max)
    if problem is not None:
        raise VerificationError(problem)
    text = to_json(cert) if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text if args.format == "json" else summary(cert))
    return 0


def _scope(cross_n):
    cross = f" (cross-checked n = 1..{cross_n})" if cross_n else ""
    return f"proved for all n >= 1{cross}"


def _cover_summary(cert, audit_n, header=""):
    """The text summary of a proved cover, cross-checked to audit_n if given."""
    counts = cert.witness_counts
    lines = [
        f"{header}verified: k={cert.candidate.k} ({cert.candidate.sign_name})",
        "entries (d, b, c): "
        + " ".join(f"({e.d},{e.b},{e.c})" for e in cert.entries),
        f"L = {cert.lcm}",
        "residues claimed per divisor: "
        + " ".join(
            f"{e.d}:{n}" for e, n in zip(cert.entries, counts)
        ),
    ]
    # Advisory: a cover needs no prime divisor.  One test per distinct divisor.
    prime = {d: arith.is_prime(d).is_prime for d in {e.d for e in cert.entries}}
    composite = [e.d for e in cert.entries if not prime[e.d]]
    if composite:
        lines.append(f"warning: composite divisors in cover: {composite}")
    idle = [e.d for e, n in zip(cert.entries, counts) if n == 0]
    if idle:
        lines.append(f"warning: divisors claiming no residue: {idle}")
    lines.append(f"{_scope(audit_n)}: every term has a proper cover factor")
    return "\n".join(lines) + "\n"


def _coverless_summary(cert):
    candidate, case = cert.candidate, cert.family
    return (
        f"verified: k={candidate.k} ({candidate.sign_name}), kind={case.kind}, root={case.root}\n"
        f"partial cover exhaustive for '{case.predicate}' residues, L = {cert.lcm}\n"
        f"{_scope(cert.audited_n_max)}: every term has a proper partial cover "
        "or algebraic factor\n"
    )


def cmd_verify(args):
    if not (args.partial or args.root):
        cert = cover.verify_cover(Candidate(args.k, args.sign), args.cover)
        summary = functools.partial(_cover_summary, audit_n=args.audit_n)
        return _prove_and_emit(cert, args.audit_n, cover.certificate_to_json, args, summary)
    if not (args.partial and args.root):
        raise ValueError("--partial and --root must be given together")
    cert = algebraic.build_algebraic_certificate(_algebraic_case(args), args.audit_n)
    return _prove_and_emit(
        cert, cert.audited_n_max, algebraic.certificate_to_json, args, _coverless_summary
    )


def _algebraic_case(args):
    case_type = check.CASE_BY_SIGN[args.sign]
    if args.partial != case_type.predicate:
        raise ValueError(
            "supported partial-cover forms: sign s with mod4ne2 (k = root^4) "
            "or sign r with odd (k = root^2)"
        )
    case = case_type(args.root, args.cover)
    if case.k != args.k:
        raise ValueError(f"k does not equal root^{case.power}")
    return case


def cmd_verify_dataset(args):
    path = args.corpus or dataset.default_corpus_path()
    records = dataset.load_corpus(path)
    report = dataset.verify_corpus(records)
    if args.format == "json":
        sys.stdout.write(cover.dumps_json(dataset.report_to_dict(report)))
    else:
        sys.stdout.write(dataset.report_to_text(report))
    return 0 if report.ok else 1


def cmd_disqualify(args):
    # Only the JSON record prints the trail, so text output builds none.
    record = disqualify.first_prime_exponent(
        Candidate(args.k, args.sign), args.max_n, verbose=args.verbose and args.format == "json"
    )
    if args.format == "json":
        sys.stdout.write(cover.dumps_json(disqualify.record_to_dict(record)))
    else:
        sys.stdout.write(disqualify.records_to_text([record]))
    return 0 if record.disqualified else 1


def cmd_survey(args):
    records = disqualify.survey_range(args.k_min, args.k_max, args.sign, args.max_n)
    if args.format == "json":
        sys.stdout.write(cover.dumps_json([disqualify.record_to_dict(r) for r in records]))
    else:
        sys.stdout.write(disqualify.records_to_text(records))
    return 0


def cmd_family(args):
    cert = cover.generate_family(Candidate(args.k, args.sign), args.cover, args.i)
    header = f"family member i={args.i}: k' = {cert.candidate.k}\n"
    summary = functools.partial(_cover_summary, audit_n=None, header=header)
    return _prove_and_emit(cert, None, cover.certificate_to_json, args, summary)


def cmd_audit(args):
    with open(args.file, encoding="utf-8") as fh:
        cert = check.certificate_from_json(fh.read())
    problem = check.prove(cert, args.audit_n)
    if problem is not None:
        sys.stderr.write(f"audit FAILED: {problem}\n")
        return 1
    if args.format == "json":
        sys.stdout.write(json.dumps({"ok": True, "k": str(cert.candidate.k)}) + "\n")
    else:
        sys.stdout.write(f"audit ok: k={cert.candidate.k}, {_scope(args.audit_n)}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except VerificationError as exc:
        sys.stderr.write(f"not verified: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        # CertificateFormatError and dataset.CorpusError are ValueErrors.
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
