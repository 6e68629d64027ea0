#!/usr/bin/env python3
"""coverscope benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a coverscope checkout; the package is imported from
./src.  Inputs come from --seed alone.  Ops repeat in whole passes until
their summed time reaches --seconds (and at least 100 ops ran); every
output is checked outside the timed region.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  README.md beside this file explains the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "arith.is_prime.calls": "count",
    "arith.is_prime.self_s": "s",
    "arith.proth_test.calls": "count",
    "arith.proth_test.self_s": "s",
    "arith.tests.proth": "count",
    "arith.tests.mr-det": "count",
    "arith.tests.mr-prob": "count",
    "arith.useful_ratio": "ratio",
    "arith.multiplicative_order.self_s": "s",
    "arith.find_offset.self_s": "s",
    "arith.mod_pow.calls": "count",
    "backend.is_prime_u64.calls": "count",
    "backend.is_prime_u64.self_s": "s",
    "cover.verify_cover.self_s": "s",
    "cover.table_residues": "count",
    "cover.build_entry.self_s": "s",
    "cover.certificate_to_json.self_s": "s",
    "cover.cert_bytes": "bytes",
    "cover.first_audit_failure.self_s": "s",
    "cover.audit_terms": "count",
    "cover.check_certificate_facts.self_s": "s",
    "cover.certificate_from_dict.self_s": "s",
    "algebraic.verify_partial_cover.self_s": "s",
    "algebraic.first_coverless_failure.self_s": "s",
    "algebraic.check_certificate_facts.self_s": "s",
    "disqualify.first_prime_exponent.self_s": "s",
    "disqualify.exponents_scanned": "count",
    "layer.arith.self_s": "s",
    "layer.backend.self_s": "s",
    "layer.cover.self_s": "s",
    "layer.algebraic.self_s": "s",
    "layer.disqualify.self_s": "s",
    "dataset.load_corpus.s": "s",
    "dataset.verify_corpus.s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

MIN_OPS = 100  # per pass
MIN_PASSES = 5
# Fresh interpreters timed per run for setup_s, after one unmeasured start.
SETUP_SPAWNS = 11
SETUP_TIMEOUT_S = 60
CORPUS_RECORDS = 32
SETUP_PHASES = ("cli.import_s", "dataset.load_corpus.s", "dataset.verify_corpus.s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "audit", "hunt", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupProbe:
    """Times fresh interpreters that import coverscope.cli and load the
    bundled corpus (setup_s), and collects the phase times each reports.
    Runs spread their samples over the measuring time, so that one slow
    spell of the machine does not set the median."""

    def __init__(self, verify: bool):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("COVERSCOPE_CORPUS", None)
        self.cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--verify"] if verify else [])
        self.walls, self.reports = [], []
        self._spawn()  # unmeasured: writes the bytecode cache

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        wall = time.perf_counter() - t0
        report = json.loads(proc.stdout)
        if report["records"] != CORPUS_RECORDS or report.get("ok") is False:
            raise RuntimeError(f"set-up probe reported {report}")
        self.reports.append(report)
        return wall

    def keep_up(self, done: float):
        """Take samples until their share of SETUP_SPAWNS matches `done`,
        the share of the run measured so far."""
        while len(self.walls) < min(1.0, done) * SETUP_SPAWNS:
            self.walls.append(self._spawn())

    def medians(self) -> dict:
        self.keep_up(1.0)
        reports = self.reports[1:]
        out = {"setup_s": statistics.median(self.walls)}
        for key in SETUP_PHASES:
            if key in reports[0]:
                out[key] = statistics.median(r[key] for r in reports)
        return out


class Runner:
    """Runs a workload's ops in passes and times each one.  The first pass
    checks every output and keeps its digest; later passes must reproduce
    it.  Raising, a failed check or a changed digest fails the op."""

    def __init__(self, workload):
        self.workload = workload
        self.first = [None] * len(workload.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None) -> list[float]:
        w = self.workload
        latencies = []
        for i, inp in enumerate(w.inputs):
            if tracer is not None:
                tracer.op = i
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = w.run(inp)
            except Exception as exc:  # the op boundary: count it, keep measuring
                latencies.append(time.perf_counter() - t0)
                self._fail(f"op {i} raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - t0)
            digest = w.digest(out)
            if self.first[i] is None:
                self.first[i] = (digest, w.check(inp, out))
            first_digest, problem = self.first[i]
            if digest != first_digest:
                problem = f"op {i}: output differs from the first pass"
            if problem:
                self._fail(problem)
        return latencies

    def _fail(self, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def digest(self) -> str:
        h = hashlib.sha256()
        for entry in self.first:
            h.update(entry[0] if entry else b"-")
        return h.hexdigest()


def end_to_end(runner, seconds, probe) -> dict:
    """Whole passes until their op time reaches `seconds`.  An op's latency
    is the fastest of its repeats, which strips the slow spells a shared
    host imposes; throughput and percentiles are taken over those."""
    passes, measured = [], 0.0
    while measured < seconds or len(passes) < MIN_PASSES:
        passes.append(runner.run_pass())
        measured += sum(passes[-1])
        probe.keep_up(measured / seconds)
    best = [min(repeats) for repeats in zip(*passes)]
    ms = sorted(x * 1e3 for x in best)
    return {
        "ops_per_s": len(best) / sum(best),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        "setup_s": probe.medians()["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner, seconds, probe, tracer) -> dict:
    """Alternate plain and traced passes; report per-pass layer totals
    (median over traced passes) and the tracing overhead, traced minus
    plain pass time."""
    modules, targets = spans.coverscope_targets()
    plain, traced, totals = [], [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        plain.append(sum(runner.run_pass()))
        tracer.reset_totals()
        with tracer.installed(modules, targets):
            traced.append(sum(runner.run_pass(tracer)))
        totals.append(tracer.layer_totals())
        probe.keep_up((sum(plain) + sum(traced)) / seconds)
    metrics = {name: statistics.median_low(t.get(name, 0) for t in totals) for name in PER_LAYER}
    metrics.update((k, v) for k, v in probe.medians().items() if k in PER_LAYER)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coverscope" / "__init__.py").is_file():
        print(f"error: no coverscope package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("COVERSCOPE_CORPUS", None)
    import coverscope

    if Path(coverscope.__file__).resolve().parent != SRC / "coverscope":
        print(f"error: imported coverscope from {coverscope.__file__}", file=sys.stderr)
        return 2
    import workloads

    env = {
        "python": platform.python_version(),
        "backend": getattr(coverscope, "BACKEND", "python"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed))
    if len(runner.workload.inputs) < MIN_OPS:
        raise RuntimeError(f"a pass needs at least {MIN_OPS} ops for a p90 with ten beyond it")
    probe = SetupProbe(verify=bool(args.trace))
    if args.trace:
        tracer = spans.Tracer()
        metrics = per_layer(runner, args.seconds, probe, tracer)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"env": env, "fields": spans.SPAN_FIELDS, "spans": tracer.spans}))
    else:
        metrics = end_to_end(runner, args.seconds, probe)
        units = END_TO_END
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} ops {runner.attempted} "
          f"inputs {len(runner.workload.inputs)} digest {runner.digest()}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
