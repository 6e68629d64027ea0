"""Tests of the benchmark itself: seeded inputs, synthetic covers, spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coverscope import cover  # noqa: E402
from coverscope.cover import Candidate  # noqa: E402

SMALL = {
    "certify": lambda seed: workloads.certify(seed, strata=((24, 1), (720, 1))),
    "audit": lambda seed: workloads.audit(seed, strata=((36, 1), (360, 1))),
    "hunt": lambda seed: workloads.hunt(seed, strata=((1, 16, 64, 1, 8, False, 3),
                                                        (-1, 50, 60, 20, 64, True, 2))),
    "survey": lambda seed: workloads.survey(seed, chunks=2),
}


def test_same_seed_gives_identical_inputs():
    for name, make in SMALL.items():
        first, again, other = make(11).inputs, make(11).inputs, make(12).inputs
        assert first == again, name
        assert first != other, name


def test_synthetic_covers_are_valid_covers():
    pool = workloads.prime_pool()
    rng = random.Random(3)
    for L in (24, 144, 1440, 10080):
        job = workloads.synthetic_job(pool, L, rng)
        assert job.lcm == L == math.lcm(*(b for _, b, _ in job.entries))
        assert job.k % 2 == 1
        for d, b, c in job.entries:
            assert oracle.is_probable_prime(d)
            assert pow(2, b, d) == 1 and oracle.order_of_two(d) == b
            assert (job.k * pow(2, c, d) + job.sign) % d == 0
        assert all(any(r % b == c for _, b, c in job.entries) for r in range(L))
        cert = cover.verify_cover(Candidate(job.k, job.sign), job.divisors)
        assert tuple((e.d, e.b, e.c) for e in cert.entries) == job.entries


def test_checks_reject_a_wrong_answer():
    job = workloads.certify(5, strata=((48, 1),)).inputs[0]
    cert, text = workloads.certify_op(job)
    assert workloads.certify_check(job, (cert, text)) is None
    wrong = workloads.CoverJob(job.k, job.sign, job.divisors, job.entries[::-1], job.lcm)
    assert workloads.certify_check(wrong, (cert, text)) is not None
    hunt_job = next(j for j in SMALL["hunt"](5).inputs if j.expected)
    record = workloads.hunt_op(hunt_job)
    assert workloads.hunt_check(hunt_job, record) is None
    off_by_one = workloads.HuntJob(hunt_job.k, hunt_job.sign, hunt_job.n_max, -1)
    assert workloads.hunt_check(off_by_one, record) is not None


def test_span_self_times_are_nonnegative_and_nest():
    tracer = spans.Tracer()
    modules, targets = spans.coverscope_targets()
    original = cover.verify_cover
    runner = run.Runner(SMALL["certify"](2))
    with tracer.installed(modules, targets):
        assert cover.verify_cover is not original
        runner.run_pass(tracer)
    assert cover.verify_cover is original
    assert runner.failed == 0
    by_id = {s[0]: s for s in tracer.spans}
    children = {}
    assert len(by_id) == len(tracer.spans) > 0
    for span_id, parent, op, name, start, end, self_ns in tracer.spans:
        assert start <= end and self_ns >= 0
        if parent is not None:
            p = by_id[parent]
            assert p[2] == op and p[4] <= start and end <= p[5]
            children[parent] = children.get(parent, 0) + end - start
    for parent, child_ns in children.items():
        p = by_id[parent]
        assert p[6] == p[5] - p[4] - child_ns
    names = {s[3] for s in tracer.spans}
    assert {"cover.verify_cover", "cover.build_entry", "arith.multiplicative_order",
            "backend.is_prime_u64", "algebraic.verify_partial_cover"} <= names
    totals = tracer.layer_totals()
    assert totals["cover.table_residues"] > 0 and totals["cover.cert_bytes"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hunt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
