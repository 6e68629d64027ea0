"""Seeded inputs, the timed operation and its correctness check, per workload.

A workload is a list of inputs, one op each, which the runner repeats in
passes.  `run(inp)` is the only code inside the timed region and reaches
coverscope through its public module functions, looked up as module
attributes so that the traced run sees every call.  `digest(out)` reduces
an output to bytes that must repeat on every pass, and `check(inp, out)`
returns None or what is wrong, judged by the independent `oracle` module.

Why each workload exists is written in README.md beside this file.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from coverscope import algebraic, arith, cover, dataset, disqualify
from coverscope.cover import Candidate

# Synthetic covers use periods dividing this L and primes up to POOL_LIMIT,
# which leaves 74 primes with ord_p(2) | 10080.
POOL_L = 10080
POOL_LIMIT = 1_500_000
# Greedy placement visits primes by period scaled by exp(GREEDY_NOISE * U),
# so seeds differ in which primes and classes they use.
GREEDY_NOISE = 2.0

# Synthetic-cover strata: (L, covers per pass).  L is fixed per stratum so
# that the cost of a pass barely moves with the seed; only the primes,
# classes, sign and hence k change.
CERTIFY_STRATA = tuple((L, 3) for L in (24, 36, 48, 72, 120, 144, 180, 240, 360, 720,
                                         1440, 2520, 5040, 10080))
# Auditing is quadratic in the default depth 10*L (0.2 s at L=2520, 0.75 s
# at 5040, 3 s at 10080), so audit keeps L moderate with one each of 1440
# and 2520; a shorter pass gives every op more repeats in a run.
AUDIT_STRATA = tuple((L, 3) for L in (24, 36, 48, 72, 120, 144, 180, 240, 360, 720)) + (
    (1440, 1), (2520, 1))

# Family siblings k + 2*i*P draw i below this.
FAMILY_I_LIMIT = 2**20

HUNT_N_MAX = 1000
# Random k fill fixed strata: (sign, lowest and highest bit length, lowest
# and highest exponent of the first prime, big, k per pass).  Bit lengths are
# spread evenly over each stratum.  A `big` first prime lies past 2^BIG_BITS,
# beyond the 13-base deterministic Miller-Rabin bound, and is not of Proth
# form, so coverscope settles it with 40 probabilistic rounds; such ops form
# the costliest fifth of the random ones.  With the make-up fixed, the median
# and the 90th percentile sit inside a stratum and barely move with the seed.
# Draws with no prime up to 64 are dropped: the slow tail is measured on
# HUNT_PROVEN, whose full scans cost the same for every seed.
HUNT_STRATA = (
    (1, 16, 64, 1, 8, False, 40), (-1, 16, 64, 1, 8, False, 40),
    (1, 16, 64, 9, 24, False, 80), (-1, 16, 64, 9, 24, False, 80),
    (1, 16, 48, 25, 64, False, 40), (-1, 16, 48, 25, 64, False, 40),
    (-1, 56, 64, 25, 32, True, 80),
)
BIG_BITS = 82
# The smallest known Sierpinski and Riesel numbers: no prime in any range.
HUNT_PROVEN = ((78557, 1), (509203, -1))

SURVEY_N_MAX = 64
# The window starts within 2^12 of 2^17, so windows of different seeds
# share at least half their k and cost about the same.
SURVEY_START = (2**17, 2**17 + 2**12)
SURVEY_CHUNKS = 64
SURVEY_CHUNK_K = 64  # odd k per survey_range call

# Exponent conditions of the two partial-cover kinds: (modulus, claimed).
PARTIAL = {
    algebraic.PREDICATE_MOD4_NE_2: (4, lambda r: r % 4 != 2),
    algebraic.PREDICATE_ODD: (2, lambda r: r % 2 == 1),
}


@dataclass(frozen=True)
class Workload:
    inputs: list
    run: Callable
    digest: Callable
    check: Callable


@dataclass(frozen=True)
class CoverJob:
    """One cover claim with the (d, b, c) entries and L it must produce.
    predicate and root are set for partial covers of coverless k."""

    k: int
    sign: int
    divisors: tuple[int, ...]
    entries: tuple[tuple[int, int, int], ...]
    lcm: int
    predicate: str | None = None
    root: int | None = None


@dataclass(frozen=True)
class AuditJob:
    text: str
    job: CoverJob


@dataclass(frozen=True)
class HuntJob:
    k: int
    sign: int
    n_max: int
    expected: int | None


@dataclass(frozen=True)
class SurveyJob:
    k_min: int
    k_max: int
    sign: int
    n_max: int


# --- cover inputs -------------------------------------------------------------


def load_corpus() -> list:
    return dataset.load_corpus(dataset.default_corpus_path())


def corpus_jobs(records) -> list[CoverJob]:
    """Every corpus cover: both signs of B records, partial covers of the
    coverless ones."""
    jobs = []
    for rec in records:
        for sign, divisors in rec.covers:
            entries = oracle.cover_entries(rec.k, sign, divisors)
            periods = [b for _, b, _ in entries]
            if rec.root is None:
                jobs.append(CoverJob(rec.k, sign, divisors, entries, math.lcm(*periods)))
                continue
            predicate = (algebraic.PREDICATE_MOD4_NE_2 if sign == 1
                         else algebraic.PREDICATE_ODD)
            lcm = math.lcm(*periods, PARTIAL[predicate][0])
            jobs.append(CoverJob(rec.k, sign, divisors, entries, lcm, predicate, rec.root))
    return jobs


def family_jobs(jobs, rng) -> list[CoverJob]:
    """A seeded sibling k + 2*i*P of every full cover; d, b, c and L carry
    over because the sibling is congruent to k modulo every divisor."""
    siblings = []
    for job in jobs:
        if job.predicate is None:
            i = rng.randrange(1, FAMILY_I_LIMIT)
            k = job.k + 2 * i * math.prod(job.divisors)
            siblings.append(CoverJob(k, job.sign, job.divisors, job.entries, job.lcm))
    return siblings


def prime_pool() -> list[tuple[int, int]]:
    """(p, ord_p(2)) for the odd primes p <= POOL_LIMIT with ord_p(2) | POOL_L."""
    sieve = bytearray([1]) * (POOL_LIMIT + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(POOL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, POOL_LIMIT + 1, i)))
    return [(p, oracle.order_of_two(p)) for p in range(3, POOL_LIMIT + 1, 2)
            if sieve[p] and pow(2, POOL_L, p) == 1]


def greedy_cover(pool, L, rng) -> list[tuple[int, int, int]] | None:
    """Cover Z/L with one class c mod b per prime, taking each prime's class
    that claims the most residues still open; None when the primes run out."""
    order = sorted((b * math.exp(GREEDY_NOISE * rng.random()), p, b)
                   for p, b in pool if L % b == 0)
    open_ = bytearray([1]) * L
    left = L
    entries = []
    for _, p, b in order:
        counts = [0] * b
        for r in range(L):
            if open_[r]:
                counts[r % b] += 1
        best = max(counts)
        if best == 0:
            continue
        c = rng.choice([c for c in range(b) if counts[c] == best])
        for r in range(c, L, b):
            if open_[r]:
                open_[r] = 0
                left -= 1
        entries.append((p, b, c))
        if left == 0:
            return entries
    return None


def synthetic_job(pool, L, rng) -> CoverJob:
    """A cover with exactly this L, and the odd k that the CRT assigns it."""
    while True:
        entries = greedy_cover(pool, L, rng)
        if entries is None or math.lcm(*(b for _, b, _ in entries)) != L:
            continue
        sign = rng.choice((1, -1))
        k = oracle.crt_k(entries, sign)
        if k >= 3:
            entries.sort()  # list divisors in increasing order, as the corpus does
            return CoverJob(k, sign, tuple(p for p, _, _ in entries), tuple(entries), L)


def cover_jobs(seed: int, strata) -> list[CoverJob]:
    """Corpus covers, one family sibling of each full cover, and the
    synthetic strata, in a seeded order."""
    rng = random.Random(seed)
    base = corpus_jobs(load_corpus())
    jobs = base + family_jobs(base, rng)
    pool = prime_pool()
    for L, count in strata:
        jobs += [synthetic_job(pool, L, rng) for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


# --- certify ------------------------------------------------------------------


def _case(job):
    if job.predicate == algebraic.PREDICATE_MOD4_NE_2:
        return algebraic.FourthPowerCase(job.root, job.divisors)
    return algebraic.SquareCase(job.root, job.divisors)


def certify_op(job: CoverJob):
    """verify_cover (or build_algebraic_certificate), then canonical JSON."""
    if job.predicate is None:
        cert = cover.verify_cover(Candidate(job.k, job.sign), job.divisors)
        return cert, cover.certificate_to_json(cert)
    cert = algebraic.build_algebraic_certificate(_case(job))
    return cert.partial, algebraic.certificate_to_json(cert)


def certify_check(job: CoverJob, out) -> str | None:
    cert, text = out
    got = tuple((e.d, e.b, e.c) for e in cert.entries)
    if got != job.entries:
        return f"k={job.k}: entries {got} != {job.entries}"
    if cert.lcm != job.lcm:
        return f"k={job.k}: L={cert.lcm} != {job.lcm}"
    if json.loads(text)["k"] != str(job.k):
        return f"k={job.k}: certificate names another k"
    claimed = PARTIAL[job.predicate][1] if job.predicate else (lambda r: True)
    problem = oracle.table_problem(job.entries, job.lcm, cert.table, claimed)
    return problem and f"k={job.k}: {problem}"


def certify(seed: int, strata=CERTIFY_STRATA) -> Workload:
    return Workload(cover_jobs(seed, strata), certify_op,
                    lambda out: hashlib.sha256(out[1].encode()).digest(), certify_check)


# --- audit --------------------------------------------------------------------


def audit_op(job: AuditJob):
    """What `coverscope audit` does to a certificate file's contents."""
    doc = json.loads(job.text)
    if "kind" in doc:
        cert = algebraic.certificate_from_dict(doc)
        return algebraic.check_certificate_facts(cert), None, cert.audited_n_max
    cert = cover.certificate_from_dict(doc)
    problem = cover.check_certificate_facts(cert)
    n_max = 10 * cert.lcm
    n_bad = None if problem else cover.first_audit_failure(cert, n_max)
    return problem, n_bad, n_max


def audit_check(job: AuditJob, out) -> str | None:
    problem, n_bad, depth = out
    if problem is not None or n_bad is not None:
        return f"k={job.job.k}: audit failed: {problem or f'witness at n={n_bad}'}"
    if job.job.predicate is None and depth != 10 * job.job.lcm:
        return f"k={job.job.k}: audited to {depth}, not 10*L"
    return None


def audit(seed: int, strata=AUDIT_STRATA) -> Workload:
    """Certificates are built and serialized here, in set-up; only the
    checking path is timed."""
    jobs = [AuditJob(certify_op(job)[1], job) for job in cover_jobs(seed, strata)]
    return Workload(jobs, audit_op, lambda out: repr(out).encode(), audit_check)


# --- hunt and survey ----------------------------------------------------------


def _prime_problem(candidate_k, sign, n, result) -> str | None:
    """Re-check a reported prime term without coverscope."""
    if result.n != oracle.term(candidate_k, sign, n):
        return f"k={candidate_k}: evidence is for another integer"
    if result.method == arith.METHOD_PROTH:
        holds = oracle.proth_witness_holds(result.n, result.witness)
    else:
        holds = oracle.is_probable_prime(result.n)
    return None if holds else f"k={candidate_k}, n={n}: prime claim does not re-check"


def _record_key(rec) -> tuple:
    p = rec.primality
    return (rec.candidate.k, rec.candidate.sign, rec.n_found, rec.n_searched,
            p and (p.method, p.is_prime, p.witness))


def _big(k: int, sign: int, n: int) -> bool:
    return oracle.term(k, sign, n) >> BIG_BITS > 0 and (sign == -1 or 1 << n <= k)


def hunt_jobs(seed: int, strata=HUNT_STRATA) -> list[HuntJob]:
    """Each stratum's k, each drawn until its first prime fits the stratum."""
    rng = random.Random(seed)
    jobs = [HuntJob(k, sign, HUNT_N_MAX, None) for k, sign in HUNT_PROVEN]
    for sign, bits_lo, bits_hi, n_lo, n_hi, big, count in strata:
        for j in range(count):
            bits = bits_lo + j * (bits_hi - bits_lo) // max(1, count - 1)
            while True:
                k = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
                n = oracle.first_prime_exponent(k, sign, n_hi)
                if n is not None and n >= n_lo and _big(k, sign, n) == big:
                    jobs.append(HuntJob(k, sign, HUNT_N_MAX, n))
                    break
    rng.shuffle(jobs)
    return jobs


def hunt_op(job: HuntJob):
    return disqualify.first_prime_exponent(Candidate(job.k, job.sign), job.n_max)


def hunt_check(job: HuntJob, rec) -> str | None:
    if rec.n_found != job.expected:
        return f"k={job.k} sign={job.sign}: first prime at {rec.n_found}, expected {job.expected}"
    if rec.n_found is None:
        return None
    return _prime_problem(job.k, job.sign, rec.n_found, rec.primality)


def hunt(seed: int, strata=HUNT_STRATA) -> Workload:
    return Workload(hunt_jobs(seed, strata), hunt_op,
                    lambda rec: repr(_record_key(rec)).encode(), hunt_check)


def survey_jobs(seed: int, chunks: int = SURVEY_CHUNKS) -> list[SurveyJob]:
    rng = random.Random(seed)
    start = rng.randrange(*SURVEY_START) | 1
    span = 2 * SURVEY_CHUNK_K
    return [SurveyJob(start + i * span, start + i * span + span - 2, sign, SURVEY_N_MAX)
            for i in range(chunks) for sign in (1, -1)]


def survey_op(job: SurveyJob):
    return disqualify.survey_range(job.k_min, job.k_max, job.sign, job.n_max)


def survey_check(job: SurveyJob, records) -> str | None:
    ks = list(range(job.k_min, job.k_max + 1, 2))
    if [r.candidate.k for r in records] != ks:
        return f"survey {job.k_min}..{job.k_max}: records do not list every odd k in order"
    for k, rec in zip(ks, records):
        expected = oracle.first_prime_exponent(k, job.sign, job.n_max)
        if rec.n_found != expected:
            return f"k={k} sign={job.sign}: first prime at {rec.n_found}, expected {expected}"
        if expected is not None:
            problem = _prime_problem(k, job.sign, expected, rec.primality)
            if problem:
                return problem
    return None


def survey(seed: int, chunks: int = SURVEY_CHUNKS) -> Workload:
    return Workload(survey_jobs(seed, chunks), survey_op,
                    lambda recs: repr([_record_key(r) for r in recs]).encode(), survey_check)


WORKLOADS = {"certify": certify, "audit": audit, "hunt": hunt, "survey": survey}
