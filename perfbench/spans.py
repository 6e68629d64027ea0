"""Spans around coverscope's public functions, recorded from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper on every
module attribute that holds it, so re-exports are covered too (the
`build_entry` that algebraic imports from cover, the kernel functions on the
`kernels` module object that arith calls).  A span has an id, its parent's
id, the op that caused it, its name and its start and end in integer
nanoseconds; self time is its duration minus that of its direct children.
Totals accumulate for every span, and the first MAX_SPANS spans are kept
in memory to be written out when the run ends.
"""

import contextlib
import functools
from collections import defaultdict
from time import perf_counter_ns

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns")
MAX_SPANS = 20000

PRIMALITY_SPANS = ("arith.is_prime", "arith.proth_test")
TEST_METHODS = {
    "proth": "arith.tests.proth",
    "miller-rabin-deterministic": "arith.tests.mr-det",
    "miller-rabin-probabilistic": "arith.tests.mr-prob",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [id, name, child_ns]
        self._next_id = 0

    def reset_totals(self):
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span; observe(counts, args, result, parent_name)
        runs after the span closes, outside it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                own = end - start - frame[2]
                if parent is not None:
                    parent[2] += end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += own
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((frame[0], parent and parent[0], tracer.op,
                                         name, start, end, own))
            if observe is not None:
                observe(tracer.counts, args, result, parent and parent[1])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules, targets):
        """Patch every attribute of `modules` that holds a target function.
        targets: (function, span name, observer or None)."""
        wrappers = {id(fn): (fn, self.wrap(name, fn, observe)) for fn, name, observe in targets}
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def layer_totals(self) -> dict:
        """Per-span calls and self seconds, the counters, and self seconds
        summed per module (the name's first component)."""
        out = {}
        per_layer = defaultdict(int)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            per_layer[name.split(".", 1)[0]] += self.self_ns[name]
        for layer, ns in per_layer.items():
            out[f"layer.{layer}.self_s"] = ns / 1e9
        out.update(self.counts)
        tests = self.counts.get("arith.tests", 0)
        out["arith.useful_ratio"] = self.counts.get("arith.primes", 0) / tests if tests else 0.0
        return out


# --- what is traced in coverscope ---------------------------------------------


def _count_test(counts, args, result, parent):
    if parent in PRIMALITY_SPANS:
        return  # the outer test already counts it
    counts["arith.tests"] += 1
    counts["arith.primes"] += bool(result.is_prime)
    if result.method in TEST_METHODS:
        counts[TEST_METHODS[result.method]] += 1


def _count_table(counts, args, result, parent):
    counts["cover.table_residues"] += result.lcm


def _count_bytes(counts, args, result, parent):
    counts["cover.cert_bytes"] += len(result)


def _count_audit_terms(counts, args, result, parent):
    counts["cover.audit_terms"] += args[1] if result is None else result


def _count_exponents(counts, args, result, parent):
    counts["disqualify.exponents_scanned"] += result.n_searched


def coverscope_targets():
    """(modules to patch, targets) for the installed coverscope package.
    Functions a later version no longer has are skipped."""
    import coverscope
    from coverscope import algebraic, arith, cover, dataset, disqualify

    spec = {
        arith: [("mod_pow", None), ("multiplicative_order", None), ("find_offset", None),
                ("is_prime", _count_test), ("proth_test", _count_test)],
        cover: [("build_entry", None), ("verify_cover", _count_table),
                ("certificate_to_json", _count_bytes), ("certificate_from_dict", None),
                ("check_certificate_facts", None), ("first_audit_failure", _count_audit_terms)],
        algebraic: [("verify_partial_cover", _count_table),
                    ("build_algebraic_certificate", None),
                    ("certificate_to_json", _count_bytes), ("certificate_from_dict", None),
                    ("check_certificate_facts", None), ("first_coverless_failure", None)],
        disqualify: [("first_prime_exponent", _count_exponents), ("survey_range", None)],
        dataset: [("load_corpus", None), ("verify_corpus", None)],
    }
    targets = []
    for module, names in spec.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        for attr, observe in names:
            fn = getattr(module, attr, None)
            if fn is not None:
                targets.append((fn, f"{prefix}.{attr}", observe))
    modules = [coverscope, *spec]
    kernels = getattr(arith, "kernels", None)
    if kernels is not None:
        modules.append(kernels)
        for attr in ("is_prime_u64", "mod_pow_u64", "order_scan_u64", "offset_scan_u64"):
            fn = getattr(kernels, attr, None)
            if fn is not None:
                targets.append((fn, f"backend.{attr}", None))
    return modules, targets
