"""Per-layer tracing from outside the program.

Each traced function is replaced by a wrapper that records a span (name,
parent span, start, end) in flat arrays.  The wrapper is installed on
every binding of the original function: module attributes, including
the names other ellspec modules imported with ``from .x import f``, and
class attributes, including aliases such as ``IntPoly.__rmul__ =
__mul__``.  Spans stay in memory until the run ends; self time is span
time minus the time covered by child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer metric name, module, attribute path of the original function)
TRACED = (
    ("intpoly.mul", "ellspec.intpoly", "IntPoly.__mul__"),
    ("intpoly.poly_gcd", "ellspec.intpoly", "poly_gcd"),
    ("intpoly.pseudo_divmod", "ellspec.intpoly", "IntPoly.pseudo_divmod"),
    ("intpoly.squarefree_decompose", "ellspec.intpoly", "squarefree_decompose"),
    ("intpoly.eval", "ellspec.intpoly", "IntPoly.__call__"),
    ("factorize.factor", "ellspec.factorize", "factor"),
    ("factorize.rational_roots", "ellspec.factorize", "rational_roots"),
    ("intmath.is_square_rat", "ellspec.intmath", "is_square_rat"),
    ("intmath.factor_int", "ellspec.intmath", "factor_int"),
    ("ratfunc.init", "ellspec.ratfunc", "RatFunc.__init__"),
    ("curves.add", "ellspec.curves", "Curve.add"),
    ("curves.contains", "ellspec.curves", "Curve.contains"),
    ("curves.init", "ellspec.curves", "Curve.__init__"),
    ("conditions.enumerate_divisors", "ellspec.conditions", "enumerate_divisors"),
    ("conditions.check_condition", "ellspec.conditions", "check_condition"),
    ("conditions.find_t0", "ellspec.conditions", "find_t0"),
    ("conditions.replay_certificate", "ellspec.conditions", "replay_certificate"),
    ("parsing.parse_curve", "ellspec.parsing", "parse_curve"),
    ("mestre.build", "ellspec.mestre", "build"),
    ("mestre.morphism_degree", "ellspec.mestre", "morphism_degree"),
    ("mestre.injectivity_report", "ellspec.mestre", "injectivity_report"),
    ("specialize.specialize_point", "ellspec.specialize", "specialize_point"),
)

# Counts and ratios recorded at the same boundaries: (name, unit, better).
EXTRA_METRICS = (
    ("intpoly.poly_gcd.trivial_ratio", "ratio", "lower"),
    ("intpoly.poly_gcd.max_coeff_bits", "bits", "lower"),
    ("factorize.factor.distinct_ratio", "ratio", "higher"),
    ("intmath.is_square_rat.hit_ratio", "ratio", "higher"),
    ("ratfunc.max_degree", "degree", "lower"),
    ("conditions.divisors_evaluated", "count", "lower"),
    ("conditions.t0_tried", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric with its unit and direction."""
    out = []
    for name, _, _ in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in EXTRA_METRICS]
    return out


def self_times(names, parents, starts, ends) -> dict:
    """{name id: [calls, self time]} from flat span arrays.  Spans of one
    thread nest, so the time a span's children cover is the sum of their
    durations."""
    n = len(starts)
    covered = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {}
    for i in range(n):
        entry = out.setdefault(names[i], [0, 0])
        entry[0] += 1
        entry[1] += ends[i] - starts[i] - covered[i]
    return out


def _coeff_bits(p) -> int:
    return max(map(abs, p.coeffs), default=0).bit_length()


class Tracer:
    """Spans and counters for one traced pass; install() patches the
    loaded ellspec modules and uninstall() restores them."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.gcd_trivial = 0
        self.gcd_max_bits = 0
        self.factor_inputs: set = set()
        self.square_hits = 0
        self.ratfunc_max_degree = 0
        self.divisors_evaluated = 0
        self.t0_tried = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """{name: (calls, self seconds)} for every traced name."""
        agg = self_times(self.span_name, self.span_parent, self.span_start, self.span_end)
        out = {}
        for nid, name in enumerate(self.names):
            calls, ns = agg.get(nid, (0, 0))
            c0, s0 = out.get(name, (0, 0.0))
            out[name] = (c0 + calls, s0 + ns / 1e9)
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line then one 'name parent start end'
        line per span, times in nanoseconds."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_start)}) + "\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write("%d %d %d %d\n" % row)

    # -- observers ------------------------------------------------------------

    def _observe_gcd(self, args, result):
        if result.degree <= 0:
            self.gcd_trivial += 1
        bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
        if bits > self.gcd_max_bits:
            self.gcd_max_bits = bits

    def _observe_factor(self, args, result):
        self.factor_inputs.add(args[0].coeffs)

    def _observe_square(self, args, result):
        if result is not None:
            self.square_hits += 1

    def _observe_divisor(self, args, result):
        self.divisors_evaluated += 1
        self._observe_square(args, result)

    def _observe_ratfunc(self, args, result):
        f = args[0]
        d = max(f.num.degree, f.den.degree)
        if d > self.ratfunc_max_degree:
            self.ratfunc_max_degree = d

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper, skip=()):
        """Replace every binding of original in the loaded ellspec modules
        and their classes."""
        for modname, module in list(sys.modules.items()):
            if modname != "ellspec" and not modname.startswith("ellspec."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original and (module, attr) not in skip:
                    self._set(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, wrapper)

    def install(self) -> None:
        observers = {
            "intpoly.poly_gcd": self._observe_gcd,
            "factorize.factor": self._observe_factor,
            "intmath.is_square_rat": self._observe_square,
            "ratfunc.init": self._observe_ratfunc,
        }
        conditions = sys.modules["ellspec.conditions"]
        for name, modname, path in TRACED:
            original = sys.modules[modname]
            for part in path.split("."):
                original = getattr(original, part)
            skip = ()
            if name == "intmath.is_square_rat":
                # conditions' own binding also counts divisors evaluated
                skip = ((conditions, "is_square_rat"),)
                self._set(conditions, "is_square_rat", self.wrap(name, original, self._observe_divisor))
            self._rebind(original, self.wrap(name, original, observers.get(name)), skip)
        candidates = conditions.t0_candidates

        def counted_candidates(*args, **kwargs):
            for t0 in candidates(*args, **kwargs):
                self.t0_tried += 1
                yield t0

        self._set(conditions, "t0_candidates", counted_candidates)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        totals = self.totals()
        out = {}
        for name, _, _ in TRACED:
            calls, self_s = totals[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        gcd_calls = totals["intpoly.poly_gcd"][0]
        factor_calls = totals["factorize.factor"][0]
        square_calls = totals["intmath.is_square_rat"][0]
        out["intpoly.poly_gcd.trivial_ratio"] = self.gcd_trivial / gcd_calls if gcd_calls else 0.0
        out["intpoly.poly_gcd.max_coeff_bits"] = self.gcd_max_bits
        out["factorize.factor.distinct_ratio"] = len(self.factor_inputs) / factor_calls if factor_calls else 0.0
        out["intmath.is_square_rat.hit_ratio"] = self.square_hits / square_calls if square_calls else 0.0
        out["ratfunc.max_degree"] = self.ratfunc_max_degree
        out["conditions.divisors_evaluated"] = self.divisors_evaluated
        out["conditions.t0_tried"] = self.t0_tried
        out["trace.overhead_ratio"] = overhead_ratio
        return out
