"""Injectivity criteria for the specialization homomorphism.

Four checks on a rational number t0:

- "A": split model y^2 = (x-e1)(x-e2)(x-e3); every nonconstant
  squarefree divisor of each (e_j-e_i)(e_k-e_i) must be non-square at t0.
  Passing certifies injectivity.
- "Aprime": same with the single triple product
  (e1-e2)(e2-e3)(e3-e1); strictly stronger than "A".
- "scriptA": model y^2 = x^3 + A x^2 + B x with exactly one rational
  2-torsion point; divisors of B and of A^2 - 4B.  Passing certifies
  injectivity.
- "A1B": general model; divisors of the discriminant plus
  irreducibility of the specialized cubic.  Diagnostic only - passing
  does NOT certify injectivity.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .curves import Curve, _q_cubic_roots
from .factorize import factor
from .intmath import (
    InvariantError,
    _independent_mod_squares,
    as_rational,
    exact_isqrt,
    is_square_rat,
    parse_rational,
    rational_text,
)
from .intpoly import IntPoly, _horner_homogeneous
from .parsing import _parse_integral

__all__ = [
    "CONDITION_NAMES",
    "DivisorCheck",
    "ConditionReport",
    "SearchBudget",
    "BudgetExhausted",
    "Checker",
    "enumerate_divisors",
    "check_condition",
    "find_t0",
    "t0_candidates",
    "certificate_to_json",
    "replay_certificate",
]

CONDITION_NAMES = ("A", "Aprime", "scriptA", "A1B")

# Divisors one report may list: a target with k factors and s content primes has 2^(s+1)(2^k - 1).
_DIVISOR_CAP = 2**16


@dataclass(frozen=True)
class DivisorCheck:
    """One enumerated divisor, its exact value at t0, and its verdict."""

    target: str
    divisor: IntPoly
    value: Fraction
    square_root: Optional[Fraction]  # None means "not a square" (good)

    @property
    def is_square(self) -> bool:
        return self.square_root is not None


@dataclass
class ConditionReport:
    """Outcome of one criterion at one t0; doubles as the certificate."""

    condition: str
    curve: Curve
    t0: Fraction
    passed: bool
    certifying: bool
    discriminant_value: Fraction
    checks: list[DivisorCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    subresults: dict = field(default_factory=dict)

    @property
    def witnesses(self) -> list[DivisorCheck]:
        return [c for c in self.checks if c.is_square]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"condition {self.condition} at t0={self.t0}: {verdict}"
        if not self.passed and self.witnesses:
            w = self.witnesses[0]
            h, value = rational_text(w.divisor, "divisor"), rational_text(w.value, "divisor value at t0")
            out += f" (witness h={h}, h(t0)={value}=({w.square_root})^2)"
        return out


class BudgetExhausted(RuntimeError):
    """Search budget ran out; not a disproof, passers are merely further out.
    For A1B on a cubic with a root in Q(t) the exhaustion is certain at any
    budget and is raised before any factoring, with the same message."""


@dataclass(frozen=True)
class SearchBudget:
    int_bound: int = 10_000
    rat_height: int = 100

    def __post_init__(self):
        if self.int_bound < 0 or self.rat_height < 0:
            raise ValueError(f"search bounds must be nonnegative, got {self}")


# ---------------------------------------------------------------------------
# Divisor enumeration.
# ---------------------------------------------------------------------------


def enumerate_divisors(target: IntPoly) -> list[IntPoly]:
    """All nonconstant squarefree divisors of target, up to square-class
    equivalence, both signs included.

    Products eps * prod(S) * prod(T): eps a sign, S any subset of the
    distinct content primes, T a nonempty subset of the distinct
    primitive irreducible factors.
    """
    if target.is_zero:
        raise ValueError("zero target")
    fac = factor(target)
    return [h for h, _, _ in _divisor_products([g for g, _ in fac.poly_factors],
                                                [q for q, _ in fac.content_primes])]


def _divisor_products(polys, primes) -> list[tuple[IntPoly, int, tuple[int, ...]]]:
    """Every divisor of the distinct irreducible factors `polys` and the
    distinct content `primes` as (h, c, idx) with
    h = c * prod(polys[i] for i in idx), in the order of enumerate_divisors."""
    out = []
    for r in range(1, len(polys) + 1):
        for idx in itertools.combinations(range(len(polys)), r):
            base = math.prod((polys[i] for i in idx), start=IntPoly.const(1))
            for s in range(len(primes) + 1):
                for prime_subset in itertools.combinations(primes, s):
                    c = math.prod(prime_subset)
                    h = c * base
                    out.append((h, c, idx))
                    out.append((-h, -c, idx))
    # by degree, |lc|, the sign of lc and the coefficients
    out.sort(key=lambda d: (len(c := d[0].coeffs), abs(c[-1]), c[-1] < 0, c))
    return out


# ---------------------------------------------------------------------------
# Target preparation per condition: each target as a tuple of its pieces.
# ---------------------------------------------------------------------------


def _split_targets(curve: Curve) -> list[tuple[str, tuple[IntPoly, ...]]]:
    [(_, (d12, d13, d23))] = _split_strong_targets(curve)
    labels = ("(e2-e1)(e3-e1)", "(e1-e2)(e3-e2)", "(e1-e3)(e2-e3)")
    return list(zip(labels, [(d12, d13), (d12, d23), (d13, d23)]))


def _split_strong_targets(curve: Curve) -> list[tuple[str, tuple[IntPoly, ...]]]:
    e1, e2, e3 = curve.split_root_polys()
    return [("(e1-e2)(e2-e3)(e3-e1)", (e2 - e1, e3 - e1, e3 - e2))]


def _one_torsion_targets(curve: Curve) -> list[tuple[str, tuple[IntPoly, ...]]]:
    A, B, C = curve.coeff_polys()
    if not C.is_zero:
        raise ValueError("model must be y^2 = x^3 + A x^2 + B x (C = 0)")
    return [("B", (B,)), ("A^2-4B", (A * A - 4 * B,))]


def _is_square_in_zt(p: IntPoly, facs: dict) -> bool:
    """Whether p, nonzero, is a square in Z[t], and so in Q(t): a constant
    by exact_isqrt, any other p by its factorization facs[p], when the unit
    is 1 and every exponent is even."""
    if p.is_constant:
        return exact_isqrt(p.lc) is not None
    fac = facs[p]
    return fac.unit == 1 and all(e % 2 == 0 for _, e in fac.content_primes + fac.poly_factors)


def _discriminant_targets(curve: Curve) -> list[tuple[str, tuple[IntPoly, ...]]]:
    return [("D", (curve.discriminant_poly(),))]


_TARGET_BUILDERS = {
    "A": _split_targets,
    "Aprime": _split_strong_targets,
    "scriptA": _one_torsion_targets,
    "A1B": _discriminant_targets,
}


def _require_known(condition) -> None:
    if condition not in CONDITION_NAMES:
        raise ValueError(f"unknown condition {condition!r}; choose from {CONDITION_NAMES}")


class Checker:
    """One criterion prepared for one curve over Q(t), on its integral model
    (see Curve).  The constructor factors each
    distinct piece of the targets once and lists nothing; the first
    check(t0) lists every divisor of self.targets, and each check evaluates
    that one listing for its report.  passes(t0) decides the same verdict
    from the factors alone and lists nothing.  Constant targets are dropped.
    For scriptA the constructor refuses, with ValueError, a curve whose
    A^2 - 4B is a square in Z[t], read from the factorization it holds, or
    by exact_isqrt from a constant A^2 - 4B, which it does not factor; it
    finds no 2-torsion point.

    A Checker built directly, as find_t0 and mestre build one, is its
    caller's own.  check_condition, and replay through it, share one per
    (condition, curve, split roots in order) through a memo of the
    _PREPARED_MAX most recently used."""

    def __init__(self, curve: Curve, condition: str):
        _require_known(condition)
        targets = _TARGET_BUILDERS[condition](curve)
        built = [tg for tg in targets if not all(p.is_constant for p in tg[1])]
        facs = {p: factor(p) for p in {piece for _, pieces in built for piece in pieces}}
        # (0, 0) is one 2-torsion point; the roots of x^2 + A x + B give the others
        if condition == "scriptA" and _is_square_in_zt(dict(targets)["A^2-4B"][0], facs):
            raise ValueError("A^2 - 4B is a square in Z[t]: the cubic splits; use condition A")
        self.curve = curve
        self.condition = condition
        self.model = curve.coeff_polys()
        self.discriminant = curve.discriminant_poly()
        # (label, distinct irreducible factors, distinct content primes)
        self.targets = [(label,
                         list(dict.fromkeys(g for p in pieces for g, _ in facs[p].poly_factors)),
                         list(dict.fromkeys(q for p in pieces for q, _ in facs[p].content_primes)))
                        for label, pieces in built]

    def check(self, t0) -> ConditionReport:
        """The criterion at t0, with every divisor value in the report; a t0
        that is a pole of a coefficient, or a report of more than
        _DIVISOR_CAP divisors, raises ValueError, and a listed pass that
        the rank test of passes denies, InvariantError."""
        t0 = as_rational(t0)
        n, m = t0.numerator, t0.denominator
        if _horner_homogeneous(self.curve.scale.coeffs, n, m) == 0:
            raise ValueError(f"t0={t0} is a pole of a coefficient of the curve")
        Dv = self.discriminant(t0)
        report = ConditionReport(
            condition=self.condition,
            curve=self.curve,
            t0=t0,
            passed=Dv != 0,
            certifying=self.condition != "A1B",
            discriminant_value=Dv,
        )
        if Dv == 0:
            report.notes.append("discriminant vanishes at t0: specialization is singular")
            return report
        count = sum(2 ** (len(ps) + 1) * (2 ** len(fs) - 1) for _, fs, ps in self.targets)
        if count > _DIVISOR_CAP:
            raise ValueError(f"condition {self.condition} at t0={t0}: the report would list "
                             f"{count} divisors, over the cap of {_DIVISOR_CAP}")
        # g(t0) = G / m^deg(g), so h(t0) = c * prod(G) / m^deg(h)
        evaluated = [[_horner_homogeneous(g.coeffs, n, m) for g in fs] for _, fs, _ in self.targets]
        for (label, _, _), divisors, values in zip(self.targets, self._listing, evaluated):
            for h, c, idx in divisors:
                value = Fraction(c * math.prod(values[i] for i in idx), m**h.degree)
                root = is_square_rat(value)
                report.checks.append(DivisorCheck(label, h, value, root))
                if root is not None:
                    report.passed = False
        # a composite listed as a prime hides divisors, so only a listed pass can be wrong
        if report.passed and not all(_independent([v * m if g.degree % 2 else v for g, v in zip(fs, G)], ps)
                                     for (_, fs, ps), G in zip(self.targets, evaluated)):
            raise InvariantError(f"rank test and divisor enumeration disagree at t0={t0}")
        if self.condition == "A1B":
            report.notes.append("diagnostic only: passing is NOT an injectivity certificate")
            spec_roots = self._specialized_cubic_roots(t0)
            report.subresults.update(A1=report.passed, B=not spec_roots)
            report.passed = report.passed and not spec_roots
            if spec_roots:
                report.notes.append(f"specialized cubic has a rational root {spec_roots[0]}")
        return report

    def passes(self, t0) -> bool:
        """check(t0).passed, decided by a rank test instead of a square
        test per divisor.

        With g_i(t0) = G_i / m^deg(g_i) for t0 = n/m, a divisor's value
        c * prod(g_i(t0), i in T) has the square class of c times the
        product of the v_i = G_i * m^(deg g_i mod 2) over T.  So a target
        passes exactly when no v_i is 0 and the classes of the v_i are
        independent in Q*/Q*^2 modulo the span W of -1 and the primes of
        its content.  W comes from the product of the listed content primes
        by gcds alone, so a composite listed as a prime cannot make a target
        pass."""
        t0 = as_rational(t0)
        n, m = t0.numerator, t0.denominator
        if _horner_homogeneous(self.discriminant.coeffs, n, m) == 0:
            return False
        for _, factors, primes in self.targets:
            if not _independent([_horner_homogeneous(g.coeffs, n, m) * (m if g.degree % 2 else 1)
                                 for g in factors], primes):
                return False
        return self.condition != "A1B" or not self._specialized_cubic_roots(t0)

    @cached_property
    def _listing(self) -> list[list[tuple[IntPoly, int, tuple[int, ...]]]]:
        """_divisor_products of each target, listed on the first check."""
        return [_divisor_products(factors, primes) for _, factors, primes in self.targets]

    def _specialized_cubic_roots(self, t0: Fraction) -> list[Fraction]:
        A, B, C = self.model
        return _q_cubic_roots(A(t0), B(t0), C(t0))


def _independent(values: list[int], primes: list[int]) -> bool:
    """Whether a target's v_i at t0, values, are all nonzero and independent
    modulo W, which is spanned by -1 and the primes of the product of its
    content primes (see Checker.passes)."""
    return 0 not in values and _independent_mod_squares(values, math.prod(primes))


# Prepared Checkers kept per process.  A check and its replay use one entry
# back to back; a memo that held a whole bench round of 256 raised peak memory
# by about 10%.
_PREPARED_MAX = 8


def _prepared(curve: Curve, condition: str) -> Checker:
    """The shared Checker of condition on curve (see Checker)."""
    _require_known(condition)  # before the memo hashes it
    return _prepare(condition, curve.split_roots, curve)


@functools.lru_cache(maxsize=_PREPARED_MAX)
def _prepare(condition: str, split_roots, curve: Curve) -> Checker:
    # equal curves have equal integral models; the split roots fix the targets' order
    return Checker(curve, condition)


def check_condition(curve: Curve, condition: str, t0: Fraction) -> ConditionReport:
    """Run one of the four criteria at t0 and return the full report, which
    names curve; the Checker is the shared one (see Checker)."""
    report = _prepared(curve, condition).check(t0)
    report.curve = curve
    return report


# ---------------------------------------------------------------------------
# Search for a certified t0.
# ---------------------------------------------------------------------------


def t0_candidates(budget: SearchBudget = SearchBudget()) -> Iterator[Fraction]:
    """Deterministic enumeration: 0, 1, -1, 2, -2, ... up to the integer
    bound, then non-integer rationals by height max(|num|, den), each
    height scanned by increasing denominator with + before -."""
    yield Fraction(0)
    for n in range(1, budget.int_bound + 1):
        yield Fraction(n)
        yield Fraction(-n)
    for h in range(2, budget.rat_height + 1):
        for d in range(2, h + 1):
            for n in range(1, h + 1):
                if max(n, d) != h or math.gcd(n, d) != 1:
                    continue
                yield Fraction(n, d)
                yield Fraction(-n, d)


def _cubic_has_qt_root(curve: Curve) -> bool:
    """Whether the cubic of curve over Q(t) has a root in Q(t).  Then its
    integral model has a root X in Z[t], and X(t0) is a rational root of the
    model at every t0.  A curve over Q raises the ValueError of coeff_polys."""
    curve.coeff_polys()
    return len(curve.two_torsion()) > 1


def find_t0(
    curve: Curve,
    condition: str,
    budget: SearchBudget = SearchBudget(),
) -> ConditionReport:
    """First t0 in the documented enumeration order passing the given
    criterion; raises BudgetExhausted when none is found in budget.

    Each candidate is decided by Checker.passes, and the full report of
    Checker.check is built once, for the t0 returned, so it is the same
    report and certificate that check_condition gives at that t0.  The
    search builds its own Checker, on the curve's integral model, and leaves
    the shared ones alone; a pole t0 never passes: the model is singular there.

    A1B on a cubic with a root in Q(t) fails at every t0, so its search
    raises BudgetExhausted at any budget, before anything is factored and
    with no candidate tried; the message is that of any exhausted search."""
    if condition != "A1B" or not _cubic_has_qt_root(curve):
        checker = Checker(curve, condition)
        for t0 in t0_candidates(budget):
            if checker.passes(t0):
                report = checker.check(t0)
                if not report.passed:
                    raise InvariantError(f"rank test and divisor enumeration disagree at t0={t0}")
                return report
    raise BudgetExhausted(
        f"no t0 passing condition {condition} within {budget} (not a disproof)"
    )


# ---------------------------------------------------------------------------
# JSON certificates and replay.
# ---------------------------------------------------------------------------

_SCHEMA = "ellspec-certificate/1"
# the fields _certificate_doc writes; replay asks for them before any arithmetic
_FIELDS = frozenset({"schema", "condition", "curve", "t0", "passed", "certifying",
                     "discriminant_value", "checks", "notes", "subresults"})


def _curve_to_json(curve: Curve) -> dict:
    out = {k: rational_text(f, k) for k, f in zip("ABC", curve.coeff_polys())}
    if curve.split_roots is not None:
        out["split_roots"] = [rational_text(e, f"e{i}") for i, e in enumerate(curve.split_root_polys(), 1)]
    return out


def _certificate_doc(report: ConditionReport) -> dict:
    return {
        "schema": _SCHEMA,
        "condition": report.condition,
        "curve": _curve_to_json(report.curve),
        "t0": str(report.t0),
        "passed": report.passed,
        "certifying": report.certifying and report.passed,
        "discriminant_value": rational_text(report.discriminant_value, "discriminant at t0"),
        "checks": [
            {
                "target": c.target,
                "divisor": rational_text(c.divisor, "divisor"),
                "value": rational_text(c.value, "divisor value at t0"),
                "square": c.is_square,
                # fewer digits than the value, so within the limit
                "square_root": None if c.square_root is None else str(c.square_root),
            }
            for c in report.checks
        ],
        "notes": report.notes,
        "subresults": report.subresults,
    }


def certificate_to_json(report: ConditionReport) -> str:
    """Serialize a condition report as a replayable JSON document, the text
    of json.dumps(doc, indent=2, sort_keys=True), written by _json_text."""
    return _json_text(_certificate_doc(report))


# the text of a JSON leaf by its exact type; a subclass of str or int takes the longer path
_JSON_LEAVES = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                bool: {False: "false", True: "true"}.__getitem__, type(None): lambda _: "null"}


def _json_text(o, newline: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for o built
    of dicts with str keys, lists, tuples, str, int, bool and None; any
    other type raises TypeError, and an int past Python's digit limit the
    ValueError of json.dumps.  json.dumps with an indent runs the stdlib's
    pure-Python encoder, whose generators cost more than the text; this
    writer escapes each string with the C function that json.dumps itself
    uses and joins each container's items once."""
    leaf = _JSON_LEAVES.get(type(o))
    if leaf:
        return leaf(o)
    inner = newline + "  "
    if isinstance(o, dict):  # a key other than a str fails its escape with TypeError
        brackets, items = "{}", [f"{_JSON_LEAVES[str](k)}: {_json_text(o[k], inner)}" for k in sorted(o)]
    elif isinstance(o, (list, tuple)):
        brackets, items = "[]", [_json_text(v, inner) for v in o]
    elif isinstance(o, (str, int)):  # written as its base type, as json.dumps writes it
        return _JSON_LEAVES[str if isinstance(o, str) else int](o)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{newline}{brackets[1]}"


def _curve_from_json(cdoc) -> Curve:
    if not isinstance(cdoc, dict):
        raise ValueError("certificate curve must be an object")
    split = "split_roots" in cdoc
    texts = cdoc["split_roots"] if split else [cdoc.get(k) for k in "ABC"]
    if not (isinstance(texts, list) and len(texts) == 3 and all(isinstance(x, str) for x in texts)):
        raise ValueError("certificate curve needs three polynomials A, B, C or split_roots")
    values = [_parse_integral(x) for x in texts]
    return Curve.from_roots(*values) if split else Curve(*values)


def replay_certificate(doc: str | dict) -> tuple[bool, ConditionReport]:
    """Re-verify a serialized certificate from scratch.

    Re-parses the curve and recomputes the report, every divisor value
    included; returns (matches, fresh_report) where matches is True iff
    the stored document equals the fresh report's certificate in every
    field.  A document that lacks a field, or whose curve or t0 cannot be
    read, raises ValueError.  The replay goes through check_condition, whose
    prepared Checkers are kept per process for the last _PREPARED_MAX
    (condition, curve, split roots): a replay in the process that ran the
    check reuses its factored targets, its divisor listing and each
    divisor's text, and factors and lists nothing.  A fresh process, such
    as `check --replay`, prepares everything from scratch.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except RecursionError:
            raise ValueError("certificate is nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # int() of a number over Python's conversion limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"certificate holds an integer longer than {limit} digits") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != _SCHEMA:
        raise ValueError(f"unsupported certificate schema {schema!r}")
    missing = sorted(_FIELDS - set(doc))
    if missing:
        raise ValueError(f"certificate lacks {', '.join(missing)}")
    if not isinstance(doc["t0"], str):
        raise ValueError("certificate t0 must be a string")
    try:
        t0 = parse_rational(doc["t0"])
    except ValueError as exc:
        raise ValueError(f"certificate t0: {exc}") from None
    fresh = check_condition(_curve_from_json(doc["curve"]), doc["condition"], t0)
    return doc == _certificate_doc(fresh), fresh
