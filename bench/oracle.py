"""Independent answers for every workload, computed with sympy.

Targets are rebuilt from the benchmark's own coefficient lists and
factored with sympy; divisor values are tested for squares on reduced
fractions with math.isqrt.  Nothing here calls ellspec, and ellspec never
imports sympy.  All of it runs after the timed section.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy

from workloads import SWEEP_BUDGET, TWIST_CHAIN, CurveSpec, checks_digest, t0_candidates

_t = sympy.Symbol("t")
_x = sympy.Symbol("x")


def _poly(coeffs) -> sympy.Poly:
    return sympy.Poly(list(reversed(coeffs)) or [0], _t, domain=sympy.ZZ)


def _coeffs(p: sympy.Poly) -> tuple:
    return tuple(int(c) for c in reversed(p.all_coeffs())) if not p.is_zero else ()


def _value(coeffs, t0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t0 + c
    return acc


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return n * n == q.numerator and d * d == q.denominator


def _divisors(target: sympy.Poly) -> list[tuple]:
    """Every nonconstant squarefree divisor of target, both signs."""
    content, factors = target.factor_list()
    primes = sorted(sympy.factorint(abs(int(content))))
    polys = [f for f, _ in factors if f.degree() > 0]
    out = []
    for r in range(1, len(polys) + 1):
        for subset in itertools.combinations(polys, r):
            base = sympy.Poly(1, _t, domain=sympy.ZZ)
            for f in subset:
                base = base * f
            for s in range(len(primes) + 1):
                for ps in itertools.combinations(primes, s):
                    h = base * math.prod(ps)
                    out.append(_coeffs(h))
                    out.append(_coeffs(-h))
    return out


class Oracle:
    """Verdicts of the four conditions, memoized per (model, condition)."""

    def __init__(self):
        self._prepared = {}

    def _prepare(self, A, B, C, roots, condition):
        key = (A, B, C, roots, condition)
        if key not in self._prepared:
            pA, pB, pC = _poly(A), _poly(B), _poly(C)
            if condition in ("A", "Aprime"):
                e1, e2, e3 = (_poly(e) for e in roots)
                if condition == "A":
                    targets = [(e2 - e1) * (e3 - e1), (e1 - e2) * (e3 - e2), (e1 - e3) * (e2 - e3)]
                else:
                    targets = [(e1 - e2) * (e2 - e3) * (e3 - e1)]
            elif condition == "scriptA":
                targets = [pB, pA * pA - 4 * pB]
            else:
                targets = [18 * pA * pB * pC - 4 * pA**3 * pC + pA**2 * pB**2 - 4 * pB**3 - 27 * pC**2]
            disc = 18 * pA * pB * pC - 4 * pA**3 * pC + pA**2 * pB**2 - 4 * pB**3 - 27 * pC**2
            divisors = [h for T in targets if T.degree() > 0 for h in _divisors(T)]
            self._prepared[key] = (_coeffs(disc), divisors)
        return self._prepared[key]

    def verdict(self, A, B, C, roots, condition, t0: Fraction):
        """(passed, checks); checks is None when the discriminant vanishes
        at t0, else the set of (divisor, value, is_square)."""
        disc, divisors = self._prepare(A, B, C, roots, condition)
        if _value(disc, t0) == 0:
            return False, None
        checks = set()
        for h in divisors:
            v = _value(h, t0)
            checks.add((h, v, _is_square(v)))
        passed = not any(sq for _, _, sq in checks)
        if condition == "A1B":
            cubic = sympy.Poly(
                [1] + [sympy.Rational(_value(c, t0)) for c in (A, B, C)], _x, domain=sympy.QQ
            )
            if any(f.degree() == 1 for f, _ in cubic.factor_list()[1]):
                passed = False
        return passed, frozenset(checks)

    def spec_verdict(self, spec: CurveSpec, condition: str, t0: Fraction):
        return self.verdict(spec.A, spec.B, spec.C, spec.roots, condition, t0)


def _agree(record, expected) -> bool:
    passed, checks = expected
    return record["passed"] == passed and record["checks"] == checks_digest(checks)


def check_certify(data, executed) -> list[str]:
    """executed: {request index: record}.  Every distinct
    (curve, condition, t0) gets a fresh oracle verdict."""
    pool, requests = data
    oracle = Oracle()
    errors = []
    for i, record in executed.items():
        req = requests[i]
        expected = oracle.spec_verdict(pool[req.curve], req.condition, req.t0)
        if not _agree(record, expected):
            errors.append(f"certify request {i}: verdict differs from the oracle")
        elif not record["replay"]:
            errors.append(f"certify request {i}: replay did not match")
    return errors


def _has_qt_root(spec: CurveSpec) -> bool:
    cubic = _x**3 + _poly(spec.A).as_expr() * _x**2 + _poly(spec.B).as_expr() * _x + _poly(spec.C).as_expr()
    _, factors = sympy.factor_list(sympy.expand(cubic), _x, _t)
    return any(sympy.degree(f, _x) == 1 for f, _ in factors)


def check_sweep(data, executed) -> list[str]:
    """A1B searches must be exhausted and their cubic must have a root in
    Q(t); a certifying search must stop at the first candidate that the
    oracle passes, or be exhausted when there is none."""
    oracle = Oracle()
    errors = []
    for i, record in executed.items():
        s = data[i]
        if s.condition == "A1B":
            if record["t0"] is not None or not _has_qt_root(s.curve):
                errors.append(f"sweep search {i}: A1B search should be exhausted")
            continue
        hit = None
        for t0 in t0_candidates(*SWEEP_BUDGET):
            expected = oracle.spec_verdict(s.curve, s.condition, t0)
            if expected[0]:
                hit = (t0, expected)
                break
        if hit is None:
            ok = record["t0"] is None
        else:
            ok = record["t0"] == hit[0] and _agree(record, hit[1])
        if not ok:
            errors.append(f"sweep search {i}: first passer differs from the oracle")
    return errors


def twist_model(a: int, b: int):
    """The model and condition the injectivity pathway must use for the
    member (a, b), worked out from the family's definition."""
    g = -a * b * (_t**2 + 1) * (b**2 * (_t**4 + _t**2 + 1) ** 3 + a**3 * _t**4 * (_t**2 + 1) ** 2)
    g = sympy.Poly(g, _t, domain=sympy.ZZ)
    zero = sympy.Poly(0, _t, domain=sympy.ZZ)
    roots = sorted(r for r in sympy.Poly(_x**3 + a * _x + b, _x).ground_roots() if r.is_integer)
    if not roots:
        return "A1B", (zero, a * g**2, b * g**3), None
    r = int(roots[0])
    A, B = 3 * r * g, (3 * r * r + a) * g**2
    qd = -(3 * r * r + 4 * a)
    s = math.isqrt(qd) if qd >= 0 else None
    if s is not None and s * s == qd:
        e2 = sympy.Poly((-3 * r + s) * g.as_expr() / 2, _t, domain=sympy.ZZ)
        e3 = sympy.Poly((-3 * r - s) * g.as_expr() / 2, _t, domain=sympy.ZZ)
        return "A", (A, B, zero), (zero, e2, e3)
    return "scriptA", (A, B, zero), None


def check_twist(data, executed) -> list[str]:
    """Degrees follow the height form deg(mP+nQ) = 4(m^2+n^2) and
    <P,Q> = 0; the homomorphism check holds; the injectivity verdict
    matches the oracle on the model the family prescribes."""
    oracle = Oracle()
    errors = []
    expected_degrees = [4 * (m * m + n * n) for (m, n), _, _ in TWIST_CHAIN]
    for i, record in executed.items():
        member = data[i]
        if record["degrees"] != expected_degrees or record["pairing"] != 0 or not record["hom"]:
            errors.append(f"twist member {i}: degrees, pairing or homomorphism wrong")
            continue
        condition, (A, B, C), roots = twist_model(member.a, member.b)
        model = tuple(_coeffs(p) for p in (A, B, C))
        if record["condition"] != condition or record["model"] != model:
            errors.append(f"twist member {i}: injectivity used the wrong model")
            continue
        roots = None if roots is None else tuple(_coeffs(e) for e in roots)
        if not _agree(record, oracle.verdict(*model, roots, condition, member.t0)):
            errors.append(f"twist member {i}: injectivity verdict differs from the oracle")
    return errors


CHECKS = {"certify": check_certify, "sweep": check_sweep, "twist": check_twist}
