"""The Mestre quadratic-twist family.

E_g: y^2 = x^3 + a*g(t)^2*x + b*g(t)^3, the twist of y^2 = x^3 + ax + b
by the degree-14 squarefree polynomial

    g(t) = -ab*(t^2+1)*(b^2*(t^4+t^2+1)^3 + a^3*t^4*(t^2+1)^2),

carrying two independent points P, Q of morphism degree 4.  The degree
of x(T)/g as a map to the projective line is twice the canonical height
of T, which makes the free-generator argument for P, Q a finite exact
computation once a t0 with injective specialization and a specialized
rank are on the table.  The specialized rank over Q is always an
external input with provenance; it is never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .conditions import (
    Checker,
    ConditionReport,
    _certificate_doc,
    _json_text,
)
from .curves import Curve, OffCurveError, Point
from .intmath import InvariantError, as_rational, factor_int
from .intpoly import IntPoly, poly_gcd, squarefree_decompose
from .ratfunc import RatFunc

__all__ = [
    "MestreInstance",
    "build",
    "twist_polynomial",
    "morphism_degree",
    "pairing",
    "degree_obstruction",
    "injectivity_report",
    "GeneratorConclusion",
    "generator_certificate",
]

_T = IntPoly.monomial(1, 1)
_T2P1 = _T * _T + 1  # t^2 + 1
_T4T21 = _T**4 + _T**2 + 1  # t^4 + t^2 + 1


def _clearing_scale(a: Fraction, b: Fraction) -> int:
    """Smallest positive u with a*u^4 and b*u^6 integral (the standard
    (u^4, u^6) rescaling of a short Weierstrass model)."""
    u = 1
    dens = [(a.denominator, 4), (b.denominator, 6)]
    prime_exp: dict[int, int] = {}
    for den, w in dens:
        if den == 1:
            continue
        _, fac = factor_int(den)
        for p, e in fac.items():
            k = -(-e // w)  # ceil(e / w)
            prime_exp[p] = max(prime_exp.get(p, 0), k)
    for p, k in prime_exp.items():
        u *= p**k
    return u


def twist_polynomial(a: int, b: int) -> IntPoly:
    """The degree-14 twisting polynomial g for integer parameters."""
    return -a * b * _T2P1 * (b * b * _T4T21**3 + a**3 * _T**4 * _T2P1**2)


@dataclass(frozen=True)
class MestreInstance:
    """One member of the twist family, with its two canonical points."""

    a: int
    b: int
    scale: int  # u applied to the raw rational (a, b) input
    g: IntPoly
    curve: Curve
    P: Point
    Q: Point


def build(a, b) -> MestreInstance:
    """Construct the family member for rational a, b with ab != 0.

    Rational inputs are cleared to integers by the (u^4, u^6) model
    rescaling before any Z[t] work; the scale is recorded.
    """
    a = as_rational(a)
    b = as_rational(b)
    if a == 0 or b == 0:
        raise ValueError("the family requires ab != 0")
    if 4 * a**3 + 27 * b**2 == 0:
        raise ValueError("singular base curve: 4a^3 + 27b^2 = 0")
    u = _clearing_scale(a, b)
    ai = int(a * u**4)
    bi = int(b * u**6)

    g = twist_polynomial(ai, bi)
    if not degree_obstruction(g):
        raise InvariantError("twist polynomial must be squarefree of degree 14")

    rg = RatFunc(g)
    curve = Curve(0, ai * g * g, bi * g * g * g)

    ratio = Fraction(-bi, ai) * RatFunc(_T4T21, _T2P1)
    try:
        P = curve.point(ratio * rg, rg * rg / (ai * ai * _T2P1 * _T2P1))
        Q = curve.point(
            ratio / RatFunc(_T * _T) * rg,
            rg * rg / RatFunc(ai * ai * _T**3 * _T2P1 * _T2P1),
        )
    except OffCurveError:
        raise InvariantError(f"a canonical point of the twist member ({ai}, {bi}) is off its curve") from None
    return MestreInstance(a=ai, b=bi, scale=u, g=g, curve=curve, P=P, Q=Q)


def morphism_degree(instance: MestreInstance, T: Point) -> int:
    """deg of x(T)/g as a morphism to the projective line; 0 for torsion.

    x(T) = n/d is reduced, so n/(d g) reduces by h = gcd(n, g) alone and
    the degree is max(deg n, deg d + deg g) - deg h."""
    if T.is_infinity:
        return 0
    x = instance.curve._require(T).x
    n, d, g = x.num, x.den, instance.g
    return max(n.degree, d.degree + g.degree) - poly_gcd(n, g).degree


def pairing(instance: MestreInstance, T: Point, S: Point) -> Fraction:
    """The exact bilinear pairing (half the parallelogram defect of the
    morphism degrees)."""
    dTS = morphism_degree(instance, instance.curve.add(T, S))
    dT = morphism_degree(instance, T)
    dS = morphism_degree(instance, S)
    return Fraction(dTS - dT - dS, 2)


def degree_obstruction(g: IntPoly) -> bool:
    """Whether points of morphism degree 1 or 2 are impossible: any such
    point forces w(t)*beta(t)*g(t) to be a square with deg(w*beta) <= 8,
    which cannot absorb a squarefree g of degree 14."""
    if g.is_zero or g.degree != 14:
        return False
    _, _, parts = squarefree_decompose(g)
    return all(m == 1 for _, m in parts)


# ---------------------------------------------------------------------------
# Injectivity pathway for E_g over Q(t).
# ---------------------------------------------------------------------------


def injectivity_report(instance: MestreInstance, t0) -> ConditionReport:
    """Best applicable criterion at t0 for this instance.

    E_g has a rational 2-torsion point exactly when x^3 + ax + b has a
    rational root r (giving e1 = r*g).  With the smallest integer root r
    the model is shifted to y^2 = x^3 + 3rg x^2 + (3r^2+a)g^2 x and the
    certifying one-torsion criterion applies, or the split criterion when
    all three roots are rational; otherwise only the non-certifying
    discriminant diagnostic is available.  The report comes from a
    Checker of its own, as in find_t0, and leaves check_condition's shared
    ones alone: no caller checks a Mestre curve twice in one process.
    """
    a, g = instance.a, instance.g
    roots = [int(P.x) for P in Curve(0, a, instance.b).two_torsion()[1:]]
    if not roots:
        return Checker(instance.curve, "A1B").check(t0)
    r = roots[0]
    if len(roots) == 3:
        e2, e3 = ((s - r) * g for s in (roots[2], roots[1]))
        split = Curve.from_roots(0, e2, e3)
        return Checker(split, "A").check(t0)
    shifted = Curve(3 * r * g, (3 * r * r + a) * g * g, 0)
    return Checker(shifted, "scriptA").check(t0)


@dataclass
class GeneratorConclusion:
    """Outcome record for the free-generator argument."""

    a: int
    b: int
    t0: Fraction
    injectivity_mode: str  # "certified" | "declared" | "none"
    injectivity_report: Optional[ConditionReport]
    injectivity_source: Optional[str]
    declared_rank: int
    rank_source: str
    conclusion: str
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "a": self.a,
            "b": self.b,
            "t0": str(self.t0),
            "injectivity_mode": self.injectivity_mode,
            "injectivity_source": self.injectivity_source,
            "declared_rank": self.declared_rank,
            "rank_source": self.rank_source,
            "conclusion": self.conclusion,
            "notes": self.notes,
        }
        if self.injectivity_report is not None:
            doc["injectivity_certificate"] = _certificate_doc(self.injectivity_report)
        return _json_text(doc)


def generator_certificate(
    instance: MestreInstance,
    t0,
    specialized_rank: int,
    rank_source: str,
    injectivity_source: str | None = None,
) -> GeneratorConclusion:
    """Assemble the free-generator conclusion for this instance.

    specialized_rank is a declared external input (with provenance) for
    the rank of the specialized curve over Q.  Injectivity at t0 is
    either certified here (when a certifying criterion applies and
    passes) or accepted as a declared external assertion.  A negative rank
    raises ValueError, and so does a rank below 2 where it is either: an
    injective specialization keeps P and Q independent.
    """
    t0 = as_rational(t0)
    report = injectivity_report(instance, t0)
    notes: list[str] = []
    if report.certifying and report.passed:
        mode = "certified"
    elif injectivity_source is not None:
        mode = "declared"
        notes.append(
            f"injectivity at t0={t0} accepted as external input: {injectivity_source}"
        )
        if report.passed:
            notes.append(
                f"non-certifying diagnostic ({report.condition}) also passes at t0={t0}"
            )
    else:
        mode = "none"
    least = 0 if mode == "none" else 2
    if specialized_rank < least:
        raise ValueError(f"declared specialized rank {specialized_rank} at t0={t0} is "
                         f"impossible: it is at least {least} (injectivity: {mode})")

    if report.certifying:
        label = "passes" if report.passed else "fails"
        notes.append(f"criterion {report.condition} {label} at t0={t0} (cross-check)")

    if mode in ("certified", "declared") and specialized_rank == 2:
        conclusion = (
            "rank over Q(t) equals 2 with free generators P and Q "
            "(injective specialization plus specialized rank 2)"
        )
    else:
        conclusion = (
            "rank over Q(t) is at least 2 (independent points P, Q); "
            f"declared specialized rank {specialized_rank} gives rank <= {specialized_rank} "
            "only if the specialization is injective"
        )
        if specialized_rank != 2:
            notes.append("free-generator conclusion requires specialized rank exactly 2")
        if mode == "none":
            notes.append("no injectivity certificate or declaration available at t0")

    return GeneratorConclusion(
        a=instance.a,
        b=instance.b,
        t0=t0,
        injectivity_mode=mode,
        injectivity_report=report,
        injectivity_source=injectivity_source,
        declared_rank=specialized_rank,
        rank_source=rank_source,
        conclusion=conclusion,
        notes=notes,
    )
