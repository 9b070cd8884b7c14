"""Exact certification of injective specialization for elliptic curves
over Q(t) with rational 2-torsion, and the rank-2 twist family it was
built to settle.

Everything is exact: integers, fractions, Z[t] polynomials and reduced
rational functions.  No floating point, no randomized verdicts (the only
randomness, inside finite-field factoring, is derandomized by seeding).
"""

from .conditions import (
    CONDITION_NAMES,
    BudgetExhausted,
    Checker,
    ConditionReport,
    DivisorCheck,
    SearchBudget,
    certificate_to_json,
    check_condition,
    enumerate_divisors,
    find_t0,
    replay_certificate,
)
from .curves import Curve, O, OffCurveError, Point, SingularCurveError
from .factorize import Factorization, factor, rational_roots
from .intmath import InvariantError
from .intpoly import IntPoly, cubic_discriminant, poly_gcd, squarefree_decompose
from .mestre import (
    GeneratorConclusion,
    MestreInstance,
    generator_certificate,
    injectivity_report,
    morphism_degree,
    pairing,
    twist_polynomial,
)
from .parsing import ParseError, parse_curve, parse_point, parse_poly, parse_ratfunc
from .ratfunc import RatFunc
from .specialize import (
    homomorphism_check,
    relation_search,
    specialize_curve,
    specialize_point,
)

__version__ = "0.1.0"

__all__ = [
    "CONDITION_NAMES",
    "BudgetExhausted",
    "Checker",
    "ConditionReport",
    "Curve",
    "DivisorCheck",
    "Factorization",
    "GeneratorConclusion",
    "IntPoly",
    "InvariantError",
    "MestreInstance",
    "O",
    "OffCurveError",
    "ParseError",
    "Point",
    "RatFunc",
    "SearchBudget",
    "SingularCurveError",
    "certificate_to_json",
    "check_condition",
    "cubic_discriminant",
    "enumerate_divisors",
    "factor",
    "find_t0",
    "generator_certificate",
    "homomorphism_check",
    "injectivity_report",
    "morphism_degree",
    "pairing",
    "parse_curve",
    "parse_point",
    "parse_poly",
    "parse_ratfunc",
    "poly_gcd",
    "rational_roots",
    "relation_search",
    "replay_certificate",
    "specialize_curve",
    "specialize_point",
    "squarefree_decompose",
    "twist_polynomial",
]
