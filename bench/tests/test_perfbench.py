"""Tests of the benchmark itself: seeded inputs, their validity, and the
tracer's self-time arithmetic and patching.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

WORKLOADS = ("certify", "sweep", "twist")


def _bytes(workload, seed):
    return json.dumps(workloads.encode(workloads.inputs(workload, seed))).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


def _specs(seed):
    pool, requests = workloads.certify_inputs(seed)
    conditions = {}
    for r in requests:
        conditions.setdefault(pool[r.curve], set()).add(r.condition)
    for s in workloads.sweep_inputs(seed):
        conditions.setdefault(s.curve, set()).add(s.condition)
    return conditions


def test_generated_curves_are_nonsingular_and_their_condition_applies(seed=1):
    sympy = pytest.importorskip("sympy")
    import oracle
    from ellspec import parse_curve

    for spec, conditions in _specs(seed).items():
        A, B, C = (oracle._poly(c) for c in (spec.A, spec.B, spec.C))
        disc = 18 * A * B * C - 4 * A**3 * C + A**2 * B**2 - 4 * B**3 - 27 * C**2
        assert not disc.is_zero, spec.text
        parsed = parse_curve(spec.text).coeff_polys()
        assert tuple(p.coeffs for p in parsed) == (spec.A, spec.B, spec.C), spec.text
        if spec.kind == "split":
            assert conditions <= {"A", "Aprime"}
            e = [oracle._poly(r) for r in spec.roots]
            assert len({tuple(r) for r in spec.roots}) == 3
            assert -(e[0] + e[1] + e[2]) == A and -(e[0] * e[1] * e[2]) == C
        elif spec.kind == "one_torsion":
            assert conditions == {"scriptA"} and C.is_zero and not B.is_zero
            content, factors = (A * A - 4 * B).factor_list()
            is_square = content > 0 and sympy.sqrt(content).is_integer and all(m % 2 == 0 for _, m in factors)
            assert not is_square, spec.text
        elif spec.kind == "general":
            assert conditions == {"A1B"} and not C.is_zero
        else:
            assert spec.kind == "two_torsion" and conditions == {"A1B"}
            assert oracle._has_qt_root(spec), spec.text


@pytest.mark.parametrize("seed", (1, 2))
def test_twist_members_are_nonsingular(seed):
    members = workloads.twist_inputs(seed)
    assert [(m.a, m.b) for m in members[:2]] == list(workloads.TWIST_PAPER)
    for m in members:
        assert m.a * m.b != 0 and 4 * m.a**3 + 27 * m.b**2 != 0
        assert m.t0 != 0 and workloads.twist_g_value(m.a, m.b, m.t0) != 0


def test_every_curve_appears_once_per_certify_round():
    pool, requests = workloads.certify_inputs(3)
    assert len(requests) == len(pool) * workloads.CERTIFY_REPEATS
    n = len(pool)
    for k in range(workloads.CERTIFY_REPEATS):
        assert sorted(r.curve for r in requests[k * n : (k + 1) * n]) == list(range(n))
    for idx in range(n):
        t0s = [r.t0 for r in requests if r.curve == idx]
        assert len(set(t0s)) == len(t0s)


def test_host_scale_uses_the_probes_during_an_interval():
    sampler = hostspeed.Sampler()
    # probes every 5 ms: 20 fast ones (REF_S), then 20 at twice REF_S
    for k in range(40):
        sampler.at.append(k * 0.005)
        sampler.took.append(hostspeed.REF_S * (1 if k < 20 else 2))
    assert sampler.scale(0.0, 0.0975) == pytest.approx(1.0)
    assert sampler.scale(0.0975, 0.2) == pytest.approx(0.5)
    # half of the interval at each speed: the mean slowdown, 1.5
    assert sampler.scale(0.0475, 0.1475) == pytest.approx(1 / 1.5)
    # a short interval takes the MIN_SAMPLES probes nearest to it
    assert sampler.scale(0.0001, 0.0002) == pytest.approx(1.0)
    assert sampler.scale(0.1951, 0.1952) == pytest.approx(0.5)


def test_self_time_on_a_nested_span_tree():
    # root [0, 100] has children [10, 30] and [40, 90]; the second has a
    # child [50, 60].  Names: root=0, child=1, grandchild=2.
    names = [0, 1, 1, 2]
    parents = [-1, 0, 0, 2]
    starts = [0, 10, 40, 50]
    ends = [100, 30, 90, 60]
    assert self_times(names, parents, starts, ends) == {0: [1, 30], 1: [2, 20 + 40], 2: [1, 10]}


def test_wrapped_calls_record_nested_spans():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer 0..50, inner 10..20 and 30..40
    assert tracer.totals() == {"inner": (2, 20e-9), "outer": (1, 30e-9)}


def test_tracer_patches_every_binding_and_restores_it():
    import ellspec
    from ellspec import conditions, intpoly, ratfunc

    mul, gcd, square = intpoly.IntPoly.__mul__, intpoly.poly_gcd, conditions.is_square_rat
    tracer = Tracer()
    tracer.install()
    try:
        assert intpoly.IntPoly.__mul__ is not mul
        assert intpoly.IntPoly.__rmul__ is intpoly.IntPoly.__mul__
        assert ratfunc.poly_gcd is intpoly.poly_gcd is ellspec.poly_gcd is not gcd
        report = ellspec.check_condition(ellspec.parse_curve("e=(0, t, 7*t+1)"), "A", Fraction(1, 21))
    finally:
        tracer.uninstall()
    assert report.passed
    assert intpoly.IntPoly.__mul__ is mul and intpoly.IntPoly.__rmul__ is mul
    assert ratfunc.poly_gcd is gcd and conditions.is_square_rat is square
    metrics = tracer.metrics(1.0)
    assert metrics["conditions.check_condition.calls"] == 1
    assert metrics["conditions.divisors_evaluated"] == len(report.checks)
    assert metrics["factorize.factor.calls"] > 0 and metrics["intpoly.mul.calls"] > 0
