"""Seeded inputs and one closed-loop operation per workload.

Inputs are plain data (integer coefficient lists, lowest degree first,
and strings in the ellspec input grammar), generated without importing
ellspec so that the program only ever sees the finished inputs.  The
operation functions take the imported ``ellspec`` package and look every
function up on it at call time, so a traced run sees the patched
bindings.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# Integer polynomials as coefficient lists, lowest degree first.
# ---------------------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(f, g):
    n = max(len(f), len(g))
    return _trim((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def pscale(k, f):
    return _trim(k * x for x in f)


def psub(f, g):
    return padd(f, pscale(-1, g))


def pmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def pstr(f) -> str:
    """A polynomial in the ellspec input grammar."""
    if not f:
        return "0"
    terms = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else ("" if abs(c) == 1 else f"{abs(c)}*") + ("t" if e == 1 else f"t^{e}")
        terms.append(("-" if c < 0 else "+", body))
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def cubic_disc(A, B, C):
    """Discriminant of x^3 + A x^2 + B x + C."""
    AB = pmul(A, B)
    terms = [
        pscale(18, pmul(AB, C)),
        pscale(-4, pmul(pmul(A, A), pmul(A, C))),
        pmul(AB, AB),
        pscale(-4, pmul(pmul(B, B), B)),
        pscale(-27, pmul(C, C)),
    ]
    out = []
    for term in terms:
        out = padd(out, term)
    return out


# ---------------------------------------------------------------------------
# Curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """A curve y^2 = x^3 + A x^2 + B x + C over Z[t] and its input text."""

    kind: str  # "split", "one_torsion", "general" or "two_torsion"
    text: str
    A: tuple
    B: tuple
    C: tuple
    roots: tuple | None = None  # (e1, e2, e3) for split curves


def _nonzero(rng, lo, hi):
    return rng.choice([k for k in range(lo, hi + 1) if k != 0])


def split_curve(rng, quadratic: bool) -> CurveSpec:
    """y^2 = (x-e1)(x-e2)(x-e3) with distinct e_i: a constant, a linear and
    a linear or quadratic polynomial."""
    while True:
        e1 = _trim([rng.randint(-3, 3)])
        e2 = [rng.randint(-5, 5), _nonzero(rng, -3, 3)]
        e3 = [rng.randint(-5, 5), rng.randint(-3, 3)] + ([_nonzero(rng, -2, 2)] if quadratic else [])
        e3 = _trim(e3)
        if len({tuple(e1), tuple(e2), tuple(e3)}) == 3:
            break
    A = pscale(-1, padd(padd(e1, e2), e3))
    B = padd(padd(pmul(e1, e2), pmul(e1, e3)), pmul(e2, e3))
    C = pscale(-1, pmul(pmul(e1, e2), e3))
    text = f"e=({pstr(e1)}, {pstr(e2)}, {pstr(e3)})"
    return CurveSpec("split", text, tuple(A), tuple(B), tuple(C), (tuple(e1), tuple(e2), tuple(e3)))


def one_torsion_curve(rng) -> CurveSpec:
    """y^2 = x^3 + A x^2 + B x with deg A = 1 and deg B = 3.  A^2 - 4B then
    has odd degree, so it is not a square, and the discriminant
    B^2 (A^2 - 4B) is nonzero."""
    A = [rng.randint(-4, 4), _nonzero(rng, -3, 3)]
    B = [_nonzero(rng, -4, 4), rng.randint(-3, 3), rng.randint(-3, 3), _nonzero(rng, -2, 2)]
    text = f"y^2 = x^3 + ({pstr(A)})*x^2 + ({pstr(B)})*x"
    return CurveSpec("one_torsion", text, tuple(A), tuple(B), ())


def general_curve(rng) -> CurveSpec:
    """y^2 = x^3 + A x^2 + B x + C with C != 0 and a nonzero discriminant."""
    while True:
        A = _trim([rng.randint(-3, 3), rng.randint(-2, 2)])
        B = _trim([rng.randint(-4, 4), rng.randint(-3, 3), _nonzero(rng, -2, 2)])
        C = _trim([_nonzero(rng, -5, 5), rng.randint(-3, 3), _nonzero(rng, -2, 2)])
        if cubic_disc(A, B, C):
            break
    text = f"A={pstr(A)}; B={pstr(B)}; C={pstr(C)}"
    return CurveSpec("general", text, tuple(A), tuple(B), tuple(C))


def two_torsion_curve(rng) -> CurveSpec:
    """(x - r)(x^2 + p x + q) with r, p, q in Z[t] and a nonzero
    discriminant: the cubic has the root r in Z[t], so every specialized
    cubic has a rational root and condition A1B can never pass."""
    while True:
        r = [rng.randint(-3, 3), _nonzero(rng, -2, 2)]
        p = _trim([rng.randint(-3, 3), rng.randint(-2, 2)])
        q = [_nonzero(rng, -3, 3), rng.randint(-2, 2), _nonzero(rng, -1, 1)]
        A = psub(p, r)
        B = psub(q, pmul(p, r))
        C = pscale(-1, pmul(q, r))
        if cubic_disc(A, B, C):
            break
    text = f"A={pstr(A)}; B={pstr(B)}; C={pstr(C)}"
    return CurveSpec("two_torsion", text, tuple(A), tuple(B), tuple(C))


# ---------------------------------------------------------------------------
# t0 values.
# ---------------------------------------------------------------------------

# Small rationals a user would try: integers, then fractions of small height.
T0_POOL = [Fraction(n) for n in range(-24, 25)] + [
    Fraction(n, d)
    for d in range(2, 7)
    for n in range(-12, 13)
    if n != 0 and math.gcd(n, d) == 1
]


def t0_candidates(int_bound: int, rat_height: int):
    """The search order documented for ``find_t0``, written out again here
    so that the position of a hit is counted from outside the program."""
    yield Fraction(0)
    for n in range(1, int_bound + 1):
        yield Fraction(n)
        yield Fraction(-n)
    for h in range(2, rat_height + 1):
        for d in range(2, h + 1):
            for n in range(1, h + 1):
                if max(n, d) == h and math.gcd(n, d) == 1:
                    yield Fraction(n, d)
                    yield Fraction(-n, d)


# ---------------------------------------------------------------------------
# Workload inputs.  Each kind is drawn in a fixed proportion, so that the
# seed changes the curves but not the mix.
# ---------------------------------------------------------------------------

# A run's batch is the start of these lists (see UNITS_PER_SECOND in
# run.py); the lists are long enough for a 60-second run.
CERTIFY_PER_KIND = 80  # distinct curves of each kind in the pool
CERTIFY_REPEATS = 20  # requests per curve, each at a different t0

SWEEP_PER_KIND = 400  # distinct searches of each kind
SWEEP_BUDGET = (30, 6)  # SearchBudget(int_bound, rat_height): 95 candidates

# mP + nQ for m, n >= 0 and 2 <= m^2 + n^2 <= 5, each as one Curve.add of
# points already computed: (sum, left summand, right summand).
TWIST_CHAIN = (
    ((1, 1), (1, 0), (0, 1)),
    ((2, 0), (1, 0), (1, 0)),
    ((0, 2), (0, 1), (0, 1)),
    ((2, 1), (2, 0), (0, 1)),
    ((1, 2), (0, 2), (1, 0)),
)
TWIST_PAPER = ((1, 1), (2, 12))
# After the paper's two members, one member for each magnitude class
# (|a|, |b|) with |a|, |b| <= 3, with mixed signs.  The members are the
# same for every seed, and the seed picks each member's t0.  The timed
# sums do not depend on t0, so every seed times the same additions: with
# seeded signs, the 11th-slowest of the 50 sums (tail_ms) moved by up to
# 35% from one seed to another, which would hide any change smaller than
# that.
TWIST_OTHERS = ((1, -2), (2, -1), (1, -3), (-3, -1), (-2, 2), (-2, 3), (3, 2), (3, 3))


def interleave(rng, items, key):
    """Shuffle the items of each kind, then deal them out one kind after
    another, so that every prefix of the batch has the same mix of kinds."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    for group in groups.values():
        rng.shuffle(group)
    return [item for row in zip(*groups.values()) for item in row]


@dataclass(frozen=True)
class CertifyRequest:
    curve: int  # index into the pool
    condition: str
    t0: Fraction


@dataclass(frozen=True)
class Search:
    curve: CurveSpec
    condition: str


@dataclass(frozen=True)
class Member:
    a: int
    b: int
    t0: Fraction


def certify_inputs(seed: int):
    rng = random.Random(f"certify:{seed}")
    pool = []
    for i in range(CERTIFY_PER_KIND):
        pool.append(split_curve(rng, quadratic=i % 2 == 1))
    pool += [one_torsion_curve(rng) for _ in range(CERTIFY_PER_KIND)]
    pool += [general_curve(rng) for _ in range(CERTIFY_PER_KIND)]
    t0s = [rng.sample(T0_POOL, CERTIFY_REPEATS) for _ in pool]
    # Round k asks about every curve once, at its k-th t0, so that every
    # curve appears equally often in the start of the list: a few costly
    # curves then cannot fill the tail of one seed's batch.
    requests = []
    for k in range(CERTIFY_REPEATS):
        round_k = []
        for idx, spec in enumerate(pool):
            if spec.kind == "split":
                condition = ("A", "Aprime")[(idx + k) % 2]
            else:
                condition = {"one_torsion": "scriptA", "general": "A1B"}[spec.kind]
            round_k.append(CertifyRequest(idx, condition, t0s[idx][k]))
        requests += interleave(rng, round_k, key=lambda r: pool[r.curve].kind)
    return pool, requests


def sweep_inputs(seed: int):
    rng = random.Random(f"sweep:{seed}")
    searches = [Search(two_torsion_curve(rng), "A1B") for _ in range(SWEEP_PER_KIND)]
    searches += [
        Search(split_curve(rng, quadratic=i % 4 >= 2), ("A", "Aprime")[i % 2])
        for i in range(SWEEP_PER_KIND)
    ]
    searches += [Search(one_torsion_curve(rng), "scriptA") for _ in range(SWEEP_PER_KIND)]
    return interleave(rng, searches, key=lambda s: s.curve.kind)


def twist_g_value(a: int, b: int, t0: Fraction) -> Fraction:
    """g(t0) for the twist polynomial of the family, from its formula."""
    s = t0 * t0 + 1
    return -a * b * s * (b * b * (t0**4 + t0**2 + 1) ** 3 + a**3 * t0**4 * s * s)


def twist_inputs(seed: int):
    rng = random.Random(f"twist:{seed}")
    members = []
    for a, b in TWIST_PAPER + TWIST_OTHERS:
        while True:
            t0 = rng.choice(T0_POOL)
            if t0 != 0 and twist_g_value(a, b, t0) != 0:
                break
        members.append(Member(a, b, t0))
    return members


def inputs(workload: str, seed: int):
    return {"certify": certify_inputs, "sweep": sweep_inputs, "twist": twist_inputs}[workload](seed)


def encode(value) -> object:
    """Inputs as JSON-ready data, for byte comparisons in tests."""
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "__dataclass_fields__"):
        return {k: encode(getattr(value, k)) for k in value.__dataclass_fields__}
    return value


# ---------------------------------------------------------------------------
# Units of work.  A unit is one operation in certify and sweep and one
# family member (five additions) in twist.  Each returns its operation
# latencies in seconds and a record of its outputs.  A unit with several
# operations calls `between()` after each, so that the run can probe the
# host's speed next to every operation.
# ---------------------------------------------------------------------------


def run_certify(ell, pool, request: CertifyRequest, between):
    """parse_curve -> check_condition -> certificate_to_json -> replay."""
    start = time.perf_counter()
    curve = ell.parse_curve(pool[request.curve].text)
    report = ell.check_condition(curve, request.condition, request.t0)
    cert = ell.certificate_to_json(report)
    matches, fresh = ell.replay_certificate(cert)
    latency = time.perf_counter() - start
    record = {
        "passed": report.passed,
        "replay": matches and fresh.passed == report.passed,
        "checks": _checks(report),
        "signature": (report.passed, matches, digest(cert)),
    }
    return [latency], record


def run_sweep(ell, search: Search, between):
    """parse_curve -> find_t0 with the fixed budget."""
    start = time.perf_counter()
    curve = ell.parse_curve(search.curve.text)
    try:
        report = ell.find_t0(curve, search.condition, ell.SearchBudget(*SWEEP_BUDGET))
    except ell.BudgetExhausted:
        report = None
    latency = time.perf_counter() - start
    if report is None:
        record = {"t0": None, "signature": (None,)}
    else:
        cert = ell.certificate_to_json(report)
        record = {
            "t0": report.t0,
            "passed": report.passed,
            "checks": _checks(report),
            "signature": (str(report.t0), digest(cert)),
        }
    return [latency], record


def run_twist(ell, member: Member, between):
    """build, then each sum in TWIST_CHAIN with its degree, then pairing,
    specialization, the homomorphism check and the injectivity report."""
    mestre = ell.mestre
    inst = mestre.build(member.a, member.b)
    points = {(1, 0): inst.P, (0, 1): inst.Q}
    latencies, degrees = [], []
    for total, left, right in TWIST_CHAIN:
        start = time.perf_counter()
        points[total] = inst.curve.add(points[left], points[right])
        degrees.append(mestre.morphism_degree(inst, points[total]))
        latencies.append(time.perf_counter() - start)
        between()
    pairing = mestre.pairing(inst, inst.P, inst.Q)
    images = [ell.specialize_point(inst.curve, T, member.t0) for T in (inst.P, inst.Q)]
    hom = ell.homomorphism_check(inst.curve, inst.P, inst.Q, member.t0)
    report = mestre.injectivity_report(inst, member.t0)
    cert = ell.certificate_to_json(report)
    A, B, C = report.curve.coeff_polys()
    record = {
        "degrees": degrees,
        "pairing": pairing,
        "hom": hom,
        "condition": report.condition,
        "model": (A.coeffs, B.coeffs, C.coeffs),
        "passed": report.passed,
        "checks": _checks(report),
        "signature": (tuple(degrees), str(pairing), hom, tuple(map(str, images)), digest(cert)),
    }
    return latencies, record


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def checks_digest(checks) -> str | None:
    """Digest of a set of (divisor coefficients, value, is_square).  Records
    keep digests rather than the checks, so that what the loop retains
    stays small and does not add garbage-collection work to the timing."""
    if checks is None:
        return None
    return digest(repr(sorted({(h, str(v), sq) for h, v, sq in checks})))


def _checks(report):
    if report.discriminant_value == 0:
        return None
    return checks_digest((c.divisor.coeffs, c.value, c.is_square) for c in report.checks)


UNITS = {
    "certify": lambda ell, data: [(run_certify, (ell, data[0], r)) for r in data[1]],
    "sweep": lambda ell, data: [(run_sweep, (ell, s)) for s in data],
    "twist": lambda ell, data: [(run_twist, (ell, m)) for m in data],
}
