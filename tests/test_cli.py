import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ellspec
from ellspec import cli, conditions, factorize
from ellspec.cli import main


def test_every_public_name_resolves():
    for name in ellspec.__all__:
        assert hasattr(ellspec, name), name


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "2*t^4+8")
    assert code == 0
    assert out.strip() == "2 * (t^2 - 2*t + 2) * (t^2 + 2*t + 2)"


def test_factor_json(capsys):
    # '--' keeps argparse from reading the leading '-' as an option
    code, out, _ = run(capsys, "factor", "--json", "--", "-12*t^2+12")
    assert code == 0
    doc = json.loads(out)
    assert doc["unit"] == -1
    assert doc["content"] == [[2, 2], [3, 1]]
    assert {f for f, _ in doc["factors"]} == {"t - 1", "t + 1"}


def test_check_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(
        capsys, "check", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x", "--t0", "2",
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "check", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x", "--t0", "0",
    )
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("text", ["y^2 = x^3 - t^2*x", "y^2 = x^3 + 3*t*x^2 + 2*t^2*x"])
def test_script_a_on_a_split_cubic_exits_2(capsys, text):
    code, out, err = run(capsys, "check", "--condition", "scriptA", "--curve", text, "--t0", "3")
    assert code == 2 and out == ""
    assert "A^2 - 4B is a square in Z[t]: the cubic splits; use condition A" in err


def test_check_split_condition(capsys):
    code, out, _ = run(
        capsys, "check", "--condition", "Aprime",
        "--curve", "e=(0, t, 7*t+1)", "--t0", "1/21",
    )
    assert code == 1
    assert "4/49" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "check", "--condition", "A",
                       "--curve", "bogus(", "--t0", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "check", "--condition", "A", "--curve", "e=(0,t,2*t)")
    assert code == 2  # missing --t0
    code, _, err = run(capsys, "specialize", "--curve", "e=(0,t,2*t)",
                       "--point", "O", "--t0", "1/0")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "t^999999999"),
        ("factor", "2^999999999"),
        ("factor", "((t^10)^10)^11"),  # each exponent is small, the degree is not
        ("factor", "t^1000*t"),
        ("check", "--condition", "A", "--curve", "e=(0, t^999999999, 1)", "--t0", "1"),
        # a sum's common denominator has degree 1200 before any cancellation
        ("check", "--condition", "A1B", "--curve", "A=1/(t^600+1) + 1/(t^600+2); B=1; C=0",
         "--t0", "1"),
    ],
)
def test_huge_degree_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and "exceeds the limit" in err
    assert time.perf_counter() - start < 1.0


# Fraction() reads this as 10^100000000, which takes far longer than a second.
_HUGE_FLOAT = "1e100000000"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--condition", "A", "--curve", "e=(0, t, 7*t+1)", "--t0", _HUGE_FLOAT),
        ("mestre", "--a", _HUGE_FLOAT, "--b", "12"),
        ("specialize", "--curve", "e=(0, t, 2*t)", "--point", "O", "--t0", "0.5"),
    ],
)
def test_only_integers_and_fractions_are_rationals(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and "invalid rational" in err
    assert time.perf_counter() - start < 1.0


def test_replay_of_a_float_t0_exits_2_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = _replay_edited(tmp_path, capsys, lambda doc: doc.update(t0=_HUGE_FLOAT), *_SPLIT)
    assert code == 2 and "not a rational number" in err
    assert time.perf_counter() - start < 1.0


def test_unsplittable_content_exits_2_at_once(capsys):
    p, q = 10**30 + 57, 10**30 + 99  # two 31-digit primes
    start = time.perf_counter()
    code, _, err = run(capsys, "factor", f"{p}*{q}*(t+1)")
    assert code == 2 and str(p * q) in err
    assert time.perf_counter() - start < 2.0


def test_deep_nesting_exits_2_at_once(tmp_path, capsys):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 200_000 + "]" * 200_000)
    for argv, message in [
        (("factor", "(" * 300 + "t" + ")" * 300), "parentheses nested deeper than 100"),
        (("check", "--replay", str(cert)), "certificate is nested too deeply"),
    ]:
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err and "Traceback" not in err
        assert time.perf_counter() - start < 1.0


def test_a_long_run_of_signs_parses(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "factor", "0" + "-" * 3000 + "t")
    assert (code, out, err) == (0, "(t)\n", "")
    assert time.perf_counter() - start < 1.0


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_find_t0(capsys):
    code, out, _ = run(
        capsys, "find-t0", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x",
    )
    assert code == 0
    assert "t0 = 2" in out


def test_find_t0_budget_exhausted(capsys):
    code, _, err = run(
        capsys, "find-t0", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x",
        "--budget", "1", "--rat-height", "1",
    )
    assert code == 1 and "no t0" in err


def test_find_t0_a1b_on_a_root_in_qt_exits_1_without_factoring(capsys, monkeypatch):
    calls = []
    factor = factorize.factor
    for module in (factorize, conditions, cli):
        monkeypatch.setattr(module, "factor", lambda p: calls.append(p) or factor(p))
    code, out, err = run(
        capsys, "find-t0", "--condition", "A1B",
        "--curve", "y^2 = x^3 + t*x^2 + x + t",  # the root -t
    )
    assert (code, out, calls) == (1, "", [])
    assert err == ("no t0 found: no t0 passing condition A1B within "
                   "SearchBudget(int_bound=10000, rat_height=100) (not a disproof)\n")


@pytest.mark.parametrize("flag", ["--budget", "--rat-height"])
def test_a_negative_search_bound_exits_2(capsys, flag):
    code, out, err = run(
        capsys, "find-t0", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x", flag, "-3",
    )
    assert code == 2 and out == "" and "nonnegative" in err


def test_a_repeated_coefficient_exits_2(capsys):
    code, out, err = run(
        capsys, "check", "--condition", "A1B", "--curve", "A=t; B=1; A=2; C=3", "--t0", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: coefficient 'A' given twice at offset 10\n"


def test_a_digit_run_over_the_int_limit_exits_2(capsys):
    code, out, err = run(capsys, "factor", "t + " + "1" * 5000)
    assert code == 2 and out == ""
    assert err == f"error: integer longer than {sys.get_int_max_str_digits()} digits at offset 4\n"


def test_specialize(capsys):
    code, out, _ = run(
        capsys, "specialize", "--curve", "y^2 = x^3 + t^2*x^2 - x",
        "--point", "(1, t)", "--t0", "3", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == ["1", "3"]
    assert doc["curve"]["A"] == "9"


def test_specialize_pole_maps_to_o(capsys):
    code, out, _ = run(
        capsys, "specialize", "--curve", "y^2 = x^3 + t^2*x^2 - x",
        "--point", "(1/t^2, -1/t^3)", "--t0", "0",
    )
    assert code == 0
    assert "point image: O" in out


def test_replay_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x", "--t0", "2", "--json",
    )
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "check", "--replay", str(cert))
    assert code == 0
    assert "MATCHES" in out


def test_replay_detects_tampering(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "--condition", "scriptA",
        "--curve", "y^2 = x^3 + t^2*x^2 - x", "--t0", "2", "--json",
    )
    doc = json.loads(out)
    doc["checks"][0]["square"] = True
    cert = tmp_path / "tampered.json"
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--replay", str(cert))
    assert code == 1
    assert "MISMATCH" in out


def _replay_edited(tmp_path, capsys, edit, *check_argv):
    code, out, _ = run(capsys, "check", *check_argv, "--json")
    doc = json.loads(out)
    edit(doc)
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "check", "--replay", str(cert))


_A1B_PASS = ("--condition", "A1B", "--curve", "y^2 = x^3 + t*x + 1", "--t0", "3")
_SPLIT = ("--condition", "A", "--curve", "e=(0, t, 7*t+1)", "--t0", "1/21")


def test_replay_rejects_a_diagnostic_claiming_to_certify(tmp_path, capsys):
    code, out, _ = _replay_edited(tmp_path, capsys, lambda doc: None, *_A1B_PASS)
    assert code == 0 and "MATCHES" in out
    code, out, _ = _replay_edited(
        tmp_path, capsys, lambda doc: doc.update(certifying=True), *_A1B_PASS
    )
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("checks"),
        lambda doc: doc["curve"].update(split_roots=None),
        lambda doc: doc["curve"].update(split_roots=["t", "0"]),
        lambda doc: doc.update(t0=3),
        lambda doc: doc.update(curve="e=(0, t, 7*t+1)"),
        lambda doc: doc["curve"].update(split_roots=["0", "1/t", "7*t+1"]),
    ],
    ids=["no checks", "null split_roots", "two split_roots", "numeric t0", "curve string", "root 1/t"],
)
def test_replay_of_a_malformed_certificate_exits_2(tmp_path, capsys, edit):
    code, out, err = _replay_edited(tmp_path, capsys, edit, *_SPLIT)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--replay", "{}"),
        ("check", "--condition", "A", "--curve", "@{}", "--t0", "1"),
    ],
    ids=["replay", "curve"],
)
def test_an_unreadable_file_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    code, _, err = run(capsys, *(a.format(missing) for a in argv))
    assert code == 2 and "cannot read" in err


def test_curve_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("y^2 = x^3 + t^2*x^2 - x\n")
    code, out, _ = run(
        capsys, "check", "--condition", "scriptA",
        "--curve", f"@{path}", "--t0", "2",
    )
    assert code == 0 and "PASS" in out


def test_mestre_command(capsys):
    code, out, _ = run(capsys, "mestre", "--a", "2", "--b", "12", "--t0", "4")
    assert code == 0
    assert "deg(P) = 4, deg(Q) = 4" in out
    assert "PASS" in out


def test_mestre_singular_base_curve_exits_2(capsys):
    code, _, err = run(capsys, "mestre", "--a", "-3", "--b", "2")
    assert code == 2
    assert "singular base curve" in err


def test_mestre_generator_conclusion_json(capsys):
    code, out, _ = run(
        capsys, "mestre", "--a", "2", "--b", "12", "--t0", "4",
        "--specialized-rank", "2", "--rank-source", "external table", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["injectivity_mode"] == "certified"
    assert doc["rank_source"] == "external table"


@pytest.mark.parametrize("rank", ["-3", "1"])
def test_mestre_a_specialized_rank_below_2_at_a_certified_t0_exits_2(capsys, rank):
    code, out, err = run(
        capsys, "mestre", "--a", "2", "--b", "12", "--t0", "4",
        "--specialized-rank", rank, "--rank-source", "x",
    )
    assert code == 2 and out == ""
    assert f"declared specialized rank {rank} at t0=4" in err


def test_mestre_specialized_rank_needs_t0(capsys):
    code, out, err = run(
        capsys, "mestre", "--a", "2", "--b", "12", "--specialized-rank", "2", "--rank-source", "x",
    )
    assert code == 2 and out == ""
    assert "--specialized-rank needs --t0" in err


@pytest.mark.parametrize("flag", ["--rank-source", "--injectivity-source"])
def test_mestre_sources_need_a_specialized_rank(capsys, flag):
    code, out, err = run(capsys, "mestre", "--a", "2", "--b", "12", "--t0", "4", flag, "x")
    assert code == 2 and out == ""
    assert "need --specialized-rank" in err


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


_BROKEN_INVARIANT = """
import sys
from ellspec import cli, factorize

if not sys.flags.optimize:
    sys.exit("not running under -O")
# modular factors whose gcd is not a unit break the invariant Hensel lifting relies on
factorize._gf_gcdex = lambda f, g, p: ([], [], [1, 1])
sys.exit(cli.main(["factor", "t^2-1"]))
"""


def _env_with_src():
    src = str(Path(ellspec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize(
    "argv",
    [("factor", "t^2-1"), ("check", *_SPLIT, "--json")],
    ids=["short output", "certificate"],
)
def test_a_closed_stdout_exits_141_quietly(argv):
    # the reader is gone before the first write, as in `ellspec ... | head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ellspec", *argv],
            env=_env_with_src(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141  # 128 + SIGPIPE
    assert proc.stderr == ""


def test_invariant_violation_exits_3_under_python_O():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "internal invariant violation" in proc.stderr
    assert "not coprime" in proc.stderr


_FALSE_PRIME = """
import sys
from ellspec import cli, intmath

if not sys.flags.optimize:
    sys.exit("not running under -O")
# a composite that Miller-Rabin accepts, as a strong pseudoprime past 3.3 * 10^24 could be
N = 10000019 * 10000079
is_probable_prime = intmath.is_probable_prime
intmath.is_probable_prime = lambda n: n == N or is_probable_prime(n)
sys.exit(cli.main(["check", "--condition", "A", "--curve", f"e=(0, {N}*t, t + 1)", "--t0", "10000019"]))
"""


def test_a_listed_pass_that_the_rank_test_denies_exits_3_under_python_O():
    # the listed divisors t and N*t are not squares at 10000019, but the
    # true divisor 10000019*t is
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FALSE_PRIME],
        env=_env_with_src(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "internal invariant violation" in proc.stderr
    assert "disagree at t0=10000019" in proc.stderr


_PATCHED_SITE = """
import sys
from fractions import Fraction
from ellspec import cli, conditions, intpoly, mestre, ratfunc

if not sys.flags.optimize:
    sys.exit("not running under -O")
{patch}
sys.exit(cli.main({argv!r}))
"""


# Every gcd goes to the PRS fallback, which answers t + 1: the cofactors'
# known-exact division is then left with a remainder.
_WRONG_PRS_GCD = "intpoly._HEU_GCD_ROUNDS = 0; intpoly._prs_gcd = lambda a, b: intpoly.IntPoly([1, 1])"


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        (
            "conditions.Checker.passes = lambda self, t0: True",
            ["find-t0", "--condition", "A", "--curve", "e=(0, t, 7*t+1)"],
            "disagree at t0=0",
        ),
        (
            "mestre.degree_obstruction = lambda g: False",
            ["mestre", "--a", "2", "--b", "12"],
            "must be squarefree of degree 14",
        ),
        (
            "mestre.Fraction = lambda n, d: Fraction(2 * n, d)",  # a wrong canonical x(P) and x(Q)
            ["mestre", "--a", "2", "--b", "12"],
            "canonical point of the twist member (2, 12) is off its curve",
        ),
        (
            _WRONG_PRS_GCD,  # Yun's gcd of t^3 + 3 and 3t^2
            ["factor", "t^3 + 3"],
            "known to be exact left a remainder (degree 3 by degree 1)",
        ),
        (
            _WRONG_PRS_GCD,  # the cross gcd that reduces (t^2 + 1)/(t^2 - 1) in Q(t)
            ["check", "--condition", "A1B", "--curve", "y^2 = x^3 + x + (t^2+1)/(t^2-1)", "--t0", "2"],
            "known to be exact left a remainder (degree 2 by degree 1)",
        ),
        (
            "intpoly.IntPoly.__pow__ = lambda self, e: intpoly.IntPoly([1])",  # u^k in the model
            ["check", "--condition", "A1B", "--curve", "y^2 = x^3 + x/t + 1", "--t0", "1"],
            "known to be exact left a remainder (degree 0 by degree 1)",
        ),
    ],
    ids=["find-t0 report", "twist degree", "canonical points", "squarefree decomposition",
         "reduced fraction", "integral model"],
)
def test_each_broken_invariant_exits_3_under_python_O(patch, argv, message):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PATCHED_SITE.format(patch=patch, argv=argv)],
        env=_env_with_src(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr.startswith("internal invariant violation: ") and message in proc.stderr


_LIMIT = sys.get_int_max_str_digits()
_LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("check", *_SPLIT[:4], "--t0", _LONG),
        ("mestre", "--a", _LONG, "--b", "12"),
        ("mestre", "--a", "2", "--b", _LONG),
    ],
)
def test_a_rational_over_the_int_limit_exits_2_naming_the_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid rational '11111")
    assert err.endswith(f": integer longer than {_LIMIT} digits\n") and len(err) < 200


_WIDE_T0 = "7" * 4000  # inside the limit, but t^2 at it has 8,000 digits
_SQUARED = ("--curve", "y^2 = x^3 + t^2*x^2 - x")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("specialize", *_SQUARED, "--point", "O", "--t0", _WIDE_T0), "A at t0"),
        (("specialize", "--json", *_SQUARED, "--point", "O", "--t0", _WIDE_T0), "A at t0"),
        (("check", "--json", "--condition", "scriptA", *_SQUARED, "--t0", _WIDE_T0), "discriminant at t0"),
        # A = 2^20000 has 6,021 digits; the certificate prints it, the text mode does not
        (("check", "--json", "--condition", "A1B", "--curve", "A=(2^1000)^20; B=1; C=1", "--t0", "2"), "A"),
    ],
    ids=["specialize", "specialize --json", "check --json", "check --json, the curve"],
)
def test_an_output_over_the_int_limit_exits_2_naming_the_value(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name}: integer longer than {_LIMIT} digits\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_mestre_names_g_over_the_int_limit(capsys, json_flag):
    # a has 1,100 digits, inside the limit, and g's coefficients about four times as many
    code, out, err = run(capsys, "mestre", "--a", "9" * 1100, "--b", "1", *json_flag)
    assert (code, out) == (2, "")
    assert err == f"error: g: integer longer than {_LIMIT} digits\n"


def test_mestre_at_a_4000_digit_t0_ends_within_two_seconds():
    # A1B's cubic at t0 has coefficients of 372,046 and 558,069 bits; its
    # integer roots are found by Newton from the halved problem, where
    # bisection would take one evaluation per bit
    proc = subprocess.run(
        [sys.executable, "-m", "ellspec", "mestre", "--a", "1", "--b", "1", "--t0", _WIDE_T0],
        env=_env_with_src(), capture_output=True, text=True, timeout=2,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"condition A1B at t0={_WIDE_T0}: PASS\n")


def test_mestre_with_a_40_digit_content_exits_2_within_ten_seconds():
    # a target's content has 1,069 digits; after its small primes, Pollard rho
    # splits 23 cofactors and then runs out of the steps it has for the integer
    proc = subprocess.run(
        [sys.executable, "-m", "ellspec", "mestre", "--a", "9" * 40, "--b", "7" * 40, "--t0", "3"],
        env=_env_with_src(), capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: no factor of the composite ")
    assert proc.stderr.endswith(" within the 524288 steps allowed per integer\n")


@pytest.mark.parametrize(
    "args",
    [
        ("--a", "9" * 100, "--b", "7" * 100, "--t0", "3"),
        ("--a", str(10**300), "--b", "1", "--t0", "3", "--specialized-rank", "2"),
    ],
    ids=["100-digit a and b", "a = 10^300"],
)
def test_mestre_with_a_content_of_thousands_of_digits_exits_2_within_ten_seconds(args):
    # rho's last cofactor has 1,663 and 898 digits, and a step on it weighs
    # the square of its length in bits over 500^2
    proc = subprocess.run(
        [sys.executable, "-m", "ellspec", "mestre", *args],
        env=_env_with_src(), capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: no factor of the composite ")
    assert proc.stderr.endswith(" within the 524288 steps allowed per integer\n")


def test_a_certificate_t0_over_the_int_limit_exits_2_naming_t0(tmp_path, capsys):
    code, out, err = _replay_edited(tmp_path, capsys, lambda doc: doc.update(t0=_LONG), *_SPLIT)
    assert (code, out) == (2, "")
    assert err == f"error: certificate t0: integer longer than {_LIMIT} digits\n"


def test_a_json_number_over_the_int_limit_exits_2(tmp_path, capsys):
    _, cert, _ = run(capsys, "check", *_SPLIT, "--json")
    path = tmp_path / "long.json"
    path.write_text(cert.replace("{", '{"extra": ' + _LONG + ", ", 1))
    code, out, err = run(capsys, "check", "--replay", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: certificate holds an integer longer than {_LIMIT} digits\n"
    # malformed JSON keeps the decoder's own message
    path.write_text(cert[:50])
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(cert[:50])
    assert run(capsys, "check", "--replay", str(path)) == (2, "", f"error: {exc.value}\n")


# scriptA on B = (t + 3)(t + 5)...(t + 33): B has 2 * (2^16 - 1) divisors and
# the irreducible A^2 - 4B has two more, 131,072 in all
_SIXTEEN = "*".join(f"(t + {2 * i + 3})" for i in range(16))
_WIDE = ("--condition", "scriptA", "--curve", f"y^2 = x^3 + (t + 1)*x^2 + ({_SIXTEEN})*x")


@pytest.mark.parametrize("command", ["find-t0", "check --json", "check --replay"])
def test_a_report_over_the_divisor_cap_exits_2_before_listing(tmp_path, command):
    if command == "find-t0":
        argv = ("find-t0", *_WIDE)
    elif command == "check --json":
        argv = ("check", *_WIDE, "--t0", "2/3", "--json")
    else:
        path = tmp_path / "wide.json"
        # every field present, so that replay reaches the cap; the placeholders are never compared
        path.write_text(json.dumps({"schema": "ellspec-certificate/1", "condition": "scriptA",
                                    "t0": "2/3", "curve": {"A": "t + 1", "B": _SIXTEEN, "C": "0"},
                                    "passed": True, "certifying": True, "discriminant_value": "0",
                                    "checks": [], "notes": [], "subresults": {}}))
        argv = ("check", "--replay", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "ellspec", *argv],
        env=_env_with_src(), capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "the report would list 131072 divisors, over the cap of 65536" in proc.stderr
