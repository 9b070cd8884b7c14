"""Every imported name in the package and the test suite is used.  Every
module-level private name of the package, every name in a module's
__all__ and every method of a class in the package (as an attribute) is
read outside its own definition by the program: the package, bench/*.py
or a function that bench/tracing.py wraps by name.  A test does not
count as a caller, so library code that only tests call is dead, and no
name is kept without a caller.  No module of the package holds an assert
statement, since python -O strips them, or a float: no float or complex
literal, no float() or complex() call and no float-valued math function.

Only curves and ratfunc take values into Q(t) (a curve fixes the field
of its coefficients and points once), so no other module of the package
reads RatFunc's _coerce or _lift.  Only ratfunc reads RatFunc._reduced,
the constructor that trusts its parts to be coprime.  Only curves reads
the cubic root finders, so Curve.two_torsion alone decides a curve's
rational 2-torsion; conditions may read _q_cubic_roots for A1B's per-t0
test.  In parsing, only _tokenize reads the raw text: no other function
slices it with string methods or re.  The package has one schoolbook
product loop, intpoly._mul_coeffs, one trailing-zero loop,
intpoly._trim, one square-and-multiply loop, intpoly._power, one
Horner loop, intpoly._horner_homogeneous, and one balanced-digit loop,
intpoly._from_balanced_digits, which GCDHEU, the 2-torsion
reconstruction and the discriminant share.  It holds two memos, the
lru_cache on factorize.factor and the one on conditions._prepare, which
keeps the Checkers that check_condition and find_t0 share.

No linter is installed alongside the package, so these scans are the
guard against dead imports and dead code.  An imported name
counts as used when it is loaded anywhere in the module, listed in
``__all__``, or named inside a string annotation; ``from __future__``
imports are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/ellspec/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(_used_names(ast.parse(annotation.value, mode="eval")))
    return used


def _unused(tree: ast.Module) -> list[str]:
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_flags_an_unused_import_and_spares_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import Iterator, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> int:\n"
        "    return json.dumps(a)\n"
    )
    assert _unused(ast.parse(source)) == ["os (line 2)", "Iterator (line 4)"]


PROGRAM = sorted(ROOT.glob("src/ellspec/*.py"))


def _top_level_value(tree: ast.Module, name: str):
    """The literal bound to name by a module-level assignment, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level function, class or constant -> its statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        names.update((n, node) for n in bound)
    return names


def _private_names(tree: ast.Module) -> dict[str, ast.stmt]:
    return {
        n: stmt
        for n, stmt in _definitions(tree).items()
        if n.startswith("_") and not n.startswith("__")
    }


def _public_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The names in the module's __all__ that it defines itself."""
    exported = _top_level_value(tree, "__all__") or []
    return {n: stmt for n, stmt in _definitions(tree).items() if n in exported}


def _loaded_names(node: ast.AST) -> set[str]:
    """Names read in node, as bare names or as attributes (module._name)."""
    loaded = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loaded.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            loaded.add(sub.attr)
    return loaded


def _dead_names(program: dict[str, ast.Module], readers: list[ast.Module], defined) -> list[str]:
    """module.name for each name that defined(tree) picks in a program module
    and that no top-level statement of a reader loads, apart from the
    statement defining it."""
    loads = [(stmt, _loaded_names(stmt)) for reader in readers for stmt in reader.body]
    return [
        f"{module}.{name}"
        for module, tree in program.items()
        for name, definition in defined(tree).items()
        if not any(name in loaded for stmt, loaded in loads if stmt is not definition)
    ]


def _program_and_callers(root: Path) -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The modules of src/ellspec by name, and the trees whose reads count as
    calls: those modules, bench/*.py, and the attribute path in the third
    field of each TRACED entry of bench/tracing.py, which the tracer wraps
    by name.  No test module counts, so code that only tests call is dead."""
    program = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("src/ellspec/*.py"))
    }
    bench = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("bench/*.py"))
    }
    traced = _top_level_value(bench["tracing.py"], "TRACED")
    wrapped = ast.parse("\n".join(f"TRACED.{path}" for _, _, path in traced))
    return program, [*program.values(), *bench.values(), wrapped]


def test_every_private_name_is_used():
    assert _dead_names(*_program_and_callers(ROOT), _private_names) == []


def test_every_public_name_is_called():
    assert _dead_names(*_program_and_callers(ROOT), _public_names) == []


@pytest.fixture
def package_tree(tmp_path):
    """A package whose names are called by the program, by the bench, through
    TRACED, only by tests, or only by themselves."""
    files = {
        "src/ellspec/mod.py": (
            "__all__ = ['LIMIT', 'Poly', 'main', 'bench_only', 'traced', 'tested', 'recursive']\n"
            "LIMIT = 3\n"
            "class Poly:\n"
            "    @property\n"
            "    def degree(self):\n"
            "        return 0\n"
            "    @classmethod\n"
            "    def zero(cls):\n"
            "        return cls()\n"
            "    def wrapped(self):\n"
            "        return 1\n"
            "    def inv(self):\n"
            "        return 1 / self\n"
            "    def power(self, e):\n"
            "        return self.power(e - 1) if e else self\n"
            "def _reached():\n"
            "    return 0\n"
            "def _tested():\n"
            "    return 1\n"
            "def main():\n"
            "    return Poly.zero().degree + LIMIT + _reached()\n"
            "def bench_only():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def tested():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
        ),
        "src/ellspec/__main__.py": "from .mod import main\nmain()\n",
        "bench/run.py": "from ellspec import mod\nmod.bench_only()\ninv = 3\n",
        "bench/tracing.py": (
            "TRACED = (\n"
            "    ('mod.traced', 'ellspec.mod', 'traced'),\n"
            "    ('mod.wrapped', 'ellspec.mod', 'Poly.wrapped'),\n"
            ")\n"
        ),
        "bench/tests/test_run.py": "from ellspec import mod\nmod.tested()\nmod.Poly().inv()\n",
        "tests/test_mod.py": (
            "from ellspec.mod import Poly, _tested, recursive, tested\n"
            "tested()\n"
            "_tested()\n"
            "recursive(2)\n"
            "Poly().inv()\n"
            "Poly().power(2)\n"
        ),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def test_the_private_scan_flags_dead_and_self_used_names(package_tree):
    source = ast.parse(
        "_LIMIT = 3\n"
        "_UNUSED = 4\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else _LIMIT\n"
        "def _reached():\n"
        "    pass\n"
        "class _Dead:\n"
        "    pass\n"
        "__all__ = []\n"
    )
    reader = ast.parse("import mod\nmod._reached()\n")
    assert _dead_names({"mod": source}, [source, reader], _private_names) == [
        "mod._UNUSED",
        "mod._helper",
        "mod._Dead",
    ]
    assert _dead_names(*_program_and_callers(package_tree), _private_names) == ["mod._tested"]


def test_the_public_name_scan_counts_only_program_callers(package_tree):
    assert _dead_names(*_program_and_callers(package_tree), _public_names) == [
        "mod.tested",
        "mod.recursive",
    ]


def _attribute_loads(node: ast.AST) -> list[str]:
    return [
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    ]


def _dead_methods(program: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """module.Class.method for each non-dunder method of a program class
    that no reader loads as an attribute outside the method's own body."""
    loads = Counter(name for reader in readers for name in _attribute_loads(reader))
    return [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in program.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and loads[method.name] == _attribute_loads(method).count(method.name)
    ]


def test_every_method_is_used():
    assert _dead_methods(*_program_and_callers(ROOT)) == []


def test_the_method_scan_flags_unread_and_self_read_methods(package_tree):
    assert _dead_methods(*_program_and_callers(package_tree)) == ["mod.Poly.inv", "mod.Poly.power"]


def _asserts(program: dict[str, ast.Module]) -> list[str]:
    """module:line of every assert statement.  python -O strips them, so an
    internal invariant must raise instead."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in program.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statement_in_the_package():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _asserts(program) == []


def test_the_assert_scan_flags_asserts_but_not_a_raised_assertion_error():
    source = ast.parse(
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x > 9:\n"
        "        raise AssertionError('small')\n"
        "    return x\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert _asserts({"mod": source}) == ["mod:2", "mod:8"]


FIELD_GATES = {"curves", "ratfunc"}


def _coercing_modules(program: dict[str, ast.Module]) -> list[str]:
    """Modules outside FIELD_GATES that read the attribute _coerce or _lift."""
    return [
        module
        for module, tree in program.items()
        if module not in FIELD_GATES and {"_coerce", "_lift"} & set(_attribute_loads(tree))
    ]


def test_only_curves_and_ratfunc_coerce_into_the_field():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _coercing_modules(program) == []


def test_the_coercion_scan_flags_readers_outside_the_gates():
    program = {
        "curves": ast.parse("x = RatFunc._coerce(v)\n"),
        "ratfunc": ast.parse("n, d = self._lift(num)\n"),
        "specialize": ast.parse("x = RatFunc._coerce(P.x)(t0)\n"),
        "golden": ast.parse("pair = RatFunc._lift(v)\n"),
        "mestre": ast.parse("def _coerce(v):\n    return v\nx = _coerce(T.x)\n"),
    }
    assert _coercing_modules(program) == ["specialize", "golden"]


def _trusted_readers(program: dict[str, ast.Module], constructor="_reduced", owner="ratfunc") -> list[str]:
    """Modules other than owner that read the attribute constructor."""
    return [
        module
        for module, tree in program.items()
        if module != owner and constructor in _attribute_loads(tree)
    ]


def test_only_ratfunc_builds_a_fraction_without_a_gcd():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _trusted_readers(program) == []


def test_the_trusted_constructor_scan_flags_readers_outside_ratfunc():
    program = {
        "ratfunc": ast.parse("def _prod(a, b, c, d):\n    return RatFunc._reduced(a * c, b * d)\n"),
        "curves": ast.parse("x = RatFunc._reduced(n, d)\n"),
        "mestre": ast.parse("def _reduced(n, d):\n    return n\ny = _reduced(1, 2)\n"),
    }
    assert _trusted_readers(program) == ["curves"]


def test_only_intpoly_builds_a_polynomial_without_a_check():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _trusted_readers(program, "_trusted", "intpoly") == []


def test_the_unchecked_polynomial_scan_flags_readers_outside_intpoly():
    program = {
        "intpoly": ast.parse("def __neg__(self):\n    return IntPoly._trusted(tuple(-x for x in self._c))\n"),
        "parsing": ast.parse("p = IntPoly._trusted((1, 2))\n"),
        "ratfunc": ast.parse("def _trusted(c):\n    return c\ny = _trusted(1)\n"),
        "curves": ast.parse("z = RatFunc._reduced(n, d)\n"),
    }
    assert _trusted_readers(program, "_trusted", "intpoly") == ["parsing"]


ROOT_FINDERS = {"_int_cubic_roots", "_qt_cubic_roots", "_q_cubic_roots"}
# Only conditions may read _q_cubic_roots: the per-t0 test of A1B's "B".
ROOT_READERS = {"conditions": {"_q_cubic_roots"}}


def _root_finder_readers(program: dict[str, ast.Module]) -> list[str]:
    """module.name for each cubic root finder that a module other than
    curves loads, as a name or an attribute, unless ROOT_READERS allows it."""
    return [
        f"{module}.{name}"
        for module, tree in program.items()
        if module != "curves"
        for name in sorted(ROOT_FINDERS & _loaded_names(tree) - ROOT_READERS.get(module, set()))
    ]


def test_only_curves_reads_the_cubic_root_finders():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _root_finder_readers(program) == []


def test_the_root_finder_scan_flags_readers_outside_curves(package_tree):
    planted = {
        "curves": "def _int_cubic_roots(a, b, c):\n    return []\n"
        "def _qt_cubic_roots(A, B, C):\n    return _int_cubic_roots(A, B, C)\n",
        "conditions": "from .curves import _q_cubic_roots, _qt_cubic_roots\n"
        "roots = _q_cubic_roots(A, B, C) + _qt_cubic_roots(*model)\n",
        "mestre": "from . import curves\nroots = curves._int_cubic_roots(0, a, b)\n",
    }
    for module, text in planted.items():
        (package_tree / f"src/ellspec/{module}.py").write_text(text, encoding="utf-8")
    program, _ = _program_and_callers(package_tree)
    assert _root_finder_readers(program) == ["conditions._qt_cubic_roots", "mestre._int_cubic_roots"]


STRING_SLICERS = {"split", "rsplit", "index", "find", "startswith", "replace"}


def _re_names(tree: ast.Module) -> set[str]:
    """re, the names imported from it and the module-level names bound to
    values built from them, such as a compiled pattern."""
    names = {"re"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "re":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node.value)):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _text_slicers(tree: ast.Module) -> list[str]:
    """Functions other than _tokenize that call a string-slicing method or
    read anything from re."""
    regex = _re_names(tree)

    def slices(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in STRING_SLICERS
        return isinstance(node, ast.Name) and node.id in regex

    return [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and func.name != "_tokenize"
        and any(map(slices, ast.walk(func)))
    ]


def test_only_the_tokenizer_reads_the_text():
    tree = ast.parse((ROOT / "src/ellspec/parsing.py").read_text(encoding="utf-8"))
    assert _text_slicers(tree) == []


def test_the_slicing_scan_flags_every_reader_but_the_tokenizer():
    source = ast.parse(
        "import re\n"
        "from re import fullmatch as whole\n"
        "_PAT = re.compile('a')\n"
        "def _tokenize(text):\n"
        "    return _PAT.match(text) or text.split()\n"
        "def parse_curve(text):\n"
        "    return text.replace(' ', '').startswith('e=')\n"
        "def parse_pairs(text):\n"
        "    return re.split('[;,]', text)\n"
        "def parse_key(text):\n"
        "    return _PAT.search(text)\n"
        "def parse_all(text):\n"
        "    return whole('a', text)\n"
        "class Parser:\n"
        "    def peek(self):\n"
        "        return self.tokens[self.i : self.i + 2]\n"
    )
    assert _text_slicers(source) == ["parse_curve", "parse_pairs", "parse_key", "parse_all"]


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function in node, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def _loop_names(loop: ast.For) -> set[str]:
    return {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}


def _assigned_index_sums(node: ast.AST) -> set[frozenset[str]]:
    """{i, j} for each x[i + j] that node assigns to."""
    sums = set()
    for stmt in ast.walk(node):
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            for target in getattr(stmt, "targets", [getattr(stmt, "target", None)]):
                index = getattr(target, "slice", None)
                if (
                    isinstance(index, ast.BinOp)
                    and isinstance(index.op, ast.Add)
                    and isinstance(index.left, ast.Name)
                    and isinstance(index.right, ast.Name)
                ):
                    sums.add(frozenset({index.left.id, index.right.id}))
    return sums


def _is_product_loop(outer: ast.AST) -> bool:
    """A for loop over i holding a for loop over j that assigns to x[i + j]."""
    if not isinstance(outer, ast.For):
        return False
    return any(
        {i, j} in _assigned_index_sums(inner)
        for inner in ast.walk(outer)
        if isinstance(inner, ast.For) and inner is not outer
        for i in _loop_names(outer)
        for j in _loop_names(inner)
    )


def _is_trim_loop(node: ast.AST) -> bool:
    """A while loop that tests an element [-1] and pops, or one that tests
    an element [k - 1] and decrements k."""
    if not isinstance(node, ast.While):
        return False
    indices = [n.slice for n in ast.walk(node.test) if isinstance(n, ast.Subscript)]
    body = [n for stmt in node.body for n in ast.walk(stmt)]
    reads_last = any(
        isinstance(i, ast.UnaryOp)
        and isinstance(i.op, ast.USub)
        and isinstance(i.operand, ast.Constant)
        and i.operand.value == 1
        for i in indices
    )
    pops = any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "pop" for n in body
    )
    below = {
        i.left.id
        for i in indices
        if isinstance(i, ast.BinOp)
        and isinstance(i.op, ast.Sub)
        and isinstance(i.left, ast.Name)
        and isinstance(i.right, ast.Constant)
        and i.right.value == 1
    }
    decrements = any(
        isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Sub) and getattr(n.target, "id", None) in below
        for n in body
    )
    return reads_last and pops or decrements


def _kernel_loops(program: dict[str, ast.Module], is_loop) -> list[str]:
    """module.function for every function of the program holding such a loop."""
    return [
        f"{module}.{name}"
        for module, tree in program.items()
        for name, func in _functions(tree)
        if any(map(is_loop, ast.walk(func)))
    ]


def test_one_product_loop_and_one_trim_loop():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _kernel_loops(program, _is_product_loop) == ["intpoly._mul_coeffs"]
    assert _kernel_loops(program, _is_trim_loop) == ["intpoly._trim"]


def test_the_kernel_scan_flags_copied_product_and_trim_loops():
    factorize = ast.parse(
        "def _gf_trim(f):\n"
        "    while f and f[-1] == 0:\n"
        "        f.pop()\n"
        "    return f\n"
        "def _gf_mul(f, g, m):\n"
        "    if not f or not g:\n"
        "        return []\n"
        "    out = [0] * (len(f) + len(g) - 1)\n"
        "    for i, a in enumerate(f):\n"
        "        if a:\n"
        "            for j, b in enumerate(g):\n"
        "                out[i + j] += a * b\n"
        "    return _gf_trim([c % m for c in out])\n"
        "def _gf_sub_step(r, g, c, dr, dg):\n"
        "    for _ in range(dr):\n"
        "        for i in range(len(g)):\n"
        "            r[dr - dg + i] -= c * g[i]\n"
    )
    parsing = ast.parse(
        "class _XPoly:\n"
        "    def __init__(self, nums, den=_ONE):\n"
        "        n = list(nums)\n"
        "        while n and n[-1].is_zero:\n"
        "            n.pop()\n"
        "        self.nums = n\n"
        "    def __mul__(self, other):\n"
        "        out = [IntPoly()] * (len(self.nums) + len(other.nums) - 1)\n"
        "        for i, a in enumerate(self.nums):\n"
        "            for j, b in enumerate(other.nums):\n"
        "                out[i + j] = out[i + j] + a * b\n"
        "        return _XPoly(out, self.den * other.den)\n"
    )
    ratfunc = ast.parse(
        "def _numerators(nums):\n"
        "    k = len(nums)\n"
        "    while k and not nums[k - 1]:\n"
        "        k -= 1\n"
        "    return nums[:k]\n"
    )
    intmath = ast.parse(
        "def walk(stack):\n"
        "    while stack:\n"
        "        m = stack.pop()\n"
        "def countdown(k, nums):\n"
        "    while k and nums[k]:\n"
        "        k -= 1\n"
    )
    program = {"factorize": factorize, "parsing": parsing, "ratfunc": ratfunc, "intmath": intmath}
    assert _kernel_loops(program, _is_product_loop) == ["factorize._gf_mul", "parsing._XPoly.__mul__"]
    assert _kernel_loops(program, _is_trim_loop) == [
        "factorize._gf_trim",
        "parsing._XPoly.__init__",
        "ratfunc._numerators",
    ]


def _is_power_loop(node: ast.AST) -> bool:
    """A while loop that shifts a name right by one bit (e >>= 1)."""
    return isinstance(node, ast.While) and any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, ast.RShift)
        and isinstance(n.target, ast.Name)
        and isinstance(n.value, ast.Constant)
        and n.value.value == 1
        for stmt in node.body
        for n in ast.walk(stmt)
    )


def test_one_square_and_multiply_loop():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _kernel_loops(program, _is_power_loop) == ["intpoly._power"]


def test_the_power_scan_flags_copied_square_and_multiply_loops():
    curves = ast.parse(
        "class Curve:\n"
        "    def scalar_mul(self, m, P):\n"
        "        result = O\n"
        "        base = P\n"
        "        while m:\n"
        "            if m & 1:\n"
        "                result = self.add(result, base)\n"
        "            m >>= 1\n"
        "            if m:\n"
        "                base = self.add(base, base)\n"
        "        return result\n"
    )
    factorize = ast.parse(
        "def _gf_pow_mod(f, e, g, p):\n"
        "    result = [1]\n"
        "    base = _gf_rem(f, g, p)\n"
        "    while e:\n"
        "        if e & 1:\n"
        "            result = _gf_rem(_gf_mul(result, base, p), g, p)\n"
        "        base = _gf_rem(_gf_mul(base, base, p), g, p)\n"
        "        e >>= 1\n"
        "    return result\n"
    )
    intmath = ast.parse(
        "def is_probable_prime(n):\n"
        "    d, s = n - 1, 0\n"
        "    while d % 2 == 0:\n"
        "        d //= 2\n"
        "        s += 1\n"
        "    return pow(2, d, n)\n"
        "def bits(n):\n"
        "    while n:\n"
        "        n >>= 2\n"
    )
    program = {"curves": curves, "factorize": factorize, "intmath": intmath}
    assert _kernel_loops(program, _is_power_loop) == ["curves.Curve.scalar_mul", "factorize._gf_pow_mod"]


def _is_horner_step(n: ast.AST) -> bool:
    """acc = acc * x + ..., or (acc * x + ...) % m, with x not acc itself:
    a squaring step such as y = (y * y + c) % n is not a Horner step."""
    if not (isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)):
        return False
    acc, value = n.targets[0].id, n.value
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mod):
        value = value.left
    return (
        isinstance(value, ast.BinOp)
        and isinstance(value.op, ast.Add)
        and isinstance(value.left, ast.BinOp)
        and isinstance(value.left.op, ast.Mult)
        and isinstance(value.left.left, ast.Name)
        and value.left.left.id == acc
        and not (isinstance(value.left.right, ast.Name) and value.left.right.id == acc)
    )


def _is_horner_loop(node: ast.AST) -> bool:
    """A for loop with a Horner step in its body."""
    return isinstance(node, ast.For) and any(
        _is_horner_step(n) for stmt in node.body for n in ast.walk(stmt)
    )


def test_one_horner_loop():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _kernel_loops(program, _is_horner_loop) == ["intpoly._horner_homogeneous"]


def test_the_horner_scan_flags_copied_horner_loops():
    factorize = ast.parse(
        "def _eval_at(f, x):\n"
        "    acc = 0\n"
        "    for c in reversed(f):\n"
        "        acc = acc * x + c\n"
        "    return acc\n"
        "def _mignotte_bound(f):\n"
        "    total = 0\n"
        "    for c in f.coeffs:\n"
        "        total = total + c * c\n"
        "    return total\n"
        "def _gf_eval(f, x, p):\n"
        "    acc = 0\n"
        "    for c in reversed(f):\n"
        "        acc = (acc * x + c) % p\n"
        "    return acc\n"
    )
    intmath = ast.parse(
        "def _rho_walk(y, c, n, r):\n"
        "    for _ in range(r):\n"
        "        y = (y * y + c) % n\n"
        "    return y\n"
    )
    parsing = ast.parse(
        "class _Parser:\n"
        "    def number(self, digits):\n"
        "        value = 0\n"
        "        for d in digits:\n"
        "            value = value * 10 + int(d)\n"
        "        return value\n"
    )
    program = {"factorize": factorize, "parsing": parsing, "intmath": intmath}
    assert _kernel_loops(program, _is_horner_loop) == [
        "factorize._eval_at",
        "factorize._gf_eval",
        "parsing._Parser.number",
    ]


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_digit_loop(node: ast.AST) -> bool:
    """A loop that shrinks a name n (n //= b, n >>= k, n = (...n...) // b
    or >> k, or n, d = divmod(...n..., b)) and appends a digit of it: a
    name that divmod bound with n, or a remainder (% or &) of n."""
    if not isinstance(node, (ast.For, ast.While)):
        return False
    body = [n for stmt in node.body for n in ast.walk(stmt)]
    shrunk, quotient_digits = set(), {}
    for n in body:
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) and getattr(n.value.func, "id", None) == "divmod":
            bound = _names(n.targets[0])
            for name in bound & _names(n.value.args[0]):
                shrunk.add(name)
                quotient_digits[name] = bound - {name}
        elif isinstance(n, ast.AugAssign) and isinstance(n.op, (ast.FloorDiv, ast.RShift)):
            shrunk |= _names(n.target)
        elif isinstance(n, ast.Assign) and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, (ast.FloorDiv, ast.RShift)):
            shrunk |= {t.id for t in n.targets if isinstance(t, ast.Name)} & _names(n.value.left)
    appended = [a for n in body if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "append" for a in n.args]
    return any(
        quotient_digits.get(name, set()) & _names(arg)
        or any(
            isinstance(r, ast.BinOp) and isinstance(r.op, (ast.Mod, ast.BitAnd)) and name in _names(r.left)
            for r in ast.walk(arg)
        )
        for name in shrunk
        for arg in appended
    )


def test_one_balanced_digit_loop():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _kernel_loops(program, _is_digit_loop) == ["intpoly._from_balanced_digits"]


def test_the_digit_scan_flags_copied_unpack_loops():
    factorize = ast.parse(
        "def _heu_digits(n, xi):\n"
        "    out = []\n"
        "    while n:\n"
        "        n, d = divmod(n + xi // 2, xi)\n"
        "        out.append(d - xi // 2)\n"
        "    return out\n"
        "def _trial(n, p, found):\n"
        "    while n % p == 0:\n"
        "        n //= p\n"
        "        found.append(p)\n"
    )
    curves = ast.parse(
        "def _unpack(n, k):\n"
        "    cs = []\n"
        "    while n:\n"
        "        n += 1 << k - 1\n"
        "        cs.append((n & (1 << k) - 1) - (1 << k - 1))\n"
        "        n >>= k\n"
        "    return cs\n"
        "def _bits(e, out):\n"
        "    while e:\n"
        "        if e & 1:\n"
        "            out = out * 2\n"
        "        e >>= 1\n"
        "    return out\n"
    )
    ratfunc = ast.parse(
        "class _Packed:\n"
        "    def digits(self, n, base, count):\n"
        "        out = []\n"
        "        for _ in range(count):\n"
        "            out.append(n % base)\n"
        "            n = n // base\n"
        "        return out\n"
    )
    program = {"factorize": factorize, "curves": curves, "ratfunc": ratfunc}
    assert _kernel_loops(program, _is_digit_loop) == [
        "factorize._heu_digits",
        "curves._unpack",
        "ratfunc._Packed.digits",
    ]


# the math names whose values are floats; math.isqrt, gcd, lcm, prod and comb stay exact
FLOAT_MATH = {
    "sqrt", "cbrt", "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "pow", "fsum",
    "hypot", "dist", "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
    "tanh", "asinh", "acosh", "atanh", "degrees", "radians", "floor", "ceil", "trunc", "fabs",
    "fmod", "modf", "frexp", "ldexp", "copysign", "erf", "erfc", "gamma", "lgamma",
    "pi", "e", "tau", "inf", "nan",
}


def _inexact(tree: ast.Module) -> list[str]:
    """line: what, for each float or complex literal, call of float or
    complex, and float-valued math name, read as an attribute of the math
    module (under any alias) or imported from it by name.  The scan sees
    syntax, not types, so true division of two ints, which gives a float,
    is out of its reach: `/` is also the exact division of Fraction and
    RatFunc."""
    math_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}() call"))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id in math_aliases):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}")
                         for alias in node.names if alias.name in FLOAT_MATH)
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: p.name)
def test_no_floating_point_in_the_package(path):
    assert _inexact(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_exactness_scan_flags_each_kind_and_spares_exact_code():
    source = ast.parse(
        "import math\n"
        "import math as m\n"
        "from math import gcd, log, isqrt\n"
        "from fractions import Fraction\n"
        "def as_rational(value):\n"
        "    '''Rejects a float: its binary value is not the rational written.'''\n"
        "    return Fraction(1, 2) + math.isqrt(value) + math.gcd(value, 6) + gcd(4, 6)\n"
        "def bits(n):\n"
        "    return math.sqrt(n) + 0.5 + float(n) + m.log2(n) + log(n) + 2j + complex(n, 1)\n"
        "def root(n):\n"
        "    return isqrt(n) if n > 1e3 else m.floor(n / math.pi)\n"
    )
    assert _inexact(source) == [
        "3: math.log",
        "9: complex literal 2j",
        "9: complex() call",
        "9: float literal 0.5",
        "9: float() call",
        "9: math.log2",
        "9: math.sqrt",
        "11: float literal 1000.0",
        "11: math.floor",
        "11: math.pi",
    ]


MEMO_NAMES = {"lru_cache", "cache"}


def _memos(program: dict[str, ast.Module]) -> list[str]:
    """Every read of functools.lru_cache or functools.cache: module.function
    where it decorates a function (a method counts as Class.method), and
    module:line anywhere else, such as a memo wrapped around a function by a
    call or an import of either name under an alias."""
    found = []
    for module, tree in program.items():
        decorating = {}
        for qualname, fn in _functions(tree):
            for decorator in fn.decorator_list:
                decorating.update((id(n), qualname) for n in ast.walk(decorator))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{module}:{node.lineno}" for alias in node.names
                          if alias.name in MEMO_NAMES and alias.asname not in (None, alias.name)]
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in MEMO_NAMES and isinstance(node.ctx, ast.Load):
                found.append(f"{module}.{decorating[id(node)]}" if id(node) in decorating
                             else f"{module}:{node.lineno}")
    return found


def test_the_only_memos_are_on_factor_and_the_prepared_checkers():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    assert _memos(program) == ["conditions._prepare", "factorize.factor"]


def test_the_memo_scan_flags_every_memo_but_spares_cached_property():
    program = {
        "factorize": ast.parse(
            "import functools\n"
            "@functools.lru_cache(maxsize=1024, typed=True)\n"
            "def factor(p):\n"
            "    return p\n"
        ),
        "curves": ast.parse(
            "from functools import cache, cached_property\n"
            "class Curve:\n"
            "    @cache\n"
            "    def two_torsion(self):\n"
            "        return []\n"
            "    @cached_property\n"
            "    def model(self):\n"
            "        return ()\n"
        ),
        "parsing": ast.parse(
            "import functools\n"
            "parse = functools.lru_cache(maxsize=None)(_parse)\n"
        ),
        "mestre": ast.parse(
            "from functools import lru_cache as memo\n"
            "@memo\n"
            "def build(a, b):\n"
            "    return a\n"
        ),
    }
    assert _memos(program) == ["factorize.factor", "curves.Curve.two_torsion", "parsing:2", "mestre:1"]
