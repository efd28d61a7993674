"""Lints over the modules under src/normtower, each parsed with ast.

- Every name a module imports is read somewhere in that module (the
  re-exporting __init__.py is exempt). An imported name that never appears in
  a load context fails, unless its import line carries `# noqa: F401`.
- Every private module-level name (a leading underscore, not a dunder) is read
  somewhere under src/normtower, as a name or as an attribute. A name reached
  only through a string lookup fails.
- Every public module-level function or class is read somewhere under
  src/normtower or exported from normtower.__all__. UNREAD_VERIFIERS lists the
  verifiers that only tests, scripts or perfbench reach: each is to be
  promoted into the campaign or deleted.
- Every name in normtower.__all__ is read somewhere under src/normtower
  outside __init__.py. UNREAD_EXPORTS lists the exported names that only
  tests, scripts or perfbench reach: each is to be promoted into the
  campaign or deleted, as UNREAD_VERIFIERS are.
- Every public method of a module-level class is read as an attribute
  somewhere under src/normtower. UNREAD_METHODS lists the methods that only
  tests reach.
- Every name a function assigns is read somewhere in that function, nested
  functions and comprehensions included. A value kept on purpose unread goes
  to a name with a leading underscore, such as `_`.

- The modules below the lattices (BELOW_SNF) import nothing from snf, not
  even inside a function: their arithmetic is polynomial arithmetic, and the
  Smith normal form belongs to the lattice and module layers above them.
- No `@` (or dot, matmul) product in lambda_modules takes a flat X or F (a
  name or an attribute called X or F, subscripted or not) as an operand:
  flatten applies them as index maps, O(dim) per column, not as dense
  matrices.
- Outside padic.py, no `while` loop floor-divides by a name or an attribute
  called p: the p-adic content of a set of coordinates is read in one pass
  by `padic.content_val`, not stripped one factor of p at a time.
- Outside polyarith.py, no `rem_monic(...)` or `.reduce(...)` call takes a
  `mul(...)` call as its first argument, and no function whose name contains
  teichmuller is defined: products, powers and Teichmuller lifts in
  (Z/q)[x]/(m) are polyarith's `mul_mod`, `pow_mod` and `teichmuller`.
- `np.add.at` (any `add.at(...)` call) is called once, in tower.py: the
  Galois action on coordinate arrays is the one scatter of `TowerDesc.act`.
- No module but unramified.py reads `frob_cols`, as a name or an attribute:
  Frobenius on coordinates is the one matrix `FieldDesc.frob_matrix`.
- Outside padic.py, no module but tower.py and unramified.py reads
  `primitive_root`, as a name or an attribute: Delta is enumerated once, by
  `TowerDesc.tame_units`, and its characters are `TowerDesc.idempotents` on
  that enumeration (unramified.py takes x - g as its degree-1 modulus).
- No module reaches numpy's FFT (`np.fft`, `numpy.fft`, or an import from
  it): every convolution is exact integer arithmetic, and no product rests on
  a rounding bound for floating-point transforms.

Each allowlist only shrinks: a listed name that becomes read fails until it
leaves the list.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "normtower"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or getattr(node, "module", None) == "__future__":
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and "# noqa: F401" not in lines[line - 1])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = ("import math\nfrom os import path, sep\n"
           "from sys import argv  # noqa: F401\nprint(path, math.pi)\n")
    assert unused_imports(src) == [(2, "sep")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _read_names(trees) -> set[str]:
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private module-level name that no module reads."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    read = _read_names(trees)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for tgt in targets for t in ast.walk(tgt)
                         if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, n) for n in names if _is_private(n) and n not in read]
    return sorted(unread)


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_private_names_are_read(module):
    assert [n for m, n in unread_private_names(SOURCES) if m == module] == []


def test_detects_an_unread_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_A, _B = 1, 2\n__all__ = []\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _check_x():\n    pass\n"
                 "def run(name):\n    return globals()[f'_check_{name}']()\n"),
        "b.py": "from . import a\nprint(a._helper(), a._A)\n",
    }
    assert unread_private_names(sources) == [("a.py", "_B"), ("a.py", "_check_x")]


def unread_locals(source: str) -> list[tuple[int, str, str]]:
    """(line, function, name) for each name a function stores and never reads
    (loads or deletes), unless it starts with an underscore or the function
    declares it global or nonlocal."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        kept = {n for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
                for n in node.names}
        kept |= {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found |= {(n.lineno, fn.name, n.id) for n in nodes
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                  and not n.id.startswith("_") and n.id not in kept}
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_locals_are_read(path):
    assert unread_locals(path.read_text()) == []


def test_detects_an_unread_local():
    src = ("def f(a):\n"
           "    x, y = a\n"                 # y unread
           "    z = 0\n"                    # z unread
           "    _, w = a\n"
           "    total = 0\n"
           "    total += x\n"               # total only stored
           "    for i, v in enumerate(w):\n"  # i unread
           "        pass\n"
           "    def g():\n"
           "        nonlocal v\n"
           "        v = 1\n"
           "        return [k for k in w]\n"
           "    tmp = g()\n"
           "    del tmp\n"
           "    return x\n"
           "counter = 0\n")
    assert unread_locals(src) == [(2, "f", "y"), (3, "f", "z"), (5, "f", "total"),
                                  (6, "f", "total"), (7, "f", "i")]


UNREAD_VERIFIERS = {
    "annihilator_matches_closed_form",
    "generation_check",
    "point_log_congruent_to_uniformizer",
    "torsion_probe",
}


def _exported(sources: dict[str, str]) -> set[str]:
    for node in ast.parse(sources.get("__init__.py", "")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unread_public_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each public module-level function or class that no
    module reads and __all__ does not export."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    reached = _read_names(trees) | _exported(sources)
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in reached)


def test_public_names_are_read_or_exported():
    unread = unread_public_names(SOURCES)
    assert [(m, n) for m, n in unread if n not in UNREAD_VERIFIERS] == []
    # an allowlisted verifier that is now read or exported leaves the list
    assert sorted(n for _, n in unread) == sorted(UNREAD_VERIFIERS)


def test_detects_an_unread_public_name():
    sources = {
        "__init__.py": "from .a import run\n__all__ = ['run']\n",
        "a.py": ("class Shape:\n    pass\n"
                 "def area(s):\n    return 0\n"
                 "def run():\n    return area(Shape())\n"
                 "def orphan():\n    pass\n"),
        "b.py": "from . import a\nclass Helper:\n    pass\nprint(a.orphan)\n",
    }
    assert unread_public_names(sources) == [("b.py", "Helper")]


UNREAD_EXPORTS = {
    "check_g_iterate",
    "formal_group_law",
    "is_unit",
    "local_point_direct",
    "uniformizer_generates_quotient",
}


def unread_exports(sources: dict[str, str]) -> list[str]:
    """The names in __all__ that no module but __init__.py reads."""
    trees = {module: ast.parse(src) for module, src in sources.items()
             if module != "__init__.py"}
    return sorted(_exported(sources) - _read_names(trees))


def test_exported_names_are_read():
    unread = unread_exports(SOURCES)
    assert [n for n in unread if n not in UNREAD_EXPORTS] == []
    # an allowlisted export that is now read leaves the list
    assert unread == sorted(UNREAD_EXPORTS)


def test_detects_an_unread_export():
    sources = {
        "__init__.py": ("from .a import Shape, area, run, scale\n"
                        "__all__ = ['Shape', 'area', 'run', 'scale']\nprint(area)\n"),
        "a.py": ("class Shape:\n    pass\n"
                 "def area(s):\n    return 0\n"
                 "def scale(s):\n    return s\n"
                 "def run():\n    return Shape()\n"),
        "b.py": "from . import a\nprint(a.run)\n",
    }
    # area is read only in __init__.py, scale nowhere
    assert unread_exports(sources) == ["area", "scale"]


UNREAD_METHODS = {
    "SnfResult.certify",  # the unimodularity witness the SNF tests check
}


def unread_public_methods(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, Class.method) for each public method of a module-level class
    that no module reads as an attribute."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}
    return sorted((module, f"{cls.name}.{fn.name}")
                  for module, tree in trees.items() for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not fn.name.startswith("_") and fn.name not in read)


def test_public_methods_are_read():
    unread = unread_public_methods(SOURCES)
    assert [(m, n) for m, n in unread if n not in UNREAD_METHODS] == []
    # an allowlisted method that is now read leaves the list
    assert sorted(n for _, n in unread) == sorted(UNREAD_METHODS)


def test_detects_an_unread_public_method():
    sources = {
        "a.py": ("class Shape:\n"
                 "    def area(self):\n        return 0\n"
                 "    @property\n    def size(self):\n        return self.area()\n"
                 "    def _helper(self):\n        pass\n"
                 "    def orphan(self):\n        pass\n"
                 "def run(s):\n    return s.size\n"),
        # a bare name is not an attribute read
        "b.py": ("orphan = 1\nprint(orphan)\n"
                 "class Helper:\n    def render(self):\n        pass\n"),
    }
    assert unread_public_methods(sources) == [("a.py", "Shape.orphan"),
                                              ("b.py", "Helper.render")]


BELOW_SNF = ["padic.py", "polyarith.py", "unramified.py", "series.py", "tower.py",
             "points.py", "curve.py", "honda.py", "localpoints.py"]


def snf_importers(sources: dict[str, str]) -> list[str]:
    """The modules that import snf or anything from it, anywhere in the file."""
    found = []
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "snf" for n in names):
                found.append(module)
                break
    return sorted(found)


def test_modules_below_the_lattices_do_not_import_snf():
    assert snf_importers({m: SOURCES[m] for m in BELOW_SNF}) == []


def test_detects_an_snf_import():
    sources = {
        "a.py": "from .snf import smith_normal_form\n",
        "b.py": "from . import padic, snf\n",
        "c.py": "import normtower.snf as s\n",
        "d.py": "from .padic import val_int\nfrom .snfx import snf_like\nsnf = 1\n",
        "e.py": "def f():\n    from .snf import MARGIN\n    return MARGIN\n",
        "f.py": "from normtower.snf import _dtype_for\n",
    }
    assert snf_importers(sources) == ["a.py", "b.py", "c.py", "e.py", "f.py"]


def flat_action_products(source: str) -> list[int]:
    """The lines of the `@`, `@=`, dot and matmul products with an operand
    named X or F, or an attribute X or F, subscripted or not."""
    def is_action(node) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Name) and node.id in ("X", "F")
                or isinstance(node, ast.Attribute) and node.attr in ("X", "F"))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = (node.target, node.value)
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) in ("dot", "matmul"):
            operands = [*node.args, getattr(node.func, "value", None)]
        else:
            continue
        if any(map(is_action, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_lambda_modules_takes_no_dense_product_with_x_or_f():
    assert flat_action_products(SOURCES["lambda_modules.py"]) == []


def test_detects_a_dense_product_with_x_or_f():
    src = ("w = (F @ w) % q\n"
           "v = X @ v\n"
           "y = fm.X @ Wc\n"
           "z = hi.F[rows] @ v\n"
           "Wc = W @ res.V[:, :r]\n"
           "u = A @ X_lo + M[perm]\n"
           "M @= X\n"
           "k = np.dot(X, v) + np.matmul(v, fm.F) + np.add(X, v)\n"
           "j = M.dot(v) + hi.X.dot(v)\n")
    assert flat_action_products(src) == [1, 2, 3, 4, 7, 8, 8, 9]


def p_stripping_loops(source: str) -> list[int]:
    """The lines of the `while` loops that floor-divide (`//` or `//=`) by a
    name or an attribute called p, in their test or their body."""
    def by_p(node) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            divisor = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
            divisor = node.value
        else:
            return False
        return (isinstance(divisor, ast.Name) and divisor.id == "p"
                or isinstance(divisor, ast.Attribute) and divisor.attr == "p")

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.While) and any(map(by_p, ast.walk(node))))


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"padic.py"}))
def test_no_loop_strips_p_outside_padic(module):
    assert p_stripping_loops(SOURCES[module]) == []


def test_detects_a_p_stripping_loop():
    src = ("while x.den > 0:\n"
           "    co = [v // p % nq for v in co]\n"
           "while (c % p == 0).all():\n"
           "    c = c // x.p\n"
           "while a % p == 0:\n"
           "    a //= p\n"
           "while n % f == 0:\n"
           "    n //= f\n"
           "while k:\n"
           "    k = k // p2 + p // 2\n"
           "y = q // p\n")
    assert p_stripping_loops(src) == [1, 3, 5]


def quotient_ring_copies(source: str) -> list[int]:
    """The lines of the `rem_monic(...)` and `.reduce(...)` calls whose first
    argument is a `mul(...)` call (a name or an attribute called mul), and of
    the functions whose name contains teichmuller."""
    def called(node, names) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr in names)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "teichmuller" in node.name.lower():
            found.append(node.lineno)
        elif (called(node, ("rem_monic",)) or isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "reduce") \
                and node.args and called(node.args[0], ("mul",)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"polyarith.py"}))
def test_quotient_ring_arithmetic_lives_in_polyarith(module):
    assert quotient_ring_copies(SOURCES[module]) == []


def test_detects_a_quotient_ring_copy():
    src = ("c = [x % q for x in rem_monic(mul(a, b), m)]\n"
           "c = polyarith.rem_monic(polyarith.mul(a, b), m)\n"
           "c = self.reduce(mul(a, b), q)\n"
           "c = rem_monic(mul_vec(a, b, d), m)\n"
           "c = self.reduce(c, q)\n"
           "c = reduce(mul(a, b), q)\n"
           "c = rem_monic(c, mul(a, b))\n"
           "def _teichmuller_root(x, m, p, q):\n"
           "    return x\n"
           "class ZpContext:\n"
           "    def teichmuller(self, a):\n"
           "        return a\n"
           "def lift(a):\n"
           "    return teichmuller([a], [0, 1], 3, 9)\n")
    assert quotient_ring_copies(src) == [1, 2, 3, 8, 11]


def scatter_adds(source: str) -> list[int]:
    """The lines of the `add.at(...)` calls (an attribute `at` of an attribute
    `add`, such as np.add.at)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "add")


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_the_galois_scatter_lives_in_tower(module):
    assert len(scatter_adds(SOURCES[module])) == int(module == "tower.py")


def test_detects_a_scatter_add():
    src = ("np.add.at(out, dst, v)\n"
           "numpy.add.at(out, idx, 1)\n"
           "np.add(a, b)\n"
           "np.subtract.at(out, idx, v)\n"
           "at(out, idx)\n"
           "out = np.add.reduce(rows) + np.add.at(acc, i, rows)\n")
    assert scatter_adds(src) == [1, 2, 6]


def frob_cols_reads(source: str) -> list[int]:
    """The lines that read frob_cols, as an attribute or a loaded name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "frob_cols"
                  or isinstance(node, ast.Name) and node.id == "frob_cols"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"unramified.py"}))
def test_frobenius_matrix_lives_in_unramified(module):
    assert frob_cols_reads(SOURCES[module]) == []


def test_detects_a_frob_cols_read():
    src = ("cols = fd.frob_cols[k]\n"
           "FieldDesc(p=p, frob_cols=frob_all)\n"
           "M = np.array(self.field.frob_cols)\n"
           "frob_cols = 1\n"
           "print(frob_cols)\n"
           "frob = fd.frob_matrix(k)\n")
    assert frob_cols_reads(src) == [1, 3, 5]


def primitive_root_reads(source: str) -> list[int]:
    """The lines that read primitive_root, as an attribute or a loaded name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "primitive_root"
                  or isinstance(node, ast.Name) and node.id == "primitive_root"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"padic.py", "tower.py", "unramified.py"}))
def test_delta_is_enumerated_in_tower(module):
    assert primitive_root_reads(SOURCES[module]) == []


def test_detects_a_primitive_root_read():
    src = ("from .padic import primitive_root\n"
           "g = primitive_root(p)\n"
           "tg = teichmuller([padic.primitive_root(p)], [0, 1], p, q)[0]\n"
           "primitive_root = 2\n"
           "root = primitive_roots[p]\n"
           "gens = map(primitive_root, primes)\n")
    assert primitive_root_reads(src) == [2, 3, 6]


def fft_uses(source: str) -> list[int]:
    """The lines that reach numpy's FFT: an attribute called fft (np.fft.rfft,
    numpy.fft), or an import of numpy.fft or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.fft" or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
            found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "numpy.fft" for a in node.names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_module_calls_numpy_fft(module):
    assert fft_uses(SOURCES[module]) == []


def test_detects_an_fft_call():
    src = ("x = np.fft.rfft(a, 8)\n"
           "y = numpy.fft.irfft(f)\n"
           "from numpy import fft\n"
           "from numpy.fft import rfft\n"
           "import numpy.fft as nf\n"
           "z = fft_size(a) + np.convolve(a, b)\n"
           "from numpy import linalg\n"
           "fft = 1\n")
    assert fft_uses(src) == [1, 2, 3, 4, 5]
