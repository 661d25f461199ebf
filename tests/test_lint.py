"""Every name a package module imports or keeps private is used.

No linter is a dependency, so this parses the sources with ast: a name
bound by an import must be read somewhere in the module, or be listed in
its __all__ (the package's re-exports); a module-level private name
(`_x` function, class or constant, dunders aside) must be read somewhere
in the package; every function, method or class the package defines
(dunders aside) must be referenced from src/ or bench/, a method by a
call of it as an attribute (x.name(...)), a property by any read of it
(x.name): a name that only tests reach is not shipped, and an __all__
entry is no caller.  The one exception is KEPT_UNREACHED, the
documented API that no run reaches yet, each group with its reason; an
entry there that nothing defines any more, or that src/ or bench/ now
reaches, fails too.  On the stepping hot path (sim.py, presets.py) no
`**` takes an integer literal above 2: numpy sends those through pow,
some 30 times slower than multiplying, while `** 2` takes its square fast
path.  No package module uses Fraction's private API (`_numerator`,
`_denominator`, `_from_coprime_ints`, the `_normalize` keyword): the exact
calculus reads `numerator`/`denominator` and builds with `Fraction(n, d)`,
since Python 3.12 changed those private names.  No package module writes
through an object's `__dict__` or `vars()`: on CPython 3.11 such a write
materializes the instance dict, and every later attribute read of the
object gets slower (a frozen dataclass stores a field with
`object.__setattr__` instead).  No package module calls `np.fft`: every
transform, the kernel's and the monitors', goes through `sim._rfft` and
`sim._irfft`, which call numpy's pocketfft gufuncs without the Python
wrapper.  No package code builds a `Trajectory`
or a `PathStats` outside `Ensemble.__getitem__`, the ensemble record's row
view, so the layout of a path's columns is known in one place.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "critspde").glob("*.py"))
HOT_PATH = [p for p in SOURCES if p.name in ("sim.py", "presets.py")]

# Definitions that no src/ or bench/ caller reaches, kept as documented
# API: README's Python examples call each one, and tests/test_readme.py
# runs those examples.  What a kept name calls needs no entry, since its
# body is a caller.
KEPT_UNREACHED = {
    # The Serrin-type blow-up criterion, the paper's first main result.  It
    # is to be evaluated by `critspde calc` and by an acceptance criterion
    # on the simulator's blow-ups; SerrinReport and SerrinTerm hang off it.
    "serrin_applicable",
    # Strong dt and spectral n refinement on common noise.  It runs on the
    # kernel's batched common-noise path (_integrate's substeps), one call
    # per level over all its paths, and tests/golden/convergence_study pins
    # its bytes.
    "convergence_study",
}


def caller_paths(root: Path) -> list:
    """Every Python file whose references keep a package name alive: the
    package and the bench, not the tests."""
    return sorted(p for d in ("src", "bench") for p in (root / d).rglob("*.py"))


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def exported(tree: ast.Module) -> set:
    """Names the module lists in its __all__."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {elt.value for elt in node.value.elts}
    return out


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_definitions(tree: ast.Module):
    """(line, name) of every private function, class or constant the
    module defines at its top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(node.lineno, n) for n in names if _is_private(n)]
    return out


def names_read(tree: ast.Module) -> set:
    """Names the module reads, bare or as an attribute of something."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(trees: dict):
    """(module, line, name) of private module-level names nothing reads."""
    read = set().union(*(names_read(t) for t in trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in private_definitions(tree)
                  if name not in read)


def attributes_read(tree: ast.Module) -> set:
    """Names the module reads as an attribute of something (x.name)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def attributes_called(tree: ast.Module) -> set:
    """Names the module calls as an attribute of something (x.name(...))."""
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PROPERTY_DECORATORS = ("property", "cached_property", "setter", "deleter")


def _is_property(node) -> bool:
    """node is decorated as a property (or cached_property, or a
    property's setter or deleter)."""
    return any(_dotted(d).split(".")[-1] in PROPERTY_DECORATORS
               for d in node.decorator_list)


def unreferenced_definitions(trees: dict, callers: list, kept=frozenset()):
    """(module, line, name) of every function, method or class, dunders
    aside, that the modules in trees define, no tree in callers reaches and
    kept does not list; an __all__ entry is a string, not a read.  A
    function counts as reached by any read of its name, a method only by
    a call of it as an attribute (x.name(...)) and a property by any read
    of it as an attribute (x.name): a bare local of a method's name does
    not keep it, nor does a field of the same name read off another
    object.  Calls and reads are matched by name, whatever object they are
    made on, so a method called on another class that defines one of the
    same name still counts as reached."""
    read = set().union(*(names_read(t) for t in callers))
    attrs = set().union(*(attributes_read(t) for t in callers))
    calls = set().union(*(attributes_called(t) for t in callers))
    out = []
    for module, tree in trees.items():
        reached = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        reached[id(item)] = (attrs if _is_property(item)
                                             else calls)
        out += [(module, node.lineno, node.name) for node in ast.walk(tree)
                if isinstance(node, DEFINITIONS)
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))
                and node.name not in kept
                and node.name not in reached.get(id(node), read)]
    return sorted(out)


def stale_kept(trees: dict, callers: list, kept) -> list:
    """The names in kept that no module in trees defines, or that a tree
    in callers reads: entries with no reason left to be there."""
    defined = {node.name for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, DEFINITIONS)}
    read = set().union(*(names_read(t) for t in callers))
    return sorted(name for name in kept if name not in defined or name in read)


def slow_powers(tree: ast.Module):
    """(line, exponent) of every `x ** k` with k an int literal above 2."""
    return sorted((node.lineno, node.right.value) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Pow)
                  and isinstance(node.right, ast.Constant)
                  and type(node.right.value) is int
                  and node.right.value > 2)


PRIVATE_FRACTION_API = ("_numerator", "_denominator", "_from_coprime_ints",
                        "_normalize")


def private_fraction_api(tree: ast.Module):
    """(line, name) of every use of a private Fraction name: as an
    attribute, a keyword argument or a string (getattr and the like)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in PRIVATE_FRACTION_API:
            out.append((node.lineno, name))
    return sorted(out)


DICT_MUTATORS = ("update", "setdefault", "pop", "popitem", "clear",
                 "__setitem__", "__delitem__")


def _is_dict_view(node) -> bool:
    """node is x.__dict__ or vars(...)."""
    return ((isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"))


def dict_writes(tree: ast.Module):
    """(line, form) of every write through x.__dict__ or vars(...): an
    assignment to, augmented assignment to or del of it or of an item of
    it, or a call of one of its mutating methods; form is "__dict__" or
    "vars()"."""
    def form(node):
        return "__dict__" if isinstance(node, ast.Attribute) else "vars()"

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_MUTATORS
              and _is_dict_view(node.func.value)):
            out.append((node.lineno, form(node.func.value)))
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if _is_dict_view(target):
                out.append((node.lineno, form(target)))
    return sorted(out)


def numpy_fft_calls(tree: ast.Module):
    """(line, call) of every np.fft (or numpy.fft) call in the module."""
    return sorted(
        (node.lineno, _dotted(node.func)) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _dotted(node.func).split(".")[:2] in (["np", "fft"],
                                                  ["numpy", "fft"]))


ROW_TYPES = ("Trajectory", "PathStats")


def row_constructions(tree: ast.Module):
    """(line, name) of every Trajectory(...) or PathStats(...) call outside
    the method __getitem__ of the class Ensemble."""
    row_view = {id(node) for top in tree.body
                if isinstance(top, ast.ClassDef) and top.name == "Ensemble"
                for item in top.body
                if isinstance(item, ast.FunctionDef)
                and item.name == "__getitem__"
                for node in ast.walk(item)}
    return sorted((node.lineno, _dotted(node.func).split(".")[-1])
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in row_view
                  and _dotted(node.func).split(".")[-1] in ROW_TYPES)


def test_sources_found():
    assert len(SOURCES) >= 10
    assert len(HOT_PATH) == 2


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "x: Optional[int] = None\n")
    assert unused_imports(tree) == [(1, "os"), (2, "List")]


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    assert unread_private_names(trees) == []


def test_unread_private_name_is_reported():
    trees = {
        "a.py": ast.parse("_USED = 1\n_DEAD = 2\n__version__ = '1'\n"
                          "def _helper():\n    return _USED\n"
                          "class _Gone:\n    pass\n"
                          "_ANNOTATED: int = 3\n"),
        "b.py": ast.parse("from . import a\nx = a._helper()\n"
                          "y = _ANNOTATED\n"),
    }
    assert unread_private_names(trees) == [("a.py", 2, "_DEAD"),
                                           ("a.py", 6, "_Gone")]


def package_trees_and_callers():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    callers = [ast.parse(path.read_text(), filename=str(path))
               for path in caller_paths(ROOT)]
    return trees, callers


def test_every_function_is_referenced():
    trees, callers = package_trees_and_callers()
    assert unreferenced_definitions(trees, callers, KEPT_UNREACHED) == []


def test_kept_unreached_entries_are_live():
    trees, callers = package_trees_and_callers()
    assert stale_kept(trees, callers, KEPT_UNREACHED) == []


def test_unreferenced_function_is_reported():
    tree = ast.parse("def used():\n    pass\n"
                     "def dead():\n    pass\n"
                     "class C:\n"
                     "    def __init__(self):\n        pass\n"
                     "    @property\n    def size(self):\n        return 1\n"
                     "    def unread(self):\n        pass\n"
                     "class Gone:\n    pass\n"
                     "class D:\n    def local(self):\n        pass\n")
    # a bare local of a method's name does not keep the method
    caller = ast.parse("from a import used, C, D\nused()\nC().size\n"
                       "local = D()\nprint(local)\n")
    assert unreferenced_definitions({"a.py": tree}, [tree, caller]) == [
        ("a.py", 3, "dead"), ("a.py", 11, "unread"), ("a.py", 13, "Gone"),
        ("a.py", 16, "local")]


def test_method_read_only_as_a_field_is_reported():
    # a method escaped while any object had a field of its name: lhs
    # through a report row's lhs, modes through the noise spec's modes.  A
    # call keeps a method and a read keeps a property
    tree = ast.parse("from dataclasses import dataclass\n"
                     "class Term:\n"
                     "    def lhs(self, lo):\n        return lo\n"
                     "    def window_ok(self, lo):\n        return True\n"
                     "    @property\n    def ordered(self):\n"
                     "        return True\n"
                     "@dataclass(frozen=True)\n"
                     "class Row:\n    lhs: int\n"
                     "class Grid:\n"
                     "    def modes(self):\n        return 3\n"
                     "@dataclass(frozen=True)\n"
                     "class Noise:\n    modes: int = 21\n")
    caller = ast.parse("from a import Grid, Noise, Row, Term\n"
                       "row = Row(1)\nprint(f'{row.lhs:>10}')\n"
                       "t = Term()\nt.window_ok(0)\nprint(t.ordered)\n"
                       "width = 2 * Noise().modes + 1\nGrid()\n")
    assert unreferenced_definitions({"a.py": tree}, [tree, caller]) == [
        ("a.py", 3, "lhs"), ("a.py", 14, "modes")]


def test_test_only_reference_is_reported(tmp_path):
    # a name reached from tests/ alone is reported, also when an __all__
    # lists it; one reached from bench/ or kept by name is not
    files = {
        "src/pkg/a.py": ("__all__ = ['public', 'kept']\n"
                         "def public():\n    pass\n"
                         "def benched():\n    pass\n"
                         "def tested():\n    pass\n"
                         "class Probe:\n    pass\n"
                         "def kept():\n    pass\n"),
        "bench/b.py": "from pkg.a import benched\nbenched()\n",
        "tests/test_a.py": ("from pkg.a import public, tested, Probe\n"
                            "public()\ntested()\nProbe()\n"),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    paths = caller_paths(tmp_path)
    assert paths == [tmp_path / "bench/b.py", tmp_path / "src/pkg/a.py"]
    trees = {"a.py": ast.parse(files["src/pkg/a.py"])}
    callers = [ast.parse(path.read_text()) for path in paths]
    assert unreferenced_definitions(trees, callers, {"kept"}) == [
        ("a.py", 2, "public"), ("a.py", 6, "tested"), ("a.py", 8, "Probe")]


def test_stale_kept_entry_is_reported():
    # an entry is stale once nothing defines it or a caller reaches it
    tree = ast.parse("def kept():\n    pass\n"
                     "def reached():\n    pass\n"
                     "class Report:\n    pass\n")
    caller = ast.parse("from a import reached\nreached()\n")
    kept = {"kept", "reached", "Report", "gone"}
    assert stale_kept({"a.py": tree}, [tree, caller], kept) == [
        "gone", "reached"]
    assert unreferenced_definitions({"a.py": tree}, [tree, caller],
                                    kept) == []


@pytest.mark.parametrize("path", HOT_PATH, ids=lambda p: p.name)
def test_no_slow_powers_on_hot_path(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert slow_powers(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_fraction_api(tree) == []


def test_private_fraction_api_is_reported():
    tree = ast.parse("a = x.numerator * y.denominator\n"
                     "b = x._numerator\n"
                     "c = Fraction(1, 2, _normalize=False)\n"
                     "d = Fraction._from_coprime_ints(1, 2)\n"
                     "e = getattr(x, '_denominator')\n"
                     "f = '_numerators'\n")
    assert private_fraction_api(tree) == [
        (2, "_numerator"), (3, "_normalize"), (4, "_from_coprime_ints"),
        (5, "_denominator")]


def test_slow_power_is_reported():
    tree = ast.parse("a = y ** 2\nb = y ** 3\nc = y ** 2.5\n"
                     "d = y ** True\ne = (y ** 4) ** 0.5\nf = 2 ** k\n")
    assert slow_powers(tree) == [(2, 3), (5, 4)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dict_writes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dict_writes(tree) == []


def test_dict_write_is_reported():
    tree = ast.parse("a = self.__dict__['x']\n"
                     "self.__dict__['x'] = 1\n"
                     "vars(self)['y'] = 2\n"
                     "self.__dict__.update(z=3)\n"
                     "vars(obj).setdefault('w', 4)\n"
                     "del obj.__dict__['x']\n"
                     "obj.__dict__ = {}\n"
                     "obj.__dict__['n'] += 1\n"
                     "b = vars(obj).get('x')\n"
                     "object.__setattr__(self, 'x', 5)\n"
                     "d = {}\nd['x'] = 6\n")
    assert dict_writes(tree) == [
        (2, "__dict__"), (3, "vars()"), (4, "__dict__"), (5, "vars()"),
        (6, "__dict__"), (7, "__dict__"), (8, "__dict__")]


def test_no_numpy_fft_calls():
    calls = {path.name: numpy_fft_calls(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {name: c for name, c in calls.items() if c} == {}


def test_numpy_fft_call_is_reported():
    tree = ast.parse("import numpy as np\n"
                     "def norm(values):\n"
                     "    return np.fft.rfft(values) / 8\n"
                     "class Stepper:\n"
                     "    def step(self, x):\n"
                     "        return numpy.fft.irfft(x, n=8)\n")
    assert numpy_fft_calls(tree) == [(3, "np.fft.rfft"),
                                     (6, "numpy.fft.irfft")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_paths_are_built_only_by_the_record(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert row_constructions(tree) == []


def test_path_built_outside_the_record_is_reported():
    tree = ast.parse("class Ensemble:\n"
                     "    def __getitem__(self, p):\n"
                     "        return Trajectory(PathStats(p))\n"
                     "    def rows(self):\n"
                     "        return [Trajectory(p) for p in self]\n"
                     "def run(ens):\n"
                     "    s = sim.PathStats(*ens.stats[:, 0])\n"
                     "    return ens.Trajectory, s\n"
                     "class Other:\n"
                     "    def __getitem__(self, p):\n"
                     "        return Trajectory(p)\n")
    assert row_constructions(tree) == [
        (5, "Trajectory"), (7, "PathStats"), (11, "Trajectory")]
