"""Every top-level function and class in ``src/repro`` is reached from an
entry point, or is on an allowlist that says why it is kept.

The check is a name closure over the stdlib ``ast``. Its roots are:

- the CLI, ``src/repro/__main__.py``;
- the module-level statements of every ``src/repro`` module (registries,
  defaults, decorators of top-level defs), but not imports, ``__all__``
  or docstrings;
- every file in ``perfbench/``, ``benchmarks/`` and ``examples/``.

From the roots it follows ``Name`` ids, ``Attribute`` attrs and the
identifiers inside string constants that are not docstrings (so a
registry that names a function in a string reaches it) through the
bodies of top-level ``def``/``class`` statements. It also checks the
methods of every class: a reached class reaches its bases, decorators,
class-level statements and dunder methods, and each other method is
reached only when some reached code names it. It matches names, not
bindings, so it errs toward "reached". Tests are not roots: code that
only tests call belongs in ``tests/``.

The blind spot of a name closure: any same-named name reaches a def.
``np.histogram`` keeps a ``histogram`` chart "reached", and
``svc.drain()`` keeps an inbox's ``drain``, though neither call can bind
to it. Likewise an option counts as used when any code names it, even if
no caller ever sets it. Passing here does not prove a def runs; a traced
run of every entry point (``sys.settrace`` recording each code object
entered) finds the defs that are only name twins.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Mapping

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
ENTRY_DIRS = ("perfbench", "benchmarks", "examples")

POISSON_BINOMIAL = ("Poisson-binomial helper of the exact stationary CVR, kept for the "
                    "planned exact check of every Eq. (17) placer (ROADMAP.md)")

ALLOWLIST = {
    "repro.perf.__getattr__": "PEP 562 hook: Python calls it for repro.perf's lazy names",
    "repro.core.heterogeneous.poisson_binomial_pmf": POISSON_BINOMIAL,
    "repro.core.heterogeneous.stationary_on_probabilities": POISSON_BINOMIAL,
    "repro.core.heterogeneous.heterogeneous_blocks": POISSON_BINOMIAL,
    "repro.core.heterogeneous._solve_blocks": POISSON_BINOMIAL,
    "repro.core.heterogeneous.heterogeneous_cvr": POISSON_BINOMIAL,
    "repro.core.quantile.quantile_cvr": POISSON_BINOMIAL,
    "repro.core.quantile.spike_sum_distribution": POISSON_BINOMIAL,
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPES = (ast.Module, *_DEFS)


def _docstrings(tree: ast.AST) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                ids.add(id(first.value))
    return ids


def _names(nodes: Iterable[ast.AST], docstrings: set[int]) -> set[str]:
    """Identifiers that ``nodes`` name: ids, attrs and words of strings."""
    found: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                found.update(_IDENT.findall(node.value))
    return found


def _is_module_root(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom, *_DEFS)):
        return False
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return False  # the module docstring and bare constants
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
               else [])
    return not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _class_parts(cls: ast.ClassDef) -> tuple[list[ast.AST], list[ast.AST]]:
    """What reaching ``cls`` reaches, and its other methods."""
    methods = [stmt for stmt in cls.body if isinstance(stmt, _DEFS[:2])
               and not _is_dunder(stmt.name)]
    rest = [stmt for stmt in cls.body if stmt not in methods]
    return [*cls.bases, *cls.keywords, *cls.decorator_list, *rest], methods


def unreached(src_root: Path, extra_roots: Iterable[Path]) -> dict[str, tuple[Path, int, int]]:
    """Top-level defs under ``src_root`` that no root reaches, and the
    methods of reached classes that none reaches.

    Keys are ``package.module.name`` or ``package.module.Class.method``;
    values are ``(file, first line, last line)``. ``src_root /
    "__main__.py"`` and every ``.py`` file under ``extra_roots`` are roots
    as a whole.
    """
    defs: dict[str, list[tuple[str, ast.AST, set[int], Path]]] = {}
    frontier: set[str] = set()
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = _docstrings(tree)
        if path == src_root / "__main__.py":
            frontier |= _names([tree], docstrings)
            continue
        parts = path.relative_to(src_root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                frontier |= _names(stmt.decorator_list, docstrings)
                defs.setdefault(stmt.name, []).append((module, stmt, docstrings, path))
            elif _is_module_root(stmt):
                frontier |= _names([stmt], docstrings)
    for root in extra_roots:
        for path in sorted(Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            frontier |= _names([tree], _docstrings(tree))

    methods: dict[str, list[tuple[str, ast.AST, set[int], Path]]] = {}
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for module, stmt, docstrings, path in defs.get(name, ()):
            if not isinstance(stmt, ast.ClassDef):
                frontier |= _names([stmt], docstrings) - reached
                continue
            body, own = _class_parts(stmt)
            frontier |= _names(body, docstrings) - reached
            for method in own:
                entry = (f"{module}.{stmt.name}", method, docstrings, path)
                methods.setdefault(method.name, []).append(entry)
                if method.name in reached:
                    frontier |= _names([method], docstrings) - reached
        for _, method, docstrings, _ in methods.get(name, ()):
            frontier |= _names([method], docstrings) - reached
    found = {f"{module}.{name}": (path, stmt.lineno, stmt.end_lineno)
             for name, entries in defs.items() if name not in reached
             for module, stmt, _, path in entries}
    found.update({f"{owner}.{name}": (path, stmt.lineno, stmt.end_lineno)
                  for name, entries in methods.items() if name not in reached
                  for owner, stmt, _, path in entries})
    return found


def check_reachability(src_root: Path, extra_roots: Iterable[Path],
                       allowlist: Mapping[str, str]) -> list[str]:
    """Problems with ``src_root``'s reachability; empty when it is clean.

    Every unreached def must be allowlisted with a reason, and every
    allowlist entry must name a def that exists and is unreached.
    """
    found = unreached(src_root, extra_roots)
    problems = [f"{name} ({path}:{first}, {last - first + 1} lines) is reached by no "
                "entry point: delete it, move it into tests/, or allowlist it with a reason"
                for name, (path, first, last) in sorted(found.items())
                if name not in allowlist]
    problems += [f"allowlist entry {name} is reached or no longer exists"
                 for name in sorted(allowlist) if name not in found]
    problems += [f"allowlist entry {name} gives no reason"
                 for name, reason in sorted(allowlist.items()) if not reason.strip()]
    return problems


def test_every_src_def_is_reached_or_allowlisted():
    problems = check_reachability(SRC, [REPO / d for d in ENTRY_DIRS], ALLOWLIST)
    assert not problems, "\n".join(problems)


class TestChecker:
    """The closure on a planted tree, so a checker that finds nothing fails."""

    def _tree(self, tmp_path: Path, module: str) -> tuple[Path, Path]:
        src = tmp_path / "src" / "pkg"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text('"""Package."""\nfrom pkg.mod import used\n'
                                         '__all__ = ["used", "orphan"]\n')
        (src / "__main__.py").write_text("from pkg.mod import used\nused()\n")
        (src / "mod.py").write_text(module)
        extra = tmp_path / "examples"
        extra.mkdir()
        (extra / "demo.py").write_text("import pkg\npkg.example_only()\n")
        return src, extra

    def test_planted_unreached_def_is_reported(self, tmp_path):
        src, extra = self._tree(tmp_path, (
            '"""orphan is named here only."""\n'
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def example_only():\n    return 2\n\n"
            "def orphan():\n    '''Not used by used().'''\n    return 3\n"))
        assert set(unreached(src, [extra])) == {"pkg.mod.orphan"}
        problems = check_reachability(src, [extra], {})
        assert len(problems) == 1 and "pkg.mod.orphan" in problems[0]
        assert check_reachability(src, [extra], {"pkg.mod.orphan": "kept for a test"}) == []

    def test_def_named_only_in_a_registry_string_is_reached(self, tmp_path):
        src, extra = self._tree(tmp_path, (
            "REGISTRY = {'x': 'pkg.mod:by_string'}\n\n"
            "def used():\n    return REGISTRY\n\n"
            "def example_only():\n    return 2\n\n"
            "def by_string():\n    return 3\n"))
        assert unreached(src, [extra]) == {}
        assert check_reachability(src, [extra], {}) == []

    def test_stale_allowlist_entry_fails(self, tmp_path):
        src, extra = self._tree(tmp_path, (
            "def used():\n    return 1\n\n"
            "def example_only():\n    return 2\n"))
        reached = check_reachability(src, [extra], {"pkg.mod.used": "was unreached"})
        assert reached == ["allowlist entry pkg.mod.used is reached or no longer exists"]
        gone = check_reachability(src, [extra], {"pkg.mod.deleted": "was unreached"})
        assert gone == ["allowlist entry pkg.mod.deleted is reached or no longer exists"]

    def test_planted_unreached_method_is_reported(self, tmp_path):
        src, extra = self._tree(tmp_path, (
            "class Used:\n"
            "    '''orphan is named here only.'''\n"
            "    def __init__(self):\n        self.x = helper()\n\n"
            "    def called(self):\n        return 1\n\n"
            "    def orphan(self):\n        return only_from_orphan()\n\n"
            "def helper():\n    return 0\n\n"
            "def only_from_orphan():\n    return 3\n\n"
            "def used():\n    return Used().called()\n\n"
            "def example_only():\n    return 2\n"))
        # a reached class does not reach every method: the orphan and what
        # only it calls are found, with no package named
        assert set(unreached(src, [extra])) == {
            "pkg.mod.Used.orphan", "pkg.mod.only_from_orphan"}
        problems = check_reachability(src, [extra], {})
        assert len(problems) == 2 and "pkg.mod.Used.orphan" in problems[0]
        assert check_reachability(src, [extra], {
            "pkg.mod.Used.orphan": "kept for a test",
            "pkg.mod.only_from_orphan": "kept for a test"}) == []
