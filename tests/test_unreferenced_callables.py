"""No function, method or class defined in ``src/`` is dead code.

Two gates, both skipping the names the interpreter or a dispatcher looks
up by string: dunder methods, the server's ``_op_*`` handlers
(``service/server.py``) and the campaign state's ``_apply_*`` reducers
(``service/state.py``).

- ``test_every_src_callable_is_referenced`` counts words: the name must
  occur somewhere other than its own definition, in ``src/``, a test, an
  example, the benchmarks, perfbench or CI. A name that also appears in a
  docstring or a module path passes.
- ``test_no_src_callable_is_reached_only_from_tests`` reads the syntax
  tree: the name must be *used* by code that is not a test. A use is an
  ``ast.Name``, an ``ast.Attribute`` or an imported alias in a ``.py``
  file under ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``,
  or a word in ``.github/`` (CI's inline Python). Package ``__init__.py``
  files do not count, because a re-export is not a use; nor do
  docstrings, comments or ``__all__`` strings.

  A module-level function or class whose name is defined more than once
  in ``src/`` (a *twin*) needs a use resolved to its own module: a
  ``from M import name`` (following re-exports, such as a package
  ``__init__``'s), an ``alias.name`` with ``alias`` bound to module ``M``,
  or a bare ``name`` inside ``M``. A same-named identifier elsewhere is
  no use of it. Methods and nested functions with a twin name are
  skipped; CI's inline Python imports no twin.

The word gate skips every name defined more than once.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench", ".github")
CALLER_TREES = ("src", "examples", "benchmarks", "perfbench")
DISPATCHED_BY_NAME = re.compile(r"^(_op_|_apply_)|^__\w+__$")
WORD = re.compile(r"\w+")


def _src_definitions() -> dict[str, list[str]]:
    """Callable name -> the ``src/repro``-relative files defining it."""
    package = ROOT / "src" / "repro"
    where: dict[str, list[str]] = {}
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                where.setdefault(node.name, []).append(
                    path.relative_to(package).as_posix()
                )
    return where


def _defined_names() -> Counter:
    return Counter(
        {name: len(files) for name, files in _src_definitions().items()}
    )


def _word_counts(tree: str) -> Counter:
    words = Counter()
    for path in (ROOT / tree).rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            words.update(WORD.findall(path.read_text(errors="ignore")))
    return words


def test_every_src_callable_is_referenced():
    words = sum((_word_counts(tree) for tree in TREES), Counter())
    orphans = sorted(
        name
        for name, definitions in _defined_names().items()
        if definitions == 1
        and not DISPATCHED_BY_NAME.search(name)
        and words[name] == 1
    )
    assert not orphans, f"defined in src/ but referenced nowhere: {orphans}"


#: Modules of extended studies that EXPERIMENTS.md reports, or that stand in
#: for a production code named in DESIGN §1. Tests drive them; no entry point
#: needs to.
EXTENDED_STUDIES = (
    "analysis/batch_scaling.py",  # EXPERIMENTS: Empirical critical batch
    "network/pattern.py",  # EXPERIMENTS: Adaptive routing
    "network/routing.py",  # EXPERIMENTS: Adaptive routing
    "network/topology.py",  # EXPERIMENTS: Adaptive routing
    "network/placement.py",  # EXPERIMENTS: Placement
    "optim/lars.py",  # DESIGN §1: real large-batch optimizers
    "optim/lamb.py",  # DESIGN §1: real large-batch optimizers
    "optim/larc.py",  # DESIGN §1: real large-batch optimizers
    "optim/schedule.py",  # DESIGN §1: real large-batch optimizers
    "portfolio/trends.py",  # EXPERIMENTS: Adoption trend
    "science/potentials.py",  # DESIGN §1: learnable pair potentials
    "training/convergence.py",  # EXPERIMENTS: Ablations, optimizer choice
    "training/pipeline.py",  # EXPERIMENTS: Pipeline crossover
    "workflows/case_analysis.py",  # EXPERIMENTS: Analysis motif row
    "workflows/case_fault.py",  # EXPERIMENTS: Fault-detection motif row
    "workflows/case_nas.py",  # EXPERIMENTS: Classification motif row
)

#: Callables whose only non-test caller was itself removed as test-only.
#: Each is recorded in CHANGES.md for a decision: delete it, or give it a
#: caller. Either way it then leaves this list.
AWAITING_DECISION = ()


def _src_modules() -> dict[str, tuple[str, ast.Module]]:
    """Dotted module name -> (``src/repro``-relative file, syntax tree)."""
    package = ROOT / "src" / "repro"
    modules = {}
    for path in package.rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = (
            path.relative_to(package).as_posix(),
            ast.parse(path.read_text()),
        )
    return modules


def _resolver(modules):
    """The module-level definitions, and ``resolve(module, name)``: the
    ``(module, name)`` definition that ``from module import name`` binds,
    ``(submodule, None)`` for a submodule, or ``None`` outside ``src/``."""
    defined = {
        (module, node.name)
        for module, (_, tree) in modules.items()
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }
    imported = {
        (module, alias.asname or alias.name): (node.module, alias.name)
        for module, (_, tree) in modules.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }

    def resolve(module, name):
        seen = set()
        while (module, name) not in defined:
            if f"{module}.{name}" in modules:
                return f"{module}.{name}", None
            if (module, name) in seen or (module, name) not in imported:
                return None
            seen.add((module, name))
            module, name = imported[(module, name)]
        return module, name

    return defined, resolve


def _module_bound(expr, bound, modules):
    """The module an ``a.b.c`` expression names, or ``None``."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _module_bound(expr.value, bound, modules)
        if base is not None and f"{base}.{expr.attr}" in modules:
            return f"{base}.{expr.attr}"
    return None


def _resolved_uses(modules, resolve) -> set[tuple[str, str]]:
    """``(module, name)`` pairs that non-test code uses, resolved through
    imports, module aliases and the module's own bare names."""
    src = ROOT / "src"
    uses = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            syntax = ast.parse(path.read_text())
            own = None
            if tree == "src":
                own = ".".join(path.relative_to(src).with_suffix("").parts)
            bound = {}  # local name -> dotted module
            for node in ast.walk(syntax):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        top = alias.name.split(".")[0]
                        bound[alias.asname or top] = (
                            alias.name if alias.asname else top
                        )
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    for alias in node.names:
                        target = resolve(node.module, alias.name)
                        if target is None:
                            continue
                        if target[1] is None:
                            bound[alias.asname or alias.name] = target[0]
                        else:
                            uses.add(target)
            for node in ast.walk(syntax):
                if isinstance(node, ast.Attribute):
                    module = _module_bound(node.value, bound, modules)
                    target = module and resolve(module, node.attr)
                    if target and target[1] is not None:
                        uses.add(target)
                elif own and isinstance(node, ast.Name):
                    uses.add((own, node.id))
    return uses


def _unreached_twins() -> list[str]:
    """Module-level twins with no resolved non-test use."""
    modules = _src_modules()
    defined, resolve = _resolver(modules)
    twins = {
        name for name, files in _src_definitions().items() if len(files) > 1
    }
    uses = _resolved_uses(modules, resolve)
    return sorted(
        f"{modules[module][0]}:{name}"
        for module, name in defined
        if name in twins
        and not DISPATCHED_BY_NAME.search(name)
        and (module, name) not in uses
        and modules[module][0] not in EXTENDED_STUDIES
    )


def _non_test_uses() -> set[str]:
    uses = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    uses.add(node.id)
                elif isinstance(node, ast.Attribute):
                    uses.add(node.attr)
                elif isinstance(node, ast.alias):
                    uses.update(node.name.split("."))
    return uses | set(_word_counts(".github"))


def test_no_src_callable_is_reached_only_from_tests():
    package = ROOT / "src" / "repro"
    missing = [f for f in EXTENDED_STUDIES if not (package / f).is_file()]
    assert not missing, f"EXTENDED_STUDIES names missing files: {missing}"
    uses = _non_test_uses()
    flagged = sorted(
        f"{files[0]}:{name}"
        for name, files in _src_definitions().items()
        if len(files) == 1
        and not DISPATCHED_BY_NAME.search(name)
        and name not in uses
        and files[0] not in EXTENDED_STUDIES
    ) + _unreached_twins()
    unreached = [f for f in flagged if f not in AWAITING_DECISION]
    assert not unreached, f"defined in src/ but used only by tests: {unreached}"
    decided = [f for f in AWAITING_DECISION if f not in flagged]
    assert not decided, (
        f"no longer test-only, drop from AWAITING_DECISION: {decided}"
    )
