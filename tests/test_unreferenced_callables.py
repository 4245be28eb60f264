"""No function, method or class defined in ``src/`` is dead code.

Two gates, both skipping names defined more than once and the names the
interpreter or a dispatcher looks up by string: dunder methods, the
server's ``_op_*`` handlers (``service/server.py``) and the campaign
state's ``_apply_*`` reducers (``service/state.py``).

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
    )
    unreached = [f for f in flagged if f not in AWAITING_DECISION]
    assert not unreached, f"defined in src/ but used only by tests: {unreached}"
    decided = [f for f in AWAITING_DECISION if f not in flagged]
    assert not decided, (
        f"no longer test-only, drop from AWAITING_DECISION: {decided}"
    )
