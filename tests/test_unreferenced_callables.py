"""Every function, method and class defined in ``src/`` is referenced
somewhere other than its own definition: by other code, a test, an
example, the benchmarks, perfbench or CI.

A reference is any whole-word occurrence of the name in those trees, so a
name that also appears in a docstring or a module path passes. Names
defined more than once are skipped, and so are the names the interpreter
or a dispatcher looks up by string: dunder methods, the server's ``_op_*``
handlers (``service/server.py``) and the campaign state's ``_apply_*``
reducers (``service/state.py``).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench", ".github")
DISPATCHED_BY_NAME = re.compile(r"^(_op_|_apply_)|^__\w+__$")
WORD = re.compile(r"\w+")


def _defined_names() -> Counter:
    names = Counter()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names[node.name] += 1
    return names


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
