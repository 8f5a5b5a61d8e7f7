"""Every function, method and class in the package is named somewhere else.

A static check that keeps dead code from coming back.  Each definition
under ``src/repro`` must be named outside its own ``def``/``class``
line: as an identifier, an attribute, an import alias, a keyword
argument or a string constant anywhere in ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/`` or ``examples/``, as a whole word in a
CI workflow, or as a whole word inside the code of README.md, DESIGN.md
or EXPERIMENTS.md (inline backquoted spans and fenced blocks; their
prose does not count, or every definition named like an ordinary
English word would pass).  Dunders are exempt (the language calls
them), and so is :data:`ALLOWLIST`, each entry with its reason.

The check matches names, not bindings: a method that shares its name
with a referenced method elsewhere (say, an unused ``summary`` on one
class while another class's ``summary`` is called) is not caught.  It
is static because a call census under a trace hook takes more than
twice as long as the whole tier-1 suite and misses forked pool workers.

This file itself is not scanned, so the allowlist does not reference
the names it lists.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: definitions no caller names yet, each with the reason it stays
ALLOWLIST = {
    "dirty_fractions": "ROADMAP item 2 deletes it with the reuse cache",
}


def _definitions_and_references() -> tuple[dict[str, list[str]], set[str]]:
    defs: dict[str, list[str]] = {}
    refs: set[str] = set()
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue  # the allowlist's own strings name nothing
            tree = ast.parse(path.read_bytes(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if top == "src":
                        where = f"{path.relative_to(ROOT)}:{node.lineno}"
                        defs.setdefault(node.name, []).append(where)
                elif isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.keyword) and node.arg:
                    refs.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.add(node.value)
    return defs, refs


#: a fenced block, or an inline backquoted span within one line
_DOC_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


def _doc_words() -> set[str]:
    code = [m for name in DOCS
            for m in _DOC_CODE.findall((ROOT / name).read_text())]
    code += [p.read_text()
             for p in sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    return {w for text in code for w in re.findall(r"\w+", text)}


@functools.cache
def _unreferenced() -> dict[str, list[str]]:
    defs, refs = _definitions_and_references()
    words = _doc_words()
    return {
        name: where for name, where in sorted(defs.items())
        if not (name.startswith("__") and name.endswith("__"))
        and name not in refs and name not in words
    }


def test_every_definition_is_named_elsewhere():
    dead = {n: w for n, w in _unreferenced().items() if n not in ALLOWLIST}
    assert not dead, (
        "defined under src/repro but named nowhere else (delete it, or "
        f"add it to ALLOWLIST with a reason): {dead}"
    )


def test_allowlist_holds_only_unreferenced_names():
    unreferenced = _unreferenced()
    stale = [name for name in ALLOWLIST if name not in unreferenced]
    assert not stale, (
        f"ALLOWLIST entries now named elsewhere or no longer defined: {stale}"
    )
