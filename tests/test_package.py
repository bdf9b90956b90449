import ast
import inspect
import re
from pathlib import Path

import attopmm

import oracles

SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(Path(attopmm.__file__).parent.glob("*.py"))}


def test_every_public_name_resolves():
    assert len(set(attopmm.__all__)) == len(attopmm.__all__)
    missing = [name for name in attopmm.__all__ if not hasattr(attopmm, name)]
    assert not missing, missing
    namespace = {}
    exec("from attopmm import *", namespace)
    assert set(attopmm.__all__) <= set(namespace)


def _unreached(sources, exported):
    """module.name of every top-level function or class in sources
    ({module: text}) that is not exported and whose name appears nowhere in
    the sources outside its own definition."""
    found = []
    for module, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            rest = [t for m, t in sources.items() if m != module]
            rest.append("\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:]))
            if not any(re.search(rf"\b{node.name}\b", t) for t in rest):
                found.append(f"{module}.{node.name}")
    return found


def test_every_definition_is_exported_or_used():
    # code that only tests reach belongs in the tests
    assert _unreached(SOURCES, attopmm.__all__) == []


def test_unused_definition_is_flagged():
    sources = dict(SOURCES)
    sources["momentum"] += "\n\n" + inspect.getsource(oracles.gaussian_ft)
    assert _unreached(sources, attopmm.__all__) == ["momentum.gaussian_ft"]
