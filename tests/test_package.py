import ast
import inspect
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


def _references(node):
    """Every name that the code under node refers to: the ids of Name nodes
    and the attrs of Attribute nodes, f-string expressions included.
    Docstrings, comments and other prose name nothing."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(sources, exported):
    """module.name of every top-level function or class in sources
    ({module: text}) that is not exported and that no code in the sources
    refers to outside its own definition."""
    bodies = {module: ast.parse(text).body for module, text in sources.items()}
    refs = {(module, k): _references(node)
            for module, body in bodies.items() for k, node in enumerate(body)}
    found = []
    for module, body in bodies.items():
        for k, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in names for key, names in refs.items()
                       if key != (module, k)):
                found.append(f"{module}.{node.name}")
    return found


def test_every_definition_is_exported_or_used():
    # code that only tests reach belongs in the tests
    assert _unreached(SOURCES, attopmm.__all__) == []


def test_unused_definition_is_flagged():
    sources = dict(SOURCES)
    sources["momentum"] += "\n\n" + inspect.getsource(oracles.gaussian_ft)
    assert _unreached(sources, attopmm.__all__) == ["momentum.gaussian_ft"]
    # a name that only prose mentions is not a use
    sources["signal"] += ('\n\ndef _prose():\n    """Calls gaussian_ft."""\n'
                          '    # gaussian_ft\n    return "gaussian_ft"\n\n\n_prose()\n')
    assert _unreached(sources, attopmm.__all__) == ["momentum.gaussian_ft"]
    # an f-string expression is code
    sources["signal"] += '\n\nf"{gaussian_ft}"\n'
    assert _unreached(sources, attopmm.__all__) == []
