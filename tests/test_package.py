import ast
import dataclasses
import inspect
import os
import subprocess
import sys
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


def _modules_after(code):
    """Names of the modules a fresh interpreter holds after running code."""
    src = Path(attopmm.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    return set(out.stdout.split())


def test_import_loads_no_numpy_polynomial():
    # start-up pays for no module that only the sphere quadrature needs
    def polynomial(modules):
        return {m for m in modules if m.startswith("numpy.polynomial")}
    assert polynomial(_modules_after("import numpy, attopmm.cli")) \
        == polynomial(_modules_after("import numpy"))


def test_only_replaceable_records_are_dataclasses():
    # a dataclass generates its methods at import; a record stays one only
    # where callers dataclasses.replace it
    found = {f"{module.__name__}.{cls.__name__}"
             for name, module in sys.modules.items() if name.startswith("attopmm.")
             for cls in vars(module).values()
             if isinstance(cls, type) and dataclasses.is_dataclass(cls)
             and cls.__module__ == module.__name__}
    assert found <= {"attopmm.model.GaussianPrimitive", "attopmm.model.VolumetricGrid",
                     "attopmm.model.MolecularOrbital", "attopmm.model.ProbePulse"}, found
