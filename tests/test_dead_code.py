"""Every function, method and class in ``src/convformer_sim`` has a use in ``src/``.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside its own body; package exports in
``__init__.py`` are imports, not uses. The functions that
``perfbench/tracer.py`` traces (``TRACED``) are allowed without a use, since
the benchmark wraps them by name. The tracer module is loaded by path, as in
``test_perfbench_contract.py``.
"""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "convformer_sim"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _traced() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(m, f) for m, fns in module.TRACED.items() for f in fns}


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read or written in ``tree``."""
    return [(n.id, n.lineno) if isinstance(n, ast.Name) else (n.attr, n.lineno)
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_definition_is_used_in_src():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {module: _uses(tree) for module, tree in trees.items()}
    traced, unused = _traced(), []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or (module, name) in traced:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and not (other == module and line in body)
                       for other, found in uses.items() for used, line in found):
                unused.append(f"{module}.{name} (line {node.lineno})")
    assert unused == [], f"defined but never used in src/: {unused}"
