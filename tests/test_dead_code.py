"""Every function, method and class in ``src/convformer_sim`` has a use in ``src/``.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside its own body; package exports in
``__init__.py`` are imports, not uses. A method named like a class field or a
stored attribute (``unit.node``, ``self.error``) needs a call of its name
outside its body, since reading the field would otherwise count as its use;
properties are exempt, and so are overrides of a base class from outside the
package, which that class's own code calls. Of the functions that
``perfbench/tracer.py`` traces (``TRACED``), exactly the five in ``DEAD_TRACED``
have no use: the benchmark wraps them by name, so they stay until the tracer
follows today's code (ROADMAP item 2 deletes them). Any other traced function
that loses its last use fails here. The tracer module is loaded by path, as in
``test_perfbench_contract.py``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "convformer_sim"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
# the traced functions that nothing in src/ calls: ROADMAP item 2's deletion list
DEAD_TRACED = {("workload", "init_params"), ("layer_fusion", "best_group_choice"),
               ("layer_fusion", "group_buffer_bytes"), ("layer_fusion", "group_ema"),
               ("attention_tiling", "untiled_attention_execute")}


def _traced() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(m, f) for m, fns in module.TRACED.items() for f in fns}


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read or written in ``tree``."""
    return [(n.id, n.lineno) if isinstance(n, ast.Name) else (n.attr, n.lineno)
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def _calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every call of a name or an attribute in ``tree``."""
    return [(f.id, n.lineno) if isinstance(f, ast.Name) else (f.attr, n.lineno)
            for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(f := n.func, (ast.Name, ast.Attribute))]


def _fields_and_stored(trees: dict[str, ast.AST]) -> set[str]:
    """Names annotated in a class body (dataclass and named-tuple fields) or stored
    as an attribute anywhere in ``trees``."""
    names = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.ClassDef):
                names |= {s.target.id for s in n.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                names.add(n.attr)
    return names


def _needs_call(module: str, cls: ast.ClassDef, method: ast.FunctionDef,
                shadowed: set[str]) -> bool:
    """Whether ``method`` shares a name with a field or stored attribute and is
    neither a property nor an override of a base from outside the package."""
    if method.name not in shadowed or any(
            isinstance(d, ast.Name) and d.id == "property" for d in method.decorator_list):
        return False
    owner = getattr(importlib.import_module(f"convformer_sim.{module}"), cls.name)
    return not any(method.name in vars(base) for base in owner.__mro__[1:]
                   if not base.__module__.startswith("convformer_sim"))


def _unused() -> list[tuple[str, str, int]]:
    """(module, name, line) of every definition in src/ without a use there."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {module: _uses(tree) for module, tree in trees.items()}
    calls = {module: _calls(tree) for module, tree in trees.items()}
    shadowed = _fields_and_stored(trees)
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        methods = {id(m): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            cls = methods.get(id(node))
            found = calls if cls and _needs_call(module, cls, node, shadowed) else uses
            if not any(used == name and not (other == module and line in body)
                       for other, seen in found.items() for used, line in seen):
                unused.append((module, name, node.lineno))
    return unused


def test_every_definition_is_used_in_src():
    unused = [f"{m}.{n} (line {line})" for m, n, line in _unused() if (m, n) not in DEAD_TRACED]
    assert unused == [], f"defined but never used in src/: {unused}"


def test_the_traced_names_unused_in_src_are_the_dead_five():
    """A traced function that goes dead fails here, and one of the five that gains a use
    leaves ``DEAD_TRACED``; each of the five is still traced."""
    traced = _traced()
    assert DEAD_TRACED <= traced
    assert {(m, n) for m, n, _ in _unused() if (m, n) in traced} == DEAD_TRACED
