"""The traced benchmark run wraps functions by module attribute.

``perfbench/tracer.py`` names the functions it traces (``TRACED``) and the
aliases callers import by name (``MUST_WRAP``). A refactor that renames,
moves or stops importing one of them makes the traced run fail to install;
these tests catch that in the unit suite. The tracer module is loaded by
path and ``install()`` is never called, because it patches modules for the
whole process.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TRACED = _tracer.TRACED
MUST_WRAP = _tracer.MUST_WRAP


def _module(short: str):
    return importlib.import_module(f"convformer_sim.{short}")


@pytest.mark.parametrize("name", [f"{m}.{f}" for m, fns in TRACED.items()
                                  for f in fns])
def test_traced_name_is_a_function_of_its_module(name):
    short, attr = name.split(".")
    fn = getattr(_module(short), attr, None)
    assert inspect.isfunction(fn), f"{name} is not a function attribute"
    assert fn.__module__ == f"convformer_sim.{short}", \
        f"{name} is defined in {fn.__module__}"


@pytest.mark.parametrize("alias", MUST_WRAP)
def test_must_wrap_alias_is_the_defining_function(alias):
    short, attr = alias.split(".")
    owner = next(m for m, fns in TRACED.items() if attr in fns)
    assert getattr(_module(short), attr, None) is getattr(_module(owner), attr)
