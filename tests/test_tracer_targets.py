"""The benchmark's tracer finds kakeya's layers by name.

``perfbench/tracing.py`` wraps each ``TARGETS`` row with ``getattr`` and
binds every call to the wrapped function's signature, so a renamed
function or parameter would break ``python3 perfbench/run.py --trace 1``
without any other test noticing.  These tests read the tracer's tables
and check them against kakeya.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py as a module; its dataclass looks the module up
    in ``sys.modules`` while it is built."""
    if "perfbench_tracing" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_tracing"]


def _target(module: str, attr: str, cls: str | None):
    """The function the tracer wraps: a module attribute, or an entry of
    the class's own ``__dict__``, unwrapped from a classmethod."""
    home = importlib.import_module(f"kakeya.{module}")
    if cls is None:
        return getattr(home, attr)
    raw = vars(getattr(home, cls))[attr]
    return getattr(raw, "__func__", raw)


def _argument_reads(node: ast.AST, arg: str) -> set[str]:
    """The string keys of every ``arg["key"]`` inside ``node``."""
    return {
        sub.slice.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == arg
        and isinstance(sub.slice, ast.Constant)
    }


def test_every_traced_target_resolves():
    tracing = _tracing()
    names = set()
    for module, attr, cls, _timed in tracing.TARGETS:
        assert callable(_target(module, attr, cls)), (module, attr, cls)
        names.add(f"{module}.{attr}")
    assert set(tracing.COUNTERS) | set(tracing.DEFERRED) | tracing.DISTINCT <= names


def test_every_counter_reads_parameters_of_its_target():
    """Each counter and deferred count reads its call's bound arguments by
    name; every name it reads is a parameter of the function it wraps."""
    tracing = _tracing()
    rows = {f"{m}.{a}": (m, a, c) for m, a, c, _ in tracing.TARGETS}
    tree = ast.parse(TRACING.read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    readers = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict):
            table = stmt.targets[0].id
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if table == "COUNTERS":
                    readers[key.value] = (value, value.args.args[0].arg)
                elif table == "DEFERRED":
                    fn = functions[value.id]
                    readers[key.value] = (fn, fn.args.args[0].arg)
    assert set(readers) == set(tracing.COUNTERS) | set(tracing.DEFERRED)
    for name, (node, arg) in readers.items():
        params = inspect.signature(_target(*rows[name])).parameters
        reads = _argument_reads(node, arg)
        assert reads and reads <= set(params), (name, reads - set(params))
