"""One double-range rule, checked on the source: only `specfun` decides that a
float leaves the double range (`exp_sum` and `ExactValue.to_float`), so every
other module reaches FloatOverflow and FloatUnderflow through it and never
catches a bare OverflowError of its own.  A float series is rounded once, so
it needs no overflow signal of its own either."""

import ast
from pathlib import Path

import hydromoments

SRC = Path(hydromoments.__file__).parent
RANGE_ERRORS = {"FloatOverflow", "FloatUnderflow"}


def _name(node):
    """The bare name of a Name, an Attribute or a call of either, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _caught(handler):
    """The names an except clause catches."""
    if handler.type is None:
        return set()
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {_name(n) for n in nodes}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {p.name for p in paths} >= {"specfun.py", "momom.py", "posmom.py", "oracle.py"}
    return paths


def test_only_specfun_raises_range_errors_or_catches_overflow():
    found = []
    for path in _modules():
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and _name(node.exc) in RANGE_ERRORS:
                found.append(f"{path.name}:{node.lineno} raises {_name(node.exc)}")
            if isinstance(node, ast.ExceptHandler) and "OverflowError" in _caught(node):
                found.append(f"{path.name}:{node.lineno} catches OverflowError")
    assert found == []


def test_no_cancellation_overflow_signal():
    assert [p.name for p in _modules() if "CancellationOverflow" in p.read_text()] == []
