"""One double-range rule, checked on the source: only `specfun` decides that a
float leaves the double range (`exp_sum` and `ExactValue.to_float`), so every
other module reaches FloatOverflow and FloatUnderflow through it and never
catches a bare OverflowError of its own.  A float series is rounded once, so
it needs no overflow signal of its own either.  A charge anywhere in
[2^-1022, sys.float_info.max] is accepted, so only `states` forms the scales
(Z/eta)^alpha and (eta/2Z)^alpha, exactly or as logs with ln Z taken alone;
elsewhere Z is read only inside math.log, where no product of it can leave
the range first."""

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


def _is_math_log(node):
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "log" and _name(func.value) == "math"


def test_only_states_reads_the_charge_outside_a_log():
    """Outside `states`, `.Z` is read only as the sole argument of math.log,
    or, in `cli`, printed by fmt_float or taken from the parsed arguments
    for make_state.  `Z_exact`, the exact rational of the tabulated closed
    forms and the norms, is another attribute and stays."""
    found = []
    for path in _modules():
        if path.name == "states.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "Z"):
                continue
            call = parents[node]
            if isinstance(call, ast.Call) and call.args == [node] and not call.keywords:
                if _is_math_log(call) or (path.name == "cli.py" and _name(call) == "fmt_float"):
                    continue
            if path.name == "cli.py" and _name(node.value) == "args":
                continue
            found.append(f"{path.name}:{node.lineno} reads .Z outside math.log")
    assert found == []
