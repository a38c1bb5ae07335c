"""Every check states its identities through series.same.

A verify_* function, sun_tuple_identity or a function nested in a suite_*
builder that returned a bare comparison or False would fail without
naming where its two sides differ, so none may.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vertexcalc"


def bare(expr) -> bool:
    """Whether a returned expression is a comparison or False, also under and/or/not/all."""
    if isinstance(expr, ast.Compare):
        return True
    if isinstance(expr, ast.Constant):
        return expr.value is False
    if isinstance(expr, ast.BoolOp):
        return any(bare(v) for v in expr.values)
    if isinstance(expr, ast.UnaryOp):
        return isinstance(expr.op, ast.Not)
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("all", "any") and expr.args
            and isinstance(expr.args[0], ast.GeneratorExp)):
        return bare(expr.args[0].elt)
    return False


def returned(fn):
    """The expressions fn returns, not looking into functions nested in it."""
    if isinstance(fn, ast.Lambda):
        return [fn.body]
    out, stack = [], list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return) and node.value is not None:
            out.append(node.value)
        elif not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def checks():
    """(name, function node) of every verify_* function and suite closure."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("verify_") or node.name == "sun_tuple_identity":
                yield f"{path.name}:{node.name}", node
            elif node.name.startswith("suite_"):
                for sub in ast.walk(node):
                    if sub is not node and isinstance(sub, (ast.FunctionDef, ast.Lambda)):
                        yield f"{path.name}:{node.name}:{sub.lineno}", sub


def test_guard_flags_bool_returns():
    flagged = ["a == b", "a != b", "False", "a == b and c == d", "not a",
               "all(f(x) == g(x) for x in xs)"]
    passed = ["same(a, b)", "True", "all(verify(x) for x in xs)", "f'note {ok}'"]
    assert all(bare(ast.parse(s, mode="eval").body) for s in flagged)
    assert not any(bare(ast.parse(s, mode="eval").body) for s in passed)


def test_checks_return_no_bare_comparison():
    found = dict(checks())
    assert sum(":verify_" in name for name in found) >= 30
    assert sum(":suite_" in name for name in found) >= 50
    offenders = [name for name, fn in found.items() if any(bare(e) for e in returned(fn))]
    assert offenders == []
