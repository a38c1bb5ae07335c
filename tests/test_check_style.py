"""Every check states its identities through series.same.

A verify_* function, sun_tuple_identity or a function nested in a suite_*
builder that returned a bare comparison or False would fail without
naming where its two sides differ, so none may.  Every memo table is a
module-level dict named *_CACHE, the suffix by which the mutation tests
clear them, and every memoized function is called with positional
arguments only.
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


def test_only_the_edges_call_normalize():
    # partitions arrive canonical from the sweeps and from cli.partition_arg,
    # so no layer between them re-checks its arguments
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("partitions.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "normalize":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def module_dicts(tree) -> set:
    """Names bound to a dict display at the top level of a module."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            continue
        if isinstance(value, ast.Dict):
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def memo_decorators(tree):
    """(function node, decorator node) of every @memo(...) function in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
                        and dec.func.id == "memo"):
                    yield node, dec


def test_memo_tables_are_module_dicts_named_cache():
    # tests/test_mutation.py empties every *_CACHE dict between mutants, so
    # a table by another name would carry a mutant's values into the next test
    tables, offenders = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        dicts = module_dicts(tree)
        for node, dec in memo_decorators(tree):
            tables += 1
            arg = dec.args[0] if len(dec.args) == 1 and not dec.keywords else None
            name = arg.id if isinstance(arg, ast.Name) else None
            if not (name and name.endswith("_CACHE") and name in dicts):
                offenders.append(f"{path.name}:{node.name}")
    assert tables >= 20
    assert offenders == []


def test_every_cache_dict_is_the_table_of_one_memo_function():
    # series.memo is the one code that fills a table and reads CACHE_LIMIT,
    # so no *_CACHE dict is filled by hand or shared by two functions
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        users: dict = {}
        for node, dec in memo_decorators(tree):
            for arg in dec.args:
                if isinstance(arg, ast.Name):
                    users.setdefault(arg.id, []).append(node.name)
        for name in sorted(module_dicts(tree)):
            if name.endswith("_CACHE") and len(users.get(name, [])) != 1:
                offenders.append(f"{path.name}:{name}")
    assert offenders == []


def test_memo_functions_are_called_with_positional_arguments_only():
    # series.memo's wrapper takes *args alone, so one_minus_qq(m, shift=s)
    # would raise TypeError; a defaulted argument is passed positionally
    memoized = {node.name for path in sorted(SRC.glob("*.py"))
                for node, _ in memo_decorators(ast.parse(path.read_text()))}
    assert {"one_minus_qq", "sinh_factor", "skew_schur_poly", "_cauchy_kernel"} <= memoized
    offenders = []
    for path in sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and node.keywords:
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in memoized:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def summed_key(node) -> bool:
    """Whether node is tuple(a + b for a, b in zip(...)), two keys added."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and len(node.args) == 1
            and isinstance(node.args[0], ast.GeneratorExp)
            and isinstance(node.args[0].elt, ast.BinOp)
            and isinstance(node.args[0].elt.op, ast.Add))


def zips_dims(node) -> bool:
    """Whether node is a zip(...) call with dims or an attribute .dims among its arguments."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "zip"
            and any((isinstance(a, ast.Name) and a.id == "dims")
                    or (isinstance(a, ast.Attribute) and a.attr == "dims") for a in node.args))


def test_one_loop_enumerates_in_box_key_pairs():
    # series._room is the one place that adds two keys and bounds the sum
    # by the box, so a box-bounded enumeration changes in one place
    tree = ast.parse((SRC / "series.py").read_text())
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            if any(map(summed_key, nodes)) and any(map(zips_dims, nodes)):
                found.add(fn.name)
    assert found == {"_room"}


def functions(tree, prefix=""):
    """(qualified name, node) of the functions and methods at the top of tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def names(node) -> set:
    """The names node reads, as bare names or as attributes."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_the_packed_comparison_packs_t_alone_for_products_only():
    # series._cross_equal packs polynomials in t alone, so it serves
    # Product's == and nothing else (fraction == cross-multiplies), and
    # neither it nor _packing reads the digits of a multi-axis key
    users, axes = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, fn in functions(ast.parse(path.read_text())):
            if name != "_cross_equal" and "_cross_equal" in names(fn):
                users.append(f"{path.name}:{name}")
            if path.name == "series.py" and name in ("_packing", "_cross_equal"):
                axes += sorted(names(fn) & {"_digits", "unpack", "DIGIT_BITS"})
    assert users == ["series.py:Product.__eq__"]
    assert axes == []
