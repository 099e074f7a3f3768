"""Source-level rules for the library under src/."""

import ast
import io
import re
import tokenize
import types
from pathlib import Path

import cyclicdensity

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so an invariant must be guarded by a raise
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/: {found}"


def test_no_random_sampling_in_src():
    # every verdict is exact: a sampled check would bring randomness back
    pattern = re.compile(r"^\s*(import random\b|from random import)|\b(np|numpy)\.random\b|default_rng")
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found, f"random sampling in src/: {found}"


def test_verify_path_rebuilds_no_group():
    # quantities of Z(G) and G/Z are read off G's own arrays
    pattern = re.compile(r"\b(quotient_by_central|as_group|_build)\b")
    found = [
        f"{name}:{lineno}"
        for name in ("verify.py", "density.py")
        for lineno, line in enumerate(
            (SRC / "cyclicdensity" / name).read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found, f"group rebuilt on the verify path: {found}"


def _calls(tree, names):
    """The calls in a parsed module to a function or method of these names."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & names]


def test_verify_proves_the_center_once():
    # full_report proves Z(G) once and passes it to each check about it
    tree = ast.parse((SRC / "cyclicdensity" / "verify.py").read_text())
    report = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "full_report")
    assert len(_calls(tree, {"center"})) == len(_calls(report, {"center"})) == 1


def test_no_text_parse_through_fromstring():
    # np.fromstring ignores line breaks, reads a blank text as [0] and wraps
    # a token past its dtype, so a table file read through it needs checks
    # of its own before every call
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _calls(ast.parse(path.read_text(), filename=str(path)), {"fromstring"})
    ]
    assert not found, f"np.fromstring called in src/: {found}"


def test_no_subgroup_skips_its_proof():
    # a Subgroup made by __new__ skips the closure proof of its constructor
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert not found, f"__new__ used in src/: {found}"


def _outside(path, tree, name="_build"):
    """The nodes of a parsed module that lie outside the function groups.<name>."""
    inside = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (path.name, func.name) == ("groups.py", name)
        for node in ast.walk(func)
    }
    return (node for node in ast.walk(tree) if id(node) not in inside)


def test_only_build_constructs_a_group():
    # _build derives every group's inverses and orders from its table, which
    # the census reads; a group constructed elsewhere would lack them
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _outside(path, ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "FiniteGroup" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, f"FiniteGroup constructed outside groups._build: {found}"


def test_only_build_sets_the_table_orders():
    # the census, the structural count and direct_product trust _table_ord
    # without a check, so only _build, which derives it from the table or
    # takes it from a builder that knows it by construction, may write it
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _outside(path, ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_table_ord"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert not found, f"_table_ord written outside groups._build: {found}"


def test_only_blocks_reads_the_row_block():
    # every pass over rows takes its blocks from _blocks, which sizes them
    # by what a row costs, so no step loop of its own comes back
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _outside(path, ast.parse(path.read_text(), filename=str(path)), "_blocks")
        # a name, attribute or import of it; only its definition stores it
        if "_ROW_BLOCK" in (getattr(node, key, None) for key in ("id", "attr", "name"))
        and not isinstance(getattr(node, "ctx", None), ast.Store)
    ]
    assert not found, f"_ROW_BLOCK read outside groups._blocks: {found}"


def test_no_power_walk_in_src():
    # element orders have one route, the divisor descent; a table that is no
    # group is named by a row scan, not by walking its powers
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\b_power_walk\b", line)
    ]
    assert not found, f"power walk in src/: {found}"


def _runs_at_import(tree):
    """The nodes of a module that run when it is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_no_process_pool_import_at_module_level():
    # the pool's modules cost every command its import time; only a sweep
    # with parallelism > 1 imports them
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _runs_at_import(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("concurrent", "multiprocessing") for m in modules):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"process-pool imports at module level: {found}"


def test_cli_uses_json_only_through_dumps():
    # the traced benchmark replaces cli.json with an object that has only
    # dumps, so any other use of the module would fail under tracing
    tree = ast.parse((SRC / "cyclicdensity" / "cli.py").read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "json"
            and not (isinstance(parent[node], ast.Attribute) and parent[node].attr == "dumps"))
        or (isinstance(node, ast.ImportFrom) and node.module == "json")
    ]
    assert not found, f"json used other than as json.dumps in cli.py, lines {found}"


# Every public non-module name of the package.  Each export counts against a
# budget of about 30 names, so adding or removing one means editing this list.
PUBLIC_NAMES = {
    "AlphaReport", "GroupSpec", "Subgroup", "SweepConfig",
    "GroupError", "InvalidArgument", "NoIdentityAtZero", "NoInverse", "NotASubgroup",
    "NotAssociative", "NotClosed", "ParseError", "SizeLimitExceeded", "SpecSyntaxError",
    "alpha", "average_order", "build_group", "center", "cyclic_subgroups",
    "direct_product", "four_abelian_failure", "full_report",
    "load_table_with_report", "parse_group_spec", "run_sweep", "validate_table_with_report",
}


def _exports() -> set[str]:
    return {name for name, value in vars(cyclicdensity).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    found = _exports()
    assert sorted(found - PUBLIC_NAMES) == [], "new exports"
    assert sorted(PUBLIC_NAMES - found) == [], "exports removed"


def test_readme_library_names_are_exported():
    # a call that README's Library section names as `name(...)` must be
    # importable from the package itself
    readme = (SRC.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)\(", library))
    assert named, "no calls found in README's Library section"
    assert sorted(named - _exports()) == [], "README names calls the package does not export"


# Code lines in src/: a line counts when it holds a token other than a
# comment, a line break or an indent, outside the module, class and function
# docstrings.  Each simplicity change should lower it, so the ceiling is the
# count at the last one; adding code means editing this figure.
SRC_CODE_LINES = 1416
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_line_count_skips_layout_and_docstrings():
    text = ('"""Module\ndocstring."""\n\n# a comment\n'
            'def f(x):\n    """Doc."""\n    return (x +\n            1)  # trailing\n')
    assert _code_lines(text) == 3


def test_src_code_lines_within_budget():
    found = sum(_code_lines(path.read_text()) for path in sorted(SRC.rglob("*.py")))
    assert found <= SRC_CODE_LINES, f"src/ has {found} code lines, over {SRC_CODE_LINES}"
