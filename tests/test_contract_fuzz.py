"""Contract fuzzer for the public entry points.  Whatever a caller passes:

- only a GroupError subclass escapes parse_group_spec, build_group (spec
  strings, and GroupSpecs holding NumPy integers, bools and other types),
  validate_table_with_report, Subgroup, load_table_with_report and
  direct_product;
- cli.main never returns 3, the internal-fault code, and returns 1 only
  with a counterexample on stderr (argparse's SystemExit counts as usage);
- a GroupSpec the catalog accepts builds the table its spec string builds;
- no RuntimeWarning is raised.

Every test runs from a fixed seed without the example database, so a run
is repeatable.  Groups stay under _MAX_SIZE ids, and the CLI under its
default cap, so no example allocates much.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from cyclicdensity import (
    GroupError,
    GroupSpec,
    Subgroup,
    build_group,
    cli,
    direct_product,
    load_table_with_report,
    parse_group_spec,
    validate_table_with_report,
)
from cyclicdensity.catalog import FAMILY_NAMES

_MAX_SIZE = 512
_SEED = 26

FUZZ = settings(max_examples=100, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@contextlib.contextmanager
def contract():
    """Swallow a GroupError; a RuntimeWarning, like any other exception,
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            yield
        except GroupError:
            pass


_INTS = st.one_of(st.integers(-3, 70),
                  st.sampled_from([2 ** 15, 2 ** 16, 65537, 2 ** 31, 2 ** 63, -2 ** 63, 10 ** 20]))
_NUMPY_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64)
_NUMPY_INTS = st.sampled_from(_NUMPY_TYPES).flatmap(
    lambda t: st.integers(max(-3, int(np.iinfo(t).min)), min(200, int(np.iinfo(t).max))).map(t))
_SMALL_SPECS = st.sampled_from(["cyclic:1", "cyclic:6", "abelian:2,2", "dihedral:8",
                                "quaternion:8", "symmetric:3", "extraspecial:8:-",
                                "heisenberg:3"])
_VALUES = st.one_of(
    _INTS, _NUMPY_INTS, st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["+", "-", "x", "4", ""]),
    _SMALL_SPECS.map(parse_group_spec), st.none(),
)
_PARAMS = st.one_of(st.lists(_VALUES, max_size=3).map(tuple), _VALUES)
_GROUP_SPECS = st.builds(GroupSpec, st.sampled_from([*FAMILY_NAMES, "torus"]), _PARAMS)
_SPEC_TEXT = st.one_of(
    _SMALL_SPECS,
    st.tuples(st.sampled_from([*FAMILY_NAMES, "torus", ""]),
              st.text("0123456789,:+-()x ", max_size=12)).map(":".join),
    st.text(max_size=16),
)


def _twin_builds(spec: GroupSpec) -> None:
    try:
        g = build_group(spec, max_size=_MAX_SIZE)
    except GroupError:
        return
    # the label is the canonical spec string, with the parameters as Python ints
    assert np.array_equal(build_group(g.label, max_size=_MAX_SIZE).table, g.table), spec


@seed(_SEED)
@FUZZ
@given(_GROUP_SPECS)
def test_a_hand_built_spec_raises_a_group_error_or_builds_its_strings_group(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _twin_builds(spec)


@seed(_SEED)
@FUZZ
@given(_SPEC_TEXT)
def test_a_spec_string_parses_and_builds_or_raises_a_group_error(text):
    with contract():
        spec = parse_group_spec(text)
        assert build_group(spec.canonical(), max_size=_MAX_SIZE).label == spec.canonical()


_ENTRIES = st.one_of(st.integers(-2, 9), st.booleans(), st.floats(-1, 9), _NUMPY_INTS,
                     st.sampled_from(["1", None, 2 ** 70]))


@st.composite
def _tables(draw):
    """A small group's table, with some entries swapped for other values or
    a 0 or 1 for the bool of equal value, or a square or ragged list of
    anything."""
    if draw(st.booleans()):
        rows = build_group(draw(_SMALL_SPECS)).table.tolist()
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                row[draw(st.integers(0, len(row) - 1))] = draw(_ENTRIES)
            elif (v := draw(st.sampled_from([0, 1]))) in row:
                row[row.index(v)] = draw(st.sampled_from([bool, np.bool_]))(v)
        return rows if draw(st.booleans()) else np.array(rows, dtype=object)
    n = draw(st.integers(0, 4))
    return [draw(st.lists(_ENTRIES, min_size=n - 1, max_size=n + 1)) for _ in range(n)]


@seed(_SEED)
@FUZZ
@given(_tables())
def test_a_table_validates_only_when_every_entry_is_an_integer(raw):
    with contract():
        g, _ = validate_table_with_report(raw, max_size=_MAX_SIZE)
        assert g.n == len(raw)
        assert all(isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
                   for row in raw for v in row)


_SUBGROUP_OF = build_group("dihedral:8")


@seed(_SEED)
@FUZZ
@given(st.one_of(st.lists(_ENTRIES, max_size=9),
                 st.lists(st.booleans(), max_size=10).map(lambda m: np.array(m, dtype=bool))))
def test_subgroup_members_raise_only_group_errors(members):
    with contract():
        Subgroup(_SUBGROUP_OF, members)


@seed(_SEED)
@FUZZ
@given(st.one_of(
    st.binary(max_size=48),
    st.lists(st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x", "007", " ", "\t", "\r"]),
                      max_size=5).map(" ".join), max_size=6).map("\n".join).map(str.encode),
))
def test_a_table_file_loads_or_raises_a_group_error(tmp_path, data):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with contract():
        load_table_with_report(path, max_size=_MAX_SIZE)


@seed(_SEED)
@FUZZ
@given(_SMALL_SPECS, _SMALL_SPECS, st.one_of(st.none(), st.integers(-2, 100)))
def test_direct_products_raise_only_group_errors(left, right, max_size):
    with contract():
        direct_product(build_group(left), build_group(right), max_size=max_size)


_ARGV = st.one_of(
    st.tuples(st.sampled_from(["alpha", "verify"]), st.just("--group"), _SPEC_TEXT,
              st.sampled_from([(), ("--json",), ("--csv",)])).map(lambda a: [*a[:3], *a[3]]),
    st.tuples(st.integers(-2, 12), st.sampled_from(["cyclic", "dihedral,heisenberg", "torus", ""]),
              st.sampled_from([(), ("--json",), ("--csv",), ("--fail-fast",)])).map(
        lambda a: ["sweep", "--max-order", str(a[0]), "--families", a[1], *a[2]]),
    st.tuples(st.sampled_from(["import", "verify"]), st.sampled_from(["t.txt", "missing.txt"]),
              st.binary(max_size=32)),
    st.lists(st.sampled_from(["sweep", "verify", "--group", "cyclic:4", "--json", "-h", "x"]),
             max_size=4),
)


@seed(_SEED)
@settings(FUZZ, max_examples=60)  # the slowest: each example is a whole CLI call
@given(_ARGV)
def test_the_cli_exits_0_1_or_2_and_1_only_with_a_counterexample(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if isinstance(argv, tuple):  # a table file, read by import or verify
        command, name, data = argv
        (tmp_path / "t.txt").write_bytes(data)
        argv = [command, "--table", name] if command == "import" else \
            [command, "--group", f"table:{name}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = cli.EXIT_USAGE if exc.code else cli.EXIT_OK
    assert code in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE, cli.EXIT_USAGE), err.getvalue()
    assert code != cli.EXIT_COUNTEREXAMPLE or "counterexample: " in err.getvalue()
