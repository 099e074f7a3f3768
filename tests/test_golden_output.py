"""Golden output: the sha256 of stdout, and the exit code, of fixed CLI calls.

The digests in golden_output.json pin every output byte of `alpha` (text
and JSON), `verify` (text, JSON and CSV) on a fixed group panel, and
`sweep --max-order 64` in all three formats, and `import` and
`verify --group table:...` on three table files the test writes under
relative paths (so their labels are stable).  One more digest per catalog
family pins the Cayley table and the element orders of every default-sweep
group (order <= 256), so the ids that witnesses quote cannot drift either.
A refactor that changes no behaviour leaves them all equal.  When output is meant to change,
re-record with

    PYTHONPATH=src python tests/test_golden_output.py
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cyclicdensity import SweepConfig, build_group, cli
from cyclicdensity.sweep import corpus_specs

GOLDEN = Path(__file__).resolve().parent / "golden_output.json"

# An equality case (almost-extraspecial:16, extraspecial:32:+, abelian),
# trivial centers (symmetric:3..5), odd order (heisenberg), products.
PANEL = (
    "cyclic:12",
    "abelian:2,4",
    "dihedral:8",
    "dihedral:24",
    "quaternion:8",
    "quaternion:32",
    "symmetric:3",
    "symmetric:4",
    "symmetric:5",
    "almost-extraspecial:16",
    "extraspecial:32:+",
    "heisenberg:3",
    "heisenberg:5",
    "product:(dihedral:8)x(cyclic:3)",
    "product:(quaternion:8)x(heisenberg:3)",
)

CALLS = (
    [["alpha", "--group", spec, *fmt] for spec in PANEL for fmt in ([], ["--json"])]
    + [["verify", "--group", spec, *fmt]
       for spec in PANEL for fmt in ([], ["--json"], ["--csv"])]
    + [["sweep", "--max-order", "64", *fmt] for fmt in ([], ["--json"], ["--csv"])]
)

# dihedral:8 relabeled by old -> _PERM[old], so the identity sits at id 3
_PERM = (3, 0, 5, 1, 7, 2, 6, 4)


def _table_files():
    """{relative name: text} of the imported fixtures: the relabeled table,
    the same table with blank lines, and a copy with one product changed."""
    d8 = build_group("dihedral:8").table.tolist()
    table = [[0] * 8 for _ in range(8)]
    for a, row in enumerate(d8):
        for b, v in enumerate(row):
            table[_PERM[a]][_PERM[b]] = _PERM[v]
    rows = [" ".join(map(str, row)) for row in table]
    corrupt = [row[:] for row in table]
    corrupt[0][1] = (corrupt[0][1] + 1) % 8  # ids 0, 1 are not the identity
    return {
        "d8-relabeled.txt": "\n".join(["8", *rows]) + "\n",
        "d8-blank-lines.txt": "\n8\n\n" + "\n\n".join(rows) + "\n\n",
        "d8-corrupt.txt": "\n".join(["8", *(" ".join(map(str, r)) for r in corrupt)]) + "\n",
    }


TABLE_CALLS = (
    [["import", "--table", "d8-relabeled.txt", *fmt] for fmt in ([], ["--json"])]
    + [["verify", "--group", f"table:{name}", "--json"] for name in _table_files()]
)


def _write_table_files(directory):
    for name, text in _table_files().items():
        (directory / name).write_text(text)


FAMILIES = sorted({spec.split(":")[0] for spec in corpus_specs(SweepConfig())})


def _tables_digest(family):
    """sha256 over spec, table and orders of the family's default-sweep groups."""
    h = hashlib.sha256()
    for spec in corpus_specs(SweepConfig(families=(family,))):
        g = build_group(spec)
        h.update(spec.encode() + b"\n")
        h.update(g.table.astype("<i4").tobytes())
        h.update(g.ord.astype("<i4").tobytes())
    return h.hexdigest()


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_stdout_and_exit_code_match_golden(argv, golden):
    assert _run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", TABLE_CALLS, ids=" ".join)
def test_table_import_matches_golden(argv, golden, tmp_path, monkeypatch):
    _write_table_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("family", FAMILIES)
def test_cayley_tables_match_golden(family, golden):
    assert _tables_digest(family) == golden[f"tables {family}"]["sha256"]


def test_golden_file_covers_exactly_these_calls(golden):
    assert sorted(golden) == sorted([" ".join(argv) for argv in CALLS + TABLE_CALLS]
                                    + [f"tables {family}" for family in FAMILIES])


if __name__ == "__main__":
    record = {" ".join(argv): _run(argv) for argv in CALLS}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_table_files(Path(tmp))
        os.chdir(tmp)
        try:
            record.update({" ".join(argv): _run(argv) for argv in TABLE_CALLS})
        finally:
            os.chdir(here)
    record.update({f"tables {family}": {"sha256": _tables_digest(family)}
                   for family in FAMILIES})
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(f"recorded {len(record)} digests in {GOLDEN}\n")
