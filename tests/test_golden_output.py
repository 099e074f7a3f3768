"""Golden output: the sha256 of stdout, and the exit code, of fixed CLI calls.

The digests in golden_output.json pin every output byte of `alpha` (text
and JSON), `verify` (text, JSON and CSV) on a fixed group panel, and
`sweep --max-order 64` in all three formats.  One more digest per catalog
family pins the Cayley table and the element orders of every default-sweep
group (order <= 256), so the ids that witnesses quote cannot drift either.
A refactor that changes no behaviour leaves them all equal.  When output is meant to change,
re-record with

    PYTHONPATH=src python tests/test_golden_output.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cyclicdensity import SweepConfig, build_group, cli, corpus_specs

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


@pytest.mark.parametrize("family", FAMILIES)
def test_cayley_tables_match_golden(family, golden):
    assert _tables_digest(family) == golden[f"tables {family}"]["sha256"]


def test_golden_file_covers_exactly_these_calls(golden):
    assert sorted(golden) == sorted([" ".join(argv) for argv in CALLS]
                                    + [f"tables {family}" for family in FAMILIES])


if __name__ == "__main__":
    record = {" ".join(argv): _run(argv) for argv in CALLS}
    record.update({f"tables {family}": {"sha256": _tables_digest(family)}
                   for family in FAMILIES})
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(f"recorded {len(record)} digests in {GOLDEN}\n")
