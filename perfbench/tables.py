"""Seeded Cayley-table files for the import-verify workload.

Each source group is written twice: once under a random relabeling that
moves the identity off id 0, and once more with a single entry outside the
identity's row and column changed.  The same seed gives the same bytes.
The relabelings and the corruptions are checked here by brute force, not
by the library under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# (file stem, catalog spec, why it is in the workload)
SOURCES = (
    ("heisenberg-7", "heisenberg:7",
     "small odd-order table (n=343): parse and validation overhead per file"),
    ("symmetric-6", "symmetric:6",
     "non-abelian n=720 with trivial center: the associativity scan dominates"),
    ("almost-extraspecial-1024", "almost-extraspecial:1024",
     "largest import (n=1024): the O(n^3) associativity scan and the text parser"),
)


@dataclass(frozen=True)
class TableCase:
    name: str           # file stem; "-corrupt" marks the non-associative copy
    source: str         # catalog spec the table was derived from
    path: str
    corrupted: bool
    witness: Optional[tuple[int, int, int]]  # (a, b, c) with (ab)c != a(bc)


def relabeling(n: int, rng: random.Random) -> list[int]:
    """perm[old] = new, a uniform permutation with perm[0] != 0 when n > 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    if n > 1 and perm[0] == 0:
        j = rng.randrange(1, n)
        perm[0], perm[j] = perm[j], perm[0]
    return perm


def is_permutation(perm: list[int], n: int) -> bool:
    return len(perm) == n and sorted(perm) == list(range(n))


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Table of the isomorphic copy: new[perm[a]][perm[b]] = perm[table[a][b]]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        new_row = out[perm[a]]
        for b, v in enumerate(row):
            new_row[perm[b]] = perm[v]
    return out


def corrupt(table: list[list[int]], identity: int,
            rng: random.Random) -> tuple[list[list[int]], tuple[int, int]]:
    """Copy with one entry off the identity's row and column replaced."""
    n = len(table)
    others = [x for x in range(n) if x != identity]
    a, b = rng.choice(others), rng.choice(others)
    old = table[a][b]
    new = rng.choice([v for v in range(n) if v != old])
    out = [row[:] for row in table]
    out[a][b] = new
    return out, (a, b)


def nonassociative_witness(table: list[list[int]],
                           cell: tuple[int, int]) -> Optional[tuple[int, int, int]]:
    """A triple (x, y, z) with (xy)z != x(yz), searched by brute force among
    the triples that read the changed cell, then over all triples."""
    n = len(table)
    a, b = cell
    candidates = [(a, b, z) for z in range(n)] + [(x, a, b) for x in range(n)]
    for x, y, z in candidates:
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                if table[xy][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def table_text(table: list[list[int]]) -> str:
    lines = [str(len(table))]
    lines += [" ".join(map(str, row)) for row in table]
    return "\n".join(lines) + "\n"


def generate(seed: int, out_dir: Path,
             source_tables: dict[str, list[list[int]]]) -> list[TableCase]:
    """Write every table file for one seed and return the cases in run order.

    source_tables maps each catalog spec in SOURCES to its table (identity
    at id 0).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for k, (stem, spec, _) in enumerate(SOURCES):
        rng = random.Random(f"{seed}:{k}")
        base = source_tables[spec]
        n = len(base)
        perm = relabeling(n, rng)
        if not is_permutation(perm, n) or perm[0] == 0:
            raise ValueError(f"{stem}: relabeling is not a permutation moving 0")
        good = relabel(base, perm)
        bad, cell = corrupt(good, perm[0], rng)
        witness = nonassociative_witness(bad, cell)
        if witness is None:
            raise ValueError(f"{stem}: corrupted table is still associative")
        for name, table, wit in ((stem, good, None), (f"{stem}-corrupt", bad, witness)):
            path = out_dir / f"{name}.txt"
            path.write_text(table_text(table))
            cases.append(TableCase(name, spec, str(path), wit is not None, wit))
    return cases
