"""Slow reference route that the table-file parser of the library is checked
against.

rows() is the per-token line loop that catalog.load_table_with_report ran
on every file before it had a whole-array path: one int() and one range
check per token, with the line and column of the first error.  load()
reads the file as UTF-8, runs the loop and hands the list of lists to
validate_table_with_report.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from cyclicdensity import ParseError
from cyclicdensity.groups import FiniteGroup, validate_table_with_report


def rows(text: str, p: Path) -> list[list[int]]:
    """The table rows of a file's text; ParseError at the first fault."""
    rows: list[list[int]] = []
    n: Optional[int] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise ParseError(
                    f"line {lineno}: expected the group order alone, got {len(tokens)} tokens",
                    line=lineno, column=1,
                )
            try:
                n = int(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: order {tokens[0]!r} is not an integer",
                                 line=lineno, column=1)
            if n < 1:
                raise ParseError(f"line {lineno}: order must be >= 1, got {n}",
                                 line=lineno, column=1)
            continue
        if len(rows) == n:
            raise ParseError(f"line {lineno}: extra content after {n} table rows",
                             line=lineno, column=1)
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: token {tok!r} is not an integer",
                                 line=lineno, column=col)
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: entry {v} outside [0, {n})",
                                 line=lineno, column=col)
            row.append(v)
        if len(row) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(row)}",
                             line=lineno, column=1)
        rows.append(row)
    if n is None:
        raise ParseError(f"{p}: empty file")
    if len(rows) != n:
        raise ParseError(f"{p}: expected {n} table rows, found {len(rows)}")
    return rows


def load(path: Union[str, Path], *,
         max_size: Optional[int] = None) -> tuple[FiniteGroup, list[int]]:
    """(group, old->new map) of a UTF-8 table file, through rows().

    Raises UnicodeDecodeError on a file that is not UTF-8."""
    p = Path(path)
    table = rows(p.read_bytes().decode("utf-8"), p)
    return validate_table_with_report(table, f"table:{p}", max_size=max_size)
