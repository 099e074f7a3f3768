"""The table-file parser against the per-token loop of parse_oracle.

load_table_with_report must return the oracle's group and re-index map, or
raise the oracle's exception with the same text, line and column, on every
file: valid tables under relabelings, with leading zeros, extra blanks and
corruptions, and the same tables with noise spliced in.  On top of that,
its whole-array path may return a table only for a file the oracle's loop
accepts, with equal values.  Two outcomes differ from the oracle's by
design: a file that is not UTF-8 makes the oracle raise UnicodeDecodeError
where the library raises ParseError at the same byte, and an order over the
size cap is refused as soon as the header is read, before any row error.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from cyclicdensity import GroupError, ParseError, SizeLimitExceeded, build_group, groups
from cyclicdensity.catalog import _canonical_table, load_table_with_report

UNCAPPED = 10 ** 9
caps = st.sampled_from([3, 6, UNCAPPED])

NOISE = [str(d).encode() for d in range(10)] + [
    b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"+", b"-", b"_", b"x",
    "٣".encode(), b"\xff",
]
SOURCES = ["cyclic:1", "cyclic:2", "cyclic:3", "abelian:2,2", "cyclic:5",
           "dihedral:6", "quaternion:8"]
TABLES = {spec: build_group(spec).table.tolist() for spec in SOURCES}


def outcome(load, path, cap):
    try:
        g, reindex = load(path, max_size=cap)
    except GroupError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return (g.table.tolist(), g.ord.tolist(), g.label, reindex)


def header_order(text):
    """The order on the first non-blank line, if the loop accepts that line."""
    for line in text.splitlines():
        if line.strip():
            tokens = line.split()
            try:
                n = int(tokens[0])
            except ValueError:
                return None
            return n if len(tokens) == 1 and n >= 1 else None
    return None


def expected(path, data, cap):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        return (ParseError, f"{path}: byte {exc.start} is not valid UTF-8", line, None)
    n = header_order(text)
    refusal = None if n is None else size_refusal(n, cap, groups._physical_memory())
    if refusal:
        return (SizeLimitExceeded, f"table 'table:{path}' has order {n}{refusal}", None, None)
    return outcome(parse_oracle.load, path, cap)


def size_refusal(n, cap, memory):
    """How the header check words a refused order n, or None."""
    if n > 65535:
        return ", over 65535, the most that 16-bit table ids can number"
    if n > cap:
        return f", over the cap {cap}"
    if memory is not None and 2 * n * n > memory:
        return f": its table of {2 * n * n} bytes exceeds the {memory} bytes of physical memory"
    return None


def assert_matches_oracle(path: Path, data: bytes, cap: int = UNCAPPED):
    path.write_bytes(data)
    assert outcome(load_table_with_report, path, cap) == expected(path, data, cap)
    try:
        fast = _canonical_table(data, cap, f"table:{path}")
    except SizeLimitExceeded:
        return
    if fast is not None:
        assert fast.tolist() == parse_oracle.rows(data.decode("ascii"), path)


@st.composite
def table_texts(draw):
    """A relabeled (and maybe corrupted) small table, with leading zeros,
    extra blanks and blank lines, then a few structural edits and splices."""
    table = TABLES[draw(st.sampled_from(SOURCES))]
    n = len(table)
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            rows[perm[a]][perm[b]] = perm[v]
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[a][b] = draw(st.integers(0, n))
    tokens = [[str(v) for v in row] for row in [[n], *rows]]
    zeros = st.integers(0, 9).map(lambda k: "0" * k)
    for line in tokens:
        for i, tok in enumerate(line):
            if draw(st.integers(0, 7)) == 0:
                line[i] = draw(zeros) + tok
    for _ in range(draw(st.integers(0, 2))):
        if not tokens:
            break
        kind = draw(st.sampled_from(["add token", "drop token", "add line", "drop line"]))
        k = draw(st.integers(0, len(tokens) - 1))
        if kind == "add token" and tokens[k]:
            tokens[k].append(draw(st.sampled_from(tokens[k])))
        elif kind == "drop token" and tokens[k]:
            tokens[k].pop()
        elif kind == "add line":
            tokens.insert(k, list(tokens[k]))
        elif kind == "drop line":
            tokens.pop(k)
    spaces = st.sampled_from(["", " ", "  "])
    lines = [draw(spaces) + " ".join(line) + draw(spaces) for line in tokens]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(line + end * draw(st.integers(1, 2)) for line in lines)
    data = text.encode()
    if draw(st.booleans()):
        data = data.rstrip(b"\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 2))
        piece = b"".join(draw(st.lists(st.sampled_from(NOISE), max_size=3)))
        data = data[:at] + piece + data[at + cut:]
    return data


noise = st.lists(st.sampled_from(NOISE), max_size=40).map(b"".join)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "t.txt"


@settings(max_examples=400, deadline=None)
@given(table_texts(), caps)
def test_tables_with_noise_match_oracle(path, data, cap):
    assert_matches_oracle(path, data, cap)


@settings(max_examples=200, deadline=None)
@given(noise, caps)
def test_noise_matches_oracle(path, data, cap):
    assert_matches_oracle(path, data, cap)


@pytest.mark.parametrize("text", [
    "1\n0\n",
    "1\n0",
    "\n\n 3 \n\n0 1 2\n  1 2 0  \n\n2 0 1",
    "3\n000 01 000000002\n1 2 0\n2 0 1\n",
    "0003\n2 0 1\n0 1 2\n1 2 0\n",
    "2\n0\t1\n1 0\n",            # tab
    "2\r\n0 1\r\n1 0\r\n",       # carriage returns
    "2\r0 1\r1 0\r",            # carriage returns alone
    "2\x1c0 1\x1c1 0\x1c",      # file separators, a line break to str.splitlines
    "\x0c 2\x1f\r\n0\x1f1\x0b\t1 0",  # every kind of ASCII whitespace
])
def test_whole_array_path_takes_canonical_files(path, text):
    data = text.encode()
    assert _canonical_table(data, UNCAPPED, "t") is not None
    assert_matches_oracle(path, data)


@pytest.mark.parametrize("text", [
    "2\n-0 1\n1 0\n",            # a sign np.loadtxt refuses for an unsigned id
    "2\n0 1\n1 0_0\n",           # underscore
    "2\n0 1\n1_0 0\n",           # underscore, out of range
    "2\n0 ١\n١ 0\n",   # non-ASCII digits
    "2\n0 1\n1 70000\n",         # past 16-bit ids
    "2\n0 1 0\n1 0\n",           # a long row
    "2\n0 1\n1 0\n1 0\n",        # an extra row
    "2\n0 1\n",                  # a missing row
    "2\n0 1\n1 2\n",             # an entry out of range
    "2 2\n0 1\n1 0\n",           # a header of two tokens
    "0\n",                       # order 0
    "\n \n",                     # no token
    pytest.param("1" * 5000 + "\n0\n", id="5000-digit order"),  # past int()'s 4,300 digits
])
def test_whole_array_path_leaves_other_files_to_the_loop(path, text):
    data = text.encode()
    assert _canonical_table(data, UNCAPPED, "t") is None
    assert_matches_oracle(path, data)


def test_undecodable_byte_is_a_parse_error_at_its_offset(path):
    path.write_bytes(b"2\n0 1\n1 \xff0\n")
    with pytest.raises(ParseError) as err:
        load_table_with_report(path)
    assert str(err.value) == f"{path}: byte 8 is not valid UTF-8"
    assert err.value.line == 3


def big_table_text(n: int = 300, seed: int = 0) -> list[str]:
    """The lines of a relabeled cyclic:n table file, over 256 KiB of text."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return [str(n)] + [" ".join(str(perm[(a + b) % n]) for b in range(n)) for a in range(n)]


BIG = (1 << 17) + 7  # bytes: over 128 KiB
BLANK_RUN = "\n" * BIG  # a long run of nothing but newlines
OTHER_WHITESPACE = {"crlf": ("\r\n", " "), "cr": ("\r", " "), "tab": ("\n", "\t"),
                    "x1c": ("\x1c", "\x1f")}  # line break, separator


@pytest.mark.parametrize("layout", ["plain", "blank block inside", "blank block after",
                                    "blank block before", "padded", *OTHER_WHITESPACE,
                                    "crlf from the middle"])
def test_whole_array_path_matches_loop_across_blocks(path, layout):
    lines = big_table_text()
    if layout == "padded":
        lines = ["  " + line.replace(" ", "  0") + " " for line in lines]
    end, sep = OTHER_WHITESPACE.get(layout, ("\n", " "))
    text = end.join(line.replace(" ", sep) for line in lines) + end
    if layout == "blank block inside":
        text = "\n".join(lines[:150]) + BLANK_RUN + "\n".join(lines[150:]) + "\n"
    elif layout == "blank block after":
        text += BLANK_RUN
    elif layout == "blank block before":
        text = BLANK_RUN + text
    elif layout == "crlf from the middle":  # LF lines, then CRLF lines
        text = "\n".join(lines[:150]) + "\r\n" + "\r\n".join(lines[150:]) + "\r\n"
    data = text.encode()
    assert len(data) > 2 * BIG
    assert _canonical_table(data, UNCAPPED, "t") is not None
    assert_matches_oracle(path, data)


def edited_big_table(edit: str, row: int) -> bytes:
    """The bytes of big_table_text with one edit at line row."""
    lines = big_table_text()
    line = lines[row]
    if edit == "entry out of range":
        lines[row] = line[:line.rindex(" ")] + " 300"
    elif edit == "short row":
        lines[row] = line[:line.rindex(" ")]
    elif edit == "long row":
        lines[row] = line + " 0"
    elif edit == "extra row":
        lines.insert(row, line)
    elif edit == "missing row":
        del lines[row]
    elif edit == "sign":
        lines[row] = line.replace(" ", " +", 1)
    elif edit == "ten digits":
        lines[row] = "0000000000" + line
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("fault", ["entry out of range", "short row", "long row", "extra row",
                                   "missing row"])
@pytest.mark.parametrize("row", [1, 150, 300])
def test_a_fault_in_any_block_sends_the_file_to_the_loop(path, fault, row):
    data = edited_big_table(fault, row)
    assert _canonical_table(data, UNCAPPED, "t") is None
    assert_matches_oracle(path, data)


@pytest.mark.parametrize("edit", ["sign", "ten digits"])
@pytest.mark.parametrize("row", [None, 1, 150, 300])  # None: a file of order 2
def test_whole_array_path_reads_each_token_as_int_does(path, edit, row):
    # '+0' and an id zero-padded past nine digits are values to int()
    if row is None:
        data = {"sign": b"2\n+0 1\n1 0\n", "ten digits": b"2\n0 1\n1 0000000000\n"}[edit]
    else:
        data = edited_big_table(edit, row)
    assert _canonical_table(data, UNCAPPED, "t") is not None
    assert_matches_oracle(path, data)
