"""Catalog of built-in group families, the group-spec grammar, and
Cayley-table file import.

Spec strings follow
    cyclic:N | abelian:N1,N2,... | dihedral:N | quaternion:N | symmetric:K
    | extraspecial:ORDER:+|- | almost-extraspecial:ORDER | heisenberg:P
    | product:(SPEC)x(SPEC) | table:PATH
where N counts total elements in every family (dihedral:8 is the 8-element
dihedral group, quaternion:8 the quaternions).
"""

from __future__ import annotations

import bisect
import inspect
import io
import itertools
import math
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .arith import _strong_probable_prime, factorize
from .errors import ParseError, SpecSyntaxError
from .groups import (
    _ID,
    FiniteGroup,
    _blocks,
    _build,
    _check_cap,
    _product_of_tables,
    _validate,
    direct_product,
)


def _circulant(row: np.ndarray, sign: int) -> np.ndarray:
    """The (m, m) table t[a, b] = row[(b + sign*a) % m] for sign +1 or -1:
    a read-only view of the m sliding windows over [row, row] that start at
    0, 1, ... (sign +1) or at m, m-1, ... (sign -1), so no n^2 `%` is
    computed.  It holds 2m ids, not m^2: callers copy it, assign it into a
    table, or broadcast from it."""
    m = row.size
    rr = np.concatenate([row, row])
    rr.setflags(write=False)  # so the windows over it are read-only too
    # the m + 1 windows rr[k:k+m], made by the ndarray constructor itself:
    # as_strided and sliding_window_view make the same view at several
    # times the per-call time, paid by every small group of a sweep
    windows = np.ndarray((m + 1, m), rr.dtype, buffer=rr, strides=rr.strides * 2)
    return windows[:m] if sign > 0 else windows[m:0:-1]


# Each fill takes a spec's parameters, which have passed the family's rule,
# and returns (table, orders, S): the family's table of _ID ids, associative
# by construction, with the element orders (int32) and the generating set
# (intp) that its numbering has by construction, or None for both, when
# _build derives the orders by the descent and S is found on first use.

def _abelian_table(orders: tuple[int, ...]) -> np.ndarray:
    """Table of Z_n1 + Z_n2 + ..., a right fold of circulant views; one
    factor is the view itself."""
    table = _circulant(np.arange(orders[-1], dtype=_ID), 1)
    for n in orders[-2::-1]:  # the accumulated table is the broadcast's inner axis
        table = _product_of_tables(_circulant(np.arange(n, dtype=_ID), 1), table)
    return table


def _abelian(*orders: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct sum of cyclic groups Z_n1 + Z_n2 + ... in the given order; for
    one order n, Z_n with id i the i-th power of the generator.

    (a1, a2, ...) is numbered a1 * (n2 * ...) + a2 * ..., and that numbering
    is associative, (A x B) x C = A x (B x C).  So the table is the product
    of the prefix whose order is nearest sqrt(n) and the rest, and no factor
    table exceeds about n entries.

    The id (a1, a2, ...) has order lcm(n_i / gcd(a_i, n_i)), and the unit
    vectors, at ids w_i = n_(i+1) * n_(i+2) * ... for each n_i > 1, generate
    the group.  gcd(a_i, n_i) is gcd(id // w_i, n_i), as the digits above
    a_i add a multiple of n_i.
    """
    total = math.prod(orders)
    cut, left = 1, orders[0]
    while cut < len(orders) - 1 and left * left * orders[cut] <= total:
        left *= orders[cut]
        cut += 1
    table, rest = _abelian_table(orders[:cut]), orders[cut:]
    weights = [math.prod(orders[i + 1:]) for i in range(len(orders))]
    ids, ord_ = np.arange(total, dtype=np.int32), 1
    for n, w in zip(orders, weights):
        ord_ = np.lcm(ord_, n // np.gcd(ids // w, n))
    gens = np.array([w for n, w in zip(orders, weights) if n > 1], dtype=np.intp)
    table = _product_of_tables(table, _abelian_table(rest)) if rest else table.copy()
    return table, ord_, gens


def _rotation_facts(order: int, rest: int) -> tuple[np.ndarray, np.ndarray]:
    """Element orders and generating set of _dihedral's (rest 2) or
    _quaternion's (rest 4) group: ids 0..h-1, h = order/2, are the powers
    r^i, numbered as in cyclic:h, so r^i has order h / gcd(i, h); every
    other id has order rest, and r = 1 with the id h generate it."""
    h = order // 2
    ord_ = np.full(order, rest, dtype=np.int32)
    ord_[:h] = h // np.gcd(np.arange(h, dtype=np.int32), h)
    return ord_, np.array([1, h], dtype=np.intp)


def _dihedral(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dihedral group with `order` elements: rotations at 0..n-1, reflections at n..2n-1."""
    n = order // 2
    i = np.arange(n, dtype=_ID)  # n + i stays below the order
    t = np.empty((order, order), dtype=_ID)
    t[:n, :n] = _circulant(i, 1)           # r^a r^b
    t[:n, n:] = _circulant(n + i, -1)      # r^a (s r^b) = s r^(b-a)
    t[n:, :n] = _circulant(n + i, 1)       # (s r^a) r^b = s r^(a+b)
    t[n:, n:] = _circulant(i, -1)          # (s r^a)(s r^b) = r^(b-a)
    return (t, *_rotation_facts(order, 2))


def _quaternion(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generalized quaternion (dicyclic) group of the given order (multiple of 4, >= 8).

    Presentation <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1> with
    order = 4n; powers a^i at ids 0..2n-1 and a^i b at 2n..4n-1.
    """
    n = order // 4
    two_n = 2 * n
    i = np.arange(two_n, dtype=np.int32)  # -i in uint16 would wrap; the assignments cast
    t = np.empty((order, order), dtype=_ID)
    t[:two_n, :two_n] = _circulant(i, 1)                        # a^i a^j
    t[:two_n, two_n:] = _circulant(two_n + i, 1)                # a^i (a^j b) = a^(i+j) b
    t[two_n:, :two_n] = _circulant(two_n + (-i) % two_n, -1)    # (a^i b) a^j = a^(i-j) b
    t[two_n:, two_n:] = _circulant((n - i) % two_n, -1)         # (a^i b)(a^j b) = a^(i-j+n)
    return (t, *_rotation_facts(order, 4))


def _symmetric(degree: int) -> tuple[np.ndarray, None, None]:
    """Symmetric group S_degree; ids enumerate permutations in lexicographic
    order, and the product of ids i and j is x -> p_i[p_j[x]].

    Ids below t! fix 0..d-t-1.  For 1 <= k <= t, h = p_(k t!) has its
    entries after d-t-1 increasing, so h q_r is id k t! + r, and as
    (h q) y = h (q y), row k t! + r is row k t! gathered at row r, a block
    of rows at a time.  The d(d-1)/2 rows h go by codes: p's code sum
    p[x] * w[x], w[x] = d^(d-2-x) and w[d-1] = 0, reads its first d - 1
    entries as a number, so lut[code] is its id.  A row of a block costs
    4n entries, for the index's intp cast.
    """
    n = math.factorial(degree)
    # one row per permutation, with no list of n tuples alive on the way
    perms = np.fromiter(itertools.permutations(range(degree)),
                        dtype=np.dtype((np.int32, degree)), count=n)
    w = degree ** np.arange(degree - 1, -1, -1, dtype=np.int32) // degree  # 1 // d = 0
    ids = np.arange(n, dtype=_ID)
    lut = np.empty(degree ** (degree - 1), dtype=ids.dtype)
    lut[perms @ w] = ids
    table = np.empty((n, n), dtype=ids.dtype)
    table[0] = ids
    for t in range(1, degree):
        f = math.factorial(t)
        for k in range(f, (t + 1) * f, f):
            table[k] = lut[perms[k][perms] @ w]  # h p_j is x -> h[p_j[x]]
            for lo, hi in _blocks(f - 1, 4 * n):  # rows k+1..k+f-1 from rows 1..f-1
                table[k + 1 + lo : k + 1 + hi] = table[k][table[1 + lo : 1 + hi]]
    return table, None, None


def _heisenberg(p: int) -> tuple[np.ndarray, None, None]:
    """Heisenberg group of order p^3 for an odd prime p: upper unitriangular
    3x3 matrices over Z_p, encoded as (a, b, c) -> c*p^2 + a*p + b.

    The p^2 rows with c = 0 come from the product rule a block at a time.
    z = (0, 0, 1) is central, so in p^2 x p^2 blocks the (c, c') block is
    z^(c+c') B, B the (0, 0) block, and the rows with c = k are the rows
    with c = 0, their column blocks rotated left by k: two slice copies.
    """
    n, pp = p ** 3, p * p
    # every value below is under n, so the table's own type holds it exactly
    c, rem = np.divmod(np.arange(n, dtype=_ID), pp)
    a, b = np.divmod(rem, p)
    table = np.empty((n, n), dtype=c.dtype)
    for lo, hi in _blocks(pp, n):
        # (a,b,0) * (a',b',c') = (a+a', b+b', c'+a*b')
        a1, b1 = a[lo:hi, None], b[lo:hi, None]
        table[lo:hi] = ((c + a1 * b) % p * p + (a1 + a) % p) * p + (b1 + b) % p
    for k in range(pp, n, pp):
        table[k : k + pp, : n - k] = table[:pp, k:]
        table[k : k + pp, n - k :] = table[:pp, :k]
    return table, None, None


def _extraspecial(order: int, sign: str = "+") -> tuple[np.ndarray, None, None]:
    """Extraspecial 2-group of order 2^(1+2m) and the given type, or the
    almost-extraspecial one of order 2^(2m+2): a central extension of an
    F_2-space by <z> through a bilinear form beta (Griess 1973; Huppert,
    Endliche Gruppen I, III.13), T[x, y] = x ^ y ^ (beta(x, y) << 1).

    z is id 2, at bit 1.  On the other bits, low to high, beta's matrix is
    block diagonal: [1] at bit 0 when they are odd in number (cyclic:4's
    g g = z), [[1,1],[0,0]] on each dihedral:8 pair (r, s), and
    [[1,0],[1,1]] on the top pair of the minus type (quaternion:8's a, b):
    the ids of the central product of those factors, the last one lowest.
    For x < e = 2^j, T[x ^ e, y] = T[x, y] ^ e ^ (beta(e, y) << 1), so rows
    e..2e-1 are rows 0..e-1 XOR one row vector: log2(order) long passes.
    """
    free = [0, *range(2, order.bit_length() - 1)]  # the bits other than z's
    reads = [0] * (order.bit_length() - 1)  # reads[j]: the bits of y that beta(2^j, y) sums
    if len(free) % 2:
        reads[free.pop(0)] = 1  # g g = z
    for r, s in zip(free[::2], free[1::2]):
        reads[r] = 1 << r | 1 << s  # r r = z, r s = s r z; s reads no bit
    if sign == "-":
        a, b = free[-2:]
        reads[a], reads[b] = 1 << a, 1 << a | 1 << b  # a a = b b = z, b a = a b z
    ids = np.arange(order, dtype=_ID)
    table = np.empty((order, order), dtype=ids.dtype)
    table[0] = ids
    for j, mask in enumerate(reads):
        e = 1 << j
        row = ids & mask  # becomes e ^ (beta(e, y) << 1), in place
        np.bitwise_count(row, out=row)
        row &= 1
        row <<= 1
        row ^= e
        np.bitwise_xor(table[:e], row, out=table[e : 2 * e])
    return table, None, None


def _same(n: int, *_) -> int:
    """The order of a family whose first parameter is its order."""
    return n


# family: (test, rule text on the parameters p, order, fill); test, order
# and fill take the parameters as arguments
_FAMILIES = {
    "cyclic": (lambda n: n >= 1, "cyclic order must be >= 1, got {p[0]}", _same, _abelian),
    "abelian": (lambda *o: min(o, default=0) >= 1,
                "abelian cyclic orders must be >= 1, got {p}", lambda *o: math.prod(o), _abelian),
    "dihedral": (lambda n: n >= 4 and n % 2 == 0,
                 "dihedral order must be an even integer >= 4, got {p[0]}", _same, _dihedral),
    "quaternion": (lambda n: n >= 8 and n % 4 == 0,
                   "quaternion order must be a multiple of 4, >= 8, got {p[0]}",
                   _same, _quaternion),
    # 7! = 5040 is the largest table worth materializing
    "symmetric": (lambda d: 1 <= d <= 7, "symmetric degree must be in 1..7, got {p[0]}",
                  math.factorial, _symmetric),
    # 2^(1+2m) and 2^(2m+2) with m >= 1: powers of two from 8 and 16 with odd
    # and even exponents
    "extraspecial": (lambda n, _: n >= 8 and n.bit_count() == 1 and (n.bit_length() - 1) % 2,
                     "extraspecial order must be 2^(1+2m) with m >= 1, got {p[0]}",
                     _same, _extraspecial),
    "almost-extraspecial": (
        lambda n: n >= 16 and n.bit_count() == 1 and (n.bit_length() - 1) % 2 == 0,
        "almost-extraspecial order must be 2^(2m+2) with m >= 1, got {p[0]}",
        _same, _extraspecial),
    # exact below arith._MR_BOUND; past it, a strong pseudoprime to every
    # base would pass, but no order p^3 there meets the size cap
    "heisenberg": (lambda p: p != 2 and _strong_probable_prime(p),
                   "heisenberg parameter must be an odd prime, got {p[0]}",
                   lambda p: p ** 3, _heisenberg),
}

FAMILY_NAMES = (*_FAMILIES, "product", "table")
_SIGNS = ("+", "-")  # the extraspecial types


def _arity(family: str) -> Optional[int]:
    """How many parameters a family takes, read off its rule's code; None
    when the rule takes any number (abelian)."""
    code = _FAMILIES[family][0].__code__
    return None if code.co_flags & inspect.CO_VARARGS else code.co_argcount


def _rule_params(family: str, limit: int) -> list[tuple]:
    """The parameters n = 1, 2, ... (with each extraspecial type) that meet
    the family's rule, until its order, which grows with n, passes limit.
    For abelian, one per isomorphism type of order 2..limit: its
    prime-power cyclic orders, non-decreasing."""
    if family == "abelian":
        pps = [q for q in range(2, limit + 1) if len(factorize(q)) == 1]
        params = [(q,) for q in pps]
        for t in params:  # params grows: t extended by each prime power >= t[-1] that fits
            lo, hi = bisect.bisect_left(pps, t[-1]), bisect.bisect_right(pps, limit // math.prod(t))
            params += [(*t, q) for q in pps[lo:hi]]
        return params
    test, _, order, _ = _FAMILIES[family]
    tails = [(s,) for s in _SIGNS] if family == "extraspecial" else [()]
    params, n = [], 1
    while order(n, *tails[0]) <= limit:
        params += [(n, *t) for t in tails if test(n, *t)]
        n += 1
    return params


def _require(spec: GroupSpec) -> GroupSpec:
    """spec with each integer parameter made a Python int, once its family
    is known and its parameters are of the family's number and types and
    meet its rule: integers (but the extraspecial type, one of _SIGNS), two
    GroupSpecs for a product, one str or PathLike for a table.  Any other
    spec raises SpecSyntaxError."""
    if not isinstance(spec, GroupSpec):
        raise SpecSyntaxError(f"expected a spec string or a GroupSpec, got {spec!r}")
    f, p = spec.family, spec.params
    if not isinstance(f, str) or f not in FAMILY_NAMES:
        raise SpecSyntaxError(f"unknown group family {f!r}")
    if not isinstance(p, (tuple, list)):
        raise SpecSyntaxError(f"{f} parameters must be a tuple, got {p!r}")
    p = tuple(p)
    if f == "product":
        if len(p) != 2 or not all(isinstance(q, GroupSpec) for q in p):
            raise SpecSyntaxError(f"product takes two GroupSpec factors, got {p!r}")
        return GroupSpec(f, tuple(_require(q) for q in p))
    if f == "table":
        if len(p) != 1 or not isinstance(p[0], (str, os.PathLike)):
            raise SpecSyntaxError(f"table takes one str or PathLike path, got {p!r}")
        return GroupSpec(f, p)
    arity = _arity(f)
    if arity is not None and len(p) != arity:
        raise SpecSyntaxError(f"{f} takes {arity} parameter"
                              f"{'s' * (arity > 1)}, got {len(p)}: {p!r}")
    if f == "extraspecial" and not (isinstance(p[1], str) and p[1] in _SIGNS):
        raise SpecSyntaxError(f"extraspecial type must be '+' or '-', got {p[1]!r}")
    test, rule = _FAMILIES[f][:2]
    ints = []
    for v in p[:1] if f == "extraspecial" else p:
        try:  # a Python int: NumPy integer arithmetic would wrap
            if isinstance(v, bool):  # NumPy's bool has no __index__
                raise TypeError
            ints.append(operator.index(v))
        except TypeError:
            raise SpecSyntaxError(f"{rule.format(p=p)}: {v!r} is not an integer") from None
    q = (*ints, *p[len(ints):])
    if not test(*q):
        raise SpecSyntaxError(rule.format(p=q))
    return GroupSpec(f, q)


_MAX_HEAD_DIGITS = 9  # a longer order goes to the loop: int() refuses past 4,300 digits
# The ASCII line breaks of str.splitlines become '\n', and the other ASCII
# whitespace of str.split becomes ' ', so "\r\n" reads as a line and a blank line.
_TO_LF = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e\t\x1f", b"\n\n\n\n\n\n  ")
_BLANKS = re.compile(rb"[ \t\n\r\x0b\x0c\x1c-\x1f]*")


def _canonical_table(data: bytes, max_size: Optional[int], label: str) -> Optional[np.ndarray]:
    """The (n, n) _ID table of an ASCII file, read by np.loadtxt, or None
    for any other file, which _table_rows reads and names the fault of.

    np.loadtxt splits tokens on the whitespace of str.split, and its line
    breaks, '\\n' and '\\r\\n', are those of str.splitlines once _TO_LF has
    translated the others (VT, FF, FS, GS and RS it reads as blanks).  Each
    token it reads, '+5' and '007' too, has the value int() gives, and it
    raises on the rest ('-0', '1_0', '70000').  So a table of shape (n, n)
    with every entry below n is the one _table_rows returns.  n, the first
    non-blank line, meets the size cap before any row is read.
    """
    if not data.isascii():
        return None
    if (any(c in data for c in b"\x0b\x0c\x1c\x1d\x1e")
            or b"\r" in data and data.count(b"\r") > data.count(b"\r\n")):  # a bare CR
        data = data.translate(_TO_LF)
    head_at = _BLANKS.match(data).end()
    body_at = data.find(b"\n", head_at)
    head = data[head_at:body_at].rstrip(b" \t\x1f\r")
    n = int(head) if head.isdigit() and len(head) <= _MAX_HEAD_DIGITS else 0
    if body_at < 0 or n < 1:
        return None
    _check_cap(n, max_size, f"table {label!r}")
    if _BLANKS.match(data, body_at).end() == len(data):  # np.loadtxt warns on no rows
        return None
    body = io.BytesIO(data)
    body.seek(body_at)
    try:
        table = np.loadtxt(body, dtype=_ID, comments=None, ndmin=2)
    except ValueError:  # a token it does not read, or rows of unequal length
        return None
    return table if table.shape == (n, n) and table.max() < n else None


def _table_rows(lines: list[str], p: Path, max_size: Optional[int],
                label: str) -> list[np.ndarray]:
    """The table rows of a file's lines by a per-token loop, each an _ID
    array once it is read, so only one row is ever held as Python ints;
    ParseError names the line and column of the first fault."""
    rows: list[np.ndarray] = []
    n: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
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
            _check_cap(n, max_size, f"table {label!r}")
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
        rows.append(np.array(row, dtype=_ID))
    if n is None:
        raise ParseError(f"{p}: empty file")
    if len(rows) != n:
        raise ParseError(f"{p}: expected {n} table rows, found {len(rows)}")
    return rows


def load_table_with_report(
    path: Union[str, Path], *, max_size: Optional[int] = None
) -> tuple[FiniteGroup, list[int]]:
    """Read a Cayley-table text file and validate it.

    Format: UTF-8 text; the first non-blank line is n; the next n non-blank
    lines hold n whitespace-separated element ids each.  The identity may
    sit anywhere; the returned old->new map records the re-indexing that
    moved it to id 0.  An n over the size cap is refused before the rows
    are parsed.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    label = f"table:{p}"
    table = _canonical_table(data, max_size, label)
    if table is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(f"{p}: byte {exc.start} is not valid UTF-8",
                             line=line) from None
        del data  # each copy of the file goes once the next is made
        lines = text.splitlines()
        del text
        table = np.array(_table_rows(lines, p, max_size, label), dtype=_ID)
    else:
        del data  # the bytes are parsed; validation needs only the table
    return _validate(table, label)


ParamsType = Union[tuple[int, ...], tuple[int, str], tuple[str], tuple["GroupSpec", "GroupSpec"]]


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group-spec string; canonical() round-trips through the grammar."""

    family: str
    params: ParamsType

    def canonical(self) -> str:
        f, p = self.family, self.params
        if f == "product":
            left, right = p
            return f"product:({left.canonical()})x({right.canonical()})"
        if f == "extraspecial":
            return f"extraspecial:{p[0]}:{p[1]}"
        return f"{f}:{','.join(str(v) for v in p)}"


def _parse_int(text: str, pos: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecSyntaxError(f"expected an integer {what}, got {text!r}", position=pos)


def _split_product_body(body: str, pos: int) -> tuple[str, str]:
    # body looks like (SPEC)x(SPEC); parentheses may nest for inner products
    if not body.startswith("("):
        raise SpecSyntaxError("product spec must start with '('", position=pos)
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                rest = body[i + 1 :]
                if not rest.startswith("x(") or not rest.endswith(")"):
                    raise SpecSyntaxError(
                        "product spec must look like (SPEC)x(SPEC)", position=pos + i + 1
                    )
                return body[1:i], rest[2:-1]
    raise SpecSyntaxError("unbalanced parentheses in product spec", position=pos)


def parse_group_spec(text: str, _pos: int = 0) -> GroupSpec:
    """Parse a spec string into a GroupSpec, validating parameter shapes."""
    if not isinstance(text, str) or not text.strip():
        raise SpecSyntaxError("empty group spec", position=_pos)
    s = text.strip()
    head, sep, body = s.partition(":")
    if not sep:
        raise SpecSyntaxError(f"missing ':' after family name in {s!r}", position=_pos)
    family = head.strip()
    if family not in FAMILY_NAMES:
        raise SpecSyntaxError(f"unknown group family {family!r}", position=_pos)
    body_pos = _pos + len(head) + 1
    if family == "table":
        if not body:
            raise SpecSyntaxError("table spec needs a file path", position=body_pos)
        return GroupSpec("table", (body,))
    if family == "product":
        left, right = _split_product_body(body, body_pos)
        return GroupSpec(
            "product",
            (parse_group_spec(left, body_pos + 1),
             parse_group_spec(right, body_pos + len(left) + 4)),
        )
    if family == "extraspecial":
        order_text, sep2, sign = body.partition(":")
        if not sep2 or sign not in _SIGNS:
            raise SpecSyntaxError(f"extraspecial spec must end with ':+' or ':-', got {s!r}",
                                  position=body_pos)
        params = (_parse_int(order_text, body_pos, "order"), sign)
    elif family == "abelian":
        parts = body.split(",")
        if any(not p.strip() for p in parts):
            raise SpecSyntaxError(f"malformed integer list in {s!r}", position=body_pos)
        params = tuple(_parse_int(p.strip(), body_pos, "cyclic order") for p in parts)
    else:  # the remaining families take a single integer
        params = (_parse_int(body, body_pos, "parameter"),)
    return _require(GroupSpec(family, params))


def build_group(spec: Union[str, GroupSpec], *, max_size: Optional[int] = None) -> FiniteGroup:
    """Build the group a spec describes.  A family's parameters meet its
    rule, and its order the size cap, before its table is filled.  The fill
    returns (table, orders, S), and _build takes all three: a fill that
    knows the orders and generating set by construction returns them, and
    one that returns None for both gets its orders by the descent."""
    spec = parse_group_spec(spec) if isinstance(spec, str) else _require(spec)
    f, p = spec.family, spec.params
    if f == "product":
        left, right = (build_group(q, max_size=max_size) for q in p)
        return direct_product(left, right, max_size=max_size, label=spec.canonical())
    if f == "table":
        return load_table_with_report(p[0], max_size=max_size)[0]
    _, _, order, fill = _FAMILIES[f]
    label = spec.canonical()
    _check_cap(order(*p), max_size, label)
    table, ord_, gens = fill(*p)
    return _build(table, label, ord_, gens)


__all__ = ["FAMILY_NAMES", "GroupSpec", "parse_group_spec", "build_group",
           "load_table_with_report"]
