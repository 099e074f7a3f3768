"""Exception types shared across the package."""

from __future__ import annotations


class GroupError(Exception):
    """Base class for every error raised by this package."""


class NotClosed(GroupError):
    """Table is not square, or an entry falls outside [0, n)."""


class NoIdentityAtZero(GroupError):
    """No element acts as a two-sided identity."""


class NoInverse(GroupError):
    """Some element has no two-sided inverse."""

    def __init__(self, message: str, element: int | None = None):
        super().__init__(message)
        self.element = element


class NotAssociative(GroupError):
    """Associativity fails; carries the witness triple (a, b, c)."""

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


class NotASubgroup(GroupError):
    """A member set is not closed; carries a witness pair."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class SizeLimitExceeded(GroupError):
    """Requested construction exceeds the configured size cap."""


class InvalidArgument(GroupError):
    """Parameter outside the domain of an operation or constructor."""


class ParseError(GroupError):
    """Malformed Cayley-table file; carries 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SpecSyntaxError(GroupError):
    """Malformed group-spec string, an unknown family, or parameters outside
    their family's rule; carries the 0-based position where the parser has
    one."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
