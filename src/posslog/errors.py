"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PosslogError(Exception):
    """Base class for all package errors."""


class DomainError(PosslogError):
    """A value violates a domain contract (bad name, weight out of range,
    evaluation outside an interpretation's universe, and the like)."""


class InconsistentBaseError(PosslogError):
    """An operation that requires a consistent base was given one with a
    positive inconsistency degree."""

    def __init__(self, degree, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"base is inconsistent: Inc = {degree}")


class ParseError(PosslogError):
    """Syntax error in a base file, with 1-indexed position information."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class NetworkSchemaError(PosslogError):
    """A serialized network violates the schema (missing cells, cyclic
    parent links, malformed weights, ...)."""


class ResourceCapError(PosslogError):
    """A computation would exceed one of the explicit size caps: worlds
    enumerated by the oracle, clauses drawn by `oracle.random_base`,
    clauses of a CNF expansion (`model.MAX_CNF_CLAUSES`), or cells of a
    compiled node's table (`compiler.MAX_CPT_CELLS`)."""


class GenerationError(PosslogError):
    """Random base generation could not satisfy its constraints within the
    retry budget."""
