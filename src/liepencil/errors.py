"""Exception types shared across the package."""

from __future__ import annotations


class LiePencilError(Exception):
    """Base class for all errors raised by this package."""


class RegistryMismatch(LiePencilError):
    """Two polynomials from unrelated variable registries were combined."""


class DegreeOverflow(LiePencilError):
    """A polynomial product's total degree exceeds what a monomial can hold."""


class ParseError(LiePencilError):
    """Syntax or semantic error in an input document.

    Carries enough position information to print ``origin:line:col: message``.
    """

    def __init__(self, message, line=None, column=None, origin=None):
        self.message = message
        self.line = line
        self.column = column
        self.origin = origin
        super().__init__(str(self))

    def __str__(self):
        where = []
        if self.origin:
            where.append(str(self.origin))
        if self.line is not None:
            where.append(str(self.line))
            if self.column is not None:
                where.append(str(self.column))
        prefix = ":".join(where)
        return f"{prefix}: {self.message}" if prefix else self.message


class SchemaError(ParseError):
    """Structured input violates the expected schema; ``path`` names the field."""

    def __init__(self, message, path="", origin=None):
        self.path = path
        text = f"{path}: {message}" if path else message
        super().__init__(text, origin=origin)


class InvalidAlgebra(LiePencilError):
    """An operation required a valid Lie algebra but validation failed.

    ``report`` carries the full validation result when the caller has one.
    """

    def __init__(self, detail, report=None):
        self.report = report
        super().__init__(f"bracket table is not a Lie algebra: {detail}")


class ExclusionViolation(LiePencilError):
    """A parameter binding hit a declared forbidden locus."""


class ParameterBindingError(LiePencilError):
    """Parameters were left unbound, bound twice, or do not exist."""


class SingularMatrix(LiePencilError):
    """A basis change or congruence matrix is not invertible."""


class SamplingError(LiePencilError):
    """Could not draw an admissible parameter sample within the retry budget."""
