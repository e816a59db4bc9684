"""Exception hierarchy shared across the library and the CLI.

Every error the CLI can surface carries a machine-readable ``code`` so
problem files can be regression-tested against specific failure modes.
"""

from math import inf


class IcisError(Exception):
    code = "error"


class UsageError(IcisError):
    """A command line outside the grammar of ``icis --help``."""

    code = "usage"


class RingMismatchError(IcisError):
    """Operands live over different variable lists."""

    code = "ring-mismatch"


class UnknownVariableError(IcisError):
    """A named variable is not part of the polynomial's ring."""

    code = "unknown-variable"


class ZeroInputError(IcisError):
    """An operation that requires a nonzero polynomial got zero."""

    code = "zero-input"


class BudgetExhaustedError(IcisError):
    """The reduction step budget ran out before completion.

    Raised instead of returning a possibly wrong answer.
    """

    code = "budget-exhausted"

    def __init__(self, message="step budget exhausted"):
        super().__init__(message)


class NonIsolatedError(IcisError):
    """A colength that should be finite came out infinite.  Each such
    refusal is ``unless_finite``; a search that only decides isolation,
    as ``germs.IcisPresentation``'s, compares with inf itself."""

    code = "non-isolated"

    @classmethod
    def unless_finite(cls, colength, message, *args):
        """``colength``, or raise with ``message.format(*args)`` when it is
        infinite; the text is formatted only then."""
        if colength == inf:
            raise cls(message.format(*args))
        return colength


class GenericityError(IcisError):
    """All seeded recombinations of the defining equations failed to
    produce finite intermediate colengths in the Milnor-number chain."""

    code = "genericity-failure"


class UnsupportedInputError(IcisError):
    """Input is outside the supported desk-scale class (e.g. a
    discriminant eliminant that is not principal)."""

    code = "unsupported-input"


class AnswerTooLongError(IcisError):
    """An answer has a number with more digits than the interpreter
    converts to text (``sys.get_int_max_str_digits``), so no report can
    print it."""

    code = "answer-too-long"


class InvalidInputError(IcisError, ValueError):
    """An input outside the domain of the computation, such as a germ
    that does not vanish at the origin or a zero direction vector."""

    code = "invalid-input"


class ProblemFileError(IcisError):
    """Base class for problem-file validation failures."""

    code = "input-error"

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ProblemSyntaxError(ProblemFileError):
    code = "syntax-error"


class UnboundNameError(ProblemFileError):
    code = "unbound-name"


class MissingParameterError(ProblemFileError):
    code = "missing-parameter"


class ExpansionTooLargeError(ProblemFileError):
    """A product or power in the problem file expands too far to be
    computed at parse time."""

    code = "expansion-too-large"
