"""Exception hierarchy for the quiver-algebra workbench."""


class QuivalgError(Exception):
    """Base class for all errors raised by this package."""


class DisconnectedQuiverError(QuivalgError):
    """The quiver is not connected (as an undirected graph)."""


class BadRelationError(QuivalgError):
    """A relation is not a valid path of length at least two."""


class NotAdmissibleError(QuivalgError):
    """The monomial ideal is not admissible: infinitely many nonzero paths."""


class InvalidKupischError(QuivalgError):
    """A length sequence violates the Kupisch admissibility conditions."""


class NotNakayamaError(QuivalgError):
    """The operation requires a Nakayama algebra."""


class UniserialLengthError(QuivalgError, ValueError):
    """No uniserial module has the requested top and composition length."""


class ZeroModuleError(QuivalgError):
    """The operation is undefined for the zero module."""


class DomDimZeroError(QuivalgError):
    """The algebra has no faithful projective-injective module."""


class NotBasicError(QuivalgError):
    """Two summands of the given module are isomorphic."""


class NotLocalError(QuivalgError):
    """A summand has a non-local endomorphism ring."""


class AlgebraParseError(QuivalgError):
    """Syntax error in an algebra description file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
