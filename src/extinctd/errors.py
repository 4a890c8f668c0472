"""Exception types shared across the toolkit."""


class ExtinctdError(Exception):
    """Base class for all toolkit errors."""


# -- model construction ------------------------------------------------------

class MissingField(ExtinctdError):
    pass


class UnknownModel(ExtinctdError):
    pass


class InvalidRateMatrix(ExtinctdError):
    pass


class DimensionMismatch(ExtinctdError):
    pass


class InvalidAdjacency(ExtinctdError):
    pass


class NegativeRate(ExtinctdError):
    pass


class NegativeParameter(ExtinctdError):
    pass


class NonFiniteParameter(ExtinctdError):
    pass


class NonPositiveF(ExtinctdError):
    pass


# -- simulation --------------------------------------------------------------

class NonFiniteState(ExtinctdError):
    pass


class RateBoundViolated(ExtinctdError):
    pass


# -- observables / estimation ------------------------------------------------

class NonFiniteObservable(ExtinctdError):
    pass


class EmptyWindow(ExtinctdError):
    pass


class WindowTooShort(ExtinctdError):
    pass


class LengthMismatch(ExtinctdError):
    pass


class IndexOutOfRange(ExtinctdError):
    pass


# -- linear algebra kernels --------------------------------------------------

class NonSquare(ExtinctdError):
    pass


class NoConvergence(ExtinctdError):
    pass


class Reducible(ExtinctdError):
    pass


class SingularSolve(ExtinctdError):
    pass


# -- configuration -----------------------------------------------------------

class ParseError(ExtinctdError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownKey(ExtinctdError):
    pass
