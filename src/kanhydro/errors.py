"""Exception hierarchy shared across the package."""


class KanHydroError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(KanHydroError, ValueError):
    """A scalar argument violates its documented precondition."""


class InvalidDomainError(InvalidArgumentError):
    """Grid domain bounds are inverted or degenerate."""


class InvalidShapeError(InvalidArgumentError):
    """A network shape vector is unusable."""


class LengthMismatchError(KanHydroError, ValueError):
    """Paired vectors disagree in length."""


class DimMismatchError(KanHydroError, ValueError):
    """Batch or vector dimensions do not match a network's shape."""


class RankDeficientError(KanHydroError):
    """The damped least-squares system is still singular."""


class DomainViolationError(KanHydroError, ValueError):
    """A symbolic primitive left its domain, first at batch row ``row``."""

    def __init__(self, message, node_path=None, row=None):
        super().__init__(message)
        self.node_path = node_path
        self.row = row


class UnlockedEdgesError(KanHydroError):
    """Formula extraction requires every edge to be locked."""

    def __init__(self, message, edges=None):
        super().__init__(message)
        self.edges = edges or []


class NoValidCandidateError(KanHydroError):
    """Every symbolic candidate violated its domain on the observed inputs."""


class NonFiniteObjectiveError(KanHydroError):
    """The objective is not finite at the starting point."""


class TooSmallDatasetError(KanHydroError, ValueError):
    """Not enough records for the requested split."""


class DataValidationError(KanHydroError, ValueError):
    """A dataset row violates an invariant; message names the row."""


class CsvParseError(KanHydroError, ValueError):
    """Malformed input file; message carries the line number."""


class ExpressionParseError(KanHydroError, ValueError):
    """An expression string does not match the supported grammar."""
