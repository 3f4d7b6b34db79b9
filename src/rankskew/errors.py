"""Exception taxonomy. Every operation raises one of these named errors."""

from __future__ import annotations


class RankSkewError(Exception):
    """Base class for all library errors."""


class ZeroVariance(RankSkewError):
    pass


class TooShort(RankSkewError):
    pass


class WrongPeriod(RankSkewError):
    pass


class InsufficientOverlap(RankSkewError):
    pass


class SignChangeInWindow(RankSkewError):
    pass


class TooFewPoints(RankSkewError):
    pass


class InvalidParams(RankSkewError):
    pass


class MomentDoesNotExist(RankSkewError):
    pass


class NegativeDensity(RankSkewError):
    pass


class NotConverged(RankSkewError):
    pass


class TooFewAssets(RankSkewError):
    pass


class MissingRate(RankSkewError):
    pass


class TooFewRows(RankSkewError):
    pass


class DegenerateX(RankSkewError):
    pass


class SingularWindow(RankSkewError):
    pass


class IOWrite(RankSkewError):
    pass


# Raised by the domain-type constructors. They also subclass ValueError, so
# code that catches ValueError around a constructor keeps working.


class UnsortedDates(RankSkewError, ValueError):
    pass


class NonFiniteValue(RankSkewError, ValueError):
    pass


class ShapeMismatch(RankSkewError, ValueError):
    pass


class DuplicateLabel(RankSkewError, ValueError):
    pass


class CsvFormatError(RankSkewError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
