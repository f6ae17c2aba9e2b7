"""Exception hierarchy for the two-well construction.

Everything raised on purpose by this package derives from TwoWellError so
callers can catch the whole family at once.  The subclasses mirror the
failure modes of the pipeline stages: bad parameters, points outside the
reachable set, degenerate coordinates, covering geometry that cannot be
refined, and so on.

The stacked constructions check many rows at once.  They keep a list
with one entry per row, None or the error that row's one-row call would
raise: fail records a check, clean reads which rows passed, and
raise_first raises what the one-row call raises.
"""

from __future__ import annotations

import numpy as np


class TwoWellError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TwoWellError):
    """A scalar parameter is out of its admissible range (e.g. delta <= 0)."""


class NotAttainableError(TwoWellError):
    """A matrix is not in the set the operation requires (hull, interior, ...)."""


class DegenerateCoordinatesError(TwoWellError):
    """Laminate coordinates are on the degenerate locus (lambda = 1/2 wall)."""


class NotSplittableError(TwoWellError):
    """A requested split target cannot be realised from this state."""


class InvalidTargetError(TwoWellError):
    """A requested improvement epsilon is outside (0, eps0]."""


class NotClassifiableError(TwoWellError):
    """A gradient does not belong to any refinement stage."""


class WrongEntryPointError(TwoWellError):
    """Data handed to the engine that the construction cannot start from."""


class ConstructionFailureError(TwoWellError):
    """An internal consistency check failed while building a cell."""


class AspectFailureError(ConstructionFailureError):
    """The aspect h is too large for a cell: the one failure retried."""


class InvalidDomainError(TwoWellError):
    """A triangulation is empty, degenerate, or self-overlapping."""


class InvalidPairError(TwoWellError):
    """Two gradients are not rank-one connected the way the cell needs."""


class UndefinedDimensionError(TwoWellError):
    """Box-counting requested on an empty point set or empty scale range."""


def fail(errors: list, bad, make, rows=None) -> None:
    """Give row rows[j] (row j without rows) the error make(j) for every j
    with bad[j], unless an earlier check already failed that row: a stack
    keeps each row's first failing check, in the order in which the
    one-row construction makes its checks."""
    for j in np.flatnonzero(bad):
        i = j if rows is None else rows[j]
        if errors[i] is None:
            errors[i] = make(j)


def clean(errors: list) -> np.ndarray:
    return np.array([e is None for e in errors], dtype=bool)


def raise_first(errors: list) -> None:
    """Raise the error of the first failing row, if any."""
    for err in errors:
        if err is not None:
            raise err
