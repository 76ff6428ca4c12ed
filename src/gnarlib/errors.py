"""Exception types shared across the library, and its input boundary.

All errors raised on bad user input derive from ``GnarError`` so callers
can catch one base class; the CLI maps them to nonzero exit codes.  The
seed and finiteness checks and the one CSV and one JSON reader that every
file input goes through live here, so that malformed outside input ends in
one ``InvalidInputError`` naming the file.
"""

import csv
import json
import numbers

import numpy as np


class GnarError(Exception):
    """Base class for all library-specific errors."""


class InvalidInputError(GnarError, ValueError):
    """An argument violates a documented precondition."""


class DataIntegrityError(GnarError, ValueError):
    """Input data contradicts itself (e.g. conflicting duplicate cells)."""


class DegenerateGeometryError(GnarError, ValueError):
    """Point configuration admits no triangulation (e.g. all collinear)."""


class ModelInadmissibleError(GnarError, ValueError):
    """A requested neighbourhood stage is empty for some node."""


class SingularDesignError(GnarError, ValueError):
    """Design matrix is rank deficient; names the dependent columns."""


class InsufficientDataError(GnarError, ValueError):
    """Not enough usable observations to perform the operation."""


class FeasibilityError(GnarError, ValueError):
    """Dimensions rule out the requested estimator (e.g. full covariance)."""


class UndefinedStatisticError(GnarError, ValueError):
    """The statistic is undefined for this input (e.g. constant values)."""


class SelectionFailedError(GnarError, ValueError):
    """No candidate in a model search could be fitted."""


def _check_seed(seed) -> None:
    """Reject a seed that ``np.random.default_rng`` cannot take as entropy."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")


def _check_finite(**params) -> None:
    """Reject a parameter (a number or an array of them) that holds a NaN
    or an infinity, naming the parameter and its first such value."""
    for name, value in params.items():
        bad = np.extract(~np.isfinite(value), value)
        if bad.size:
            raise InvalidInputError(f"{name} must be finite, got {bad[0]}")


def _read_csv(source, layout: str, header_ok, parse) -> tuple[list[str], list]:
    """Read a CSV path or text stream into ``(header, [parse(row, col), ...])``.

    Lines starting with ``#`` and blank rows are skipped.  ``header_ok(header)``
    must hold (``layout`` describes the header it expects), every data row
    must have as many fields as the header, and ``col`` maps each header name
    to its field index.  A ``parse`` that returns None folds the row itself
    and nothing is kept.  An undecodable byte, a bad header or row, or an
    error from ``parse`` raises one InvalidInputError naming the source and
    the data row; a DataIntegrityError (rows that contradict each other)
    passes unchanged.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return _read_csv(fh, layout, header_ok, parse)
    rows = csv.reader(line for line in source if not line.lstrip().startswith("#"))
    k, out = -1, []  # k: data rows read so far, -1 while reading the header
    try:
        header = next(rows, [])
        if not header_ok(header):
            raise ValueError(f"expected {layout}")
        col = {name: i for i, name in enumerate(header)}
        k = 0
        for row in rows:
            if row:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
                parsed = parse(row, col)
                if parsed is not None:
                    out.append(parsed)
            k += 1
    except DataIntegrityError:
        raise
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UnicodeDecodeError):  # decoded a block at a time: no row
            at = "undecodable text"
        else:
            at = f"data row {k + 1}: malformed field" if k >= 0 else "bad header"
        raise InvalidInputError(
            f"{getattr(source, 'name', 'CSV input')}: {at} ({exc})") from exc
    return header, out


def _read_json(path, build, what: str):
    """``build(obj)`` for the JSON value in ``path``; malformed JSON or an
    error from ``build`` raises one InvalidInputError naming the file."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"{path}: not {what} ({exc})") from exc
