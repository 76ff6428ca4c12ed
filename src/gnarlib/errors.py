"""Exception types shared across the library, and its input and output
boundary.

All errors raised on bad user input derive from ``GnarError`` so callers
can catch one base class; the CLI maps them to nonzero exit codes.  The
seed and finiteness checks and the one CSV and one JSON reader that every
file input goes through live here, so that malformed outside input ends in
one ``InvalidInputError`` naming the file.  So do the one CSV and one JSON
writer that every output file goes through: RFC 4180 CSV with LF line ends
and RFC 8259 JSON (an undefined number is ``null``), each written
atomically with the mode a plain ``open`` would give.
"""

import csv
import itertools
import json
import math
import numbers
import os
import types

import numpy as np

# the weight schemes of ``gnar_core.WeightScheme``, here so that the command
# parser offers them without running the model code
WEIGHT_KINDS = ("spl", "uniform", "idw", "pb")


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


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _check_finite(**params) -> None:
    """Reject a parameter (a number or an array of them) that holds a NaN
    or an infinity, naming the parameter and its first such value."""
    for name, value in params.items():
        bad = np.extract(~np.isfinite(value), value)
        if bad.size:
            raise InvalidInputError(f"{name} must be finite, got {bad[0]}")


# Rows per block that ``_read_csv`` hands its parser: only one block's rows
# are alive at a time, however long the file is.  Fewer rows per block give
# the garbage collector fewer live objects to scan, more rows fewer numpy
# calls per row; at 1,024 a 13,494-row long CSV was read fastest.
_CSV_BLOCK = 1024


def _read_csv(source, layout: str, header_ok, parse, check) -> tuple[list[str], list]:
    """Read a CSV path or text stream into ``(header, [parse(rows, col), ...])``.

    Lines starting with ``#`` before the header (metadata) and blank rows
    are skipped; after the header such a line is data.  ``header_ok(header)``
    must hold (``layout`` describes the header it expects), every data row
    must have as many fields as the header, and ``col`` maps each header name
    to its field index.  ``parse`` takes the non-blank rows, tuples of str,
    in blocks of at most ``_CSV_BLOCK`` rows, and only converts: it raises
    on a bad cell without working out which row holds it.  Only the row
    rule ``check(row, col)`` names a bad row: when ``parse`` raises, it is
    run over that block's rows in order, ``parse`` takes the rows before
    the first row it rejects, and that row's error is raised.  The rows
    read before a ragged row or a read error are parsed first too, so the
    first error in file order wins, as in a loop over the rows.  An
    undecodable byte, a bad header or row, or a rejected row raises one
    InvalidInputError naming the source and the data row (blank rows
    counted).
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return _read_csv(fh, layout, header_ok, parse, check)
    rows = csv.reader(itertools.dropwhile(lambda line: line.lstrip().startswith("#"), source))
    k, out = -1, []  # k: data rows read so far, -1 while reading the header
    try:
        header = next(rows, [])
        if not header_ok(header):
            raise ValueError(f"expected {layout}")
        col = {name: i for i, name in enumerate(header)}

        def convert(block) -> None:
            if any(block):
                out.append(parse(list(filter(None, block)), col))

        k, block = 0, [None] * _CSV_BLOCK
        while len(block) == _CSV_BLOCK:     # until a short block: the end of the file
            block = []
            # rows as tuples of str, which the garbage collector stops tracking, so
            # that a block's rows are not promoted to the collector's older
            # generations; extend keeps the rows read before a read error ...
            try:
                block.extend(map(tuple, itertools.islice(rows, _CSV_BLOCK)))
            finally:    # ... and they are parsed before it is raised
                width = np.fromiter(map(len, block), np.intp, len(block))
                cut = int(np.argmax(np.append((width != len(header)) & (width > 0), True)))
                try:
                    convert(block[:cut])
                except (KeyError, TypeError, ValueError):
                    for i, row in enumerate(block[:cut]):   # the row rule names the row
                        try:
                            if row:
                                check(row, col)
                        except (KeyError, TypeError, ValueError):
                            convert(block[:i])
                            k += i
                            raise
                    raise   # the rule passed every row: the parser's own error
                k += cut
                if cut < len(block):    # a ragged row
                    raise ValueError(f"{width[cut]} fields, but the header has {len(header)}")
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


def _write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a new text file beside ``path``, then rename it
    onto ``path``, so that a reader sees the old file or the whole new one.
    The parent directory is created, and the umask sets the file's mode."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cell(v) -> str:
    """A CSV cell: None and NaN are empty, a float is its repr, else ``str``."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v)) if v == v else ""
    return "" if v is None else str(v)


def _write_csv(path, header, rows, meta_lines=()) -> None:
    """Write ``# `` metadata lines, the header and the rows as CSV: a field
    is quoted only where it must be (a CR or LF in it is such a place), and
    every line ends in LF.  A CR or LF in a metadata line is written as
    ``\\r`` or ``\\n``, so that the line stays one line."""
    def write(fh):
        fh.writelines("# " + line.replace("\r", "\\r").replace("\n", "\\n") + "\n"
                      for line in meta_lines)
        # csv quotes a field that holds a character of the line terminator:
        # ask for CRLF, so CR counts too, and end each row in LF instead
        out = csv.writer(types.SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                         lineterminator="\r\n")
        out.writerow(header)
        out.writerows([_cell(v) for v in row] for row in rows)
    _write_atomic(path, write)


def _write_json(path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, indent 2 and a trailing
    newline; a NaN or an infinity is written as ``null``."""
    text = json.dumps(_finite_or_none(obj), indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(path, lambda fh: fh.write(text + "\n"))


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj
