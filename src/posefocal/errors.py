"""Exception types shared across the package, the reader that names the input a
malformed file's error comes from, and the one JSON-lines read: column-wise a block of
lines at a time, and row by row in a block that the column-wise read rejects."""

import json
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np

_READ_ERRORS = (OSError, LookupError, TypeError, ValueError, AttributeError, OverflowError,
               RecursionError)  # what malformed input makes parsing and the constructors raise
READ_BLOCK = 1024  # non-blank lines that a read holds at once and builds into one block of columns
_DEEP = 500  # brackets from which a line might nest as deep as json's recursion limit


class DomainError(ValueError):
    """An input violates a mathematical precondition."""


class DepthError(DomainError):
    """A point has non-positive depth in front of the camera."""


class DegenerateInputError(DomainError):
    """Input is degenerate (zero vector, parallel pair, ...)."""


class DegenerateFitError(DomainError):
    """Not enough data, or data too degenerate, to fit a distribution."""


@contextmanager
def reading(where: str):
    """Turns the errors that reading and building records from a malformed input file
    raise into DomainErrors naming ``where``: the file, and the line of a JSON-lines
    file. JSON syntax errors and missing fields are labelled as such."""
    try:
        yield
    except DomainError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{where}: malformed JSON: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"{where}: missing field {exc}") from exc
    except _READ_ERRORS as exc:
        raise DomainError(f"{where}: {exc}") from exc


def _parsed(line: str, loads=json.loads):
    """``loads(line)``, but json's value or error for a line with _DEEP brackets or more,
    which might nest past json's recursion limit (orjson 3.8 has no limit and may crash).
    A line that is not UTF-8 raises its UnicodeDecodeError."""
    if not line.isascii():  # an undecodable byte came in as a lone surrogate
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    if len(line) >= 2 * _DEEP and line.count("[") + line.count("{") >= _DEEP:
        return json.loads(line)
    return loads(line)


def number_columns(rows, *shapes) -> list:
    """The columns of ``rows``, an iterable of tuples: for each shape, () or (k,), one float
    array (N, *shape), for each None, a list of the values. A ValueError unless each shaped
    column holds ints and floats, as lists of k for (k,) (a string, an object, a ragged list
    or a block of bools does not). A (k,) column's values are flattened into one list, which
    NumPy converts faster than nested lists, with the same bits."""
    columns = []
    for values, shape in zip([*zip(*rows)] or [()] * len(shapes), shapes):
        if shape is not None:
            flat = list(chain.from_iterable(values)) if shape else values
            array = np.array(flat)
            if (array.dtype.kind not in "fi" or array.shape != (len(flat),)
                    or shape and {*map(len, values)} - {shape[0]}):
                raise ValueError("not a column of numbers")
            values = array.reshape(len(values), *shape).astype(float, copy=False)
        columns.append(values)
    return columns


def require(ok):
    if not np.all(ok):
        raise ValueError("a row breaks a check")


def by_columns(columns, rows):
    """``columns()``, or ``rows()`` should that raise what malformed input raises. Built
    column-wise, ``columns`` must reject all that the row-by-row read ``rows`` rejects and give
    its bits on the rest, so that every accepted value and message is the row-by-row read's.
    Overflow does not warn: the constructors reject an overflowing norm themselves."""
    with np.errstate(over="ignore"):
        try:
            return columns()
        except _READ_ERRORS:
            pass
        return rows()


def block_columns(items, columns, row, *shapes) -> list:
    """The columns, one per shape as :func:`number_columns` gives them, of ``items`` taken
    READ_BLOCK at a time. Each block is :func:`by_columns` of ``columns(block)`` and of the
    row-by-row build from ``row`` of each item, but for the Nones, which must give the
    fields ``columns`` gives: an item that only ``row`` takes sends its block alone row by row."""
    items, blocks = iter(items), [number_columns((), *shapes)]  # the columns of no items
    for block in iter(lambda: list(islice(items, READ_BLOCK)), []):
        blocks.append(by_columns(lambda: columns(block), lambda: number_columns(
            (value for value in map(row, block) if value is not None), *shapes)))
    return [np.concatenate(part) if shape is not None else list(chain.from_iterable(part))
            for part, shape in zip(zip(*blocks), shapes)]


def read_columns(path, columns, row, *shapes, loads=json.loads) -> list:
    """:func:`block_columns` of the non-blank lines of the UTF-8 JSON-lines file ``path``,
    each parsed once: ``columns`` of a block's values as :func:`_parsed` with ``loads`` gives
    them, ``row`` of a value as json gives it. ``loads`` may reject more than json or read an
    integer as its float, but must otherwise give json's value. What decoding, parsing or
    ``row`` raises on line i becomes a DomainError naming "<path> line <i>"."""
    def line_row(numbered):
        with reading(f"{path} line {numbered[0]}"):
            return row(_parsed(numbered[1]))

    with reading(str(path)):
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    with fh:
        lines = ((i, line) for i, line in enumerate(fh, start=1) if line.strip())
        return block_columns(lines, lambda block: columns(
            _parsed(line, loads) for _, line in block), line_row, *shapes)
