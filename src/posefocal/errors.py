"""Exception types shared across the package, the readers that name the input a
malformed file's error comes from, and the column-wise reads that fall back to them."""

import json
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np

_READ_ERRORS = (OSError, LookupError, TypeError, ValueError, AttributeError, OverflowError,
               RecursionError)  # what malformed input makes parsing and the constructors raise
READ_BLOCK = 1024  # rows that a column-wise read holds as Python values before making arrays
_SCAN = json.JSONDecoder().scan_once  # the C scanner inside json.loads


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


def _parsed(line: str):
    """``json.loads(line)``, its value taken straight from the scanner where the value spans
    the line up to one final newline; any other line, json.loads' own value or error."""
    try:
        value, end = _SCAN(line, 0)
        if end == len(line) or end == len(line) - 1 and line[end] == "\n":
            return value
    except (StopIteration, *_READ_ERRORS):
        pass
    return json.loads(line)


def number_columns(rows, *shapes) -> list:
    """The columns of ``rows``, an iterator of tuples: for each shape, () or (k,), one float
    array (N, *shape), for each None, a list of the values. A ValueError unless each shaped
    column holds ints and floats, as lists of k for (k,) (a string, an object, a ragged list
    or a block of bools does not). Rows are gathered READ_BLOCK at a time, so that one
    block's Python values at most are alive at once; a (k,) column's values are flattened
    into one list, which NumPy converts faster than nested lists, with the same bits."""
    parts = [[] for _ in shapes]
    for block in iter(lambda: list(islice(rows, READ_BLOCK)), []):
        for part, values, shape in zip(parts, zip(*block), shapes):
            if shape is not None:
                flat = list(chain.from_iterable(values)) if shape else values
                array = np.array(flat)
                if (array.dtype.kind not in "fi" or array.shape != (len(flat),)
                        or shape and {*map(len, values)} != {shape[0]}):
                    raise ValueError("not a column of numbers")
                values = array.reshape(len(block), *shape)
            part.append(values)
    return [np.concatenate(part).astype(float, copy=False) if shape is not None
            else list(chain.from_iterable(part)) for part, shape in zip(parts, shapes)]


def require(ok):
    if not np.all(ok):
        raise ValueError("a row breaks a check")


def by_columns(columns, rows):
    """``columns()``, or ``rows()`` should that raise what malformed input raises. Built
    column-wise, ``columns`` must reject all that the row-by-row read ``rows`` rejects and give
    its bits on the rest, so that every accepted value and message is the row-by-row read's."""
    with np.errstate(over="ignore"):  # as in read_jsonl
        try:
            return columns()
        except _READ_ERRORS:
            pass
        return rows()


def read_columns(path, columns, row, assemble):
    """:func:`by_columns` of ``columns`` of the values of the UTF-8 JSON-lines file ``path``'s
    non-blank lines, each parsed once, with ``assemble(read_jsonl(path, row))``, which names the
    first bad line, as the row-by-row read."""
    def parsed():
        with open(path, encoding="utf-8") as fh:
            return columns(map(_parsed, filter(str.strip, fh)))
    return by_columns(parsed, lambda: assemble(read_jsonl(path, row)))


def read_jsonl(path, row) -> list:
    """``row`` of each parsed non-blank line of the UTF-8 JSON-lines file ``path``, but for
    the Nones. What decoding, parsing or ``row`` raises on line i becomes a DomainError
    naming "<path> line <i>". Overflow does not warn: the constructors reject an
    overflowing norm themselves."""
    rows = []
    with reading(str(path)):
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    with fh, np.errstate(over="ignore"):
        for i, line in enumerate(fh, start=1):
            try:
                if not line.isascii():  # an undecodable byte came in as a lone surrogate
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                if line.strip() and (value := row(_parsed(line))) is not None:
                    rows.append(value)
            except _READ_ERRORS as exc:
                with reading(f"{path} line {i}"):
                    raise exc
    return rows
