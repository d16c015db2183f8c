"""Exception types shared across the package, and the readers that name the
input a malformed file's error comes from."""

import json
from contextlib import contextmanager

import numpy as np

_READ_ERRORS = (OSError, LookupError, TypeError, ValueError, AttributeError, OverflowError,
               RecursionError)  # what malformed input makes parsing and the constructors raise


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
                if line.strip() and (value := row(json.loads(line))) is not None:
                    rows.append(value)
            except _READ_ERRORS as exc:
                with reading(f"{path} line {i}"):
                    raise exc
    return rows
