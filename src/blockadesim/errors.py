"""Exception taxonomy.

Everything raised on purpose derives from BlockadeSimError so callers can
catch package errors without swallowing genuine bugs. The CLI maps these
onto exit codes (input problems 2, non-convergence 3, size caps 4).
"""


class BlockadeSimError(Exception):
    """Base class for all errors raised by blockadesim."""


class InvalidParameterError(BlockadeSimError, ValueError):
    """An argument is outside its documented domain: a number, atom positions
    (bad shape, non-finite, coincident or too far apart), a state and an
    operator over different bases, or data with no usable signal."""


class SizeCapError(BlockadeSimError):
    """A step would exceed the memory limit, or a basis has more than 63 atoms."""


class InputFileError(BlockadeSimError):
    """A positions or CSV file failed to parse; message cites file and line."""


class ConfigError(BlockadeSimError):
    """A run configuration is malformed or inconsistent."""


def read_lines(path: str, error: type[BlockadeSimError]):
    """Yield the lines of the UTF-8 text ``path`` as str.splitlines splits
    them, reading a line at a time; a file that cannot be opened, read or
    decoded raises ``error`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                yield from line.splitlines()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
