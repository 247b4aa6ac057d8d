"""Exception taxonomy.

Everything raised on purpose derives from BlockadeSimError so callers can
catch package errors without swallowing genuine bugs. The CLI maps these
onto exit codes (input problems 2, non-convergence 3, size caps 4).
"""


class BlockadeSimError(Exception):
    """Base class for all errors raised by blockadesim."""


class InvalidParameterError(BlockadeSimError, ValueError):
    """A numeric argument is outside its documented domain."""


class GeometryError(BlockadeSimError, ValueError):
    """Atom positions are unusable (coincident atoms, bad shape, non-finite)."""


class SizeCapError(BlockadeSimError):
    """A step would exceed the memory limit, or a basis has more than 63 atoms."""


class BasisMismatchError(BlockadeSimError, ValueError):
    """A state and an operator were built over different bases."""


class DegenerateDataError(BlockadeSimError, ValueError):
    """Data carries no usable signal (all zeros, empty ensemble)."""


class InputFileError(BlockadeSimError):
    """A positions or CSV file failed to parse; message cites file and line."""


class ConfigError(BlockadeSimError):
    """A run configuration is malformed or inconsistent."""
