"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config errors exit 2, data errors
exit 3, internal-invariant violations exit 4.
"""


class SiglinkError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SiglinkError):
    """Invalid configuration: bad parameter values, unknown template
    attributes, malformed config files."""


class DataError(SiglinkError):
    """Invalid input data: missing CSV columns, malformed rows,
    unresolvable ground-truth ids."""


def check_unit_interval(key: str, value: float) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{key} must be in (0, 1), got {value}")


class InternalInvariantError(SiglinkError):
    """A structural invariant the implementation relies on was violated
    (e.g. a cycle in what must be a forest). Indicates a bug, not bad
    user input."""
