"""Exception types shared across the package, the JSON kind check of its readers,
and the names of the selection policies and weighting sources.

The CLI maps these onto exit codes: InputError -> 1, TrainingError and
SelectionError -> 2, FormatError and OS-level failures -> 3. Everything here is
standard library, so the CLI's parser reads the name lists without loading numpy.
"""


class SnapstackError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SnapstackError):
    """Invalid argument, configuration value, or violated precondition."""


class TrainingError(SnapstackError):
    """Training produced a non-finite loss or parameter value."""


class SelectionError(SnapstackError):
    """A snapshot selection matched nothing in the store."""


class FormatError(SnapstackError):
    """Malformed snapshot-store or IDX file."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class BadVersionError(FormatError):
    """File declares an unsupported format version."""


class TruncatedFileError(FormatError):
    """File ends before its declared payload does."""


class CountMismatchError(FormatError):
    """Paired files declare inconsistent record counts."""


class ArchMismatchError(FormatError):
    """Stored parameters do not fit the declared architecture."""


# snapshots.select's policies and stacking.log_likelihoods' sources, which the CLI offers
POLICIES = ("min", "mid", "min+mid", "window", "offset")
SOURCES = ("train", "validation")

# the JSON values each Python type takes: Python counts a bool as an int, JSON does not
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def json_kind(hint: type, value, what: str):
    """value, parsed from JSON, if it is of the JSON kind that hint (int, float or str)
    takes; otherwise InputError naming what."""
    types, name = _JSON_KINDS[hint]
    if type(value) not in types:
        raise InputError(f"{what} must be {name}, got {value!r}")
    return value
