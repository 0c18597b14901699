"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from :class:`RelikitError` so
callers can catch one type at the boundary. Each class carries the CLI
exit code of its errors as ``exit_code``: usage problems exit 1, data
problems (every class without its own code) exit 2, numerical failures
exit 3. :func:`convert_option` is the one strict cast of option
and config values, so a value of the wrong type is always a usage error.
:func:`read_json_object` reads every JSON input file (manifest, calibrator,
config) and raises the error class its caller names; :func:`parse_json_object`
is its parse of JSON text, which also reads a synth config given as text.
"""

import json
from enum import Enum
from pathlib import Path


class RelikitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class InvalidTensorError(RelikitError):
    """Tensor data violates a structural invariant (shape, dtype, finiteness)."""


class TensorFormatError(RelikitError):
    """A tensor file is malformed: bad magic, corrupt header, or wrong payload size."""


class ManifestError(RelikitError):
    """A dataset manifest is inconsistent or references missing files."""


class MetricError(RelikitError):
    """A metric precondition is violated (empty inputs, degenerate configurations)."""


class CalibrationError(RelikitError):
    """Calibration fitting or application failed its preconditions."""


class NumericalError(RelikitError):
    """A numerical routine produced a non-finite result or left its bounds."""

    exit_code = 3


class UsageError(RelikitError):
    """Bad command-line arguments or configuration values."""

    exit_code = 1


def convert_option(name: str, value, kind, *, text: bool = True):
    """Cast one option or config value with ``kind``; a value it rejects is a usage error.

    A bool is no number and a float no integer, so ``true`` or ``2.7`` is not truncated.
    A string may spell a number (a command-line value, an environment
    variable) unless ``text`` is False, as for a JSON artifact, which holds
    its numbers as JSON numbers.
    """
    try:
        if kind in (int, float) and (isinstance(value, bool) or kind is int and isinstance(value, float)
                                     or not text and isinstance(value, str)):
            raise TypeError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(kind, type) and issubclass(kind, Enum):
            expected = "one of " + ", ".join(member.value for member in kind)
        else:
            expected = "an integer" if kind is int else "a number"
        raise UsageError(f"{name.replace('_', '-')} must be {expected}, got {value!r}") from exc


def parse_json_object(text: str, error: type[RelikitError], noun: str, where=None) -> dict:
    """The JSON object in ``text``; invalid or over-nested JSON, or another JSON value, raises ``error``.

    ``where``, when given, prefixes the message (the file the text came from).
    """
    prefix = "" if where is None else f"{where}: "
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # invalid JSON or nesting too deep
        raise error(f"{prefix}{noun} is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise error(f"{prefix}{noun} must be a JSON object")
    return payload


def read_json_object(path, error: type[RelikitError], noun: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; any failure raises ``error`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"{path}: cannot read {noun} ({exc})") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise error(f"{path}: {noun} is not valid JSON ({exc})") from exc
    return parse_json_object(text, error, noun, path)
