"""Exception types shared across the package, and ``check_value``, the one
checker of a configured value. A config dataclass declares each field's kind
and rule once, with ``rule``: its constructor checks them (``check_fields``),
and ``check_value`` builds it from a config object by the same declarations.
"""

from __future__ import annotations

import dataclasses
import math
import types
from numbers import Integral, Real
from typing import get_args


class SegShieldError(Exception):
    """Base class for all segshield errors."""


class ConfigurationError(SegShieldError, ValueError):
    """Invalid configuration: bad band layout, socket tuning, profile, etc."""


class TraceFormatError(SegShieldError, ValueError):
    """A trace file failed to parse or validate.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class TraceRecordError(ValueError):
    """A trace breaks a rule at record ``index``. Not a SegShieldError: a stage
    that builds a bad trace has a bug, reported under the stage's name."""

    def __init__(self, reason: str, index: int):
        super().__init__(f"record {index}: {reason}")
        self.reason = reason
        self.index = index


class TransportError(SegShieldError, OSError):
    """A socket operation failed mid-transfer.

    ``chunks_sent`` counts the chunks that were fully written before the
    failure.
    """

    def __init__(self, message: str, chunks_sent: int = 0):
        super().__init__(message)
        self.chunks_sent = chunks_sent


class IntegrityError(SegShieldError):
    """Receiver-side digest did not match the sender's payload."""


# The shared rules of a scalar value: (predicate, description) pairs.
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")


def check_value(value, path: str, kind, rule=None):
    """Return ``value`` if it has type ``kind`` and passes ``rule``, a
    (predicate, description) pair; raise ConfigurationError naming ``path``
    otherwise. ``kind`` is a JSON type, ``kind | None`` to also allow null, a
    tuple of kinds for a fixed-length row, ``[kind]`` for a list of one kind
    (each comes back as a tuple), or a dataclass, which takes an instance as
    it is or builds one from an object of its ruled fields. A float is any
    finite real number and an int any integer, neither a bool, and each comes
    back as its kind; a list may be a tuple."""
    if isinstance(kind, types.UnionType):
        if value is None:
            return None
        kind = get_args(kind)[0]
    if isinstance(kind, tuple):  # a fixed-length row
        check_value(value, path, list, (lambda v: len(v) == len(kind), f"{len(kind)} long"))
        checked = tuple(check_value(v, f"{path}[{j}]", k) for j, (v, k) in enumerate(zip(value, kind)))
    elif isinstance(kind, list):  # a list of items of one kind
        check_value(value, path, list)
        checked = tuple(check_value(v, f"{path}[{j}]", kind[0]) for j, v in enumerate(value))
    elif dataclasses.is_dataclass(kind) and not isinstance(value, kind):
        ruled = [f for f in dataclasses.fields(kind) if f.metadata]
        schema = {f.name: f.metadata["check"] for f in ruled}
        required = [f.name for f in ruled if f.default is dataclasses.MISSING]
        checked = build(path, kind, **check_object(value, path, schema, required))
    else:
        if kind is float or kind is int:
            ok = isinstance(value, Real if kind is float else Integral) and not isinstance(value, bool)
        else:
            ok = isinstance(value, (list, tuple) if kind is list else kind)
        if not ok:
            raise ConfigurationError(f"{path}: expected {kind.__name__}, got {value!r}")
        checked = int(value) if kind is int else value
        if kind is float:
            try:
                checked = float(value)
            except OverflowError:  # an int beyond the float range
                checked = math.inf
            if not math.isfinite(checked):
                raise ConfigurationError(f"{path}: must be finite, got {value!r}")
    if rule is not None and not rule[0](checked):
        raise ConfigurationError(f"{path}: must be {rule[1]}, got {value!r}")
    return checked


def check_object(obj, path: str, schema: dict, required=()) -> dict:
    """Check an object against ``schema`` ({key: kind or (kind, rule)}) and
    return its checked values; an empty ``path`` is the config root."""
    check_value(obj, path or "config", dict)
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in obj:
            raise ConfigurationError(f"{prefix}{key}: required")
    values = {}
    for key, value in obj.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigurationError(f"{prefix}{key}: unknown key (known: {known})")
        kind, rule = schema[key] if isinstance(schema[key], tuple) else (schema[key], None)
        values[key] = check_value(value, prefix + key, kind, rule)
    return values


def build(path: str, make, *args, **kwargs):
    """Call a constructor; its own range errors gain the key path."""
    try:
        return make(*args, **kwargs)
    except (ConfigurationError, KeyError) as exc:
        raise ConfigurationError(f"{path}: {exc.args[0]}") from None


def rule(kind, check=None, **default):
    """A dataclass field of type ``kind`` that passes ``check``, as
    check_value reads them, with the ``default=`` it is given, if any."""
    return dataclasses.field(**default, metadata={"check": (kind, check)})


def check_fields(obj) -> None:
    """Check each ruled field of a frozen dataclass and store its checked value."""
    for f in dataclasses.fields(obj):
        if f.metadata:
            value = check_value(getattr(obj, f.name), f.name, *f.metadata["check"])
            object.__setattr__(obj, f.name, value)
