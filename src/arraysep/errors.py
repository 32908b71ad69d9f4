"""Exception types shared across the pipeline, and the one input checker.

Each class carries the process exit code the CLI maps it to, so failure
modes stay distinguishable from shell scripts.

Every checked input field is declared once, on its dataclass, with
``ranged``: its type is the field's annotation (``int``, ``float`` or
``tuple[float, ...]``) and what it admits is interval text such as
``"[0, 1)"`` (``[``/``]`` closed, ``(``/``)`` open, ``inf`` unbounded), or
a tuple of the values a ``str`` field may hold.  ``check_fields`` reads
those declarations, and checks every ``bool``, ``str | None`` and
``list[str]`` field by its type alone.
"""

import os
from dataclasses import MISSING, field, fields


class ArraySepError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class ConfigError(ArraySepError):
    """Invalid or unparseable configuration."""

    exit_code = 2


class AudioIOError(ArraySepError):
    """File I/O failure: missing input, unreadable WAV, unwritable output."""

    exit_code = 3


class StreamError(ArraySepError):
    """A frame stream violates its shape or ordering contract."""

    exit_code = 4


class OverDeterminedSceneError(ArraySepError):
    """More sources than microphones: the scene cannot be separated."""

    exit_code = 5


def ranged(allowed, default=MISSING):
    """A dataclass field that admits ``allowed``: interval text or a tuple of values."""
    return field(default=default, metadata={"allowed": allowed})


def admits(interval: str, value, integer: bool = False) -> bool:
    """Whether ``value`` is a number (an ``int`` if ``integer``; never a bool)
    inside ``interval``.  NaN lies in no interval."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low < value or interval[0] == "[" and value == low)
            and (value < high or interval[-1] == "]" and value == high))


def check_fields(obj, where: str = "") -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass ``obj``
    whose value its declaration does not admit."""
    for f in fields(obj):
        value, allowed = getattr(obj, f.name), f.metadata.get("allowed")
        if f.type == "bool":
            ok, need = isinstance(value, bool), "true or false"
        elif f.type == "str | None":
            ok, need = value is None or isinstance(value, str), "a string or null"
        elif f.type == "list[str]":
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            need = "a list of strings"
        elif isinstance(allowed, tuple):
            ok, need = value in allowed, f"one of {', '.join(allowed)}"
        elif allowed:
            integer, many = f.type == "int", f.type.startswith("tuple")
            items = value if many and isinstance(value, tuple) else (value,)
            ok = all(admits(allowed, v, integer) for v in items)
            need = f"{'an integer' if integer else 'numbers' if many else 'a number'} in {allowed}"
        else:
            continue
        if not ok:
            raise ConfigError(f"{where}{f.name} must be {need}, got {value!r}")


def check_file_name(name, what: str) -> None:
    """Source ids name output files and CSV cells and columns, so each must
    be one plain file name that no CSV cell would quote."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or {"/", os.sep, os.altsep, ",", '"'} & set(name)
            or any(c < " " or c == "\x7f" for c in name)):
        raise ConfigError(f"{what} {name!r} must be a file name without a path, "
                          "comma, quote or control character")
