"""Immutable value records, and the exact reading of the user JSON they come from.

A record's fields are listed in ``__slots__`` and set once, in slot order, by
``Record.__init__``.  A record class writes its own ``__init__`` only to check
its input, normalise it or give defaults.  Equality, hashing, repr and copying
go over the fields in slot order, as for a frozen dataclass, but no code is
generated when a record class is created.
"""

import json
from operator import attrgetter

set_field = object.__setattr__  # how a record's own __init__ sets its fields


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        """Set the fields in slot order: positional arguments first, then keywords."""
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = _bind(type(self).__name__, names, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


def _bind(what: str, names: tuple[str, ...], args: tuple, kwargs: dict) -> tuple:
    """One value per field of ``names``: ``args`` in order, then the keywords."""
    if len(args) > len(names):
        raise TypeError(f"{what} has {len(names)} fields, got {len(args)} arguments")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{what} has no field {name!r}")
        if names.index(name) < len(args):
            raise TypeError(f"{what} got the field {name!r} twice")
    for name in names[len(args):]:
        if name not in kwargs:
            raise TypeError(f"{what} is missing the field {name!r}")
    return args + tuple(kwargs[name] for name in names[len(args):])


class ParseError(Exception):
    """Malformed user input; maps to exit code 2."""


MAX_FILE_BYTES = 1 << 20  # the core table is 31 KB; a spec with 10**4 64-bit twists ~210 KB


def read_file(path, what: str) -> bytes:
    """The bytes of a user file; unreadable or over MAX_FILE_BYTES is a ParseError."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_FILE_BYTES + 1)  # bounded, so /dev/zero cannot exhaust memory
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e.strerror}") from e
    if len(data) > MAX_FILE_BYTES:
        raise ParseError(f"{what} {path} is larger than {MAX_FILE_BYTES} bytes")
    return data


def decode_json(text: str | bytes, what: str):
    """Parsed JSON ``text``; any fault in it is a ParseError naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON {what} at line {e.lineno} column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # too many digits, too deep, or not UTF-8
        raise ParseError(f"malformed JSON {what}: {e}") from e


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def exact(value, kind: type, where: str):
    """``value`` if its type is exactly ``kind``, else a ValueError naming ``where``."""
    if type(value) is not kind:  # the echo is cut, so a huge value cannot flood stderr
        raise ValueError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r:.40}")
    return value


def read_field(data: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``data[key]`` if its JSON type is exactly ``kind``: a float is never
    truncated, a bool is no integer and a number no string.  If ``key`` is
    absent, ``default`` or, without one, a ValueError naming the field.
    """
    value = data.get(key, _REQUIRED)
    if type(value) is kind:
        return value
    if value is not _REQUIRED:
        return exact(value, kind, f"{where}.{key}")
    if default is _REQUIRED:
        raise ValueError(f"{where} is missing the field {key!r}")
    return default


def read_ints(data: dict, key: str, where: str, default=_REQUIRED) -> tuple[int, ...]:
    """``data[key]`` as a tuple of exact integers, read like ``read_field``."""
    values = tuple(read_field(data, key, list, where, default))
    for i, v in enumerate(values):
        if type(v) is not int:
            exact(v, int, f"{where}.{key}[{i}]")
    return values
