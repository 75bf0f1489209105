"""One JSON (de)serializer for every config dataclass.

`Config.to_dict` and `Config.from_dict` walk the dataclass fields by their
type annotations: nested configs (optional or not) and lists of configs
recurse, tuples travel as lists, and a scalar must already have its field's
type (an ``int`` refuses bools and floats; a ``float`` takes an int as it is).
Only fields annotated ``X | None`` accept null. A mistyped value (named by its
dotted path, as ``train.epochs``), an unknown key at any level, or a
TypeError/ValueError from a constructor raises ConfigError.
"""
from __future__ import annotations

import dataclasses
import types
import typing


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI maps this to exit code 1)."""


def _encode(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
            bool: (bool, "a boolean"), dict: (dict, "an object")}


def decode(key: str, hint, value):
    """Field `key`'s JSON value, as annotated by `hint`; scalars must have a `_SCALARS` type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return decode(key, hint, value)
    if value is None:
        raise ConfigError(f"{key} must not be null")
    if isinstance(hint, type) and issubclass(hint, Config):
        return hint.from_dict(value, f"{key}.")
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        items = [decode(key, args[0], v) for v in value]
        return items if origin is list else tuple(items)
    types_, name = _SCALARS[hint]
    if not isinstance(value, types_) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return value


class Config:
    """Mixin for dataclasses that round-trip through JSON-ready dicts."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, payload: dict, path: str = ""):  # path: "train." in a nested config
        name = cls.__name__
        if not isinstance(payload, dict):
            raise ConfigError(f"{name} must be a JSON object, got {payload!r}")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        try:
            return cls(**{key: decode(path + key, hints[key], v) for key, v in payload.items()})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}") from exc
