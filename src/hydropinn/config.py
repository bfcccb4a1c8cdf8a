"""Typed readers for the JSON objects of config, scenario and dataset
sidecar files: an unknown key, a value of the wrong type or a negative count
is a `config` error naming the key path. Physical range checks stay with the
specs the values build, as `domain` errors."""

from __future__ import annotations

import sys

from .errors import ConfigError


def read_object(d, path: str, readers: dict, required=()) -> dict:
    """`d`'s values, each passed through `readers[key](value, key_path)`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'top level'} must be an object, got {d!r}")
    paths = {k: f"{path}.{k}" if path else k for k in (*readers, *d)}
    for key in d:
        if key not in readers:
            raise ConfigError(f"unknown key '{paths[key]}'")
    for key in required:
        if key not in d:
            raise ConfigError(f"missing key '{paths[key]}'")
    return {k: readers[k](v, paths[k]) for k, v in d.items()}


def nested(readers: dict, required=()):
    return lambda d, path: read_object(d, path, readers, required)


def list_of(reader):
    def read(value, key):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [reader(v, f"{key}[{i}]") for i, v in enumerate(value)]
    return read


def optional(reader):
    """`reader`, letting null through as None."""
    return lambda value, key: None if value is None else reader(value, key)


def number(value, key) -> float:
    # the comparison also rejects NaN, and ints too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def count(value, key) -> int:
    if not number(value, key).is_integer() or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return int(value)


def text(value, key) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value
