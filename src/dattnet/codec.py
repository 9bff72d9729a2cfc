"""The one decoder of the JSON documents dattnet reads (a train config, a
checkpoint's model config and norm stats).  It checks a document's shape
only; each dataclass's `__post_init__` stays the one check of its values."""

from __future__ import annotations

import sys
from dataclasses import fields

from .errors import ConfigError


def _is_int(v):
    # bool subclasses int in Python, but a JSON true is not a count
    return isinstance(v, int) and not isinstance(v, bool)


# field annotation -> (what a JSON value must be, its test)
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    # NaN, the infinities and ints past the float range all fail the bound
    "float": ("a finite number",
              lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def from_json(cls, doc, partial=False, fields_of=None):
    """cls(**doc) for the dataclass cls, if doc is an object whose every key
    names a field (`fields_of` maps keys that differ from their field's name)
    and holds a value of that field's JSON type; lists become tuples.  Every
    field must be present unless `partial`; then the absent keep defaults."""
    name = cls.__name__
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(doc).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, val in doc.items():
        field = (fields_of or {}).get(key, key)
        if field not in types:
            raise ConfigError(f"unknown {name} key {key!r}")
        what, fits = _JSON_TYPES[types[field]]
        if not fits(val):
            raise ConfigError(f"{name} key {key!r} must be {what}, got {val!r}")
        kwargs[field] = tuple(val) if isinstance(val, list) else val
    missing = [f for f in types if f not in kwargs]
    if missing and not partial:
        raise ConfigError(f"{name} has no key {missing[0]!r}")
    return cls(**kwargs)
