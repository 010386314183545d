"""Loading and validation of the versioned report schemas shipped in-repo.

The schemas are JSON Schema 2020-12 documents, and :func:`check` is an
interpreter of the keywords they use: ``$ref`` (a JSON pointer into the
same file or into another shipped file), ``const``, ``enum``, ``type``,
``required``, ``properties``, ``additionalProperties``, ``items`` and the
four bounds.  ``$schema``, ``$id``, ``title`` and ``$defs`` validate
nothing.  It follows jsonschema's ``Draft202012Validator``: ``1.0`` is an
integer, ``true`` is not a number, ``const`` and ``enum`` tell ``1`` from
``true``, and a keyword that applies to one JSON type passes any other.
jsonschema is imported only to raise its ``ValidationError`` from
:func:`validate_report`; the tests hold the interpreter to it.
"""

from __future__ import annotations

import json
import numbers
import operator
from collections import deque
from functools import lru_cache
from importlib import resources

SCHEMA_VERSION = 1
_KINDS = {"fit": "fit", "test": "test", "simulation": "simulation", "auc-eval": "auc"}


@lru_cache(maxsize=None)
def _schemas() -> dict[str, dict]:
    """Every shipped schema, read and parsed once, by file stem."""
    files = resources.files("npr.schemas")
    return {
        name: json.loads(files.joinpath(f"{name}.schema.json").read_text()) for name in _KINDS.values()
    }


def load_schema(kind: str) -> dict:
    if kind not in _KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return _schemas()[_KINDS[kind]]


class SchemaMismatch(Exception):
    """A value that does not match its schema.  ``keyword`` is the keyword it
    fails and ``path`` the keys and indices from the root to the value that
    fails it; a ``required`` failure's path ends at the missing key.  A
    failure inside an array of bare numbers is the array's."""

    def __init__(self, keyword: str, message: str, *path):
        super().__init__(message)
        self.keyword = keyword
        self.path = deque(path)

    @property
    def where(self) -> str:
        """The path written as ``coefficients[0].estimate``."""
        text = ""
        for part in self.path:
            text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
        return text


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Number)


_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and isinstance(v, int) or isinstance(v, float) and v.is_integer(),
    "number": _is_number,
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
# each bound, and the comparison with it that fails; a NaN fails none
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt,
           "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}


def _equal(value, expected) -> bool:
    """jsonschema's equality with a scalar ``expected``: ``1.0`` equals ``1``,
    ``true`` equals only ``true``."""
    if isinstance(value, bool) or isinstance(expected, bool):
        return value is expected
    return value == expected


def _fail(keyword: str, value, arg) -> SchemaMismatch:
    return SchemaMismatch(keyword, f"{value!r:.80} fails {keyword} {arg!r}")


def _resolve(ref: str, doc: dict) -> tuple[dict, dict]:
    """The schema that ``ref`` points to and the file it lies in: the
    pointer after ``#`` walks ``doc``, or the shipped file named before it."""
    name, _, pointer = ref.partition("#")
    if name:
        doc = _schemas()[name.removesuffix(".schema.json")]
    target = doc
    for key in pointer.split("/")[1:]:
        target = target[key]
    return target, doc


def _descend(value, key, schema: dict, doc: dict) -> None:
    try:
        _check(value, schema, doc)
    except SchemaMismatch as exc:
        exc.path.appendleft(key)
        raise


def _items(values: list, schema: dict, doc: dict) -> None:
    """``items``: each entry of ``values`` matches ``schema``.  When ``schema``
    is a number or integer type with bounds, the array fails as a whole, and
    when every entry is also an int or a float, it is checked without a call
    per entry."""
    if not (schema.get("type") in ("number", "integer") and schema.keys() <= {"type", *_BOUNDS}):
        for i, value in enumerate(values):
            _descend(value, i, schema, doc)
    elif not set(map(type, values)) <= {int, float}:
        for value in values:
            _check(value, schema, doc)
    elif schema["type"] == "integer" and not all(type(v) is int or v.is_integer() for v in values):
        raise _fail("type", values, "integer")
    else:
        for keyword in schema.keys() & _BOUNDS.keys():
            fails, bound = _BOUNDS[keyword], schema[keyword]
            if any(fails(v, bound) for v in values):
                raise _fail(keyword, values, bound)


def _check(value, schema: dict, doc: dict) -> None:
    """Raise :class:`SchemaMismatch` unless ``value`` matches ``schema``, a
    part of the schema file ``doc``.  Keywords are tried in ``schema``'s
    order, and the first that fails is raised."""
    for keyword, arg in schema.items():
        if keyword in _BOUNDS:
            if _is_number(value) and _BOUNDS[keyword](value, arg):
                raise _fail(keyword, value, arg)
        elif keyword == "type":
            if not any(_TYPES[name](value) for name in (arg if isinstance(arg, list) else [arg])):
                raise _fail(keyword, value, arg)
        elif keyword == "const":
            if not _equal(value, arg):
                raise _fail(keyword, value, arg)
        elif keyword == "enum":
            if not any(_equal(value, each) for each in arg):
                raise _fail(keyword, value, arg)
        elif keyword == "$ref":
            _check(value, *_resolve(arg, doc))
        elif keyword == "items":
            if isinstance(value, list):
                _items(value, arg, doc)
        elif isinstance(value, dict):
            if keyword == "required":
                for key in arg:
                    if key not in value:
                        raise SchemaMismatch(keyword, f"{key!r} is a required property", key)
            elif keyword == "properties":
                for key, sub in arg.items():
                    if key in value:
                        _descend(value[key], key, sub, doc)
            elif keyword == "additionalProperties":
                named = schema.get("properties", {})
                for key in value:
                    if key not in named:
                        _descend(value[key], key, arg, doc)


def check(value, schema: dict) -> None:
    """Raise :class:`SchemaMismatch` unless ``value`` matches ``schema``, a
    shipped schema or a copy of one with the same ``$defs``."""
    _check(value, schema, schema)


def validate_report(report: dict) -> None:
    """Validate a report dict against the schema for its ``kind`` field.

    Raises ``jsonschema.ValidationError`` on mismatch.
    """
    try:
        check(report, load_schema(report.get("kind")))
    except SchemaMismatch as exc:
        from jsonschema import ValidationError

        raise ValidationError(str(exc), validator=exc.keyword, path=exc.path) from None


__all__ = ["SCHEMA_VERSION", "SchemaMismatch", "check", "load_schema", "validate_report"]
