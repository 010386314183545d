"""Loading and validation of the versioned report schemas shipped in-repo."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import jsonschema
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

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


@lru_cache(maxsize=None)
def _registry() -> Registry:
    return Registry().with_resources(
        (f"npr/{name}.schema.json", Resource.from_contents(schema)) for name, schema in _schemas().items()
    )


@lru_cache(maxsize=None)
def _validator(kind: str) -> Draft202012Validator:
    return Draft202012Validator(load_schema(kind), registry=_registry())


def validate_report(report: dict) -> None:
    """Validate a report dict against the schema for its ``kind`` field.

    Raises ``jsonschema.ValidationError`` on mismatch.
    """
    _validator(report.get("kind")).validate(report)


__all__ = ["SCHEMA_VERSION", "load_schema", "validate_report", "jsonschema"]
