"""The report-schema interpreter, held to jsonschema's Draft 2020-12 validator."""

import copy
import functools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from npr.cli import main
from npr.schemas import _KINDS, SchemaMismatch, check, load_schema, validate_report

TOY = Path(__file__).parent / "data" / "toy"
COMMANDS = {  # one report of each kind, and of each fit family, from the toy data
    "gaussian": "fit --family gaussian --edges edges.csv --covariates covariates.csv --response response.csv --K 2",
    "logistic": "fit --family logistic --edges edges.csv --covariates covariates.csv --response binary.csv --K 2",
    "cox": "fit --family cox --edges edges.csv --covariates covariates.csv --time time.csv --event event.csv --K 2",
    "test": "test --fit gaussian.json --kmax 2",
    "auc-eval": "eval-auc --fit logistic.json --edges edges.csv --covariates covariates.csv --response binary.csv "
                "--splits 2 --seed 11",
    "prediction": "simulate --case 1 --setting 1 --n 60 --reps 2 --seed 1",
    "testing": "simulate-test --case 1 --nulls 2 --n 60 --reps 2 --seed 1",
}
# values a mutation puts in place of another: each JSON type, the strings
# of the schemas' enums, numbers past the floats, and nested arrays
VALUES = [None, True, False, 0, 1, 0.5, -1.5, 10 ** 400, math.inf, -math.inf, math.nan,
          "", "x", "1", "fit", "gaussian", "cox", "chi2", "prediction", "auc-eval",
          [], [1], [1.0, True], [1, "1"], [[1.0]], [[1, None]], {}, {"a": 1}]


def nearby(value) -> list:
    """Values close to ``value`` for a schema: itself in an array, and for a
    number true against 1 and 1.0, and the bounds the schemas use with the
    numbers on either side of them."""
    if not isinstance(value, (bool, int, float)):
        return [[value]]
    return [[value], True, False, 0, 1, 2, 0.0, -0.0, 1.0, 2.0, 5e-324, -5e-324, math.nextafter(1.0, 0),
            math.nextafter(1.0, 2), value + 1, value - 1, -value, *([float(value)] if abs(value) < 1e308 else [])]


@functools.cache
def oracle(kind: str) -> Draft202012Validator:
    registry = Registry().with_resources(
        (f"npr/{name}.schema.json", Resource.from_contents(load_schema(k))) for k, name in _KINDS.items()
    )
    return Draft202012Validator(load_schema(kind), registry=registry)


def accepts(value, schema: dict) -> bool:
    try:
        check(value, schema)
    except SchemaMismatch:
        return False
    return True


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict:
    """The report each of ``COMMANDS`` writes; a ``.json`` argument is the
    report of the command by that name."""
    tmp = tmp_path_factory.mktemp("reports")
    out = {}
    for name, command in COMMANDS.items():
        argv = [str(tmp / arg) if arg.endswith(".json") else str(TOY / arg) if arg.endswith(".csv") else arg
                for arg in command.split()]
        assert main([*argv, "--out", str(tmp / f"{name}.json")]) == 0, name
        out[name] = json.loads((tmp / f"{name}.json").read_text())
    return out


def positions(report) -> list[list]:
    """Every (container, key) of ``report``, grouped by the place in the
    schema that validates them, so that a draw of a group then a member
    reaches each schema place with the same odds."""
    groups = {}

    def walk(node, place):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            inner = (*place, "*" if isinstance(key, int) else key)
            groups.setdefault(inner, []).append((node, key))
            if isinstance(value, (dict, list)):
                walk(value, inner)

    walk(report, ())
    return [groups[place] for place in sorted(groups, key=str)]


def test_every_keyword_in_the_shipped_schemas_is_interpreted():
    interpreted = {"$ref", "const", "enum", "type", "required", "properties", "additionalProperties", "items",
                   "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
    annotations = {"$schema", "$id", "title", "$defs"}
    used = set()

    def walk(schema):
        for keyword, arg in schema.items():
            used.add(keyword)
            subschemas = arg.values() if keyword in ("properties", "$defs") else [arg]
            for sub in subschemas:
                if isinstance(sub, dict):
                    walk(sub)

    for kind in _KINDS:
        walk(load_schema(kind))
    assert used - annotations == interpreted


@pytest.mark.parametrize("schema, value", [
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, 1.5),
    ({"type": "integer"}, True),
    ({"type": "number"}, True),
    ({"type": "number"}, 10 ** 400),
    ({"type": ["integer", "null"]}, None),
    ({"type": ["integer", "null"]}, False),
    ({"const": 1}, 1.0),
    ({"const": 1}, True),
    ({"const": 1}, "1"),
    ({"enum": [1, 2, 3]}, True),
    ({"enum": [1, 2, 3]}, 3.0),
    ({"enum": ["chi2", "normal"]}, ["chi2"]),
    ({"minimum": 0}, -5e-324),
    ({"minimum": 0}, "a string is no number"),
    ({"minimum": 0}, math.nan),
    ({"exclusiveMinimum": 0}, 0),
    ({"exclusiveMaximum": 1}, 1.0),
    ({"maximum": 1}, math.inf),
    ({"required": ["a"]}, [1]),
    ({"items": {"type": "number", "minimum": 0}}, [0, 1.5, 2]),
    ({"items": {"type": "number", "minimum": 0}}, [0, -1.5, 2]),
    ({"items": {"type": "number"}}, [1.0, True]),
    ({"items": {"type": "integer"}}, [1, 2.0]),
    ({"items": {"type": "integer"}}, [1, 2.5]),
    ({"items": {"type": "array", "items": {"type": "number"}}}, [[1.0], [2, None]]),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}}, {"a": 1, "b": "x"}),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}}, {"a": "x", "b": 1}),
])
def test_the_type_rules_are_jsonschemas(schema, value):
    assert accepts(value, schema) == Draft202012Validator(schema).is_valid(value)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_accepts_exactly_the_reports_jsonschema_accepts(reports, data):
    # one to three mutations of a valid report: a key dropped or added, or
    # a value replaced
    name = data.draw(st.sampled_from(sorted(reports)))
    report = copy.deepcopy(reports[name])
    for _ in range(data.draw(st.integers(1, 3))):
        holder, key = data.draw(st.sampled_from(data.draw(st.sampled_from(positions(report)))))
        mutations = ["replace", *(["drop", "add"] if isinstance(holder, dict) else [])]
        mutation = data.draw(st.sampled_from(mutations))
        if mutation == "drop":
            del holder[key]
        elif mutation == "add":  # a copy: a later mutation may reach inside it
            holder[data.draw(st.sampled_from(["extra", key + "_"]))] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
        else:
            holder[key] = copy.deepcopy(data.draw(st.sampled_from(nearby(holder[key])) | st.sampled_from(VALUES)))
    kind = reports[name]["kind"]
    assert accepts(report, load_schema(kind)) == oracle(kind).is_valid(report)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_agrees_on_each_value_at_each_place(reports, name):
    # one change at a time to the first member of each place: each value a
    # mutation draws from, and the key dropped
    report = copy.deepcopy(reports[name])
    schema, kind = load_schema(report["kind"]), report["kind"]
    for holder, key in (group[0] for group in positions(report)):
        value = holder[key]
        for other in [*VALUES, *nearby(value)]:
            holder[key] = other
            assert accepts(report, schema) == oracle(kind).is_valid(report), (key, other)
        if isinstance(holder, dict):
            del holder[key]
            assert accepts(report, schema) == oracle(kind).is_valid(report), (key, "dropped")
        holder[key] = value


def test_a_valid_report_passes_and_a_broken_one_raises_with_its_path(reports):
    for report in reports.values():
        validate_report(report)
    broken = copy.deepcopy(reports["gaussian"])
    broken["coefficients"][1]["std_error"] = -1.0
    with pytest.raises(ValidationError) as info:
        validate_report(broken)
    assert list(info.value.path) == ["coefficients", 1, "std_error"] and info.value.validator == "minimum"


@pytest.mark.parametrize("change, keyword, where", [
    (lambda r: r["coefficients"][0].pop("estimate"), "required", "coefficients[0].estimate"),
    (lambda r: r["gaussian"].update(gram=[[1.0, "x"]]), "type", "gaussian.gram[0]"),
    (lambda r: r["gaussian"].update(column_means=[0.0, True]), "type", "gaussian.column_means"),
    (lambda r: r["manifest"]["input_digests"].update(edges=1), "type", "manifest.input_digests.edges"),
    (lambda r: r.update(kind="test"), "const", "kind"),
])
def test_a_failure_names_its_place(reports, change, keyword, where):
    report = copy.deepcopy(reports["gaussian"])
    change(report)
    with pytest.raises(SchemaMismatch) as info:
        check(report, load_schema("fit"))
    assert (info.value.keyword, info.value.where) == (keyword, where)
