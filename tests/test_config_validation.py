"""simulate's config check against jsonschema, the independent reference.

``cli.validate_config`` walks ``SIMULATE_SCHEMA`` itself. On a seeded corpus
of mutated configs it must make the same accept/reject decision, and name the
same first field in path order, as jsonschema's draft 2020-12 validator. The
one intended difference: an integral float such as 2.0 at an integer field is
rejected, where JSON Schema's "integer" admits it.
"""

import copy
import json
import random

import jsonschema
import pytest

from posefocal.cli import SCHEMA_KEYWORDS, SIMULATE_SCHEMA, _first_error, validate_config
from posefocal.errors import DomainError

BASE = {
    "n_trials": 4, "iterations": 3, "seed": 7, "update_rules": ["exact", "legacy"],
    "predictor": {
        "noise": {"sigma_x_px": 1.0, "sigma_y_px": 1, "sigma_z_log": 0.01,
                  "sigma_rot_deg": 0, "sigma_f_log": 0.02},
        "clamp": {"max_px": 50, "max_log_depth": 0.5, "max_angle_deg": 30.0,
                  "max_log_focal": 0.4}},
    "targets": {"kind": "file", "path": "targets.jsonl", "z_range": [0.9, 1.5],
                "f_range": [400, 900.5], "xy_box": 0.3},
    "model_points": {"count": 40, "extent": 0.2, "seed": 1, "path": "points.json"},
    "focal_init": 600.0, "img_diag": 800, "keep_trajectories": False,
}

# Finite JSON values of every type, in and out of every range the schema sets.
VALUES = [0, 1, -1, 2, 3, 10**20, 0.0, 0.5, -0.5, 1e-300, -1e300, 2.0, True, False,
          None, "", "x", "exact", "legacy", "uniform", "file", [], [1], [0.9, 1.5],
          [1, 2, 3], ["exact"], ["exact", "exact"], ["legacy", "bogus"], [True, 1],
          {}, {"kind": "uniform"}, {"sigma_x_px": 1}, {"max_px": 0}]


def nodes(value, path=()):
    """(path, value) of every node of parsed JSON, the root included."""
    yield path, value
    members = (value.items() if isinstance(value, dict) else
               enumerate(value) if isinstance(value, list) else ())
    for k, item in members:
        yield from nodes(item, (*path, k))


def mutate(config, rng):
    """config with one random edit: a key deleted or added, a value replaced,
    an array shortened, lengthened or given a duplicate."""
    containers = [(p, v) for p, v in nodes(config) if isinstance(v, (dict, list)) and v]
    objects = [(p, v) for p, v in nodes(config) if isinstance(v, dict)]
    arrays = [(p, v) for p, v in nodes(config) if isinstance(v, list)]
    edit = rng.choice(["delete", "add", "replace", "replace", "replace", "array"])
    if edit == "delete" and containers:
        _, node = rng.choice(containers)
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        del node[key]
    elif edit == "add":
        _, node = rng.choice(objects)
        node[rng.choice(["bogus", "noise", "kind", "count", "n_trials", "zz", "a"])] = \
            copy.deepcopy(rng.choice(VALUES))
    elif edit == "replace":
        path, _ = rng.choice(list(nodes(config))[1:])
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    elif arrays:
        _, node = rng.choice(arrays)
        if node and rng.random() < 0.5:
            node.append(copy.deepcopy(node[rng.randrange(len(node))]))
        elif node:
            node.pop()
        else:
            node.append(copy.deepcopy(rng.choice(VALUES)))
    return config


def corpus(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        config = copy.deepcopy(BASE)
        for _ in range(rng.choice([1, 1, 2, 3])):
            config = mutate(config, rng)
        # a JSON round trip, as simulate reads its config
        yield json.loads(json.dumps(config))


def first_error(validator, config):
    """The path of jsonschema's first error, sorted by path, or None."""
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.path))
    return list(errors[0].path) if errors else None


# What the walker's message says when a config breaks each keyword.
BROKEN = {"type": "is not of type", "enum": "is not one of",
          "minimum": "is less than the minimum", "exclusiveMinimum": "less than or equal",
          "required": "is a required property", "additionalProperties": "unexpected properties",
          "minItems": "minItems is", "maxItems": "maxItems is", "uniqueItems": "non-unique"}


def integer_paths(schema, path=()):
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from integer_paths(sub, (*path, key))


def has_integral_float_at_integer_field(config):
    for path in integer_paths(SIMULATE_SCHEMA):
        node = config
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, float):
            return True
    return False


STOCK = jsonschema.Draft202012Validator(SIMULATE_SCHEMA)
# jsonschema with "integer" narrowed to what is written as an integer
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)),
)(SIMULATE_SCHEMA)


def test_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SIMULATE_SCHEMA)


@pytest.mark.parametrize("seed", [0, 1])
def test_agrees_with_jsonschema_on_mutated_configs(seed):
    """Same decision and same first-error path on every config, except that
    an integral float at an integer field is an error of its own."""
    paths, broken, integral, accepted, n = set(), set(), 0, 0, 2500
    for config in corpus(seed, n):
        error = _first_error(config, SIMULATE_SCHEMA)
        got, want = error and list(error[0]), first_error(STOCK, config)
        if got != want:
            assert has_integral_float_at_integer_field(config), (config, got, want)
            integral += 1
        assert got == first_error(STRICT, config), config
        accepted += got is None
        paths.add(None if got is None else tuple(got))
        broken |= {key for key, words in BROKEN.items() if error and words in error[1]}
    # the corpus reaches both decisions, breaks every keyword and errs all over the schema
    assert 0.05 * n < accepted < 0.5 * n
    assert integral > 0 and broken == set(BROKEN) and len(paths) > 30


def test_base_config_is_valid():
    validate_config(BASE, SIMULATE_SCHEMA)
    assert STOCK.is_valid(BASE)


def schema_keywords(schema):
    """Every keyword of a schema and of its subschemas."""
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from schema_keywords(sub)
    if "items" in schema:
        yield from schema_keywords(schema["items"])


def test_schema_uses_only_implemented_keywords():
    used = set(schema_keywords(SIMULATE_SCHEMA))
    assert used <= set(SCHEMA_KEYWORDS), used - set(SCHEMA_KEYWORDS)


@pytest.mark.parametrize("schema", [
    {"type": "object", "maxProperties": 3},
    {"type": "object", "properties": {"a": {"type": "string", "pattern": "^x"}}},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "additionalProperties": {"type": "number"}},
], ids=["maxProperties", "nested-pattern", "additional-true", "additional-schema"])
def test_unimplemented_keyword_raises(schema):
    """A schema edit the walker does not implement fails loudly, even where
    the config would meet it, rather than passing unchecked."""
    with pytest.raises(ValueError, match="is not implemented"):
        validate_config({"a": "x"}, schema)


@pytest.mark.parametrize("config, message", [
    ({"targets": {"kind": "uniform"}}, "config field (root): 'n_trials' is a required property"),
    ({**BASE, "bogus": 1}, "config field (root): unexpected properties ['bogus']"),
    ({**BASE, "n_trials": True}, "config field n_trials: True is not of type 'integer'"),
    ({**BASE, "n_trials": 0}, "config field n_trials: 0 is less than the minimum of 1"),
    ({**BASE, "xy_box": 0}, "config field (root): unexpected properties ['xy_box']"),
    ({**BASE, "img_diag": 0},
     "config field img_diag: 0 is less than or equal to the minimum of 0"),
    ({**BASE, "update_rules": []}, "config field update_rules: [] has 0 items, minItems is 1"),
    ({**BASE, "update_rules": ["exact", "bogus"]},
     "config field update_rules/1: 'bogus' is not one of ['exact', 'legacy']"),
    ({**BASE, "targets": {"kind": "uniform", "z_range": [1, 2, 3]}},
     "config field targets/z_range: [1, 2, 3] has 3 items, maxItems is 2"),
    ({**BASE, "predictor": {"noise": []}},
     "config field predictor/noise: [] is not of type ['object', 'null']"),
])
def test_message_names_field_and_rule(config, message):
    with pytest.raises(DomainError) as info:
        validate_config(config, SIMULATE_SCHEMA)
    assert str(info.value) == message
