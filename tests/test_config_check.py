"""The command line's own schema check against jsonschema, and configs
fuzzed through ``certify`` and ``verify``.

``cli.schema_error`` walks the config and summary schemas itself, so no
command imports jsonschema.  Here jsonschema is the reference: on mutated
documents both must refuse the same ones, at a path jsonschema also reports.
The one intended difference is that the walk refuses a float such as 40.0
where the schema says "integer", which JSON Schema accepts; the reference
below is jsonschema with that one type rule changed."""
import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from fedcert import cli
from test_cli import BASE_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"
README_CONFIG = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))

StrictIntegers = jsonschema.validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))


def _schema_words(schema, names, strings):
    """Every property name and every enum or const string in ``schema``."""
    if isinstance(schema, dict):
        names.update(schema.get("properties", {}))
        strings.update(v for v in schema.get("enum", []) if isinstance(v, str))
        if isinstance(schema.get("const"), str):
            strings.add(schema["const"])
        for value in schema.values():
            _schema_words(value, names, strings)
    elif isinstance(schema, list):
        for value in schema:
            _schema_words(value, names, strings)
    return names, strings


_NAMES, _STRINGS = _schema_words([cli.CONFIG_SCHEMA, cli._SUMMARY_SCHEMA], {"x"}, {"x", ""})
_NAMES, _STRINGS = sorted(_NAMES), sorted(_STRINGS)

# sizes stay at 20 or below, so no fuzzed run allocates much
_SCALARS = st.one_of(
    st.integers(-3, 20), st.integers(-3, 20).map(float),
    st.floats(-5.0, 50.0, allow_nan=False), st.sampled_from(_STRINGS),
    st.booleans(), st.none())
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=2), max_leaves=6)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three keys or items replaced, deleted or added, each
    at a random depth below the root."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 5))):
            if not isinstance(node, (dict, list)) or not node:
                break
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_NAMES))] = draw(_VALUES)
        elif action == "add" and isinstance(node, list):
            node.append(draw(_VALUES))
        elif action == "delete":
            del parent[key]
        else:
            parent[key] = draw(_VALUES)
    return doc


def _json_paths(errors):
    for error in errors:
        yield error.json_path
        yield from _json_paths(error.context)


def _at(doc, path):
    for key in re.findall(r"\.(\w+)|\[(\d+)\]", path):
        doc = doc[key[0]] if key[0] else doc[int(key[1])]
    return doc


def assert_agrees_with_jsonschema(schema, doc):
    found = cli.schema_error(doc, schema)
    errors = list(StrictIntegers(schema).iter_errors(doc))
    assert (found is None) == (not errors), (found, [e.message for e in errors])
    if found is not None:
        assert found[0] in set(_json_paths(errors)), (found, list(_json_paths(errors)))
        if not any(Draft202012Validator(schema).iter_errors(doc)):
            # refused only for a float where an integer belongs
            value = _at(doc, found[0])
            assert isinstance(value, float) and value.is_integer(), found
            assert found[1].endswith("is not of type 'integer'"), found


_DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@_DIFFERENTIAL
@given(st.sampled_from([BASE_CONFIG, README_CONFIG]).flatmap(mutated))
def test_the_config_check_refuses_what_jsonschema_refuses(doc):
    assert_agrees_with_jsonschema(cli.CONFIG_SCHEMA, doc)


@pytest.fixture(scope="module")
def summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("certify")
    config = out / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


@_DIFFERENTIAL
@given(data=st.data())
def test_the_summary_check_refuses_what_jsonschema_refuses(summary, data):
    assert_agrees_with_jsonschema(cli._SUMMARY_SCHEMA, data.draw(mutated(summary)))


@pytest.mark.parametrize("schema, doc", [
    (cli.CONFIG_SCHEMA, BASE_CONFIG),
    (cli.CONFIG_SCHEMA, README_CONFIG),
    # a lambda grid object whose num is a float: the object alternative says why
    (cli.CONFIG_SCHEMA, {**BASE_CONFIG, "certificates": [
        {"kind": "cdf", "delta": 0.1, "lambda_grid": {"start": 0, "stop": 1, "num": 3.0}}]}),
    # both model alternatives at once
    (cli.CONFIG_SCHEMA, {**BASE_CONFIG, "model": {"kind": "logistic", "weights": [1, 0],
                                                  "from_world": {}}}),
    (cli._SUMMARY_SCHEMA, {"requests": [{"kind": "cdf", "files": {
        "certificate": "a.json", "target": "a.csv"}}]}),
    (cli.CONFIG_SCHEMA, []),
    (cli._SUMMARY_SCHEMA, None),
], ids=["base", "readme", "float-num", "both-models", "cdf-without-curve", "config-list",
        "summary-null"])
def test_the_check_on_fixed_documents(schema, doc):
    assert_agrees_with_jsonschema(schema, doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("keys, where", [
    # a field the schema does not describe
    (("world", "class_means", 1, 0), "$.world.class_means[1][0]"),
    # inside a oneOf alternative
    (("certificates", 1, "lambda_grid", "start"), "$.certificates[1].lambda_grid.start"),
])
def test_a_non_finite_number_is_refused_at_its_path_anywhere(literal, keys, where):
    doc = copy.deepcopy(BASE_CONFIG)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "@"
    doc = json.loads(json.dumps(doc).replace('"@"', literal))
    assert cli.schema_error(doc, cli.CONFIG_SCHEMA) == (where, "numbers must be finite")


# ------------------------------------------------------- end-to-end fuzzing

SMALL_CONFIG = copy.deepcopy(BASE_CONFIG)
SMALL_CONFIG["data"] = {"K": 12, "n_k": 15}
for _entry in SMALL_CONFIG["certificates"]:
    _entry["target_clients"] = 50
SMALL_CONFIG["certificates"][3]["grid_size"] = 4
SMALL_CONFIG["verify"].update(trials=2, target_clients=50)
SMALL_CONFIG["verify"]["tightness"].update(K_schedule=[4, 6], n_schedule=[5, 8], trials=2)
SMALL_CONFIG["verify"]["kinds"].append({"kind": "wass-mean", "delta": 0.1, "epsilon": 0.05})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated(SMALL_CONFIG))
def test_fuzzed_configs_exit_with_a_code_and_no_traceback(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        for command in ("certify", "verify"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([command, "--config", str(config),
                               "--out", str(Path(tmp) / command)])
            assert rc in (0, 1, 2, 3)
