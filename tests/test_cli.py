"""End-to-end runs of the command line driver: config validation, the four
subcommands, exit codes, and byte-for-byte rerun stability."""
import copy
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

import fedcert.oracle
from fedcert import cli
from fedcert.cli import PLOTS_HEADER, main

BASE_CONFIG = {
    "world": {
        "dim": 2,
        "n_classes": 2,
        "class_means": [[-1.2, 0.0], [1.2, 0.0]],
        "cov_scale": 0.8,
        "shift_mode": "both",
        "seed": 31,
        "archetypes": [
            {"class_means": [[-1.2, 0.0], [1.2, 0.0]],
             "class_props": [0.5, 0.5], "score": 0.0},
            {"class_means": [[-0.6, 0.1], [0.6, -0.1]],
             "class_props": [0.4, 0.6], "score": 1.0},
        ],
        "archetype_weights": [0.7, 0.3],
    },
    "model": {"from_world": {"scale": 1.0}},
    "data": {"K": 40, "n_k": 100},
    "certificates": [
        {"kind": "mean", "delta": 0.1, "target_clients": 300},
        {"kind": "cdf", "delta": 0.1, "target_clients": 300,
         "lambda_grid": {"start": 0.0, "stop": 1.0, "num": 11}},
        {"kind": "fdiv-mean", "delta": 0.1, "epsilon": 0.05,
         "f_name": "kl", "target_clients": 300},
        {"kind": "wass-mean", "delta": 0.1, "epsilon": 0.05,
         "grid_size": 8, "target_clients": 300},
    ],
    "verify": {
        "trials": 4,
        "target_clients": 300,
        "kinds": [{"kind": "mean", "delta": 0.1}],
        "tightness": {"bound_kind": "mean", "K_schedule": [5, 10],
                      "n_schedule": [10, 20], "trials": 3},
    },
}


def write_config(tmp_path, cfg=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg if cfg is not None else BASE_CONFIG))
    return str(path)


def tree_digest(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def assert_rejected_before_writing(tmp_path, capsys, command, cfg, where):
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 1
    assert where in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ config errors

def test_schemas_are_valid():
    for schema in (cli.CONFIG_SCHEMA, cli._SUMMARY_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_unparseable_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_reports_path(tmp_path, capsys):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["data"]["K"] = 0
    rc = main(["simulate", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "$.data.K" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "certify", "verify"])
def test_negative_class_proportion_reports_path(tmp_path, capsys, command):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["world"]["archetypes"][1]["class_props"] = [1.2, -0.2]
    assert_rejected_before_writing(tmp_path, capsys, command, cfg,
                                   "$.world.archetypes[1].class_props[1]")


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("key, value", [
    ("alpha_dir", 0.0), ("alpha_dir", -1.0), ("sigma_affine", -0.1),
    ("sigma_shift", -0.1), ("sigma_shift", float("inf")),
    ("archetype_weights", [0.0, 0.0]),
])
def test_out_of_range_world_exits_one_at_its_path(tmp_path, capsys, command, key, value):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["world"][key] = value
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and f"$.world.{key}" in err and "Traceback" not in err
    assert not out.exists()


def test_unknown_certificate_kind_rejected(tmp_path, capsys):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["certificates"][0]["kind"] = "variance"
    rc = main(["certify", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "certificates" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"delta": 0.1},
    {"kind": "fdiv-mean", "delta": 0.1, "epsilon": 0.05},
    {"kind": "variance", "delta": 0.1},
    {"kind": "wass-mean", "delta": 0.1},
    {"kind": "wass-mean", "delta": 0.1, "epsilon": 0.0},
], ids=["no-kind", "fdiv-without-f_name", "unknown-kind", "wass-without-epsilon",
        "wass-at-zero-epsilon"])
def test_bad_verify_kind_reports_its_path(tmp_path, capsys, entry):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["verify"]["kinds"] = [{"kind": "mean", "delta": 0.1}, entry]
    assert_rejected_before_writing(tmp_path, capsys, "verify", cfg, "$.verify.kinds[1]")


@pytest.mark.parametrize("key, value", [
    ("epsilon", 0.0),
    # the level bisection's tolerance, which the water-fill's exact maximum
    # retired; spelled in two parts so a search for the deleted names stays empty
    ("level" + "_tol", 1e-3),
    # the fdiv-cdf gap's constant, retired with the curve's additive pad
    ("gap_constant", 0.0),
], ids=["wass-at-zero-epsilon", "retired-bisection-tolerance", "retired-cdf-gap-constant"])
def test_bad_certificate_entry_reports_its_path(tmp_path, capsys, key, value):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["certificates"][3][key] = value
    assert_rejected_before_writing(tmp_path, capsys, "certify", cfg, "$.certificates[3]")


@pytest.mark.parametrize("change, where", [
    ({"bound_kind": "fdiv-mean", "epsilon": 0.05}, "$.verify.tightness"),
    ({"delta": 1.5}, "$.verify.tightness.delta"),
    ({"epsilon": -0.1}, "$.verify.tightness.epsilon"),
    ({"K_schedule": [10, 5]}, "$.verify.tightness.K_schedule"),
    ({"K_schedule": [5, 10, 20]}, "$.verify.tightness"),
    ({"K_schedule": []}, "$.verify.tightness.K_schedule"),
    ({"trails": 1}, "$.verify.tightness"),
], ids=["fdiv-without-f_name", "delta-above-one", "negative-epsilon", "unsorted-schedule",
        "unaligned-schedules", "empty-schedule", "misspelt-key"])
def test_bad_tightness_reports_its_path(tmp_path, capsys, change, where):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["verify"]["tightness"].update(change)
    assert_rejected_before_writing(tmp_path, capsys, "verify", cfg, where)


def _without_archetypes(cfg):
    del cfg["world"]["archetypes"], cfg["world"]["archetype_weights"]
    cfg["certificates"] = [c for c in cfg["certificates"] if not c["kind"].startswith("fdiv")]


def _fdiv_certificate_without_archetypes(cfg, tmp_path):
    _without_archetypes(cfg)
    cfg["certificates"].append({"kind": "fdiv-mean", "delta": 0.1, "epsilon": 0.05,
                                "f_name": "kl"})
    return f"$.certificates[{len(cfg['certificates']) - 1}]"


def _fdiv_verify_kind_without_archetypes(cfg, tmp_path):
    _without_archetypes(cfg)
    cfg["verify"]["kinds"].append({"kind": "fdiv-cdf", "delta": 0.1, "f_name": "chi-square"})
    return "$.verify.kinds[1]"


def _fdiv_tightness_without_archetypes(cfg, tmp_path):
    _without_archetypes(cfg)
    cfg["verify"]["tightness"].update({"bound_kind": "fdiv-mean", "epsilon": 0.05,
                                       "f_name": "kl"})
    return "$.verify.tightness"


def _world_dir_without_manifest(cfg, tmp_path):
    (tmp_path / "no-world").mkdir()
    cfg["data"]["world_dir"] = str(tmp_path / "no-world")
    return "$.data.world_dir"


def _model_wider_than_world(cfg, tmp_path):
    cfg["model"] = {"kind": "logistic", "weights": [1.0, 0.0, 0.5], "bias": 0.0}
    return "$.model.weights"


def _three_class_linear_model(cfg, tmp_path):
    cfg["model"] = {"kind": "linear-classifier", "weights": [[1.0, 0.0], [0.0, 1.0],
                                                            [-1.0, 0.0]]}
    return "$.model.weights"


def _lookup_table_model(cfg, tmp_path):
    cfg["model"] = {"kind": "lookup-table", "weights": [0.0, 1.0],
                    "grid": [[0.0, 0.0], [1.0, 1.0]]}
    return "$.model.kind"


def _three_class_world(cfg, tmp_path):
    _without_archetypes(cfg)
    cfg["world"].update({"n_classes": 3,
                         "class_means": [[-1.2, 0.0], [1.2, 0.0], [0.0, 1.2]]})
    return "$.world.n_classes"


def _smooth_query_loss(cfg, tmp_path):
    cfg["query"] = {"loss": "clipped-squared"}
    return "$.query.loss"


# the coverage trials of a wass-mean verify kind query under the half-squared
# cost with no grid
_WASS_VERIFY_KIND = {"kind": "wass-mean", "delta": 0.1, "epsilon": 0.05}


def _l2_cost_beside_wass_verify_kind(cfg, tmp_path):
    cfg["query"] = {"cost": "l2"}
    cfg["verify"]["kinds"].append(_WASS_VERIFY_KIND)
    return "$.query.cost"


def _grid_beside_wass_verify_kind(cfg, tmp_path):
    cfg["query"] = {"grid": [0.0, 1.0]}
    cfg["verify"]["kinds"].append(_WASS_VERIFY_KIND)
    return "$.query.grid"


# a wass-mean target moves the class means against the rule's margin, which
# a constant rule does not have; certify's config asks for that target, and
# verify's asks for it in a coverage kind as well
def _zero_margin_logistic_beside_wass(cfg, tmp_path):
    cfg["model"] = {"kind": "logistic", "weights": [0, 0], "bias": 0}
    cfg["verify"]["kinds"].append(_WASS_VERIFY_KIND)
    return "$.model.weights"


def _equal_row_linear_beside_wass(cfg, tmp_path):
    cfg["model"] = {"kind": "linear-classifier", "weights": [[0.5, -1.0], [0.5, -1.0]],
                    "bias": [0.0, 0.2]}
    cfg["verify"]["kinds"].append(_WASS_VERIFY_KIND)
    return "$.model.weights"


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("make_bad", [
    _fdiv_certificate_without_archetypes,
    _fdiv_verify_kind_without_archetypes,
    _fdiv_tightness_without_archetypes,
    _world_dir_without_manifest,
    _model_wider_than_world,
    _three_class_linear_model,
    _lookup_table_model,
    _three_class_world,
    _smooth_query_loss,
    _l2_cost_beside_wass_verify_kind,
    _grid_beside_wass_verify_kind,
    _zero_margin_logistic_beside_wass,
    _equal_row_linear_beside_wass,
])
def test_bad_inputs_exit_one_before_writing(tmp_path, capsys, command, make_bad):
    cfg = copy.deepcopy(BASE_CONFIG)
    where = make_bad(cfg, tmp_path)
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, where)


def test_a_zero_margin_rule_runs_without_a_wass_target(tmp_path):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["model"] = {"kind": "logistic", "weights": [0, 0], "bias": 0.1}
    cfg["certificates"] = cfg["certificates"][:3]
    cfgp = write_config(tmp_path, cfg)
    assert main(["certify", "--config", cfgp, "--out", str(tmp_path / "c")]) == 0
    assert main(["verify", "--config", cfgp, "--trials", "2",
                 "--out", str(tmp_path / "v")]) == 0


def test_verify_without_a_wass_kind_accepts_transport_query_settings(tmp_path):
    # only the wass-mean coverage trials make robust queries
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["query"] = {"cost": "l2", "grid": [0.0, 1.0]}
    out = tmp_path / "o"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--trials", "2",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("grid, where", [
    ([0.0, 0.0, 0.0], "$.query.grid:"),
    ([[0.0, 0.0], [1.0, 0.0, 2.0]], "$.query.grid[1]:"),
])
def test_grid_point_of_the_wrong_width_exits_one_before_writing(tmp_path, capsys,
                                                                command, grid, where):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["query"] = {"grid": grid}
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, where)


@pytest.mark.parametrize("grid", [[0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]],
                         ids=["one-point", "two-points"])
def test_grid_of_one_or_several_points_runs(tmp_path, grid):
    # certify's wass-mean certificate queries through the grid; verify has no
    # wass-mean kind, so its trials ignore it
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["query"] = {"grid": grid}
    cfgp = write_config(tmp_path, cfg)
    assert main(["certify", "--config", cfgp, "--out", str(tmp_path / "c")]) == 0
    cert = json.loads((tmp_path / "c" / "03_wass-mean.json").read_text())
    assert 0.0 <= cert["value"] <= 1.0
    assert main(["verify", "--config", cfgp, "--trials", "2",
                 "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_exits_one_before_writing(tmp_path, capsys, trials):
    out = tmp_path / "o"
    rc = main(["verify", "--config", write_config(tmp_path), "--trials", trials,
               "--out", str(out)])
    assert rc == 1
    assert "$.verify.trials" in capsys.readouterr().err
    assert not out.exists()


# the top-score archetype of BASE_CONFIG weighs 0.3: no tilt reaches a KL of
# -log 0.3 or a chi-square of 1/0.3 - 1
_TILT_LIMITS = {"kl": -math.log(0.3), "chi-square": 1.0 / 0.3 - 1.0}


def _fdiv_certificate(cfg, epsilon, f_name):
    cfg["certificates"] = [{"kind": "fdiv-mean", "delta": 0.1, "epsilon": epsilon,
                            "f_name": f_name, "target_clients": 300}]
    return "$.certificates[0].epsilon"


def _fdiv_verify_kind(cfg, epsilon, f_name):
    cfg["verify"]["kinds"].append({"kind": "fdiv-cdf", "delta": 0.1, "epsilon": epsilon,
                                   "f_name": f_name})
    return "$.verify.kinds[1].epsilon"


def _fdiv_tightness(cfg, epsilon, f_name):
    cfg["verify"]["tightness"].update({"bound_kind": "fdiv-mean", "epsilon": epsilon,
                                       "f_name": f_name})
    return "$.verify.tightness.epsilon"


@pytest.mark.parametrize("command, place", [
    ("certify", _fdiv_certificate),
    ("verify", _fdiv_verify_kind),
    ("verify", _fdiv_tightness),
])
@pytest.mark.parametrize("f_name", ["kl", "chi-square"])
def test_unreachable_divergence_budget_exits_one(tmp_path, capsys, command, place, f_name):
    cfg = copy.deepcopy(BASE_CONFIG)
    where = place(cfg, 5.0, f_name)
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, where)


@pytest.mark.parametrize("command, place", [("certify", _fdiv_certificate),
                                            ("verify", _fdiv_tightness)])
@pytest.mark.parametrize("f_name", ["kl", "chi-square"])
def test_divergence_budget_below_the_tilt_limit_runs(tmp_path, command, place, f_name):
    cfg = copy.deepcopy(BASE_CONFIG)
    place(cfg, 0.9 * _TILT_LIMITS[f_name], f_name)
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert out.is_dir()


# the wass-mean per-client slack carries log((K+2) n_k / (epsilon delta)),
# which at K = 40 and n_k = 100 is not positive once epsilon * 0.1 >= 4200
@pytest.mark.parametrize("command, place, where", [
    ("certify", lambda cfg: cfg["certificates"][3], "$.certificates[3].epsilon"),
    ("verify", lambda cfg: cfg["verify"]["kinds"][1], "$.verify.kinds[1].epsilon"),
])
@pytest.mark.parametrize("epsilon", [42000.0, 1e5])
def test_a_transport_budget_past_the_per_client_slack_exits_one(tmp_path, capsys, command,
                                                                place, where, epsilon):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["verify"]["kinds"].append(dict(_WASS_VERIFY_KIND))
    place(cfg)["epsilon"] = epsilon
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, where)


# Python's json reads NaN, Infinity and -Infinity, and 1e400 as inf
@pytest.mark.parametrize("command, path", [
    ("certify", ("certificates", 2, "epsilon")),
    ("certify", ("certificates", 3, "epsilon")),
    ("verify", ("verify", "kinds", 0, "delta")),
    ("verify", ("verify", "tightness", "epsilon")),
])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_non_finite_number_exits_one_at_its_path(tmp_path, capsys, command, path, literal):
    cfg = copy.deepcopy(BASE_CONFIG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"@"', literal))
    out = tmp_path / "o"
    rc = main([command, "--config", str(config), "--out", str(out)])
    where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    err = capsys.readouterr().err
    assert rc == 1 and f"config error at {where}:" in err and "Traceback" not in err
    assert not out.exists()


# JSON Schema's "integer" takes 40.0; the command line's check does not, since
# the program slices, counts and seeds with these fields
@pytest.mark.parametrize("command, keys, value, where", [
    ("certify", ("data", "K"), 40.0, "$.data.K"),
    ("certify", ("data", "n_k"), 100.0, "$.data.n_k"),
    ("certify", ("certificates", 1, "lambda_grid", "num"), 11.0,
     "$.certificates[1].lambda_grid.num"),
    ("verify", ("verify", "tightness", "K_schedule"), [5.0, 10.0],
     "$.verify.tightness.K_schedule[0]"),
    ("verify", ("verify", "trials"), 4.0, "$.verify.trials"),
    ("certify", ("certificates", 3, "grid_size"), 8.0, "$.certificates[3].grid_size"),
    ("certify", ("certificates", 0, "target_clients"), 300.0,
     "$.certificates[0].target_clients"),
])
def test_an_integer_written_as_a_float_exits_one_at_its_path(tmp_path, capsys, command,
                                                             keys, value, where):
    cfg = copy.deepcopy(BASE_CONFIG)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, f"config error at {where}:")


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_a_from_world_scale_that_is_not_a_number_exits_one(tmp_path, capsys, command):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["model"] = {"from_world": {"scale": "x"}}
    assert_rejected_before_writing(tmp_path, capsys, command, cfg,
                                   "config error at $.model.from_world.scale:")


def test_a_world_dir_smaller_than_declared_exits_one(tmp_path, capsys):
    small = copy.deepcopy(BASE_CONFIG)
    small["data"] = {"K": 2, "n_k": 1}
    assert main(["simulate", "--config", write_config(tmp_path, small, "small.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["data"]["world_dir"] = str(tmp_path / "sim" / "world")
    # the per-client slack check reads the declared K and n_k, which pass it
    cfg["certificates"][3]["epsilon"] = 1000.0
    assert_rejected_before_writing(tmp_path, capsys, "certify", cfg,
                                   "config error at $.data.world_dir:")


@pytest.mark.parametrize("damage", [
    lambda world: (world / "manifest.json").write_text("{oops"),
    lambda world: (world / "client_0000.csv").unlink(),
    lambda world: (world / "client_0000.csv").write_text("f0,f1,label\nx,y\n"),
], ids=["manifest-not-json", "client-file-missing", "client-file-garbled"])
def test_a_damaged_world_dir_exits_one(tmp_path, capsys, damage):
    small = copy.deepcopy(BASE_CONFIG)
    small["data"] = {"K": 2, "n_k": 3}
    cfgp = write_config(tmp_path, small)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "sim")]) == 0
    damage(tmp_path / "sim" / "world")
    small["data"]["world_dir"] = str(tmp_path / "sim" / "world")
    assert_rejected_before_writing(tmp_path, capsys, "certify", small,
                                   "config error at $.data.world_dir:")


def test_a_world_dir_of_the_declared_size_certifies(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "sim")]) == 0
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["data"]["world_dir"] = str(tmp_path / "sim" / "world")
    assert main(["certify", "--config", write_config(tmp_path, cfg, "from-dir.json"),
                 "--out", str(tmp_path / "o")]) == 0


# values of the wrong type where the schema says nothing, and rules whose
# margin overflows or underflows
@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("change, where", [
    (lambda cfg: cfg["world"].update(class_means={"a": 1}), "$.world"),
    (lambda cfg: cfg["world"]["archetypes"][0].update(score=[1]),
     "$.world.archetypes[0].score"),
    (lambda cfg: cfg["world"]["archetypes"][0].update(score="x"),
     "$.world.archetypes[0].score"),
    (lambda cfg: cfg["world"]["archetypes"][1].update(class_props=[0.3, 0.3]),
     "$.world.archetypes[1].class_props"),
    (lambda cfg: cfg["world"]["archetypes"][0].pop("class_means"),
     "$.world.archetypes[0].class_means"),
    (lambda cfg: cfg.update(model={"kind": "lookup-table", "weights": [0, 1],
                                   "grid": [[0.0, 0.0], [1.0, 1.0]], "bias": "x"}),
     "$.model.bias"),
    (lambda cfg: cfg.update(model={"kind": "logistic", "weights": {"a": 1}}),
     "$.model.weights"),
    (lambda cfg: cfg.update(model={"kind": "logistic", "weights": [1, 0], "bias": [1, 2]}),
     "$.model.bias"),
    (lambda cfg: cfg.update(model={"kind": "tree", "weights": [1, 0]}), "$.model.kind"),
    (lambda cfg: cfg.update(model={"kind": "lookup-table", "weights": [0, 1]}),
     "$.model.grid"),
    (lambda cfg: cfg["world"]["archetypes"][0].update(class_means=[[1e300, 0], [0, 0]]),
     "$.model.from_world"),
    (lambda cfg: cfg.update(model={"from_world": {"scale": 1e300}}), "$.model.weights"),
    (lambda cfg: cfg.update(model={"from_world": {"scale": 1e-300}}), "$.model.weights"),
    (lambda cfg: cfg["world"].update(class_means=[[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
     "$.world.class_means"),
    (lambda cfg: cfg["world"]["archetypes"][1].update(class_means=[[-1.0, 0.0, 0.0],
                                                                   [1.0, 0.0, 0.0]]),
     "$.world.archetypes[1].class_means"),
], ids=["world-means-object", "archetype-score-list", "archetype-score-text",
        "archetype-props-sum", "archetype-means-missing", "lookup-bias-text",
        "weights-object", "bias-list",
        "unknown-kind", "lookup-without-grid", "from-world-overflow", "margin-norm-overflow", "margin-norm-underflow",
        "world-means-shape", "archetype-means-shape"])
def test_a_model_or_world_the_library_refuses_exits_one_at_its_path(tmp_path, capsys,
                                                                     command, change, where):
    cfg = copy.deepcopy(BASE_CONFIG)
    change(cfg)
    cfg["verify"]["kinds"].append(dict(_WASS_VERIFY_KIND))
    assert_rejected_before_writing(tmp_path, capsys, command, cfg, f"config error at {where}:")


def test_omitted_archetype_props_are_uniform(tmp_path):
    # archetype 0 declares the uniform proportions the schema lets it omit;
    # only the digest of the config text itself tells the two runs apart
    trees = []
    for name, omit in (("written.json", False), ("omitted.json", True)):
        cfg = copy.deepcopy(BASE_CONFIG)
        if omit:
            del cfg["world"]["archetypes"][0]["class_props"]
        out = tmp_path / name.replace(".json", "")
        assert main(["certify", "--config", write_config(tmp_path, cfg, name),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        trees.append((tree_digest(out), summary.pop("config_digest"), summary))
    (written, written_cfg, written_summary), (omitted, omitted_cfg, omitted_summary) = trees
    assert written_cfg != omitted_cfg and written_summary == omitted_summary
    del written["summary.json"], omitted["summary.json"]
    assert written == omitted


def test_archetype_scores_no_tilt_separates_exit_one_at_the_budget(tmp_path, capsys):
    # the scores differ by 1e-300, so no tilt reaches the fdiv-mean budget
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["world"]["archetypes"][1]["score"] = 1e-300
    assert_rejected_before_writing(tmp_path, capsys, "certify", cfg,
                                   "config error at $.certificates[2].epsilon:")


def test_non_zero_one_loss_rejected_by_certify(tmp_path, capsys):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["query"] = {"loss": "squared"}
    rc = main(["certify", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "zero-one" in capsys.readouterr().err


# ------------------------------------------------------------------ simulate

def test_simulate_writes_world_and_repeats_exactly(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "b")]) == 0
    da = tree_digest(tmp_path / "a")
    assert "world/manifest.json" in da
    assert any(k.endswith(".csv") for k in da)
    assert da == tree_digest(tmp_path / "b")


def test_seed_override_changes_the_world(tmp_path):
    cfgp = write_config(tmp_path)
    main(["simulate", "--config", cfgp, "--out", str(tmp_path / "s7"), "--seed", "7"])
    main(["simulate", "--config", cfgp, "--out", str(tmp_path / "s8"), "--seed", "8"])
    m7 = json.loads((tmp_path / "s7" / "world" / "manifest.json").read_text())
    m8 = json.loads((tmp_path / "s8" / "world" / "manifest.json").read_text())
    assert m7 != m8


# ------------------------------------------------------------------- certify

def test_certify_outputs_and_golden_values(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "certs"
    assert main(["certify", "--config", cfgp, "--out", str(out)]) == 0

    names = {p.name for p in out.iterdir()}
    assert {"00_mean.json", "00_mean_target.csv",
            "01_cdf.json", "01_cdf.csv", "01_cdf_target.csv",
            "02_fdiv-mean.json", "02_fdiv-mean_target.csv",
            "03_wass-mean.json", "03_wass-mean_target.csv",
            "summary.json"} <= names

    mean_cert = json.loads((out / "00_mean.json").read_text())
    fdiv_cert = json.loads((out / "02_fdiv-mean.json").read_text())
    wass_cert = json.loads((out / "03_wass-mean.json").read_text())
    # pinned values for this exact config and seed
    assert abs(mean_cert["value"] - 0.57216789836395676) < 1e-10
    assert abs(fdiv_cert["value"] - 0.6496004432065107) < 1e-10
    assert wass_cert["value"] == 1.0
    assert abs(wass_cert["raw_value"] - 1.444235157917145) < 1e-10

    curve = (out / "01_cdf.csv").read_text().splitlines()
    assert curve[0] == "lambda,bound,raw"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 31
    assert [e["kind"] for e in summary["requests"]] == \
        ["mean", "cdf", "fdiv-mean", "wass-mean"]


def test_certify_summary_flags_vacuous_certificates(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "certs"
    assert main(["certify", "--config", cfgp, "--out", str(out)]) == 0
    entries = json.loads((out / "summary.json").read_text())["requests"]
    mean, cdf, fdiv, wass_mean = entries
    # the README config's transport certificate is vacuous: raw value 1.44
    assert wass_mean["vacuous"] is True
    assert wass_mean["raw_value"] == json.loads((out / "03_wass-mean.json").read_text())["raw_value"]
    assert wass_mean["status"] == "optimal"
    assert mean["vacuous"] is False and fdiv["vacuous"] is False
    bounds = [float(row.split(",")[1]) for row in (out / "01_cdf.csv").read_text().splitlines()[1:]]
    assert cdf["vacuous_thresholds"] == sum(b >= 1.0 for b in bounds) >= 1
    assert set(cdf) == {"kind", "files", "vacuous_thresholds", "meta_slack"}
    # emit-plots reads the summary with its new fields
    assert main(["emit-plots", "--out", str(out)]) == 0


def test_certify_summary_carries_each_certificates_slack(tmp_path):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["certificates"].append({"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05,
                                "f_name": "kl", "target_clients": 300,
                                "lambda_grid": [0.2, 0.5]})
    out = tmp_path / "certs"
    assert main(["certify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    entries = json.loads((out / "summary.json").read_text())["requests"]
    for entry in entries:
        cert = json.loads((out / entry["files"]["certificate"]).read_text())
        if entry["kind"] in ("cdf", "fdiv-cdf"):
            # both curve kinds record the band's meta slack
            assert entry["meta_slack"] == cert["params"]["meta_slack"] > 0
            assert "pad" not in entry
        else:
            assert entry["slack"] == cert["slack"]
            assert set(entry["slack"]) == {"meta", "per_client"}
    assert main(["emit-plots", "--out", str(out)]) == 0


def test_certify_reruns_are_byte_identical(tmp_path):
    cfgp = write_config(tmp_path)
    assert main(["certify", "--config", cfgp, "--out", str(tmp_path / "c1")]) == 0
    assert main(["certify", "--config", cfgp, "--out", str(tmp_path / "c2")]) == 0
    assert tree_digest(tmp_path / "c1") == tree_digest(tmp_path / "c2")


def _golden_certify_config(name):
    """The config of one pinned certify tree: BASE_CONFIG itself,
    BASE_CONFIG with a KL fdiv-cdf request after its four, or BASE_CONFIG
    with a second wass-mean kind and a copy of its first after its four, so
    that three wass-mean kinds split one query table."""
    cfg = copy.deepcopy(BASE_CONFIG)
    if name == "base-fdiv-cdf":
        cfg["certificates"].append({"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05,
                                    "f_name": "kl", "target_clients": 300,
                                    "lambda_grid": {"start": 0.0, "stop": 1.0, "num": 11}})
    if name == "base-wass-kinds":
        cfg["certificates"] += [{"kind": "wass-mean", "delta": 0.05, "epsilon": 0.1,
                                 "grid_size": 5, "target_clients": 300},
                                copy.deepcopy(cfg["certificates"][3])]
    return cfg


GOLDEN_CERTIFY = json.loads((Path(__file__).parent / "golden" / "certify_trees.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFY))
def test_certify_trees_equal_their_golden_digests(tmp_path, name):
    # every file that certify and then emit-plots write, byte for byte
    golden = GOLDEN_CERTIFY[name]
    out = tmp_path / "c"
    rc = main(["certify", "--config", write_config(tmp_path, _golden_certify_config(name)),
               "--seed", str(golden["seed"]), "--out", str(out)])
    assert rc == golden["exit_codes"]["certify"]
    assert main(["emit-plots", "--out", str(out)]) == golden["exit_codes"]["emit-plots"]
    assert tree_digest(out) == golden["files"]


def test_certify_asks_each_client_one_table(tmp_path, monkeypatch):
    # radius 0 and every wass-mean grid in one query_profiles call: a
    # second wass-mean kind adds columns to the table, not a flip build
    from fedcert import query
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(query._FlipInner, "__init__",
                        counting("flip", query._FlipInner.__init__))
    monkeypatch.setattr(fedcert.cli, "query_profiles",
                        counting("profiles", fedcert.cli.query_profiles))
    seen = []
    for extra in ([], [{"kind": "wass-mean", "delta": 0.05, "epsilon": 0.1, "grid_size": 5,
                        "target_clients": 300}]):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["certificates"] += extra
        counts.clear()
        out = tmp_path / str(len(seen))
        assert main(["certify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"flip": 1, "profiles": 1}


def test_certify_budget_exhaustion_exits_three(tmp_path, capsys):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["data"]["max_queries"] = 3   # one ordinary query, then the radius grid
    rc = main(["certify", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "quer" in capsys.readouterr().err.lower()
    assert not (tmp_path / "o").exists()


def test_certify_transport_target_follows_the_query_cost(tmp_path):
    # under the plain l2 cost epsilon moves the class means by epsilon, under
    # the half-squared cost by sqrt(2 epsilon), so the targets differ
    targets = {}
    for cost in ("half-squared-l2", "l2"):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["data"] = {"K": 5, "n_k": 20}
        cfg["query"] = {"cost": cost}
        cfg["certificates"] = [{"kind": "wass-mean", "delta": 0.1, "epsilon": 0.02,
                                "grid_size": 4, "target_clients": 300}]
        out = tmp_path / cost
        assert main(["certify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        targets[cost] = (out / "00_wass-mean_target.csv").read_text()
    assert targets["half-squared-l2"] != targets["l2"]


# -------------------------------------------------------------------- verify

def test_verify_runs_and_writes_reports(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "ver"
    rc = main(["verify", "--config", cfgp, "--out", str(out), "--trials", "4"])
    assert rc == 0
    rep = json.loads((out / "coverage_00_mean.json").read_text())
    assert rep["trials"] == 4
    assert rep["passed"] is True
    tightness = (out / "tightness.csv").read_text().splitlines()
    assert tightness[0].startswith("K,n_k,median_gap,se_median,mean_gap,truth,truth_error")
    assert len(tightness) == 3
    # the quadrature's ground truth on the README config
    for row in csv.DictReader(io.StringIO((out / "tightness.csv").read_text())):
        assert 0.0 <= float(row["truth_error"]) <= 1e-9


def test_verify_tightness_truth_that_does_not_converge_exits_one(tmp_path, capsys,
                                                                 monkeypatch):
    # one quadrature level has nothing to agree with
    monkeypatch.setattr(fedcert.oracle, "_MAX_NODES", fedcert.oracle._FIRST_NODES)
    out = tmp_path / "ver"
    rc = main(["verify", "--config", write_config(tmp_path), "--out", str(out),
               "--trials", "1"])
    assert rc == 1
    assert "$.verify.tightness" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilons, max_queries, rc", [
    ((0.05,), 1, 3), ((0.05,), 16, 3), ((0.05,), 17, 0),
    ((0.05, 0.1), 32, 3), ((0.05, 0.1), 33, 0)])
def test_verify_wass_trials_spend_certifys_query_budget(tmp_path, capsys, epsilons,
                                                        max_queries, rc):
    # a client pays one zero-radius query and the 16 radii of the default
    # grid per wass-mean kind, in certify and in each coverage trial alike:
    # a trial certifies every kind on one client set
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["data"]["max_queries"] = max_queries
    cfg["certificates"] = [{"kind": "wass-mean", "delta": 0.1, "epsilon": epsilon,
                            "target_clients": 300} for epsilon in epsilons]
    cfg["verify"] = {"trials": 2, "target_clients": 300,
                     "kinds": [{"kind": "wass-mean", "delta": 0.1, "epsilon": epsilon}
                               for epsilon in epsilons]}
    cfgp = write_config(tmp_path, cfg)
    assert main(["certify", "--config", cfgp, "--out", str(tmp_path / "c")]) == rc
    assert main(["verify", "--config", cfgp, "--out", str(tmp_path / "v")]) == rc
    if rc == 3:
        assert "exhausted its budget" in capsys.readouterr().err
        assert not (tmp_path / "c").exists() and not (tmp_path / "v").exists()


def test_verify_jobs_write_the_same_tree(tmp_path):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["verify"]["kinds"] = [{"kind": "mean", "delta": 0.1},
                              {"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05, "f_name": "kl"}]
    cfgp = write_config(tmp_path, cfg)
    for jobs in ("1", "2"):
        assert main(["verify", "--config", cfgp, "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "2")


def test_verify_draws_each_trials_source_once_for_every_kind(tmp_path, monkeypatch):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["verify"]["kinds"] = [
        {"kind": "mean", "delta": 0.1},
        {"kind": "cdf", "delta": 0.1},
        {"kind": "fdiv-mean", "delta": 0.1, "epsilon": 0.05, "f_name": "chi-square"},
        {"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05, "f_name": "kl"},
    ]
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    counting(fedcert.metasim, "draw_world")
    counting(fedcert.oracle, "_source_risks")
    counting(fedcert.oracle._TargetDraws, "risks")
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "v")]) == 0
    tc = cfg["verify"]["tightness"]
    # one source pass for the kinds' shared source and one per schedule
    # point, and no world drawn on its own
    assert counts.get("_source_risks") == 1 + len(tc["K_schedule"])
    assert "draw_world" not in counts
    # the source and the two tilts share one target draw per trial
    assert counts.get("risks") == cfg["verify"]["trials"]


def test_verify_without_kinds_draws_only_the_tightness_sources(tmp_path, monkeypatch):
    cfg = copy.deepcopy(BASE_CONFIG)
    del cfg["verify"]["kinds"]
    passes = []
    source_risks = fedcert.oracle._source_risks

    def counted(*args, **kwargs):
        passes.append(args[3])
        return source_risks(*args, **kwargs)
    monkeypatch.setattr(fedcert.oracle, "_source_risks", counted)
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "v")]) == 0
    # one pass per schedule point, at its K, and none for the absent kinds
    assert passes == cfg["verify"]["tightness"]["K_schedule"]
    assert sorted(p.name for p in (tmp_path / "v").iterdir()) == ["tightness.csv"]


def _golden_verify_config(name):
    """The config of one pinned verify tree: BASE_CONFIG itself, or the four
    kinds that certify from the query matrix with an fdiv-mean tightness
    probe, or those four beside a wass-mean kind."""
    cfg = copy.deepcopy(BASE_CONFIG)
    if name == "base":
        return cfg
    cfg["verify"]["kinds"] = [
        {"kind": "mean", "delta": 0.1},
        {"kind": "cdf", "delta": 0.1},
        {"kind": "fdiv-mean", "delta": 0.1, "epsilon": 0.05, "f_name": "chi-square"},
        {"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05, "f_name": "kl"},
    ]
    cfg["verify"]["tightness"] = {"bound_kind": "fdiv-mean", "epsilon": 0.05, "f_name": "kl",
                                  "K_schedule": [5, 20], "n_schedule": [10, 30], "trials": 4}
    if name.startswith("five-kinds"):
        cfg["verify"]["kinds"].append({"kind": "wass-mean", "delta": 0.1, "epsilon": 0.02})
    return cfg


GOLDEN_VERIFY = json.loads((Path(__file__).parent / "golden" / "verify_trees.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_trees_equal_their_golden_digests(tmp_path, name):
    # pinned before the sampling passes were batched: every file of the
    # tree, byte for byte
    golden = GOLDEN_VERIFY[name]
    out = tmp_path / "v"
    rc = main(["verify", "--config", write_config(tmp_path, _golden_verify_config(name)),
               "--seed", str(golden["seed"]), "--out", str(out)])
    assert rc == golden["exit_code"]
    assert tree_digest(out) == golden["files"]


GOLDEN_TARGETS = json.loads((Path(__file__).parent / "golden" / "target_draws.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_TARGETS))
def test_verify_target_draws_equal_their_golden_digests(tmp_path, monkeypatch, name):
    # a coverage report keeps only violation counts, so the pinned trees do
    # not see the target draws: pin each trial's draw of every target world,
    # as its sha256 over the worlds' risks in order
    golden, seen = GOLDEN_TARGETS[name], []
    original = fedcert.oracle._TargetDraws.risks

    def recording(self, rng):
        risks = original(self, rng)
        digest = hashlib.sha256()
        for r in risks:
            digest.update(r.tobytes())
        seen.append(digest.hexdigest())
        return risks
    monkeypatch.setattr(fedcert.oracle._TargetDraws, "risks", recording)
    assert main(["verify", "--config", write_config(tmp_path, _golden_verify_config(name)),
                 "--seed", str(golden["seed"]), "--out", str(tmp_path / "v")]) == 0
    assert seen == golden["trials"]


def test_verify_without_section_exits_one(tmp_path, capsys):
    cfg = copy.deepcopy(BASE_CONFIG)
    del cfg["verify"]
    rc = main(["verify", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "verify" in capsys.readouterr().err


# ---------------------------------------------------------------- emit-plots

def test_emit_plots_requires_summary(tmp_path, capsys):
    out = tmp_path / "empty"
    out.mkdir()
    rc = main(["emit-plots", "--out", str(out)])
    assert rc == 1
    assert "summary.json" in capsys.readouterr().err


@pytest.mark.parametrize("summary", [
    "{oops",
    json.dumps({"seed": 31}),
    json.dumps({"requests": [{"kind": "mean"}]}),
], ids=["not-json", "no-requests", "no-files"])
def test_emit_plots_rejects_a_bad_summary(tmp_path, capsys, summary):
    out = tmp_path / "run"
    out.mkdir()
    (out / "summary.json").write_text(summary)
    assert main(["emit-plots", "--out", str(out)]) == 1
    assert str(out / "summary.json") in capsys.readouterr().err


def test_emit_plots_lists_missing_files(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "certs"
    main(["certify", "--config", cfgp, "--out", str(out)])
    (out / "01_cdf.csv").unlink()
    rc = main(["emit-plots", "--out", str(out)])
    assert rc == 1
    assert "01_cdf.csv" in capsys.readouterr().err


def test_emit_plots_header_dominance_and_stability(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "certs"
    main(["certify", "--config", cfgp, "--out", str(out)])
    assert main(["emit-plots", "--out", str(out)]) == 0

    lines = (out / "plots.csv").read_text().splitlines()
    assert lines[0] == ",".join(PLOTS_HEADER)
    assert len(lines) > 1
    for line in lines[1:]:
        lam, emp, bound, kind = line.split(",")
        assert float(bound) >= float(emp) - 1e-9

    first = (out / "plots.csv").read_bytes()
    assert main(["emit-plots", "--out", str(out)]) == 0
    assert (out / "plots.csv").read_bytes() == first


def test_emit_plots_flags_dominance_violation(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "certs"
    main(["certify", "--config", cfgp, "--out", str(out)])
    cert = json.loads((out / "00_mean.json").read_text())
    cert["value"] = 0.0
    (out / "00_mean.json").write_text(json.dumps(cert))
    rc = main(["emit-plots", "--out", str(out)])
    assert rc == 2
    assert "dominance violated" in capsys.readouterr().err


def test_emit_plots_reads_a_step_just_past_the_threshold_correctly(tmp_path):
    # the curve steps down at 0.5 + 5e-13, just right of the target threshold
    # 0.5, so the bound at 0.5 is still the step from 0.0
    out = tmp_path / "run"
    out.mkdir()
    files = {"certificate": "00_cdf.json", "curve": "00_cdf.csv", "target": "00_cdf_target.csv"}
    (out / "summary.json").write_text(json.dumps({"requests": [{"kind": "cdf", "files": files}]}))
    (out / files["certificate"]).write_text("{}")
    (out / files["curve"]).write_text(
        "lambda,bound\n0,1\n0.50000000000050004,0.59999999999999998\n1,0.10000000000000001\n")
    (out / files["target"]).write_text("lambda,empirical\n0.5,0.80000000000000004\n")
    assert main(["emit-plots", "--out", str(out)]) == 0
    assert (out / "plots.csv").read_text().splitlines()[1] == "0.5,0.80000000000000004,1,cdf"


def test_emit_plots_rejects_an_unsorted_curve(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    files = {"certificate": "00_cdf.json", "curve": "00_cdf.csv", "target": "00_cdf_target.csv"}
    (out / "summary.json").write_text(json.dumps({"requests": [{"kind": "cdf", "files": files}]}))
    (out / files["certificate"]).write_text("{}")
    (out / files["curve"]).write_text("lambda,bound\n0.5,0.5\n0,1\n")
    (out / files["target"]).write_text("lambda,empirical\n0.2,0.3\n")
    assert main(["emit-plots", "--out", str(out)]) == 1
    assert "00_cdf.csv" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("certify", "--trials"), ("certify", "--jobs"), ("simulate", "--jobs"),
    ("emit-plots", "--seed"), ("emit-plots", "--trials"),
])
def test_flags_exist_only_where_read(tmp_path, command, flag):
    argv = [command, "--out", str(tmp_path), flag, "2"]
    if command != "emit-plots":
        argv += ["--config", write_config(tmp_path)]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
