"""Experiment runner.

Four subcommands drive the whole pipeline from one JSON config:

  simulate     write a client world (manifest + per-client CSVs)
  certify      answer loss queries and write certificates + curve CSVs,
               plus the empirical target curves the plots need
  verify       Monte-Carlo coverage and tightness checks
  emit-plots   join certificates with target curves into tidy CSVs

What a certificate kind means, its bound function, the radius grid a
``wass-mean`` request asks and the shifted target world it declares, lives
in ``oracle`` (``issue_certificate``, ``request_grid``, ``target_world``);
this module reads configs, checks them, asks each client one query table
(``query.query_profiles``) and writes files.
A config and a certify run's ``summary.json`` are checked against
``CONFIG_SCHEMA`` and ``_SUMMARY_SCHEMA`` by ``schema_error``, a short walk
over just the JSON Schema keywords those schemas use (listed above it), so
no command imports jsonschema.

Every run is a pure function of (config, seed): JSON keys are sorted, CSV
floats use repr-exact formatting, and nothing records timestamps, so reruns
are byte-identical.

Exit codes: 0 success, 1 usage or config error, 2 verification or dominance
failure, 3 query-budget exhaustion.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .certificates import CdfCurve, write_json
from .losses import LINEAR, LOOKUP, LOSS_KINDS, ZERO_ONE, FieldError, Hypothesis, LossFn
from .metasim import (
    MetaConfig,
    draw_world,
    export_world,
    load_world,
    tilt_divergence_limit,
)
from .oracle import (
    BOUND_KINDS,
    CURVE_KINDS,
    FDIV_KINDS,
    TIGHTNESS_KINDS,
    check_query_budget,
    coverage_experiments,
    issue_certificate,
    lambda_grid,
    request_grid,
    sample_true_risks,
    survival_at,
    target_world,
    tightness_probe,
)
from .query import (
    HALF_SQ,
    PLAIN_L2,
    BudgetExceededError,
    Client,
    TransportCost,
    query_profiles,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3

PLOTS_HEADER = ["lambda", "empirical", "bound", "kind"]


class ConfigError(Exception):
    pass


_LAMBDA_GRID_SCHEMA = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
        {
            "type": "object",
            "required": ["start", "stop", "num"],
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "num": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
    ]
}


def _when_kind(kinds, then: dict) -> dict:
    """Schema clause: an entry whose ``kind`` is one of ``kinds`` must also
    satisfy ``then``."""
    return {"if": {"required": ["kind"], "properties": {"kind": {"enum": list(kinds)}}},
            "then": then}


_REQUEST_PROPERTIES = {
    "kind": {"enum": list(BOUND_KINDS)},
    "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "epsilon": {"type": "number", "minimum": 0},
    "f_name": {"enum": ["kl", "chi-square"]},
    "lambda_grid": _LAMBDA_GRID_SCHEMA,
}

_POINT_SCHEMA = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_SCHEDULE_SCHEMA = {"type": "array", "minItems": 1,
                    "items": {"type": "integer", "minimum": 1}}

# the transport certificate's per-client slack carries log(1/epsilon)
_WASS_NEEDS_EPSILON = _when_kind(["wass-mean"], {
    "required": ["epsilon"], "properties": {"epsilon": {"exclusiveMinimum": 0}}})

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["world", "model", "data", "certificates"],
    "properties": {
        "world": {
            "type": "object",
            "required": ["dim", "n_classes"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "n_classes": {"type": "integer", "minimum": 2},
                "shift_mode": {"enum": ["none", "feature", "label", "both"]},
                "cov_scale": {"type": "number", "exclusiveMinimum": 0},
                "sigma_affine": {"type": "number", "minimum": 0},
                "sigma_shift": {"type": "number", "minimum": 0},
                "alpha_dir": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "archetypes": {"type": "array", "items": {
                    "type": "object",
                    "properties": {"class_props": {
                        "type": "array", "items": {"type": "number", "minimum": 0}}},
                }},
                "archetype_weights": {"type": "array",
                                      "items": {"type": "number", "minimum": 0}},
            },
        },
        "model": {
            "type": "object",
            "oneOf": [
                {"required": ["kind", "weights"]},
                {"required": ["from_world"]},
            ],
            "properties": {"from_world": {
                "type": "object", "properties": {"scale": {"type": "number"}}}},
        },
        "data": {
            "type": "object",
            "required": ["K", "n_k"],
            "properties": {
                "K": {"type": "integer", "minimum": 1},
                "n_k": {"type": "integer", "minimum": 1},
                "max_queries": {"type": "integer", "minimum": 1},
                "world_dir": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "query": {
            "type": "object",
            "properties": {
                "loss": {"enum": list(LOSS_KINDS)},
                "cost": {"enum": [HALF_SQ, PLAIN_L2]},
                # one point, or a list of points
                "grid": {"oneOf": [
                    _POINT_SCHEMA,
                    {"type": "array", "items": _POINT_SCHEMA, "minItems": 1},
                ]},
            },
            "additionalProperties": False,
        },
        "certificates": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["kind", "delta"],
                "properties": {
                    **_REQUEST_PROPERTIES,
                    "grid_size": {"type": "integer", "minimum": 2},
                    "target_clients": {"type": "integer", "minimum": 1},
                },
                "additionalProperties": False,
                "allOf": [
                    _when_kind(FDIV_KINDS, {"required": ["epsilon", "f_name"]}),
                    _WASS_NEEDS_EPSILON,
                ],
            },
        },
        "verify": {
            "type": "object",
            "properties": {
                "trials": {"type": "integer", "minimum": 1},
                "target_clients": {"type": "integer", "minimum": 1},
                "kinds": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["kind"],
                        "properties": _REQUEST_PROPERTIES,
                        "additionalProperties": False,
                        "allOf": [_when_kind(FDIV_KINDS, {"required": ["f_name"]}),
                                  _WASS_NEEDS_EPSILON],
                    },
                },
                "tightness": {
                    "type": "object",
                    "required": ["bound_kind", "K_schedule", "n_schedule"],
                    "properties": {
                        "bound_kind": {"enum": list(TIGHTNESS_KINDS)},
                        "K_schedule": _SCHEDULE_SCHEMA,
                        "n_schedule": _SCHEDULE_SCHEMA,
                        "trials": {"type": "integer", "minimum": 1},
                        "delta": _REQUEST_PROPERTIES["delta"],
                        "epsilon": _REQUEST_PROPERTIES["epsilon"],
                        "f_name": _REQUEST_PROPERTIES["f_name"],
                    },
                    "additionalProperties": False,
                    "if": {"properties": {"bound_kind": {"const": "fdiv-mean"}}},
                    "then": {"required": ["f_name"]},
                },
            },
        },
    },
}

# what emit-plots reads from a certify run's summary.json
_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["requests"],
    "properties": {
        "requests": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "files"],
                "properties": {
                    "kind": {"enum": list(BOUND_KINDS)},
                    "files": {
                        "type": "object",
                        "required": ["certificate", "target"],
                        "additionalProperties": {"type": "string"},
                    },
                    # written for inspection; emit-plots reads none of them
                    "status": {"type": "string"},
                    "raw_value": {"type": "number"},
                    "vacuous": {"type": "boolean"},
                    "vacuous_thresholds": {"type": "integer", "minimum": 0},
                    # each certificate's slack terms; absent from older trees
                    "slack": {"type": "object", "additionalProperties": {"type": "number"}},
                    "meta_slack": {"type": "number"},
                    # the additive slack older fdiv-cdf entries carry
                    "pad": {"type": "number"},
                },
                "allOf": [_when_kind(CURVE_KINDS,
                                     {"properties": {"files": {"required": ["curve"]}}})],
            },
        },
    },
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _load_json(path: Path, schema: dict, what: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    error = schema_error(doc, schema)
    if error is not None:
        raise ConfigError(f"{what} error at {error[0]}: {error[1]}")
    return doc


# The config and summary schemas are JSON Schema (draft 2020-12) data, which
# the tests check against the metaschema and against jsonschema itself.  The
# commands check documents with the walk below instead, which knows exactly
# the keywords those schemas use: type, required, properties,
# additionalProperties, enum, const, minimum, exclusiveMinimum,
# exclusiveMaximum, minItems, items, oneOf, allOf, if and then.  It departs
# from JSON Schema in one place: an "integer" is an int, never a float such
# as 40.0, since the program slices, counts and seeds with these fields.

class _NonFinite(Exception):
    """A float that is not finite, met anywhere in the walk: Python's json
    reads NaN, Infinity and -Infinity, and an overflowing literal such as
    1e400 as inf."""


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is_type(x, name: str) -> bool:
    # bool is a subclass of int, but true and false are not numbers
    return isinstance(x, _TYPES[name]) and (name == "boolean" or not isinstance(x, bool))


_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"))


def schema_error(doc, schema: dict) -> tuple[str, str] | None:
    """The first place where ``doc`` breaks ``schema`` or holds a number
    that is not finite, as ``(json_path, message)`` with paths such as
    ``$.a[0].b``, or None."""
    try:
        return _first_error(doc, schema, "$")
    except _NonFinite as exc:
        return str(exc), "numbers must be finite"


def _first_error(doc, schema: dict, path: str) -> tuple[str, str] | None:
    if isinstance(doc, float) and not math.isfinite(doc):
        raise _NonFinite(path)
    kind = schema.get("type")
    if kind is not None and not _is_type(doc, kind):
        return path, f"{doc!r} is not of type {kind!r}"
    if "enum" in schema and doc not in schema["enum"]:
        return path, f"{doc!r} is not one of {schema['enum']!r}"
    if "const" in schema and doc != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if _is_type(doc, "number"):
        for key, breaks, words in _BOUNDS:
            if key in schema and breaks(doc, schema[key]):
                return path, f"{doc!r} is {words} {schema[key]!r}"
    children = ()
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                return path, f"{key!r} is a required property"
        known = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        unexpected = [key for key in doc if key not in known]
        if extra is False and unexpected:
            return path, f"additional properties are not allowed ({unexpected[0]!r} " \
                         "was unexpected)"
        children = [(f"{path}.{key}", value, known.get(key, extra))
                    for key, value in doc.items()]
    elif isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            return path, f"{doc!r} has fewer than {schema['minItems']} items"
        children = [(f"{path}[{i}]", value, schema.get("items", {}))
                    for i, value in enumerate(doc)]
    applied = list(schema.get("allOf", ()))
    if "if" in schema and _first_error(doc, schema["if"], path) is None:
        applied.append(schema.get("then", {}))
    for sub in applied:
        error = _first_error(doc, sub, path)
        if error is not None:
            return error
    if "oneOf" in schema:
        errors = [_first_error(doc, sub, path) for sub in schema["oneOf"]]
        if errors.count(None) > 1:
            return path, "matches more than one of its alternatives"
        if errors.count(None) == 0:
            # the one alternative of the document's type says what is wrong
            typed = [error for error, sub in zip(errors, schema["oneOf"])
                     if "type" in sub and _is_type(doc, sub["type"])]
            return typed[0] if len(typed) == 1 else \
                (path, "matches none of its alternatives")
    for where, value, sub in children:
        error = _first_error(value, sub, where)
        if error is not None:
            return error
    return None


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return _load_json(path, CONFIG_SCHEMA, "config")


def config_digest(cfg: dict) -> str:
    return hashlib.sha1(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _world_from_config(cfg: dict, seed: int | None) -> MetaConfig:
    wd = dict(cfg["world"])
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"config error at $.world.seed: --seed {seed} is below 0")
        wd["seed"] = int(seed)
    try:
        return MetaConfig.from_json_dict(wd)
    except FieldError as exc:
        raise ConfigError(f"config error at $.world.{exc.field}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"config error at $.world: {exc}") from exc


def _model_from_config(cfg: dict, world: MetaConfig) -> Hypothesis:
    md = cfg["model"]
    if "from_world" in md:
        opts = md["from_world"]
        if world.archetypes is not None:
            w = np.asarray(world.archetype_weights, dtype=float)
            means = np.stack([a.class_means for a in world.archetypes])
            m = np.einsum("m,mcd->cd", w, means)
        else:
            m = world.class_means
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            wvec = float(opts.get("scale", 1.0)) * (m[1] - m[0])
            bias = -float(wvec @ (m[0] + m[1])) / 2.0
        if not np.any(wvec):
            raise ConfigError("config error at $.model.from_world: equal class means "
                              "give a degenerate rule")
        if not (np.all(np.isfinite(wvec)) and math.isfinite(bias)):
            raise ConfigError("config error at $.model.from_world: the rule drawn from the "
                              "world's class means overflows")
        return Hypothesis(kind="logistic", weights=wvec, bias=bias, name="world-lda")
    try:
        return Hypothesis.from_json_dict(md)
    except FieldError as exc:
        raise ConfigError(f"config error at $.model.{exc.field}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"config error at $.model: {exc}") from exc


def _build_clients(cfg: dict, world: MetaConfig) -> tuple[list[Client], TransportCost]:
    data = cfg["data"]
    query_cfg = cfg.get("query", {})
    loss_fn = LossFn(query_cfg.get("loss", ZERO_ONE))
    cost = TransportCost(query_cfg.get("cost", HALF_SQ))
    grid = np.asarray(query_cfg["grid"], dtype=float) if "grid" in query_cfg else None
    if "world_dir" in data:
        try:
            loaded_cfg, _, datasets = load_world(data["world_dir"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"config error at $.data.world_dir: {exc}") from exc
        if loaded_cfg.digest() != world.digest():
            raise ConfigError("config error at $.data.world_dir: its manifest does not match "
                              "the config world")
        # the slack checks and certificates read the declared K and n_k
        sizes = sorted({len(ds) for ds in datasets})
        if len(datasets) != data["K"] or sizes != [data["n_k"]]:
            raise ConfigError(f"config error at $.data.world_dir: {len(datasets)} clients of "
                              f"{sizes} samples, but $.data declares K = {data['K']} "
                              f"and n_k = {data['n_k']}")
    else:
        datasets = draw_world(world, data["K"], data["n_k"]).datasets()
    clients = [Client(ds.client_id, ds, loss_fn, cost=cost, grid=grid) for ds in datasets]
    return clients, cost


def _check_inputs(cfg: dict, world: MetaConfig, h: Hypothesis) -> None:
    """The config rules the schema cannot see.  The targets are exact
    zero-one risks, so the world must be binary, the model a binary linear
    or logistic rule of the world's width, each ``query.grid`` point of that
    width, and the query loss zero-one; the
    coverage trials query under the half-squared cost with no grid, so a
    wass-mean verify kind refuses any other ``query`` setting.  Divergence
    kinds (a tightness probe's included) need a world with archetypes and a
    budget below what the archetype tilt can reach, a wass-mean target needs
    a rule with a nonzero margin to move the class means against and an
    epsilon whose ``oracle.request_grid`` K clients of n_k samples can
    answer, a world directory must hold a manifest, and the tightness
    schedules must be aligned and nondecreasing."""
    if world.n_classes != 2:
        raise ConfigError("config error at $.world.n_classes: certify and verify "
                          "need a binary world")
    if h.kind == LOOKUP:
        raise ConfigError(f"config error at $.model.kind: {h.kind!r} has no exact "
                          "target risks; use a binary linear or logistic rule")
    if h.kind == LINEAR and h.n_classes != 2:
        raise ConfigError(f"config error at $.model.weights: {h.n_classes} rows; "
                          "a linear-classifier needs one row per class of a binary world")
    if h.n_features != world.dim:
        raise ConfigError(f"config error at $.model.weights: {h.n_features} features "
                          f"for a world of dim {world.dim}")
    verify = cfg.get("verify", {})
    query = cfg.get("query", {})
    if "grid" in query:
        nested = isinstance(query["grid"][0], list)
        for i, point in enumerate(query["grid"] if nested else [query["grid"]]):
            if len(point) != world.dim:
                where = f"grid[{i}]" if nested else "grid"
                raise ConfigError(f"config error at $.query.{where}: a point of "
                                  f"{len(point)} coordinates for a world of dim {world.dim}")
    if query.get("loss", ZERO_ONE) != ZERO_ONE:
        raise ConfigError("config error at $.query.loss: certificates and their "
                          "targets are wired for the zero-one loss")
    wass = [i for i, e in enumerate(verify.get("kinds", [])) if e["kind"] == "wass-mean"]
    for key, ignored in (("cost", query.get("cost", HALF_SQ) != HALF_SQ),
                         ("grid", "grid" in query)):
        if wass and ignored:
            raise ConfigError(f"config error at $.query.{key}: the coverage trials of "
                              f"$.verify.kinds[{wass[0]}] query under the half-squared "
                              "cost with no grid")
    requests = [(f"certificates[{i}]", req, req["kind"])
                for i, req in enumerate(cfg["certificates"])]
    requests += [(f"verify.kinds[{i}]", req, req["kind"])
                 for i, req in enumerate(verify.get("kinds", []))]
    if "tightness" in verify:
        tc = verify["tightness"]
        requests.append(("verify.tightness", tc, tc["bound_kind"]))
    wass_targets = [where for where, _, kind in requests if kind == "wass-mean"]
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(h.margin_direction()) if wass_targets else 1.0
    if not 0 < norm < np.inf:
        raise ConfigError(f"config error at $.model.weights: a rule whose margin has norm "
                          f"{norm:g} has no adversarial direction to build the target of "
                          f"$.{wass_targets[0]}")
    for where, req, kind in requests:
        if kind == "wass-mean":
            try:
                request_grid(req, np.full(cfg["data"]["K"], cfg["data"]["n_k"]))
            except ValueError as exc:
                raise ConfigError(f"config error at $.{where}.epsilon: {exc}") from exc
        if kind not in FDIV_KINDS:
            continue
        if world.archetypes is None:
            raise ConfigError(f"config error at $.{where}: kind {kind!r} "
                              "needs a world with archetypes")
        eps = float(req.get("epsilon", 0.0))
        limit = tilt_divergence_limit(world, req["f_name"])
        if eps > 0 and eps >= limit:
            raise ConfigError(f"config error at $.{where}.epsilon: {req['f_name']} budget "
                              f"{eps:g} is out of the archetype tilt's reach; its "
                              f"divergence stays below {limit:.6g}")
    if "world_dir" in cfg["data"]:
        manifest = Path(cfg["data"]["world_dir"]) / "manifest.json"
        if not manifest.is_file():
            raise ConfigError(f"config error at $.data.world_dir: no manifest at {manifest}")
    if "tightness" in verify:
        tc = verify["tightness"]
        if len(tc["K_schedule"]) != len(tc["n_schedule"]):
            raise ConfigError("config error at $.verify.tightness: K_schedule and "
                              "n_schedule differ in length")
        for key in ("K_schedule", "n_schedule"):
            if tc[key] != sorted(tc[key]):
                raise ConfigError(f"config error at $.verify.tightness.{key}: "
                                  "schedule must be nondecreasing")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    world = _world_from_config(cfg, args.seed)
    out = Path(args.out)
    drawn = draw_world(world, cfg["data"]["K"], cfg["data"]["n_k"])
    manifest = export_world(out / "world", world, drawn.specs(), drawn.datasets())
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    world = _world_from_config(cfg, args.seed)
    h = _model_from_config(cfg, world)
    _check_inputs(cfg, world, h)
    clients, cost = _build_clients(cfg, world)
    ns = np.array([c.n_samples for c in clients])

    # each client answers one table: radius 0, then every wass-mean request's
    # grid in request order (an empty one for any other kind), duplicates
    # kept, so each request reads its own columns
    grids = [request_grid(req, ns) if req["kind"] == "wass-mean" else np.empty(0)
             for req in cfg["certificates"]]
    check_query_budget(grids, cfg["data"].get("max_queries"))
    values, slopes = query_profiles(clients, h, np.concatenate([[0.0], *grids]))
    qv = values[:, 0]
    ends = np.cumsum([len(g) for g in grids])[:-1]
    tables = zip(grids, np.split(values[:, 1:], ends, axis=1),
                 np.split(slopes[:, 1:], ends, axis=1))

    # every certificate and target is computed before --out is created, so a
    # run that fails (an exhausted query budget) leaves nothing behind
    results = []
    for i, (req, table) in enumerate(zip(cfg["certificates"], tables)):
        kind = req["kind"]
        result = issue_certificate(kind, req, qv, ns, table)

        # empirical target curve: exact risks of fresh clients drawn from the
        # world this certificate declares (shifted when epsilon > 0)
        target = target_world(world, kind, float(req.get("epsilon", 0.0)), h,
                              req.get("f_name"), cost.kind)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([world.seed, 777, i])))
        risks = sample_true_risks(target, int(req.get("target_clients", 2000)), h, rng)
        if kind in CURVE_KINDS:
            lams = lambda_grid(req)
            rows = [[_fmt(lam), _fmt(share)]
                    for lam, share in zip(lams.tolist(), survival_at(risks, lams).tolist())]
        else:
            rows = [["", _fmt(np.mean(risks))]]
        results.append((f"{i:02d}_{kind}", kind, result, rows))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for stem, kind, result, rows in results:
        files = {"certificate": f"{stem}.json", "target": f"{stem}_target.csv"}
        result.write_json(out / files["certificate"])
        if kind in CURVE_KINDS:
            files["curve"] = f"{stem}.csv"
            result.write_csv(out / files["curve"])
        with open(out / files["target"], "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lambda", "empirical"])
            wr.writerows(rows)
        if kind in CURVE_KINDS:
            flags = {"vacuous_thresholds": int(np.count_nonzero(result.bounds >= 1.0)),
                     "meta_slack": result.params["meta_slack"]}
        else:
            flags = {"status": result.status, "raw_value": result.raw_value,
                     "vacuous": bool(result.raw_value >= 1.0), "slack": result.slack}
        entries.append({"kind": kind, "files": files, **flags})

    summary = {
        "config_digest": config_digest(cfg),
        "world_digest": world.digest(),
        "seed": world.seed,
        "requests": entries,
    }
    write_json(out / "summary.json", summary)
    print(f"wrote {len(entries)} certificates to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if "verify" not in cfg:
        raise ConfigError("config has no 'verify' section")
    world = _world_from_config(cfg, args.seed)
    h = _model_from_config(cfg, world)
    _check_inputs(cfg, world, h)
    vc = cfg["verify"]
    trials = int(args.trials if args.trials is not None else vc.get("trials", 50))
    if trials < 1:
        raise ConfigError(f"config error at $.verify.trials: --trials {trials} is below 1")
    entries = vc.get("kinds", [])
    data = cfg["data"]
    # the kinds share each trial's source world and target draws
    coverage = coverage_experiments(
        world, h, data["K"], data["n_k"],
        [(e["kind"], e) for e in entries],
        trials, seed=world.seed, target_clients=vc.get("target_clients", 2000),
        max_queries=data.get("max_queries"))
    all_passed = True
    reports = []
    for i, (entry, report) in enumerate(zip(entries, coverage)):
        kind = entry["kind"]
        reports.append((f"coverage_{i:02d}_{kind}.json", report))
        status = "ok" if report.passed else "FAIL"
        print(f"coverage {kind}: rate={report.violation_rate:.4f} "
              f"threshold={report.threshold:.4f} [{status}]")
        all_passed = all_passed and report.passed

    rows = None
    if "tightness" in vc:
        tc = vc["tightness"]
        try:
            rows = tightness_probe(
                world, h, tc["bound_kind"], tc["K_schedule"], tc["n_schedule"],
                int(tc.get("trials", 20)), world.seed,
                {k: tc[k] for k in ("delta", "epsilon", "f_name") if k in tc},
            )
        except RuntimeError as exc:
            # the target world's shift or its mean risk's quadrature failed
            raise ConfigError(f"config error at $.verify.tightness: {exc}") from exc
        gaps = [r["median_gap"] for r in rows]
        print("tightness gaps: " + ", ".join(f"{g:.4f}" for g in gaps))

    # --out is created once every trial has run, so a run that fails (an
    # exhausted query budget) leaves nothing behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in reports:
        report.write_json(out / name)
    if rows is not None:
        keys = list(rows[0].keys())
        with open(out / "tightness.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(keys)
            for row in rows:
                wr.writerow([row["K"], row["n_k"]] + [_fmt(row[k]) for k in keys[2:]])

    return EXIT_OK if all_passed else EXIT_VERIFY


def _read_input(path: Path, what: str, read):
    """``read`` of the open file ``path``; a malformed file is a config
    error that names it."""
    try:
        with open(path) as fh:
            return read(fh)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad {what} {path}: {type(exc).__name__}: {exc}") from exc


def _finite(text) -> float:
    """``float(text)``; a NaN or an infinity is refused with ValueError."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _float_columns(fh, keys) -> list[list[float]]:
    """The columns ``keys`` of a CSV, as finite floats."""
    rows = list(csv.DictReader(fh))
    return [[_finite(r[key]) for r in rows] for key in keys]


def _target_rows(fh, curve: bool) -> list[tuple]:
    """A target CSV's rows as (lambda text, empirical text, lambda,
    empirical): a curve kind's every row, another kind's first, with a
    blank lambda of None."""
    target = list(csv.DictReader(fh))[:None if curve else 1]
    if not target:
        raise ValueError("no rows")
    return [(r["lambda"], r["empirical"], _finite(r["lambda"]), _finite(r["empirical"]))
            if curve else ("", r["empirical"], None, _finite(r["empirical"])) for r in target]


def cmd_emit_plots(args) -> int:
    out = Path(args.out)
    summary_path = out / "summary.json"
    if not summary_path.is_file():
        raise ConfigError(f"missing inputs: {summary_path}")
    summary = _load_json(summary_path, _SUMMARY_SCHEMA, str(summary_path))

    missing = []
    for entry in summary["requests"]:
        for rel in entry["files"].values():
            if not (out / rel).is_file():
                missing.append(str(out / rel))
    if missing:
        raise ConfigError("missing inputs: " + ", ".join(missing))

    rows = []
    violations = []
    for entry in summary["requests"]:
        kind, files = entry["kind"], entry["files"]
        curve = kind in CURVE_KINDS
        target = _read_input(out / files["target"], "target", lambda fh: _target_rows(fh, curve))
        if curve:
            steps = _read_input(out / files["curve"], "curve",
                                lambda fh: CdfCurve(*_float_columns(fh, ("lambda", "bound"))))
            bounds = [steps.at(lam) for _, _, lam, _ in target]
        else:
            bounds = [_read_input(out / files["certificate"], "certificate",
                                  lambda fh: _finite(json.load(fh)["value"]))]
        for (lam_text, emp_text, lam, emp), bound in zip(target, bounds):
            rows.append([lam_text, emp_text, _fmt(bound), kind])
            if emp > bound + 1e-9:
                violations.append((kind, lam, emp, bound))

    with open(out / "plots.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(PLOTS_HEADER)
        wr.writerows(rows)
    print(f"wrote {out / 'plots.csv'} ({len(rows)} rows)")

    if violations:
        for kind, lam, emp, bound in violations:
            where = f" at lambda={lam}" if lam is not None else ""
            print(f"dominance violated for {kind}{where}: "
                  f"empirical {emp:.6f} > bound {bound:.6f}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedcert",
        description="certified loss bounds for shifted federated client populations",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("certify", cmd_certify),
                     ("verify", cmd_verify), ("emit-plots", cmd_emit_plots)):
        sp = sub.add_parser(name)
        if fn is not cmd_emit_plots:
            sp.add_argument("--config", required=True, help="experiment config JSON")
            sp.add_argument("--seed", type=int, default=None, help="override the world seed")
        if fn is cmd_verify:
            sp.add_argument("--trials", type=int, default=None,
                            help="override verify.trials (not the tightness probe's)")
            # accepted so that existing command lines keep working
            sp.add_argument("--jobs", type=int, default=1, help="no effect")
        sp.add_argument("--out", required=True, help="output directory")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
