"""The benchmark's four workloads: inputs made from a seed, one timed
operation, and the checks on its outputs.

Every world is the README's binary 2-D world with two archetypes and
``shift_mode: both``; the seed goes into ``world.seed`` and the model is the
config's ``from_world`` logistic rule.  The program sees only the generated
configs and clients.

The ``full`` sizes keep one operation to a few seconds, so that a 20 s run
holds several repeats; the ``tiny`` sizes serve as warm-up and as the smoke
test.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fedcert.cli
import fedcert.losses
import fedcert.metasim
import fedcert.nonrobust
import fedcert.query
import fedcert.wass

SIZES = {
    "full": {
        "certify-transport": {"K": 50, "n_k": 200, "grid_size": 16, "target_clients": 2000},
        "certify-reweight": {"K": 2000, "n_k": 50, "lambda_num": 50, "target_clients": 2000},
        "verify-coverage": {"K": 50, "n_k": 100, "trials": 10, "tightness_K": [20, 50, 100],
                            "tightness_n": [100, 100, 100], "tightness_trials": 10},
        "query-routes": {"grid_clients": 40, "n_k": 100, "axis_points": 15, "grid_size": 16,
                         "ce_n": 100, "ce_grid_size": 2},
    },
    "tiny": {
        "certify-transport": {"K": 4, "n_k": 20, "grid_size": 4, "target_clients": 200},
        "certify-reweight": {"K": 30, "n_k": 10, "lambda_num": 5, "target_clients": 200},
        "verify-coverage": {"K": 10, "n_k": 10, "trials": 2, "tightness_K": [5, 10],
                            "tightness_n": [10, 10], "tightness_trials": 2},
        "query-routes": {"grid_clients": 2, "n_k": 10, "axis_points": 5, "grid_size": 3,
                         "ce_n": 5, "ce_grid_size": 1},
    },
}

DELTA = 0.1
# float slack for comparisons between two certificates or two query values
TOL = 1e-9


def world(seed: int) -> dict:
    return {
        "dim": 2,
        "n_classes": 2,
        "class_means": [[-1.2, 0.0], [1.2, 0.0]],
        "cov_scale": 0.8,
        "shift_mode": "both",
        "seed": int(seed),
        "archetypes": [
            {"class_means": [[-1.2, 0.0], [1.2, 0.0]], "class_props": [0.5, 0.5], "score": 0.0},
            {"class_means": [[-0.6, 0.1], [0.6, -0.1]], "class_props": [0.4, 0.6], "score": 1.0},
        ],
        "archetype_weights": [0.7, 0.3],
    }


MODEL = {"from_world": {"scale": 1.0}}


@dataclass
class Outcome:
    """Operations attempted in one repeat and a message per failed one."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _quiet(fn, *args):
    """Call ``fn`` with its stdout and stderr captured; returns
    (result, error message or None, captured text).  A raised exception is
    a failed operation, not a crash of the benchmark."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            return fn(*args), None, buf.getvalue()
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}", buf.getvalue()


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """One workload at one seed and size.  One operation is the calls that
    ``steps`` returns, timed one by one; ``run`` makes them untimed."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path, jobs: int = 1):
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.workdir = workdir
        self.jobs = jobs
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._reference = {}     # first repeat's outputs, for the rerun check
        self._reps = 0

    def steps(self):
        """(calls, result): the calls that make one operation, in order, and
        a function returning their output once they have run."""
        raise NotImplementedError

    def run(self):
        calls, result = self.steps()
        for call in calls:
            call()
        return result()

    def check(self, out) -> Outcome:
        raise NotImplementedError

    def route_of(self, client) -> str:
        raise NotImplementedError

    def bytes_written(self, out) -> int:
        return 0

    def discard(self, out):
        """Free what one repeat left behind, after it was checked."""

    def _same_as_first(self, fingerprint, key=0) -> bool:
        return self._reference.setdefault(key, fingerprint) == fingerprint


class _CliWorkload(Workload):
    command = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config_path = self.workdir / "config.json"
        with open(self.config_path, "w") as fh:
            json.dump(self.config(), fh, indent=1, sort_keys=True)

    def config(self) -> dict:
        raise NotImplementedError

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--out", str(out)]

    def steps(self):
        out = self.workdir / f"rep{self._reps:03d}"
        self._reps += 1
        done = []

        def result():
            rc, err, text = done[0]
            return out, rc, err or text.strip()
        return [lambda: done.append(_quiet(fedcert.cli.main, self.argv(out)))], result

    def check(self, out) -> Outcome:
        path, rc, message = out
        res = Outcome(attempted=1)
        if rc != 0:
            res.failures.append(f"{self.command} exited {rc}: {message}")
            return res
        problems = self.check_tree(path)
        if not self._same_as_first(tree_digest(path)):
            problems.append("rerun tree differs from the first repeat")
        if problems:
            res.failures.append(f"{self.command}: " + "; ".join(problems))
        return res

    def check_tree(self, path: Path) -> list[str]:
        return []

    def route_of(self, client) -> str:
        # the configs declare no query loss or grid: zero-one loss on
        # continuous features with a logistic rule
        return "flip"

    def bytes_written(self, out) -> int:
        return tree_bytes(out[0])

    def discard(self, out):
        shutil.rmtree(out[0], ignore_errors=True)


def _in_unit(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all((v >= 0.0) & (v <= 1.0)))


def _curve_at(curve: dict, lams: np.ndarray) -> np.ndarray:
    """A survival-bound curve at the thresholds ``lams``, stepping from the
    right as ``CdfCurve.at`` does."""
    idx = np.searchsorted(np.asarray(curve["lambdas"]), lams, side="right") - 1
    bounds = np.asarray(curve["bounds"], dtype=float)
    return np.where(idx >= 0, bounds[np.maximum(idx, 0)], 1.0)


class _CertifyWorkload(_CliWorkload):
    command = "certify"

    def check(self, out) -> Outcome:
        res = super().check(out)
        path, rc, _ = out
        if rc == 0:
            res.attempted += 1
            prc, err, text = _quiet(fedcert.cli.main, ["emit-plots", "--out", str(path)])
            if prc != 0:
                res.failures.append(f"emit-plots exited {prc}: {err or text.strip()}")
        return res

    def check_tree(self, path: Path) -> list[str]:
        with open(path / "summary.json") as fh:
            summary = json.load(fh)
        certs = []
        for entry in summary["requests"]:
            with open(path / entry["files"]["certificate"]) as fh:
                certs.append((entry["kind"], json.load(fh)))
        problems = []
        for i, (kind, cert) in enumerate(certs):
            values = cert["bounds"] if "bounds" in cert else [cert["value"]]
            if not _in_unit(values):
                problems.append(f"certificate {i} ({kind}) leaves [0, 1]")
        means = [c["value"] for k, c in certs if k == "mean"]
        cdfs = [c for k, c in certs if k == "cdf"]
        for i, (kind, cert) in enumerate(certs):
            if kind in ("fdiv-mean", "wass-mean") and means \
                    and cert["value"] < means[0] - TOL:
                problems.append(f"certificate {i} ({kind}) is below the mean bound")
            if kind == "fdiv-cdf" and cdfs:
                lams = np.asarray(cdfs[0]["lambdas"])
                if np.any(_curve_at(cert, lams) < _curve_at(cdfs[0], lams) - TOL):
                    problems.append(f"certificate {i} ({kind}) is below the cdf bound")
        return problems


class CertifyTransport(_CertifyWorkload):
    name = "certify-transport"

    def config(self) -> dict:
        s = self.size
        wass = {"kind": "wass-mean", "delta": DELTA, "grid_size": s["grid_size"],
                "target_clients": s["target_clients"]}
        return {
            "world": world(self.seed),
            "model": MODEL,
            "data": {"K": s["K"], "n_k": s["n_k"]},
            "certificates": [
                {"kind": "mean", "delta": DELTA, "target_clients": s["target_clients"]},
                {**wass, "epsilon": 0.02},
                {**wass, "epsilon": 0.1},
            ],
        }


class CertifyReweight(_CertifyWorkload):
    name = "certify-reweight"

    def config(self) -> dict:
        s = self.size
        common = {"delta": DELTA, "target_clients": s["target_clients"]}
        grid = {"lambda_grid": {"start": 0.0, "stop": 1.0, "num": s["lambda_num"]}}
        certs = [{"kind": "mean", **common}, {"kind": "cdf", **common, **grid}]
        for f_name in ("kl", "chi-square"):
            fdiv = {**common, "epsilon": 0.05, "f_name": f_name}
            certs += [{"kind": "fdiv-mean", **fdiv}, {"kind": "fdiv-cdf", **fdiv, **grid}]
        return {
            "world": world(self.seed),
            "model": MODEL,
            "data": {"K": s["K"], "n_k": s["n_k"]},
            "certificates": certs,
        }


class VerifyCoverage(_CliWorkload):
    name = "verify-coverage"
    command = "verify"

    def config(self) -> dict:
        s = self.size
        return {
            "world": world(self.seed),
            "model": MODEL,
            "data": {"K": s["K"], "n_k": s["n_k"]},
            "certificates": [{"kind": "mean", "delta": DELTA}],
            "verify": {
                "trials": s["trials"],
                "kinds": [
                    {"kind": "mean", "delta": DELTA},
                    {"kind": "cdf", "delta": DELTA},
                    {"kind": "fdiv-mean", "delta": DELTA, "epsilon": 0.05,
                     "f_name": "chi-square"},
                    {"kind": "fdiv-cdf", "delta": DELTA, "epsilon": 0.05, "f_name": "kl"},
                ],
                "tightness": {
                    "bound_kind": "fdiv-mean", "epsilon": 0.05, "f_name": "kl",
                    "K_schedule": s["tightness_K"], "n_schedule": s["tightness_n"],
                    "trials": s["tightness_trials"],
                },
            },
        }

    def argv(self, out: Path) -> list[str]:
        return super().argv(out) + ["--jobs", str(self.jobs)]

    def check_tree(self, path: Path) -> list[str]:
        problems = []
        for f in sorted(path.glob("coverage_*.json")):
            with open(f) as fh:
                rate = json.load(fh)["violation_rate"]
            if not _in_unit([rate]):
                problems.append(f"{f.name} violation rate leaves [0, 1]")
        with open(path / "tightness.csv") as fh:
            if not list(csv.DictReader(fh)):
                problems.append("tightness.csv has no rows")
        return problems


def _from_world_model(meta) -> fedcert.losses.Hypothesis:
    """The logistic rule a config's ``"model": {"from_world": {"scale": 1.0}}``
    gives: the direction between the archetype-weighted class means, with the
    boundary halfway between them."""
    means = np.einsum("m,mcd->cd", meta.archetype_weights,
                      np.stack([a.class_means for a in meta.archetypes]))
    w = means[1] - means[0]
    return fedcert.losses.Hypothesis(kind="logistic", weights=w,
                                     bias=-float(w @ (means[0] + means[1])) / 2.0,
                                     name="world-lda")


def _on_grid(data, axis: np.ndarray):
    """``data`` with each feature moved to the nearest point of ``axis``.

    The grid route searches a discrete feature space: its candidates are the
    declared grid points only, so the samples must be grid points too, as in
    the program's own grid tests.  A sample off the grid cannot stay put, and
    its queries fall below its empirical risk.
    """
    step = axis[1] - axis[0]
    idx = np.clip(np.rint((data.features - axis[0]) / step), 0, len(axis) - 1)
    return fedcert.metasim.LocalDataset(data.client_id, axis[idx.astype(int)], data.labels)


class QueryRoutes(Workload):
    """Library ``wass_mean_bound`` on zero-one clients whose features lie on a
    declared perturbation grid (grid route) and on one clipped cross-entropy
    client (ascent route)."""

    name = "query-routes"
    epsilon = 0.05

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.size
        self.meta = fedcert.metasim.MetaConfig.from_json_dict(world(self.seed))
        self.h = _from_world_model(self.meta)
        specs = fedcert.metasim.sample_clients(self.meta, s["grid_clients"] + 1)
        axis = np.linspace(-3.0, 3.0, s["axis_points"])
        self.grid = np.array([[a, b] for a in axis for b in axis])
        self.grid_data = [_on_grid(fedcert.metasim.generate_dataset(sp, s["n_k"], self.meta),
                                   axis)
                          for sp in specs[:-1]]
        self.ce_data = fedcert.metasim.generate_dataset(specs[-1], s["ce_n"], self.meta)
        self._routes = weakref.WeakKeyDictionary()

    def _clients(self):
        zero_one = fedcert.losses.LossFn(fedcert.losses.ZERO_ONE)
        grid = [fedcert.query.Client(d.client_id, d, zero_one, grid=self.grid)
                for d in self.grid_data]
        ce = [fedcert.query.Client(self.ce_data.client_id, self.ce_data,
                                   fedcert.losses.LossFn(fedcert.losses.CROSS_ENTROPY))]
        for c in grid:
            self._routes[c] = "grid"
        self._routes[ce[0]] = "ascent"
        return grid, ce

    def steps(self):
        grid, ce = self._clients()
        out = []

        def certify(clients, grid_size):
            cert, err, _ = _quiet(lambda: fedcert.wass.wass_mean_bound(
                clients, self.h, self.epsilon, DELTA, grid_size=grid_size))
            out.append((clients, cert, err))
        return [lambda: certify(grid, self.size["grid_size"]),
                lambda: certify(ce, self.size["ce_grid_size"])], lambda: out

    def check(self, out) -> Outcome:
        res = Outcome(attempted=len(out))
        for i, (clients, cert, err) in enumerate(out):
            if err is not None:
                res.failures.append(f"wass_mean_bound raised {err}")
                continue
            problems = self._check_queries(clients)
            emp = np.array([c.query(self.h, 0.0).value for c in clients])
            base = fedcert.nonrobust.mean_bound(emp, [c.n_samples for c in clients], DELTA)
            if not _in_unit([cert.value]):
                problems.append("certificate leaves [0, 1]")
            if cert.value < base.value - TOL:
                problems.append("certificate is below the mean bound")
            if not self._same_as_first(json.dumps(cert.to_json_dict(), sort_keys=True), i):
                problems.append("rerun certificate differs from the first repeat")
            if problems:
                res.failures.append(f"wass_mean_bound #{i}: " + "; ".join(problems))
        return res

    def _check_queries(self, clients) -> list[str]:
        """Robust query values sit at or above the empirical risk and never
        decrease along the client's radius grid."""
        below = decreasing = 0
        for c in clients:
            log = sorted(c.audit_log, key=lambda q: q["rho"])
            emp = c.query(self.h, 0.0).value
            vals = np.array([q["value"] for q in log])
            below += bool(np.any(vals < emp - TOL))
            decreasing += bool(np.any(np.diff(vals) < -TOL))
        problems = []
        if below:
            problems.append(f"{below} of {len(clients)} clients answer a query "
                            "below their empirical risk")
        if decreasing:
            problems.append(f"{decreasing} of {len(clients)} clients answer queries "
                            "that decrease with the radius")
        return problems

    def route_of(self, client) -> str:
        return self._routes[client]
