"""Brute-force verification of certificates.

Everything here is deliberately independent of the solvers it checks:

  * ``grid_reweight_oracle``     exhaustive search over the reweighting box
                                 (K <= 3), no dual machinery;
  * ``wass_ball_lp_oracle``      the transport-ball worst case as an explicit
                                 linear program over couplings on small
                                 discrete instances;
  * ``wass_alloc_grid_oracle``   radius allocation by brute 2-D grid search;
  * ``coverage_experiment``      Monte-Carlo: draw a fresh world, certify,
                                 draw the shifted target, count violations;
  * ``tightness_probe``          certificate-minus-achievable gap along a
                                 schedule of world sizes.

Target statistics use exact per-client risks (Gaussian class-conditional
worlds with a binary linear rule admit a closed form), so coverage tests
carry no data-level noise on the target side.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .certificates import CdfCurve
from .fdiv import fdiv_cdf_bound, fdiv_mean_bound
from .losses import LINEAR, LOGISTIC, ZERO_ONE, Hypothesis, LossFn
from .metasim import (
    MetaConfig,
    generate_dataset,
    sample_clients,
    shift_meta_fdiv,
    shift_meta_wass,
    tilt_for_divergence,
)
from .nonrobust import cdf_bound, mean_bound
from .query import Client, TransportCost, empirical_risk
from .wass import QvProfile, wass_mean_bound

__all__ = [
    "grid_reweight_oracle",
    "wass_ball_lp_oracle",
    "wass_alloc_grid_oracle",
    "exact_zero_one_risk",
    "sample_true_risks",
    "adversarial_directions",
    "CoverageReport",
    "coverage_experiment",
    "tightness_probe",
]

VIOLATION_GUARD = 1e-9

# local copies of the divergence generators: the oracle must not lean on the
# solver module it exists to check
_ORACLE_F = {
    "kl": lambda t: np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0),
    "chi-square": lambda t: (t - 1.0) ** 2,
}


def grid_reweight_oracle(q, spec, eps_budget: float, band: float,
                         step: float) -> float:
    """Exhaustive maximization of mean(alpha * q), q >= 0, over the feasible
    grid {0, step, 2 step, ..., cap} ∪ {1, cap} per coordinate, K <= 3.

    Only the divergence name and cap are taken from ``spec``; the generator
    is evaluated from local copies.  Feasibility is strict (tiny float guard
    only).  Rounding any feasible point coordinatewise toward 1 stays
    feasible, so the grid optimum sits within step * mean(q) of the truth.
    """
    q = np.asarray(q, dtype=float)
    K = len(q)
    if K > 3:
        raise ValueError("grid oracle is exhaustive; K <= 3 only")
    if np.any(q < 0):
        raise ValueError("query values must be nonnegative")
    if step <= 0:
        raise ValueError("step must be positive")
    f = _ORACLE_F[spec.name]
    cap = float(spec.cap)
    # the last arange point may pass cap by up to step / 2; it stops at cap
    grid = np.unique(np.concatenate([np.minimum(np.arange(0.0, cap + step / 2, step), cap),
                                     [1.0, cap]]))
    fg = f(grid)
    guard = 1e-12

    if K == 1:
        ok = (np.abs(grid - 1.0) <= band + guard) & (fg <= eps_budget + guard)
        return float(np.max(grid[ok] * q[0])) if np.any(ok) else -np.inf

    if K == 2:
        mean_a = 0.5 * (grid[:, None] + grid[None, :])
        mean_f = 0.5 * (fg[:, None] + fg[None, :])
        ok = (np.abs(mean_a - 1.0) <= band + guard) & (mean_f <= eps_budget + guard)
        obj = 0.5 * (q[0] * grid[:, None] + q[1] * grid[None, :])
        return float(np.max(np.where(ok, obj, -np.inf)))

    # K == 3: for fixed a1 and a2 the feasible a3 form one run of the grid (f
    # is convex), and since q >= 0 the run's top end wins.  Locate that end
    # per a2 by searchsorted, then test it and its two neighbours on each
    # side with the exhaustive predicate itself
    rise_from = int(np.argmin(fg))     # fg rises from here on
    rise = fg[rise_from:]
    near = np.arange(-2, 3)
    best = -np.inf
    for a1, f1 in zip(grid, fg):
        top_band = np.searchsorted(grid, 3.0 * (1.0 + band + guard) - a1 - grid,
                                   side="right") - 1
        top_div = rise_from - 1 + np.searchsorted(
            rise, 3.0 * (eps_budget + guard) - f1 - fg, side="right")
        j = np.clip(np.minimum(top_band, top_div)[:, None] + near, 0, len(grid) - 1)
        a3, f3 = grid[j], fg[j]
        mean_a = (a1 + (grid[:, None] + a3)) / 3.0
        mean_f = (f1 + (fg[:, None] + f3)) / 3.0
        ok = (np.abs(mean_a - 1.0) <= band + guard) & (mean_f <= eps_budget + guard)
        if np.any(ok):
            cand = np.max((q[1] * grid[:, None] + q[2] * a3)[ok]) + q[0] * a1
            best = max(best, cand / 3.0)
    return float(best)


def wass_ball_lp_oracle(masses, loss_values, rho: float, cost_matrix) -> float:
    """Worst-case mean loss over the transport ball, as an explicit LP over
    couplings T >= 0 with fixed source marginals and average cost <= rho.

    Small discrete instances only (<= 20 support points per side).
    """
    p = np.asarray(masses, dtype=float)
    ell = np.asarray(loss_values, dtype=float)
    C = np.asarray(cost_matrix, dtype=float)
    n, m = C.shape
    if len(p) != n or len(ell) != m:
        raise ValueError("shape mismatch between masses, losses, and costs")
    if n > 20 or m > 20:
        raise ValueError("LP oracle is for small instances (<= 20 points)")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("masses must sum to 1")
    # imported here: scipy.optimize is slow to import and only this oracle needs it
    from scipy.optimize import linprog

    c = -np.tile(ell, n)                       # maximize sum_ij T_ij * loss_j
    A_eq = np.zeros((n, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    res = linprog(
        c, A_ub=C.reshape(1, -1), b_ub=[rho], A_eq=A_eq, b_eq=p,
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(-res.fun)


def wass_alloc_grid_oracle(profiles: list[QvProfile], floor: float,
                           mean_cap: float, step: float) -> float:
    """Brute-force radius allocation for two clients: grid over (rho1, rho2)
    with the mean constraint, objective evaluated on the stored envelopes."""
    if len(profiles) != 2:
        raise ValueError("grid allocation oracle handles exactly two clients")
    top = 2.0 * mean_cap
    r = np.arange(floor, top + step / 2, step)
    v1 = profiles[0].envelope(r)
    v2 = profiles[1].envelope(r)
    mean_r = 0.5 * (r[:, None] + r[None, :])
    obj = 0.5 * (v1[:, None] + v2[None, :])
    ok = mean_r <= mean_cap + 1e-12
    return float(np.max(np.where(ok, obj, -np.inf)))


# ---------------------------------------------------------------------------
# exact risks for Gaussian worlds with binary linear rules
# ---------------------------------------------------------------------------

def _binary_margin(h: Hypothesis) -> tuple[np.ndarray, float]:
    if h.kind == LOGISTIC:
        return h.weights, float(h.bias)
    if h.kind == LINEAR and h.n_classes == 2:
        return h.weights[1] - h.weights[0], float(h.bias[1] - h.bias[0])
    raise ValueError("exact risks need a binary linear or logistic rule")


def exact_zero_one_risk(affine, shift, class_props, class_means,
                        cov_scale: float, h: Hypothesis) -> float:
    """Closed-form zero-one risk of one client: features are class-conditional
    Gaussians pushed through x -> (I+A)x + b, so the decision score is itself
    Gaussian per class."""
    u, b0 = _binary_margin(h)
    A = np.asarray(affine, dtype=float)
    ut = u + A.T @ u
    return _risks_from_parts(
        ut[None, :], np.asarray(class_means, dtype=float)[None, :, :],
        float(u @ np.asarray(shift, dtype=float)) + b0,
        np.asarray(class_props, dtype=float)[None, :], cov_scale,
    )[0]


def _risks_from_parts(ut, means, score_off, props, cov_scale):
    """Vectorized zero-one risks; ut (T,d), means (T,C,d), score_off scalar or
    (T,), props (T,C)."""
    mu = np.einsum("td,tcd->tc", ut, means)
    mu = mu + np.atleast_1d(score_off)[:, None]
    s = cov_scale * np.linalg.norm(ut, axis=1)
    s = np.where(s <= 0, 1e-300, s)
    # class 0 errs when the score lands >= 0; class 1 errs below 0
    err0 = ndtr(mu[:, 0] / s)
    err1 = ndtr(-mu[:, 1] / s)
    return props[:, 0] * err0 + props[:, 1] * err1


def sample_true_risks(cfg: MetaConfig, n_clients: int, h: Hypothesis,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw fresh clients from the meta-distribution and return their exact
    zero-one risks (no data-level sampling).  Binary worlds only."""
    if cfg.n_classes != 2:
        raise ValueError("exact risks implemented for binary worlds")
    u, b0 = _binary_margin(h)
    d = cfg.dim
    T = int(n_clients)

    if cfg.archetypes is not None:
        arche = rng.choice(len(cfg.archetypes), size=T, p=cfg.archetype_weights)
        means = np.stack([a.class_means for a in cfg.archetypes])[arche]
        # archetypes that share their proportions share one Dirichlet group
        group_props, group_of = np.unique(np.stack([a.class_props for a in cfg.archetypes]),
                                          axis=0, return_inverse=True)
        group = group_of.ravel()[arche]
        base_props = group_props[group]
    else:
        means = np.broadcast_to(cfg.class_means, (T, 2, d)).copy()
        group_props, group = np.full((1, 2), 0.5), np.zeros(T, dtype=int)
        base_props = group_props[group]

    if cfg.shift_mode in ("feature", "both"):
        A = rng.normal(0.0, cfg.sigma_affine, size=(T, d, d))
        b = rng.normal(0.0, cfg.sigma_shift, size=(T, d))
    else:
        A = np.zeros((T, d, d))
        b = np.zeros((T, d))

    if cfg.shift_mode in ("label", "both"):
        props = np.empty((T, 2))
        # dirichlet concentration depends on the (archetype) base proportions;
        # the groups draw in the sorted order of their proportions
        for g, bp in enumerate(group_props):
            mask = group == g
            if mask.any():
                props[mask] = rng.dirichlet(cfg.alpha_dir * 2 * bp, size=int(mask.sum()))
    else:
        props = base_props

    ut = u[None, :] + np.einsum("tij,i->tj", A, u)
    score_off = b @ u + b0
    return _risks_from_parts(ut, means, score_off, props, cfg.cov_scale)


def adversarial_directions(cfg: MetaConfig, h: Hypothesis) -> np.ndarray:
    """Per-archetype, per-class unit shift directions that push each class's
    mass toward the wrong side of the decision boundary."""
    u, _ = _binary_margin(h)
    nu = np.linalg.norm(u)
    if nu == 0:
        raise ValueError("constant rule has no adversarial direction")
    uhat = u / nu
    M = len(cfg.archetypes) if cfg.archetypes is not None else 1
    dirs = np.empty((M, cfg.n_classes, cfg.dim))
    dirs[:, 0, :] = uhat       # raise class-0 scores
    dirs[:, 1, :] = -uhat      # lower class-1 scores
    return dirs


# ---------------------------------------------------------------------------
# Monte-Carlo coverage
# ---------------------------------------------------------------------------

@dataclass
class CoverageReport:
    bound_kind: str
    trials: int
    violations: int
    violation_rate: float
    delta: float
    threshold: float          # delta + 3 sqrt(delta(1-delta)/trials)
    passed: bool
    config_digest: str
    per_lambda: dict | None = None
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "bound_kind": self.bound_kind,
            "trials": self.trials,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "delta": self.delta,
            "threshold": self.threshold,
            "passed": self.passed,
            "config_digest": self.config_digest,
            "notes": self.notes,
        }
        if self.per_lambda is not None:
            out["per_lambda"] = self.per_lambda
        return out

    def write_json(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


_COVERAGE_KINDS = ("mean", "cdf-curve", "fdiv-mean", "fdiv-cdf", "wass-mean")


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, dtype=np.uint64)[0])


def coverage_experiment(cfg: MetaConfig, bound_kind: str, params: dict,
                        trials: int, seed: int = 0, jobs: int = 1) -> CoverageReport:
    """Repeatedly certify fresh source worlds and test the certificate against
    the exact statistics of the declared shifted target.

    ``params`` carries: h (Hypothesis, required), K, n_k, delta, and per kind
    epsilon / f_name / lambda_grid / grid_size / target_clients.
    A violation is recorded when the target statistic exceeds the certificate
    by more than a 1e-9 float guard; the report passes when the violation
    rate stays within delta plus three binomial standard errors.
    """
    if bound_kind not in _COVERAGE_KINDS:
        raise ValueError(f"bound_kind must be one of {_COVERAGE_KINDS}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    h: Hypothesis = params["h"]
    K = int(params.get("K", 50))
    n_k = int(params.get("n_k", 100))
    delta = float(params.get("delta", 0.1))
    epsilon = float(params.get("epsilon", 0.0))
    loss_fn = params.get("loss", LossFn(ZERO_ONE))
    T_target = int(params.get("target_clients", 2000))
    lambda_grid = np.asarray(params.get("lambda_grid", np.linspace(0, 1, 50)))

    if bound_kind in ("fdiv-mean", "fdiv-cdf"):
        if cfg.archetypes is None:
            raise ValueError("divergence shifts need an archetype config")
        f_name = params["f_name"]
        tilt = tilt_for_divergence(cfg, f_name, epsilon)
        target_cfg, achieved = shift_meta_fdiv(cfg, tilt)
        if abs(achieved[f_name] - epsilon) > 1e-6:
            raise RuntimeError("tilt search failed to hit the divergence budget")
    elif bound_kind == "wass-mean":
        dirs = params.get("directions")
        if dirs is None:
            dirs = adversarial_directions(cfg, h)
        target_cfg, achieved_cost = shift_meta_wass(cfg, epsilon, dirs)
        if abs(achieved_cost - epsilon) > 1e-9:
            raise RuntimeError("mean shift failed to hit the transport budget")
    else:
        target_cfg = cfg

    m_lams = len(lambda_grid)

    def run_trial(t: int) -> tuple[int, np.ndarray]:
        root = _trial_seed(seed, t)
        specs = sample_clients(cfg, K, seed=root)
        datasets = [generate_dataset(s, n_k, cfg) for s in specs]
        rng_t = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, t, 1])))
        per_lambda = np.zeros(m_lams, dtype=int)

        if bound_kind == "wass-mean":
            clients = [
                Client(ds.client_id, ds, loss_fn,
                       max_queries=int(params.get("grid_size", 16)) + 1)
                for ds in datasets
            ]
            bound = wass_mean_bound(clients, h, epsilon, delta,
                                    grid_size=int(params.get("grid_size", 16)))
            target = float(np.mean(sample_true_risks(target_cfg, T_target, h, rng_t)))
            return int(target > bound.value + VIOLATION_GUARD), per_lambda

        qv = np.array([empirical_risk(h, ds, loss_fn).value for ds in datasets])
        ns = np.full(K, n_k)
        risks = sample_true_risks(target_cfg, T_target, h, rng_t)

        if bound_kind == "mean":
            bound = mean_bound(qv, ns, delta)
            return int(float(np.mean(risks)) > bound.value + VIOLATION_GUARD), per_lambda
        if bound_kind == "fdiv-mean":
            bound = fdiv_mean_bound(qv, ns, delta, epsilon, f_name)
            return int(float(np.mean(risks)) > bound.value + VIOLATION_GUARD), per_lambda

        if bound_kind == "cdf-curve":
            curve = cdf_bound(qv, ns, delta, lambda_grid)
        else:
            curve = fdiv_cdf_bound(qv, ns, delta, epsilon, f_name, lambda_grid)
        idx = np.searchsorted(curve.lambdas, lambda_grid)
        curve_vals = curve.bounds[idx]
        surv = np.mean(risks[None, :] >= lambda_grid[:, None], axis=1)
        viol = surv > curve_vals + VIOLATION_GUARD
        per_lambda += viol.astype(int)
        return int(np.any(viol)), per_lambda

    results = []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]

    violations = int(sum(r[0] for r in results))
    per_lambda_counts = np.sum([r[1] for r in results], axis=0)
    rate = violations / trials
    threshold = delta + 3.0 * float(np.sqrt(delta * (1 - delta) / trials))
    # a run where every trial violates is a failure even when the small-trials
    # threshold saturates at 1
    passed = rate <= threshold and violations < trials
    per_lambda = None
    if bound_kind in ("cdf-curve", "fdiv-cdf"):
        per_lambda = {
            "lambdas": np.asarray(lambda_grid).tolist(),
            "violation_rates": (per_lambda_counts / trials).tolist(),
        }
    return CoverageReport(
        bound_kind=bound_kind,
        trials=trials,
        violations=violations,
        violation_rate=rate,
        delta=delta,
        threshold=threshold,
        passed=passed,
        config_digest=cfg.digest(),
        per_lambda=per_lambda,
        notes={"K": K, "n_k": n_k, "epsilon": epsilon},
    )


def tightness_probe(cfg: MetaConfig, bound_kind: str, K_schedule: list[int],
                    n_schedule: list[int], trials: int, seed: int,
                    params: dict) -> list[dict]:
    """Median certificate-minus-achievable gap along a (K, n_k) schedule.

    The achievable statistic is the exact target mean under the declared
    shift (no shift for the plain mean bound), estimated once from a large
    client sample so the same ground truth serves every schedule point.
    Rows carry the median slack components so the vanishing pieces can be
    read off separately.
    """
    if bound_kind not in ("mean", "fdiv-mean"):
        raise ValueError("tightness probe supports the mean-style bounds")
    if len(K_schedule) == 0 or len(K_schedule) != len(n_schedule):
        raise ValueError("schedules must be nonempty and aligned")
    if list(K_schedule) != sorted(K_schedule) or list(n_schedule) != sorted(n_schedule):
        raise ValueError("schedules must be nondecreasing")
    h: Hypothesis = params["h"]
    delta = float(params.get("delta", 0.1))
    epsilon = float(params.get("epsilon", 0.0))
    loss_fn = params.get("loss", LossFn(ZERO_ONE))
    T_truth = int(params.get("truth_clients", 200_000))

    if bound_kind == "fdiv-mean":
        f_name = params["f_name"]
        tilt = tilt_for_divergence(cfg, f_name, epsilon) if epsilon > 0 else 0.0
        target_cfg, _ = shift_meta_fdiv(cfg, tilt)
    else:
        target_cfg = cfg
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 98765])))
    truth = float(np.mean(sample_true_risks(target_cfg, T_truth, h, rng)))

    rows = []
    for K, n_k in zip(K_schedule, n_schedule):
        gaps = []
        slacks: dict[str, list[float]] = {}
        for t in range(trials):
            root = _trial_seed(seed, 1_000_000 * K + t)
            specs = sample_clients(cfg, K, seed=root)
            qv = np.array([
                empirical_risk(h, generate_dataset(s, n_k, cfg), loss_fn).value
                for s in specs
            ])
            ns = np.full(K, n_k)
            if bound_kind == "mean":
                b = mean_bound(qv, ns, delta)
            else:
                b = fdiv_mean_bound(qv, ns, delta, epsilon, params["f_name"])
            gaps.append(b.value - truth)
            for key, val in b.slack.items():
                slacks.setdefault(key, []).append(float(val))
        gaps = np.asarray(gaps)
        row = {
            "K": K,
            "n_k": n_k,
            "median_gap": float(np.median(gaps)),
            "se_median": float(1.2533 * np.std(gaps, ddof=1) / np.sqrt(trials))
            if trials > 1 else 0.0,
            "mean_gap": float(np.mean(gaps)),
            "truth": truth,
        }
        for key, vals in slacks.items():
            row[f"slack_{key}"] = float(np.median(vals))
        rows.append(row)
    return rows
