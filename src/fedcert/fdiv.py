"""Certificates under f-divergence shifts of the client population.

The target population is allowed to reweight the source meta-distribution by
any likelihood ratio with f-divergence at most epsilon.  After discretizing
to the K observed clients, the certificate is the value of the convex program

    maximize    (1/K) sum_k alpha_k q_k
    subject to  0 <= alpha_k <= cap,
                |mean(alpha) - 1|  <= band,
                mean(f(alpha))     <= eps_budget,

where q_k are the client query values, ``cap`` truncates the likelihood
ratio, and ``band`` / ``eps_budget`` absorb the finite-K estimation error of
the ratio's mean and divergence.  The program is solved by Lagrangian dual
decomposition: for multipliers (tau, eta) covering the mean band and the
divergence budget, each coordinate has a closed-form argmax, and the two
multipliers are pinned by nested bisection on their KKT residuals.

Divergence constants, for a generator f with f(1) = 0:

    cap  =  max { t >= 1 : f(t) <= epsilon / delta }      (numeric inverse)
    c1   =  (cap - 1/cap) / sqrt(2)
    c2   =  (max - min of f over [1/cap, cap]) / sqrt(2)

c1 scales the band (concentration of the ratio's empirical mean), c2 inflates
the divergence budget (concentration of the empirical divergence).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import CdfCurve, CertifiedBound
from .concave import GreedyFill
from .nonrobust import _validate, _validate_grid

__all__ = [
    "DivergenceSpec",
    "ReweightSolution",
    "make_divergence",
    "divergence_budgets",
    "solve_reweight",
    "fdiv_mean_bound",
    "fdiv_cdf_bound",
]

_SQRT2 = float(np.sqrt(2.0))

KL = "kl"
CHI2 = "chi-square"
DIVERGENCE_NAMES = (KL, CHI2)


def _f_kl(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] * np.log(t[pos])
    return out


def _f_chi2(t):
    t = np.asarray(t, dtype=float)
    return (t - 1.0) ** 2


_GENERATORS = {KL: _f_kl, CHI2: _f_chi2}
# where each generator attains its minimum over t > 0
_ARGMINS = {KL: float(np.exp(-1.0)), CHI2: 1.0}


@dataclass(frozen=True)
class DivergenceSpec:
    """A divergence generator with its certificate constants resolved."""

    name: str
    epsilon: float
    delta: float
    cap: float        # likelihood-ratio truncation level
    c1: float         # band scale
    c2: float         # divergence-budget inflation scale
    f_argmin: float   # where f attains its minimum on [1/cap, cap]

    def f(self, t):
        return _GENERATORS[self.name](t)


def _bisect_increasing(fn, target: float, lo: float, hi: float, iters: int = 200) -> float:
    """Largest x in [lo, hi] with fn(x) <= target, for nondecreasing fn."""
    if fn(lo) > target:
        return lo
    if fn(hi) <= target:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def make_divergence(name: str, epsilon: float, delta: float) -> DivergenceSpec:
    """Resolve the truncation level and concentration constants for a named
    generator at shift budget ``epsilon`` and failure probability ``delta``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown divergence {name!r}; known: {sorted(_GENERATORS)}")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    f = _GENERATORS[name]
    target = epsilon / delta

    hi = 2.0
    while float(f(hi)) <= target and hi < 1e15:
        hi *= 2.0
    cap = _bisect_increasing(lambda t: float(f(t)), target, 1.0, hi)

    if cap <= 1.0:
        return DivergenceSpec(name, epsilon, delta, 1.0, 0.0, 0.0, 1.0)

    c1 = (cap - 1.0 / cap) / _SQRT2
    # f convex: its minimum over [1/cap, cap] is the clipped global argmin
    argmin = float(np.clip(_ARGMINS[name], 1.0 / cap, cap))
    fmin = float(f(argmin))
    fmax = max(float(f(1.0 / cap)), float(f(cap)))  # f convex: max at an endpoint
    c2 = (fmax - fmin) / _SQRT2
    return DivergenceSpec(name, epsilon, delta, cap, c1, c2, argmin)


def divergence_budgets(spec: DivergenceSpec, K: int, level: str) -> tuple[float, float]:
    """(band, eps_budget) handed to the reweighting program.

    ``level`` chooses the union-bound granularity: "mean" certificates split
    failure across a constant number of events (log(1/delta)); "cdf"
    certificates hold uniformly over thresholds and pay log(K/delta).
    """
    if level == "mean":
        s = np.sqrt(np.log(1.0 / spec.delta) / K)
    elif level == "cdf":
        s = np.sqrt(np.log(K / spec.delta) / K)
    else:
        raise ValueError("level must be 'mean' or 'cdf'")
    return float(spec.c1 * s), float(spec.epsilon + spec.c2 * s)


@dataclass
class ReweightSolution:
    alpha: np.ndarray
    objective: float
    tau: float     # multiplier on the mean band
    eta: float     # multiplier on the divergence budget
    status: str


def _alpha_star(q: np.ndarray, tau: float, eta: float, spec: DivergenceSpec) -> np.ndarray:
    """Coordinatewise argmax of alpha*(q - tau) - eta*f(alpha) over [0, cap]."""
    if spec.name == KL:
        expo = (q - tau) / eta - 1.0
        a = np.exp(np.minimum(expo, np.log(spec.cap) + 1.0))
    else:
        a = 1.0 + (q - tau) / (2.0 * eta)
    return np.clip(a, 0.0, spec.cap)


def _solve_tau(q: np.ndarray, eta: float, spec: DivergenceSpec, band: float) -> float:
    """Multiplier for |mean(alpha) - 1| <= band: zero when the band is slack
    at tau = 0, otherwise pins the binding side by bisection (the mean of the
    coordinatewise argmax is continuous and nonincreasing in tau)."""

    def mean_alpha(tau):
        return float(np.mean(_alpha_star(q, tau, eta, spec)))

    m0 = mean_alpha(0.0)
    if 1.0 - band <= m0 <= 1.0 + band:
        return 0.0
    if m0 > 1.0 + band:
        target, lo, hi = 1.0 + band, 0.0, 1.0
        for _ in range(200):
            if mean_alpha(hi) <= target:
                break
            hi *= 2.0
    else:
        target, lo, hi = 1.0 - band, -1.0, 0.0
        for _ in range(200):
            if mean_alpha(lo) >= target:
                break
            lo *= 2.0
        lo, hi = lo, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_alpha(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    # return the endpoint whose mean sits closer to the target
    return hi if abs(mean_alpha(hi) - target) <= abs(mean_alpha(lo) - target) else lo


def _lp_vertex(q: np.ndarray, spec: DivergenceSpec, band: float) -> np.ndarray:
    """Exact solution of the relaxation without the divergence constraint:
    saturate the largest coefficients at cap until the mean budget K(1+band)
    runs out, with one fractional coordinate at the boundary."""
    return GreedyFill(np.full(len(q), spec.cap), spec.cap * q).taken(len(q) * (1.0 + band))


def solve_reweight(q, spec: DivergenceSpec, eps_budget: float, band: float,
                   tol: float = 1e-8) -> ReweightSolution:
    """Maximize the reweighted query mean over truncated likelihood ratios.

    Dual decomposition with nested bisection: the outer loop pins the
    divergence multiplier eta >= 0 by the budget residual, the inner loop pins
    the band multiplier tau at each eta.  The exact cap-saturating vertex is
    also tried, which covers the eta -> 0 (slack divergence) regime without
    numerical drama.  Feasibility of the returned point is verified post hoc
    to 1e-6; anything looser is reported as status "tolerance".
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or len(q) == 0:
        raise ValueError("q must be a nonempty vector")
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("query values must lie in [0, 1]")
    if eps_budget < 0 or band < 0:
        raise ValueError("budgets must be nonnegative")
    K = len(q)

    if eps_budget <= 1e-15 and band <= 1e-15:
        # strictly convex f with mean pinned at 1 forces the all-ones point
        alpha = np.ones(K)
        return ReweightSolution(alpha, float(np.mean(q)), 0.0, 0.0, "optimal")

    candidates: list[tuple[float, np.ndarray, float, float]] = []

    lp = _lp_vertex(q, spec, band)
    if float(np.mean(spec.f(lp))) <= eps_budget + 1e-12:
        thresh = float(np.min(lp[lp > 0])) if np.any(lp > 0) else 0.0
        candidates.append((float(np.mean(lp * q)), lp, thresh, 0.0))

    def residual(eta):
        tau = _solve_tau(q, eta, spec, band)
        alpha = _alpha_star(q, tau, eta, spec)
        return float(np.mean(spec.f(alpha))) - eps_budget, tau, alpha

    eta_lo = 1e-10
    r_lo, tau_lo, alpha_lo = residual(eta_lo)
    if r_lo <= 0.0:
        candidates.append((float(np.mean(alpha_lo * q)), alpha_lo, tau_lo, eta_lo))
    else:
        eta_hi = 1.0
        found = False
        for _ in range(100):
            r_hi, tau_hi, alpha_hi = residual(eta_hi)
            if r_hi <= 0.0:
                found = True
                break
            eta_hi *= 2.0
        if found:
            lo, hi = eta_lo, eta_hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                r_mid, _, _ = residual(mid)
                if r_mid > 0.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-14 * hi:
                    break
            _, tau_star, alpha_star = residual(hi)
            candidates.append((float(np.mean(alpha_star * q)), alpha_star, tau_star, hi))
        else:
            # divergence budget unreachable even with equalized weights;
            # fall back to the best uniform point (always feasible at t=1)
            t = _bisect_increasing(
                lambda t: float(spec.f(np.array([t]))[0]),
                eps_budget, 1.0, min(spec.cap, 1.0 + band),
            )
            alpha = np.full(K, t)
            candidates.append((float(np.mean(alpha * q)), alpha, 0.0, np.inf))

    obj, alpha, tau, eta = max(candidates, key=lambda c: c[0])

    mean_viol = max(0.0, abs(float(np.mean(alpha)) - 1.0) - band)
    f_viol = max(0.0, float(np.mean(spec.f(alpha))) - eps_budget)
    status = "optimal" if (mean_viol <= 1e-6 and f_viol <= 1e-6) else "tolerance"
    return ReweightSolution(alpha, obj, tau, eta, status)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def fdiv_mean_bound(qv, n, delta: float, epsilon: float, name: str,
                    *, include_slack: bool = True) -> CertifiedBound:
    """Certified upper bound on the target population's mean risk when the
    target is any f-divergence-epsilon reweighting of the source."""
    qv, n = _validate(qv, n, delta)
    K = len(qv)
    spec = make_divergence(name, epsilon, delta)
    band, eps_budget = divergence_budgets(spec, K, "mean")
    sol = solve_reweight(qv, spec, eps_budget, band)
    if include_slack:
        meta = float(spec.cap * np.sqrt(np.log((K + 3) / delta) / (2 * K)))
        per_client = float(np.mean(np.sqrt(np.log((K + 3) / delta) / (2 * n))))
    else:
        meta = per_client = 0.0
    raw = sol.objective + meta + per_client
    return CertifiedBound(
        kind="fdiv-mean",
        value=float(min(raw, 1.0)),
        raw_value=raw,
        slack={"meta": meta, "per_client": per_client},
        params={
            "K": K, "delta": delta, "epsilon": epsilon, "divergence": name,
            "cap": spec.cap, "c1": spec.c1, "c2": spec.c2,
            "band": band, "eps_budget": eps_budget,
            "include_slack": include_slack,
        },
        status=sol.status,
        extra={"program_value": sol.objective},
    )


def _binary_block_value(m: int, K: int, spec: DivergenceSpec,
                        eps_budget: float, band: float) -> float:
    """Optimal reweighted mean for a 0/1 coefficient vector with m ones.

    Averaging within the two blocks preserves the objective and the mean and
    can only shrink mean(f) (convexity), so a two-value optimum exists; the
    feasible block values form an interval containing 1, and the objective
    grows with the ones-block value a, so bisection on the interval's upper
    endpoint is exact.
    """
    if m == 0:
        return 0.0
    f1 = lambda t: float(spec.f(np.array([t]))[0])

    def feasible(a: float) -> bool:
        fa = f1(a)
        if m == K:
            return abs(a - 1.0) <= band + 1e-15 and fa <= eps_budget + 1e-15
        c_lo = (K * (1.0 - band) - m * a) / (K - m)
        c_hi = (K * (1.0 + band) - m * a) / (K - m)
        lo, hi = max(0.0, c_lo), min(spec.cap, c_hi)
        if lo > hi + 1e-15:
            return False
        c = float(np.clip(spec.f_argmin, lo, hi))
        return (m * fa + (K - m) * f1(c)) / K <= eps_budget + 1e-15

    lo, hi = 1.0, spec.cap
    if feasible(hi):
        return m * hi / K
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return m * lo / K


def fdiv_cdf_bound(qv, n, delta: float, epsilon: float, name: str, lambda_grid,
                   *, gap_constant: float = 1.0,
                   include_slack: bool = True) -> CdfCurve:
    """Certified survival-function bounds under an f-divergence shift, valid
    simultaneously at every threshold.

    At each threshold the reweighting program runs on the 0/1 indicator
    coefficients 1[qv_k >= lambda - shift_k]; uniformity over thresholds is
    paid for with log(K/delta) budgets and an additive gap
    gap_constant * sqrt(ln(K/delta)/K) plus the meta-level estimation term
    sqrt(ln(2(K+2)/delta)/(2K)).  The pre-padding program values are kept in
    ``raw``.
    """
    qv, n = _validate(qv, n, delta)
    K = len(qv)
    lambda_grid = _validate_grid(lambda_grid)
    spec = make_divergence(name, epsilon, delta)
    band, eps_budget = divergence_budgets(spec, K, "cdf")

    if include_slack:
        shifts = np.sqrt(np.log((K + 2) / delta) / (2 * n))
        pad = float(
            gap_constant * np.sqrt(np.log(K / delta) / K)
            + np.sqrt(np.log(2 * (K + 2) / delta) / (2 * K))
        )
    else:
        shifts = np.zeros(K)
        pad = 0.0

    breakpoints = qv + shifts
    lams = np.unique(np.concatenate([lambda_grid, breakpoints]))
    value_by_m = {m: _binary_block_value(m, K, spec, eps_budget, band)
                  for m in range(K + 1)}
    raw = np.array([value_by_m[int(np.sum(breakpoints >= lam))] for lam in lams])
    return CdfCurve(
        lambdas=lams,
        bounds=np.minimum(raw + pad, 1.0),
        raw=raw,
        params={
            "kind": "fdiv-cdf",
            "K": K, "delta": delta, "epsilon": epsilon, "divergence": name,
            "cap": spec.cap, "band": band, "eps_budget": eps_budget,
            "gap_constant": gap_constant, "pad": pad,
            "include_slack": include_slack,
        },
    )
