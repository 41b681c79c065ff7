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
multipliers are pinned by nested bisection on their KKT residuals (Duchi &
Namkoong 2021 give the same dual).  On the 0/1 coefficients of the CDF
certificate the program has a two-block optimum, found for every block size
by one array bisection.

Divergence constants, for a generator f with f(1) = 0:

    cap  =  max { t >= 1 : f(t) <= epsilon / delta }
         =  1 + sqrt(epsilon / delta)      (chi-square)
         =  exp(W(epsilon / delta))        (KL; W the principal Lambert W)
    c1   =  (cap - 1/cap) / sqrt(2)
    c2   =  (max - min of f over [1/cap, cap]) / sqrt(2)

c1 scales the band (concentration of the ratio's empirical mean), c2 inflates
the divergence budget (concentration of the empirical divergence).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .certificates import CdfCurve, CertifiedBound
from .concave import GreedyFill
from .nonrobust import _survival_counts, _validate

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

    def f(self, t):
        return _GENERATORS[self.name](t)


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
    # f inverted on t >= 1: t log t = r at t = exp(W(r)), (t - 1)^2 = r at 1 + sqrt(r)
    r = epsilon / delta
    cap = float(np.exp(lambertw(r).real)) if name == KL else 1.0 + float(np.sqrt(r))

    if cap <= 1.0:
        return DivergenceSpec(name, epsilon, delta, 1.0, 0.0, 0.0)

    c1 = (cap - 1.0 / cap) / _SQRT2
    # f convex: its minimum over [1/cap, cap] is the clipped global argmin
    argmin = float(np.clip(_ARGMINS[name], 1.0 / cap, cap))
    fmin = float(f(argmin))
    fmax = max(float(f(1.0 / cap)), float(f(cap)))  # f convex: max at an endpoint
    c2 = (fmax - fmin) / _SQRT2
    return DivergenceSpec(name, epsilon, delta, cap, c1, c2)


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
    if m0 > 1.0 + band:
        # at tau = 1 >= q every argmax is at most 1
        target, lo, hi = 1.0 + band, 0.0, 1.0
    elif m0 < 1.0 - band:
        # KL only (the chi-square argmax is at least 1 at tau = 0); at
        # tau = -eta every KL argmax is at least 1
        target, lo, hi = 1.0 - band, -eta, 0.0
    else:
        return 0.0
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


def solve_reweight(q, spec: DivergenceSpec, eps_budget: float,
                   band: float) -> ReweightSolution:
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
        # as eta grows the argmax settles on one in-band value, where f <= 0
        # (KL) or which rounds to exactly 1 (chi-square), so the doubling ends
        hi = 1.0
        while residual(hi)[0] > 0.0:
            hi *= 2.0
        lo = eta_lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(mid)[0] > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * hi:
                break
        _, tau_star, alpha_star = residual(hi)
        candidates.append((float(np.mean(alpha_star * q)), alpha_star, tau_star, hi))

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


def _block_values(K: int, spec: DivergenceSpec, eps_budget: float,
                  band: float) -> np.ndarray:
    """Optimal reweighted means for 0/1 coefficient vectors with m = 0..K
    ones, indexed by m.

    Averaging within the two blocks preserves the objective and the mean and
    can only shrink mean(f) (convexity), so a two-value optimum exists; the
    feasible block values form an interval containing 1, and the objective
    grows with the ones-block value a, so bisection on the interval's upper
    endpoint is exact.  One bisection runs over all m at once, each entry
    stopping where a scalar bisection of its own would.
    """
    m = np.arange(1, K + 1, dtype=float)
    rest = K - m    # size of the zeros block
    budget = eps_budget + 1e-15

    def feasible(a: np.ndarray) -> np.ndarray:
        fa = spec.f(a)
        # the zeros block takes the value nearest f's global argmin that its
        # mean allows; weights live in [0, cap], not [1/cap, cap]
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.maximum(0.0, (K * (1.0 - band) - m * a) / rest)
            hi = np.minimum(spec.cap, (K * (1.0 + band) - m * a) / rest)
            c = np.clip(_ARGMINS[spec.name], lo, hi)
            ok = (lo <= hi + 1e-15) & ((m * fa + rest * spec.f(c)) / K <= budget)
        # m = K has no zeros block: the band and the budget bind a itself
        ok[-1] = abs(a[-1] - 1.0) <= band + 1e-15 and fa[-1] <= budget
        return ok

    hi = np.full(K, spec.cap)
    active = ~feasible(hi)
    lo = np.where(active, 1.0, hi)
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
        active &= hi - lo > 1e-14 * np.maximum(1.0, hi)
    return np.concatenate(([0.0], m * lo / K))


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

    lams, counts = _survival_counts(qv + shifts, lambda_grid)
    raw = _block_values(K, spec, eps_budget, band)[counts]
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
