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
the ratio's mean and divergence.  The program is solved through its
Lagrangian dual (Duchi & Namkoong 2021 give the same dual): for multipliers
(tau, eta) covering the mean band and the divergence budget, each coordinate
has a closed-form argmax.  With q sorted once, that argmax is a split of the
sorted q into weights at cap, at 0 and in between, which gives tau exactly
for each eta (for chi-square, the capped-simplex projection by sorting;
Condat 2016); eta is one bracketed root of the budget residual.  The
certificate takes the dual value g(tau, eta), an upper bound on the program
at any multipliers.  On the 0/1 coefficients of the CDF certificate the
program has a two-block optimum, found for every block size by one array
bisection.

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

import math
from dataclasses import dataclass

import numpy as np

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
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

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


def _lambert_w(r: float) -> float:
    """The principal Lambert W at r >= 0, the root w >= 0 of w e^w = r, by
    Halley steps on w - r e^-w (the form that cannot overflow); within an
    ulp of the true root from r = 0 (and subnormal r) up to inf."""
    if r == 0.0 or not math.isfinite(r):
        return r
    # W(r) = log1p(r) + O(r^2) near 0, log r - log log r + o(1) far out
    w = math.log1p(r) if r < math.e else math.log(r) - math.log(math.log(r))
    for _ in range(20):
        g = w - r * math.exp(-w)
        step = g / (w + 1.0 - (w + 2.0) * g / (2.0 * w + 2.0))
        w -= step
        # Halley converges cubically: a step this small leaves rounding alone
        if abs(step) <= 4.4e-16 * w:
            break
    return w


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
    cap = float(np.exp(_lambert_w(r))) if name == KL else 1.0 + float(np.sqrt(r))

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
    objective: float   # primal value mean(alpha * q) of the returned point
    bound: float       # dual value g(tau, eta), an upper bound on the program
    tau: float         # multiplier on the mean band
    eta: float         # multiplier on the divergence budget
    status: str


def _alpha_star(q: np.ndarray, tau: float, eta: float, spec: DivergenceSpec) -> np.ndarray:
    """Coordinatewise argmax of alpha*(q - tau) - eta*f(alpha) over [0, cap]."""
    if spec.name == KL:
        expo = (q - tau) / eta - 1.0
        a = np.exp(np.minimum(expo, np.log(spec.cap) + 1.0))
    else:
        a = 1.0 + (q - tau) / (2.0 * eta)
    return np.clip(a, 0.0, spec.cap)


def _dual_value(q: np.ndarray, tau: float, eta: float, spec: DivergenceSpec,
                eps_budget: float, band: float) -> float:
    """Weak-duality value g(tau, eta) = tau + |tau| band + eta eps_budget
    + mean(max over a in [0, cap] of a (q - tau) - eta f(a)), an upper bound
    on the program for every tau and every eta >= 0, plus a rounding
    allowance that keeps the computed value above it.

    The allowance is (K + 12) u S, with u = 2^-53 the unit roundoff and S
    the sum of the magnitudes the value is built from:
    |tau| (1 + band) + eta eps_budget + mean(a (|q| + |tau|) + eta |f(a)|).
    Each term reaches the sum through at most six roundings (q - tau, two
    products, f's own two, the difference), each of relative size at most u;
    a sum of K terms in any order adds at most (K - 1) u of the sum of
    their magnitudes, the division one u, and the four outer additions four.
    That is (K + 10) u S to first order; the last 2 u S cover the
    higher-order terms.  The argmax a is exact up to rounding, which lowers
    its inner maximum only to second order.  With multipliers near 1 the
    allowance is about K 1e-16; it grows with them, as the rounding does,
    when a budget is tiny.
    """
    if eta > 0.0:
        a = _alpha_star(q, tau, eta, spec)
    else:
        a = np.where(q > tau, spec.cap, 0.0)
    fa = eta * spec.f(a)
    inner = a * (q - tau) - fa
    value = tau + abs(tau) * band + eta * eps_budget + float(np.mean(inner))
    size = (abs(tau) * (1.0 + band) + eta * eps_budget
            + float(np.mean(a * (np.abs(q) + abs(tau)) + np.abs(fa))))
    return value + (len(q) + 12) * _UNIT_ROUNDOFF * size


def _kl_split(s: np.ndarray, eta: float, cap: float, total: float):
    """KL argmax with sum(alpha) = total on q sorted in decreasing order:
    the top c weights at cap, the rest (total - c cap) times a softmax of
    q / eta.  The split is the first c whose largest uncapped weight is at
    most cap; returns (tau, alpha in the order of ``s``)."""
    K = len(s)
    rem = total - cap * np.arange(K)
    # log of sum_{k >= c} exp((s_k - s_c) / eta), from one suffix
    # log-sum-exp; it is off by an ulp of (s_0 - s_c) / eta, so the split it
    # picks is confirmed below from the split's own softmax
    x = (s - s[0]) / eta
    spread = np.logaddexp.accumulate(x[::-1])[::-1] - x
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = (rem > 0.0) & (np.log(rem) - spread <= np.log(cap))
    c = int(np.argmax(fits))

    def softmax(c):
        e = np.exp((s[c:] - s[c]) / eta)
        return e, float(np.sum(e))

    while c > 0 and rem[c - 1] > 0.0 and rem[c - 1] / softmax(c - 1)[1] <= cap:
        c -= 1
    e, z = softmax(c)
    while c < K - 1 and rem[c] / z > cap:
        c += 1
        e, z = softmax(c)
    tau = float(s[c] + eta * (np.log(z) - np.log(rem[c]) - 1.0))
    return tau, np.concatenate((np.full(c, cap), rem[c] * e / z))


def _chi2_split(s: np.ndarray, eta: float, cap: float, total: float):
    """Chi-square argmax with sum(alpha) = total on q sorted in decreasing
    order.  sum(alpha) is piecewise linear in tau with breakpoints where a
    weight reaches cap (q_k - 2 eta (cap - 1)) or 0 (q_k + 2 eta); its values
    at every breakpoint come from one searchsorted and prefix sums, and the
    piece that crosses ``total`` fixes which weights sit at cap, at 0 and in
    between.  Returns (tau, alpha in the order of ``s``)."""
    K = len(s)
    asc = s[::-1]
    up, down = 2.0 * eta * (cap - 1.0), 2.0 * eta
    prefix = np.concatenate(([0.0], np.cumsum(asc)))

    def split(tau):
        # asc[:lo] at 0, asc[lo:hi] in between, asc[hi:] at cap
        return (np.searchsorted(asc, tau - down, side="right"),
                np.searchsorted(asc, tau + up, side="left"))

    breaks = np.sort(np.concatenate((asc - up, asc + down)))
    lo, hi = split(breaks)
    n = hi - lo
    sums = (K - hi) * cap + n + (prefix[hi] - prefix[lo] - n * breaks) / (2.0 * eta)
    # sums falls with tau, from K cap at the first breakpoint to 0 at the last
    j = max(int(np.searchsorted(-sums, -total, side="left")), 1)
    tau = 0.5 * (breaks[j - 1] + breaks[j])
    lo, hi = split(tau)
    n, rest = hi - lo, total - (K - hi) * cap
    mid = asc[lo:hi]
    if n:
        # weights in between are rest / n plus their offsets from the mean q,
        # taken from one of them so that no offset rounds at the scale of q
        d = mid - mid[-1]
        dbar = float(np.mean(d))
        mid = np.clip(rest / n + (d - dbar) / (2.0 * eta), 0.0, cap)
        tau = float(asc[hi - 1] + dbar - 2.0 * eta * (rest / n - 1.0))
    alpha = np.concatenate((np.zeros(lo), mid, np.full(K - hi, cap)))
    return float(tau), alpha[::-1]


def _exact_tau(s: np.ndarray, eta: float, spec: DivergenceSpec, band: float):
    """Multiplier for |mean(alpha) - 1| <= band at divergence multiplier eta,
    with the argmax it gives, on q sorted in decreasing order: zero when the
    band is slack at tau = 0, otherwise the split whose weights' mean sits on
    the binding band edge."""
    alpha = _alpha_star(s, 0.0, eta, spec)
    m0 = float(np.mean(alpha))
    if m0 > 1.0 + band:
        target = 1.0 + band
    elif m0 < 1.0 - band:
        target = 1.0 - band
    else:
        return 0.0, alpha
    split = _kl_split if spec.name == KL else _chi2_split
    return split(s, eta, spec.cap, len(s) * target)


def _lp_vertex(q: np.ndarray, spec: DivergenceSpec, band: float):
    """Exact solution of the relaxation without the divergence constraint:
    saturate the largest coefficients at cap until the mean budget K(1+band)
    runs out, with one fractional coordinate at the boundary.  Returns the
    weights and the band's LP multiplier, the marginal q where the budget
    runs out (0 once every coordinate sits at cap)."""
    fill = GreedyFill(np.full(len(q), spec.cap), spec.cap * q)
    budget = len(q) * (1.0 + band)
    return fill.taken(budget), fill(budget)[1]


def _eta_root(s: np.ndarray, spec: DivergenceSpec, eps_budget: float,
              band: float):
    """Divergence multiplier eta where the budget residual
    mean(f(alpha)) - eps_budget of the exact-tau argmax crosses 0, on q sorted
    in decreasing order; returns (tau, eta, alpha) at the bracket's feasible
    end (residual <= 0)."""

    def residual(eta):
        tau, alpha = _exact_tau(s, eta, spec, band)
        return float(np.mean(spec.f(alpha))) - eps_budget, tau, alpha

    eta = 1e-10
    r, tau, alpha = residual(eta)
    if r <= 0.0:
        return tau, eta, alpha
    # as eta grows the argmax settles on one in-band value, where f <= 0 (KL)
    # or which rounds to exactly 1 (chi-square), so the doubling ends
    eta_lo, r_lo = eta, r
    eta = 1.0
    r, tau, alpha = residual(eta)
    while r > 0.0:
        eta_lo, r_lo = eta, r
        eta *= 2.0
        r, tau, alpha = residual(eta)
    # Illinois steps on log eta between eta_lo (r > 0) and eta (r <= 0), until
    # the dual gap eta * (-r) at the feasible end is negligible or the
    # bracket closes
    u_lo, u_hi = np.log(eta_lo), np.log(eta)
    w_lo, w_hi, kept = r_lo, r, 0    # kept: end the last step kept, -1 low, 1 high
    for _ in range(100):
        if -r * eta <= 1e-15 or eta - eta_lo <= 1e-14 * eta:
            break
        u = u_hi - w_hi * (u_hi - u_lo) / (w_hi - w_lo)
        if not u_lo < u < u_hi:
            u = 0.5 * (u_lo + u_hi)
        r_u, tau_u, alpha_u = residual(float(np.exp(u)))
        if r_u <= 0.0:
            u_hi, w_hi, eta = u, r_u, float(np.exp(u))
            r, tau, alpha = r_u, tau_u, alpha_u
            w_lo = 0.5 * w_lo if kept < 0 else w_lo
            kept = -1
        else:
            u_lo, w_lo, eta_lo = u, r_u, float(np.exp(u))
            w_hi = 0.5 * w_hi if kept > 0 else w_hi
            kept = 1
    return tau, eta, alpha


def solve_reweight(q, spec: DivergenceSpec, eps_budget: float,
                   band: float) -> ReweightSolution:
    """Maximize the reweighted query mean over truncated likelihood ratios.

    Lagrangian dual in the band multiplier tau and the divergence multiplier
    eta >= 0.  q is sorted once; for each eta the argmax is a split of the
    sorted q (weights at cap, at 0 and in between), which gives tau exactly.
    eta is then one bracketed root of the budget residual, found by
    safeguarded secant steps on log eta and returned at the bracket's
    feasible end.  When the exact cap-saturating vertex already meets the
    divergence budget it is the optimum, with eta = 0 and tau its LP
    multiplier.

    ``bound`` is the dual value g(tau, eta) at the returned multipliers, an
    upper bound on the program however precisely they were found, up to its
    own rounding of about (|tau| + eta) * 2^-52; ``objective`` is the primal
    value of ``alpha``.  Feasibility of ``alpha`` is verified post hoc to
    1e-6; anything looser is reported as status "tolerance".
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
        value = float(np.mean(q))
        return ReweightSolution(np.ones(K), value, value, 0.0, 0.0, "optimal")

    lp, lp_tau = _lp_vertex(q, spec, band)
    # the LP vertex's multipliers (tau_lp, 0) are a dual point too, the better
    # one when the optimal eta is below the first probe (ties in q)
    lp_bound = _dual_value(q, lp_tau, 0.0, spec, eps_budget, band)
    if float(np.mean(spec.f(lp))) <= eps_budget + 1e-12:
        alpha, tau, eta, bound = lp, lp_tau, 0.0, lp_bound
    else:
        order = np.argsort(-q, kind="stable")
        tau, eta, alpha_sorted = _eta_root(q[order], spec, eps_budget, band)
        alpha = np.empty(K)
        alpha[order] = alpha_sorted
        bound = _dual_value(q, tau, eta, spec, eps_budget, band)
        if lp_bound < bound:
            tau, eta, bound = lp_tau, 0.0, lp_bound

    mean_viol = max(0.0, abs(float(np.mean(alpha)) - 1.0) - band)
    f_viol = max(0.0, float(np.mean(spec.f(alpha))) - eps_budget)
    status = "optimal" if (mean_viol <= 1e-6 and f_viol <= 1e-6) else "tolerance"
    return ReweightSolution(alpha, float(np.mean(alpha * q)), bound,
                            float(tau), float(eta), status)


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
    raw = sol.bound + meta + per_client
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
        extra={"program_value": sol.bound, "primal_value": sol.objective,
               "dual_gap": sol.bound - sol.objective},
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
    stopping where a scalar bisection of its own would.  Each value comes
    from the bracket's upper end, cap or a point found infeasible, which
    never lies below the supremum, however early the bisection stops.
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
    return np.concatenate(([0.0], m * hi / K))


def fdiv_cdf_bound(qv, n, delta: float, epsilon: float, name: str, lambda_grid,
                   *, include_slack: bool = True) -> CdfCurve:
    """Certified survival-function bounds under an f-divergence shift, valid
    simultaneously at every threshold.

    At each threshold the reweighting program runs on the 0/1 indicator
    coefficients 1[qv_k >= lambda - shift_k]; uniformity over thresholds is
    paid for with log(K/delta) budgets and an additive gap sqrt(ln(K/delta)/K)
    plus the meta-level estimation term sqrt(ln(2(K+2)/delta)/(2K)); the gap's
    constant 1 is recorded in the params as ``gap_constant``.  The
    pre-padding program values are kept in ``raw``.
    """
    qv, n = _validate(qv, n, delta)
    K = len(qv)
    spec = make_divergence(name, epsilon, delta)
    band, eps_budget = divergence_budgets(spec, K, "cdf")

    if include_slack:
        shifts = np.sqrt(np.log((K + 2) / delta) / (2 * n))
        pad = float(
            np.sqrt(np.log(K / delta) / K)
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
            "gap_constant": 1.0, "pad": pad,
            "include_slack": include_slack,
        },
    )
