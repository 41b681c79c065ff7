"""Certificates under f-divergence shifts of the client population.

The target population may be any law Q of the client risk R within
f-divergence epsilon of the source law P: KL(Q || P) <= epsilon, or
chi-square(Q || P) = E_P (dQ/dP - 1)^2 <= epsilon.  Both certificates are
deterministic maps of the confidence statements ``nonrobust`` makes, so they
spend its failure probability and no more: K+1 events, one per client and
one at the meta level.

Population duals.  The worst mean over the ball depends only on P, and it
has a one-parameter dual every value of which is an upper bound:

    KL (Donsker-Varadhan)
        sup_Q E_Q R  =  inf_{eta > 0}  eta log E_P exp(R / eta)  +  eta epsilon
    chi-square (Duchi & Namkoong 2021)
        sup_Q E_Q R  =  inf_c  c  +  sqrt(1 + epsilon) sqrt(E_P (R - c)_+^2)

Each reads P only through E_P phi(R) for a nondecreasing phi (exp(R / eta),
(R - c)_+^2), and is nondecreasing in that expectation.

The DKW step.  With probability at least 1 - delta, at once: every client's
true risk r_k is at most x_k = qv_k + s_k (s_k the per-client term of
``nonrobust.mean_bound``, one event per client), and the one-sided DKW
inequality (Massart 1990) holds on the true risks, P(R >= u) <= (1/K)
#{k : r_k >= u} + t for every u, with t = sqrt(ln((K+1)/delta) / (2K)) (the
meta event).  Writing E_P phi(R) = phi(0) + int_0^1 phi'(u) P(R >= u) du
turns these into

    E_P phi(R)  <=  mean_k phi(x_k)  +  t (phi(1) - phi(0))

for every nondecreasing phi at once.  So the dual parameter may be chosen
after seeing the data, and every value it takes gives a sound certificate:

    KL          inf_eta  1 + eta log(mean e^{(x - 1)/eta} + (1 - e^{-1/eta}) t) + eta epsilon
    chi-square  inf_c    c + sqrt(1 + epsilon) sqrt(mean (x - c)_+^2
                                                    + ((1 - c)_+^2 - (-c)_+^2) t)

Each is a one-dimensional search (golden section on a logarithmic scale,
``_golden``); its accuracy affects only the tightness.  Both tend to
mean(x) + t, the mean bound's value, as eta -> inf or c -> -inf.  Without
the DKW term the dual never falls below mean(x) (Jensen), and at epsilon 0
its infimum is that limit.  With it, it can: the DKW step charges
t (phi(1) - phi(0)) on a convex phi, which at small K can cost less than
the t that the mean bound adds (K = 30, n_k = 10, epsilon 0.05: 0.08 to 0.13
less).  Any upper bound may be raised and stay one, so the certificate is
the larger of the search's value and mean(x) + t, and exactly mean(x) + t
at epsilon 0: on the same K+1 events the robust certificate never reads
below the mean bound.  At the `certify-reweight` benchmark's full size
(K = 2000, n_k = 50, epsilon 0.05) the search's value is above it by at
least 0.024, and the floor does not bind.  The certificate stays
nondecreasing in epsilon.

Survival at a threshold.  R >= lambda is an event, and by the
data-processing inequality the worst Q(R >= lambda) over the ball is the
largest q with D_f(Bernoulli(q) || Bernoulli(p)) <= epsilon, p = P(R >= lambda):

    chi-square  min(1, p + sqrt(epsilon p (1 - p)))
    KL          the upper root of kl(q || p) = epsilon, or 1

(``ball``).  The map is nondecreasing in p, so the band of
``nonrobust.cdf_bound``, which holds at every threshold at once, maps to one
that does too: the adversarially robust DKW band.
"""
from __future__ import annotations

import math

import numpy as np

from .certificates import CdfCurve, CertifiedBound
from .nonrobust import _slack_terms, _validate, cdf_bound

__all__ = ["ball", "fdiv_mean_bound", "fdiv_cdf_bound"]

KL = "kl"
CHI2 = "chi-square"
DIVERGENCE_NAMES = (KL, CHI2)

# golden-section steps over a bracket of ln(1e18) ~ 41: the last bracket is
# 2e-7 wide in the log parameter, so a smooth minimum is missed by about
# 1e-14 times its curvature there
_GOLDEN_STEPS = 40
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_BRACKET = (math.log(1e-9), math.log(1e9))


def _check_divergence(name: str, epsilon: float):
    if name not in DIVERGENCE_NAMES:
        raise ValueError(f"unknown divergence {name!r}; known: {sorted(DIVERGENCE_NAMES)}")
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")


def _golden(fun, rows: int) -> np.ndarray:
    """Per row, the smallest value ``fun`` takes at the points a golden-section
    search over ``_LOG_BRACKET`` visits, its two ends included; ``fun`` maps
    one log parameter per row to one value per row.

    Every row's bracket [a, a + w] has the same width, and of its two inner
    points the search keeps the one with the smaller value, so the smallest
    inner value met so far is always one of the two it holds."""
    g = _INV_PHI
    lo, hi = _LOG_BRACKET
    a, w = np.full(rows, lo), hi - lo
    fc, fd = fun(a + (1.0 - g) * w), fun(a + g * w)
    for _ in range(_GOLDEN_STEPS):
        left = fc <= fd          # a unimodal minimum lies in [a, a + g w]
        a = np.where(left, a, a + (1.0 - g) * w)
        w *= g                   # g^2 = 1 - g: the kept point is the new bracket's c or d
        fnew = fun(a + np.where(left, 1.0 - g, g) * w)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    ends = np.minimum(fun(np.full(rows, lo)), fun(np.full(rows, hi)))
    return np.minimum(np.minimum(fc, fd), ends)


def _mean_duals(name: str, x: np.ndarray, t: np.ndarray, epsilon: float) -> np.ndarray:
    """The dual certificate of each row of ``x`` with meta term ``t`` (one
    per row): the search's value, floored at the limit mean(x) + t, which
    it is at epsilon 0."""
    # the largest atom of mean_k delta_{x_k} + t (delta_1 - delta_0), about
    # which the exponentials are taken so that none overflows
    top = np.where(t > 0, np.maximum(x.max(axis=1), 1.0), x.max(axis=1))
    if name == KL:
        # 1 / eta = e^u; 1 + eta log(...) rewritten about top, with expm1 and
        # log1p so that small 1/eta loses no digits; the meta atom at 1 sits
        # at or below top wherever t > 0
        below, lift = x - top[:, None], np.maximum(top - 1.0, 0.0)

        def fun(u):
            th = np.exp(u)
            s = (np.mean(np.expm1(th[:, None] * below), axis=1)
                 - t * np.exp(-th * lift) * np.expm1(-th))
            return top + (np.log1p(s) + epsilon) / th
    else:
        root = math.sqrt(1.0 + epsilon)
        m1, m2 = np.mean(x, axis=1), np.mean(x * x, axis=1)

        def fun(u):
            c = top - np.exp(u)
            hinge = np.mean(np.maximum(x - c[:, None], 0.0) ** 2, axis=1)
            value = c + root * np.sqrt(hinge + np.maximum(1.0 - c, 0.0) ** 2 * t)
            # below 0 every x_k is in the hinge and the meta atoms add
            # t (1 - 2c), so the radicand is lin + c^2; c + root sqrt(.),
            # rationalized, keeps the digits that -|c| plus about |c| cancel
            lin = m2 - 2.0 * c * (m1 + t) + t
            with np.errstate(invalid="ignore", divide="ignore"):
                low = ((1.0 + epsilon) * lin + epsilon * c * c) / (root * np.sqrt(lin + c * c) - c)
            return np.where(c < 0.0, low, value)
    limit = np.mean(x, axis=1) + t
    return limit if epsilon == 0 else np.maximum(_golden(fun, len(x)), limit)


def _kl_bernoulli(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """kl(q || p) for p <= q < 1 and p in (0, 1).  Each log is taken in the
    form that keeps its digits: log1p of the relative gap up to q = 2p,
    beyond it the difference of the logs, where that gap may overflow."""
    up = np.where(q <= 2.0 * p, np.log1p(np.minimum(q - p, p) / p), np.log(q) - np.log(p))
    return q * up + (1.0 - q) * np.log1p((p - q) / (1.0 - p))


def ball(name: str, p, epsilon: float) -> np.ndarray:
    """The largest Q(A) over laws Q within f-divergence epsilon of a law P
    with P(A) = p, elementwise: chi-square's closed form, or for KL the
    upper root of kl(q || p) = epsilon, bisected on the floats' bit patterns
    to adjacent floats and returned at the upper end (kl above epsilon), or 1."""
    _check_divergence(name, epsilon)
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if name == CHI2:
        return np.minimum(1.0, p + np.sqrt(epsilon * p * (1.0 - p)))
    out = np.where(p > 0.0, 1.0, 0.0)
    # kl(1 || p) = -log p: where that is within epsilon, the answer is 1
    open_ = (p > 0.0) & (p < 1.0) & (-np.log(np.where(p > 0.0, p, 1.0)) > epsilon)
    pp = p[open_]
    lo, hi = pp.view(np.int64), np.ones_like(pp).view(np.int64)
    for _ in range(64):
        if not np.any(hi - lo > 1):
            break
        mid = lo + (hi - lo) // 2
        inside = _kl_bernoulli(mid.view(float), pp) <= epsilon
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    out[open_] = hi.view(float)
    return out


def fdiv_mean_bound(qv, n, delta: float, epsilon: float, name: str,
                    *, include_slack: bool = True) -> CertifiedBound:
    """Certified upper bound on the target population's mean risk when the
    target is any law within f-divergence epsilon of the source.

    ``program_value`` is the dual on the query values themselves; the
    per-client slack is what replacing them by x = qv + s adds, and the meta
    slack what the DKW term t adds.  Each is nonnegative, since the dual is
    monotone in both, and the three sum to the raw value.
    """
    qv, n = _validate(qv, n, delta)
    _check_divergence(name, epsilon)
    K = len(qv)
    shifts, t = _slack_terms(n, delta, include_slack)
    x = qv + shifts
    program, plugged, raw = _mean_duals(name, np.stack([qv, x, x]),
                                        np.array([0.0, 0.0, t]), epsilon)
    return CertifiedBound(
        kind="fdiv-mean",
        value=float(min(raw, 1.0)),
        raw_value=float(raw),
        slack={"meta": float(raw - plugged), "per_client": float(plugged - program)},
        params={"K": K, "delta": delta, "epsilon": epsilon, "divergence": name,
                "include_slack": include_slack},
        extra={"program_value": float(program)},
    )


def fdiv_cdf_bound(qv, n, delta: float, epsilon: float, name: str, lambda_grid,
                   *, include_slack: bool = True) -> CdfCurve:
    """Certified survival-function bounds under an f-divergence shift, valid
    simultaneously at every threshold: ``ball`` applied to the band of
    ``nonrobust.cdf_bound`` on the same thresholds.  ``raw`` keeps that
    band before its clip to 1."""
    band = cdf_bound(qv, n, delta, lambda_grid, include_slack=include_slack)
    return CdfCurve(
        lambdas=band.lambdas,
        bounds=ball(name, band.bounds, epsilon),
        raw=band.raw,
        params={
            "kind": "fdiv-cdf",
            "K": band.params["K"], "delta": delta, "epsilon": epsilon, "divergence": name,
            "meta_slack": band.params["meta_slack"],
            "include_slack": include_slack,
        },
    )
