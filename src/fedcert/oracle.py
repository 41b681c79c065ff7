"""Brute-force verification of certificates, and what each certificate kind
declares.

Everything here is deliberately independent of the solvers it checks:

  * ``grid_ball_oracle``         exhaustive search over the likelihood ratios
                                 of an f-divergence ball (K <= 3), no dual
                                 machinery;
  * ``wass_ball_lp_oracle``      the transport-ball worst case as an explicit
                                 linear program over couplings on small
                                 discrete instances;
  * ``wass_alloc_grid_oracle``   radius allocation by brute 2-D grid search
                                 over tangent-line envelopes;
  * ``coverage_experiments``     Monte-Carlo: draw a fresh world, certify,
                                 draw the shifted target, count violations;
                                 the kinds share each trial's draws;
  * ``tightness_probe``          certificate-minus-achievable gap along a
                                 schedule of world sizes, against the exact
                                 target mean of ``mean_true_risk``.

Each certificate kind is wired once, here, for the command line and the two
experiments alike: ``BOUND_KINDS`` names the kinds, ``issue_certificate``
maps a kind to its bound function, and ``target_world`` builds the shifted
meta-distribution the kind declares.

The coverage trials use common random numbers: trial t seeds its source
world by (seed, t) and its target risks by (seed, t, 1), whatever the kind.
So every kind certifies the same clients, and kinds that declare the same
target world test against the same risks.  ``coverage_experiments`` runs
each trial once, draws its source and each distinct target once, and
certifies every requested kind on them; each report equals the one its kind
gets when run on its own.

Target statistics use exact per-client risks (Gaussian class-conditional
worlds with a binary linear rule admit a closed form), so coverage tests
carry no data-level noise on the target side.  The coverage trials draw
finite target populations of such risks (``sample_true_risks``); the
tightness probe needs only their population mean, a low-dimensional
Gaussian integral that ``mean_true_risk`` evaluates by quadrature, with no
sampling at all.  Those risks are zero-one risks, so the experiments query
their clients with the zero-one loss.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fdiv import fdiv_cdf_bound, fdiv_mean_bound
from .losses import LINEAR, LOGISTIC, ZERO_ONE, Hypothesis, LossFn
from .metasim import (
    MetaConfig,
    draw_world,
    shift_meta_fdiv,
    shift_meta_wass,
    tilt_for_divergence,
)
from .nonrobust import cdf_bound, mean_bound
from .query import HALF_SQ, Client, empirical_risk_values, query_empirical
from .wass import DEFAULT_GRID_SIZE, wass_mean_bound

__all__ = [
    "grid_ball_oracle",
    "wass_ball_lp_oracle",
    "wass_alloc_grid_oracle",
    "exact_zero_one_risk",
    "sample_true_risks",
    "mean_true_risk",
    "adversarial_directions",
    "BOUND_KINDS",
    "CURVE_KINDS",
    "FDIV_KINDS",
    "TIGHTNESS_KINDS",
    "lambda_grid",
    "issue_certificate",
    "target_world",
    "CoverageReport",
    "coverage_experiment",
    "coverage_experiments",
    "tightness_probe",
]

VIOLATION_GUARD = 1e-9

BOUND_KINDS = ("mean", "cdf", "fdiv-mean", "fdiv-cdf", "wass-mean")
CURVE_KINDS = ("cdf", "fdiv-cdf")
FDIV_KINDS = ("fdiv-mean", "fdiv-cdf")
TIGHTNESS_KINDS = ("mean", "fdiv-mean")
# coverage reports name the survival-curve kind "cdf-curve"
_COVERAGE_KINDS = tuple("cdf-curve" if k == "cdf" else k for k in BOUND_KINDS)

_ZERO_ONE = LossFn(ZERO_ONE)

# local copies of the divergence generators: the oracle must not lean on the
# solver module it exists to check
_ORACLE_F = {
    "kl": lambda t: np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0),
    "chi-square": lambda t: (t - 1.0) ** 2,
}


def grid_ball_oracle(q, name: str, epsilon: float, step: float) -> float:
    """Exhaustive maximization of mean(alpha * q), q >= 0, over likelihood
    ratios on the grid {0, step, 2 step, ..., K} ∪ {1} per coordinate, K <= 3,
    with mean(alpha) = 1 and mean(f(alpha)) <= epsilon: the worst mean over
    the f-divergence ball around the uniform law on q, whose ratios never
    exceed K.

    The generator is evaluated from local copies.  Feasibility is strict
    (tiny float guard only), so the grid optimum is a lower bound on the
    ball's supremum.
    """
    q = np.asarray(q, dtype=float)
    K = len(q)
    if K > 3:
        raise ValueError("grid oracle is exhaustive; K <= 3 only")
    if np.any(q < 0):
        raise ValueError("query values must be nonnegative")
    if step <= 0:
        raise ValueError("step must be positive")
    f = _ORACLE_F[name]
    # the last arange point may pass K by up to step / 2; it stops at K
    grid = np.unique(np.concatenate([np.minimum(np.arange(0.0, K + step / 2, step), K),
                                     [1.0, K]]))
    fg = f(grid)
    guard = 1e-12

    if K == 1:
        ok = (np.abs(grid - 1.0) <= guard) & (fg <= epsilon + guard)
        return float(np.max(grid[ok] * q[0])) if np.any(ok) else -np.inf

    # the sum pins the last coordinate to one grid point, up to rounding:
    # locate it by searchsorted, then test it and its two neighbours on each
    # side with the exhaustive predicate itself
    near = np.arange(-2, 3)

    def last(partial):
        j = np.searchsorted(grid, K * (1.0 + guard) - partial, side="right") - 1
        j = np.clip(j[:, None] + near, 0, len(grid) - 1)
        return grid[j], fg[j]

    if K == 2:
        a2, f2 = last(grid)
        ok = ((np.abs(0.5 * (grid[:, None] + a2) - 1.0) <= guard)
              & (0.5 * (fg[:, None] + f2) <= epsilon + guard))
        obj = 0.5 * (q[0] * grid[:, None] + q[1] * a2)
        return float(np.max(np.where(ok, obj, -np.inf)))

    best = -np.inf
    for a1, f1 in zip(grid, fg):
        a3, f3 = last(a1 + grid)
        mean_a = (a1 + (grid[:, None] + a3)) / 3.0
        mean_f = (f1 + (fg[:, None] + f3)) / 3.0
        ok = (np.abs(mean_a - 1.0) <= guard) & (mean_f <= epsilon + guard)
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
    # imported here: scipy is slow to import and only this oracle needs it
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


def wass_alloc_grid_oracle(grid, values, slopes, floor: float,
                           mean_cap: float, step: float) -> float:
    """Brute-force radius allocation for two clients: grid over (rho1, rho2)
    with the mean constraint.  Client k's value at a radius is the lowest of
    its tangent lines values[k, j] + slopes[k, j] (rho - grid[j]), capped
    at 1."""
    values, slopes = np.asarray(values), np.asarray(slopes)
    if len(values) != 2:
        raise ValueError("grid allocation oracle handles exactly two clients")
    top = 2.0 * mean_cap
    r = np.arange(floor, top + step / 2, step)
    lines = values[:, None, :] + slopes[:, None, :] * (r[None, :, None] - np.asarray(grid))
    v1, v2 = np.minimum(lines.min(axis=2), 1.0)
    mean_r = 0.5 * (r[:, None] + r[None, :])
    obj = 0.5 * (v1[:, None] + v2[None, :])
    ok = mean_r <= mean_cap + 1e-12
    return float(np.max(np.where(ok, obj, -np.inf)))


# ---------------------------------------------------------------------------
# exact risks for Gaussian worlds with binary linear rules
# ---------------------------------------------------------------------------

# Cephes' rational forms: erf(x) = x T(x^2) / U(x^2) on |x| < 1, and
# erfc(z) = e^-z^2 P(z) / Q(z) on [1, 8), e^-z^2 R(z) / S(z) from 8 on; U, Q
# and S are monic, their leading 1 left out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 7.07106781186547524401e-1
# erfc is taken as 0 where e^-z^2 would fall below 1 / DBL_MAX
_MAXLOG = 7.09782712893383996843e2


def _horner(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Cephes' ``polevl`` (``p1evl`` when monic) at x, in place on one
    array: the same products and sums in the same order."""
    acc = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


def ndtr(a) -> np.ndarray:
    """The standard normal CDF, elementwise: Cephes' ``ndtr``, the forms and
    branches ``scipy.special.ndtr`` evaluates, within 4 ulp of it (and the
    same zeros and ones).  Each branch runs only on its own entries."""
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    out = x.copy()    # nan stays nan; every other entry is in one branch

    head = z < 1.0
    if head.any():
        xh = x[head]
        zh = np.abs(xh)
        inner = zh < _SQRT1_2
        # Phi = (1 + erf(x)) / 2 inside 1/sqrt2, else erfc(|x|) / 2 = (1 - erf(|x|)) / 2
        w = np.where(inner, xh, zh)
        t = w * w
        e = _horner(t, _ERF_T)
        e *= w
        e /= _horner(t, _ERF_U, monic=True)
        y = np.where(inner, 0.5 + 0.5 * e, 0.5 * (1.0 - e))
        out[head] = np.where(~inner & (xh > 0), 1.0 - y, y)

    tail = z >= 1.0
    if tail.any():
        xt = x[tail]
        zt = np.abs(xt)
        erfc = np.empty_like(zt)
        near = zt < 8.0
        zn = zt[near]
        if zn.size:
            p = _horner(zn, _ERFC_P)
            p *= np.exp(-zn * zn)
            p /= _horner(zn, _ERFC_Q, monic=True)
            erfc[near] = p
        far = ~near
        if far.any():
            # z past sqrt(_MAXLOG) reads 0 anyway; the clip keeps inf out of R/S
            zf = np.minimum(zt[far], 27.0)
            sq = zf * zf
            p = _horner(zf, _ERFC_R)
            p *= np.exp(-sq)
            p /= _horner(zf, _ERFC_S, monic=True)
            p[sq > _MAXLOG] = 0.0
            erfc[far] = p
        erfc *= 0.5
        out[tail] = np.where(xt > 0, 1.0 - erfc, erfc)
    return out.reshape(a.shape)


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


# class 0 errs at scores >= 0, class 1 below
_ERR_SIGN = np.array([1.0, -1.0])


def _risks_from_parts(ut, means, score_off, props, cov_scale):
    """Vectorized zero-one risks; ut (T,d), means (T,C,d), score_off scalar or
    (T,), props (T,C)."""
    mu = np.einsum("td,tcd->tc", ut, means)
    mu = mu + np.atleast_1d(score_off)[:, None]
    s = cov_scale * np.linalg.norm(ut, axis=1)
    s = np.where(s <= 0, 1e-300, s)
    err = ndtr(mu * _ERR_SIGN / s[:, None])
    return props[:, 0] * err[:, 0] + props[:, 1] * err[:, 1]


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


# the window of the quadrature below leaves out the Gaussian mass beyond
# sqrt(d) + _WINDOW_TAIL standard deviations, at most e^-32 (about 1e-14)
_WINDOW_TAIL = 8.0
# two node levels that agree this closely end the doubling
TRUTH_TOL = 1e-10
_FIRST_NODES = 8
_MAX_NODES = 256


def mean_true_risk(cfg: MetaConfig, h: Hypothesis) -> tuple[float, float]:
    """The exact mean zero-one risk of a binary world's client population:
    the expectation of what ``sample_true_risks`` draws, as a deterministic
    quadrature.  Returns (mean, error), the error being the difference of the
    last two node levels.

    Derivation.  A client of archetype m (weight w_m) has label proportions
    p, affine map A and translation b, drawn independently.  Its risk is
    p_0 Phi(mu_0 / s) + p_1 Phi(-mu_1 / s), with mu_c = ut . m_c + u . b + b0,
    s = cov_scale |ut| and ut = u + A^T u for the rule's margin (u, b0).

      * The proportions are independent of the rest, so they enter by their
        mean: under label shift the Dirichlet mean bp / sum(bp) = bp of the
        archetype's base proportions bp, and bp itself without it.
      * Under feature shift, u . b ~ N(0, tau^2) with tau = sigma_shift |u|,
        and E_Z[Phi((a + tau Z) / s)] = Phi(a / sqrt(s^2 + tau^2)) averages
        the translation out exactly.
      * The entries of A are independent N(0, sigma_affine^2), so
        ut ~ N(u, sigma^2 I) with sigma = sigma_affine |u|.  What is left is
        E[Phi(+-(ut . m_c + b0) / sqrt(cov_scale^2 |ut|^2 + tau^2))].

    Without feature shift (sigma = 0) nothing is left to integrate; a zero
    margin keeps ``sample_true_risks``' convention s -> 1e-300, so the risk
    is p_0, p_1 or 1/2 as b0 is positive, negative or zero.

    Otherwise the integral runs in hyperspherical coordinates about ut = 0,
    with polar axis e1 = u / |u|: ut = R (cos theta e1 + sin theta (cos chi
    e2 + sin chi w)), e2 along the part of m_c across e1 and w across both.
    The integrand depends on R, theta and chi alone, through
    ut . m_c = R (a cos theta + b sin theta cos chi) with a = m_c . e1 and
    b = |m_c - a e1|; the remaining d - 3 angles integrate to a constant.
    The Gaussian weight is R^(d-1) sin^(d-2) theta sin^(d-3) chi
    exp(-(R^2 - 2 R |u| cos theta + |u|^2) / (2 sigma^2)), normalised by its
    own quadrature sum.  In one or two dimensions a sphere S^0 stands in for
    an angle: theta (d = 1) or chi (d = 2) takes the two values 0 and pi.

    Centring the coordinates at ut = 0 keeps the integrand smooth in the
    angles even where the score jumps at ut = 0 (tau = 0, b0 = 0).  The
    window is the ball of radius L = sigma (sqrt(d) + 8) about u: R within
    |u| +- L, and theta below asin(L / |u|) when the ball leaves out 0.
    Then R takes Gauss-Legendre nodes; when the ball holds ut = 0, R takes
    tanh-sinh nodes, which cope with the integrand's non-analytic point at
    R = 0.  The angles take Gauss-Legendre nodes.  The node count per axis
    doubles from 8 until two levels agree within ``TRUTH_TOL`` (the closed
    form agrees with itself at once); RuntimeError when 256 nodes are not
    enough.
    """
    if cfg.n_classes != 2:
        raise ValueError("exact risks implemented for binary worlds")
    last, n = None, _FIRST_NODES
    while n <= _MAX_NODES:
        value = _mean_risk_at(cfg, h, n)
        if last is not None and abs(value - last) <= TRUTH_TOL:
            return value, abs(value - last)
        last, n = value, 2 * n
    raise RuntimeError(f"mean_true_risk: no two quadrature levels up to {_MAX_NODES} "
                       f"nodes agree within {TRUTH_TOL:g}")


def _mean_risk_at(cfg: MetaConfig, h: Hypothesis, n: int) -> float:
    """``mean_true_risk``'s value at n nodes per axis; the closed form, the
    same at every n, when no feature shift is left to integrate."""
    u, b0 = _binary_margin(h)
    if cfg.archetypes is not None:
        weights = cfg.archetype_weights
        means = np.stack([a.class_means for a in cfg.archetypes])
        props = np.stack([a.class_props for a in cfg.archetypes])
    else:
        weights, means, props = np.ones(1), cfg.class_means[None], np.full((1, 2), 0.5)
    norm_u = float(np.linalg.norm(u))
    feature = cfg.shift_mode in ("feature", "both")
    sigma = cfg.sigma_affine * norm_u if feature else 0.0
    tau = cfg.sigma_shift * norm_u if feature else 0.0

    if sigma == 0.0:
        s = float(np.hypot(cfg.cov_scale * norm_u, tau))
        errors = ndtr(_ERR_SIGN * (means @ u + b0) / (s if s > 0 else 1e-300))
    else:
        along = means @ (u / norm_u)
        across = np.linalg.norm(means - along[..., None] * (u / norm_u), axis=2)
        rule = _sphere_rule(cfg.dim, norm_u, sigma, n)
        errors = np.array([[_mean_error(rule, sign * along[m, c], sign * across[m, c],
                                        sign * b0, cfg.cov_scale, tau)
                            for c, sign in enumerate(_ERR_SIGN)] for m in range(len(weights))])
    return float(weights @ np.sum(props * errors, axis=1))


def _gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def _tanh_sinh(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Up to 2n - 1 tanh-sinh nodes strictly inside (lo, hi), step 3.2 / n;
    past |x| = 3.2 the nodes would lie within 2e-17 (hi - lo) of the ends.
    The logistic form 1 / (1 + e^-t) keeps the nodes next to lo = 0 apart
    from 0.  A node that rounds onto an end is left out: from n = 128 on,
    q rounds to 1 at the last nodes, which then sit on hi with weight 0."""
    step = 3.2 / n
    x = step * np.arange(1 - n, n)
    q = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(x)))      # (1 + tanh(pi/2 sinh x)) / 2
    nodes = lo + (hi - lo) * q
    inside = (nodes > lo) & (nodes < hi)
    x, q = x[inside], q[inside]
    return nodes[inside], step * (hi - lo) * np.pi * np.cosh(x) * q * (1.0 - q)


def _sphere_rule(d: int, norm_u: float, sigma: float, n: int) -> dict:
    """Nodes and normalised Gaussian weights of ``mean_true_risk``'s
    quadrature at n nodes per axis: radii R, polar angles theta and their
    (R, theta) weights, azimuths chi and their weights, each weight set
    summing to 1."""
    L = sigma * (np.sqrt(d) + _WINDOW_TAIL)
    holds_zero = norm_u <= L
    radial = _tanh_sinh if holds_zero else _gauss_legendre
    R, w_r = radial(n, max(0.0, norm_u - L), norm_u + L)
    s0 = np.array([0.0, np.pi]), np.ones(2)
    if d == 1:
        theta, w_t = s0
    else:
        theta, w_t = _gauss_legendre(n, 0.0, np.pi if holds_zero else np.arcsin(L / norm_u))
    chi, w_c = s0 if d <= 2 else _gauss_legendre(n, 0.0, np.pi)
    log_gauss = -((R[:, None] - norm_u) ** 2
                  + 2.0 * R[:, None] * norm_u * (1.0 - np.cos(theta))) / (2.0 * sigma ** 2)
    w = (w_r * R ** (d - 1))[:, None] * (w_t * np.sin(theta) ** max(d - 2, 0)) * np.exp(log_gauss)
    w_c = w_c * np.sin(chi) ** max(d - 3, 0)
    return {"R": R, "theta": theta, "weight": w / w.sum(), "chi": chi, "chi_weight": w_c / w_c.sum()}


# nodes in one block of ``_mean_error``'s arithmetic; bounds its temporaries
_QUAD_BLOCK = 1 << 18


def _mean_error(rule: dict, along: float, across: float, offset: float,
                cov_scale: float, tau: float) -> float:
    """E[Phi((ut . m + offset) / sqrt(cov_scale^2 |ut|^2 + tau^2))] under
    ``rule``, for a mean m of components ``along`` and ``across`` the margin;
    a block of radii at a time."""
    R, theta, chi = rule["R"], rule["theta"], rule["chi"]
    direction = along * np.cos(theta)[:, None] + across * np.sin(theta)[:, None] * np.cos(chi)
    scale = np.hypot(cov_scale * R, tau)     # every node has R > 0
    step = max(1, _QUAD_BLOCK // direction.size)
    total = 0.0
    for i in range(0, len(R), step):
        score = (R[i:i + step, None, None] * direction + offset) / scale[i:i + step, None, None]
        total += float(np.sum(rule["weight"][i:i + step] * (ndtr(score) @ rule["chi_weight"])))
    return total


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
# what each certificate kind declares
# ---------------------------------------------------------------------------

def lambda_grid(req: dict) -> np.ndarray:
    """The thresholds of a survival-curve request: its ``lambda_grid``, an
    array or a {start, stop, num} spec, by default 50 points over [0, 1]."""
    spec = req.get("lambda_grid", {"start": 0.0, "stop": 1.0, "num": 50})
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], spec["num"])
    return np.asarray(spec, dtype=float)


def issue_certificate(kind: str, req: dict, qv: np.ndarray, ns: np.ndarray,
                      clients: list[Client] | None = None, h: Hypothesis | None = None):
    """The certificate of ``kind`` from the clients' empirical answers ``qv``
    on ``ns`` samples each.  ``req`` carries delta and, per kind, epsilon,
    f_name, lambda_grid and grid_size; ``wass-mean`` queries the
    ``clients`` about ``h`` itself."""
    delta = float(req["delta"])
    if kind == "mean":
        return mean_bound(qv, ns, delta)
    if kind == "cdf":
        return cdf_bound(qv, ns, delta, lambda_grid(req))
    if kind == "wass-mean":
        return wass_mean_bound(clients, h, float(req["epsilon"]), delta,
                               grid_size=int(req.get("grid_size", DEFAULT_GRID_SIZE)))
    if kind == "fdiv-mean":
        return fdiv_mean_bound(qv, ns, delta, float(req["epsilon"]), req["f_name"])
    if kind == "fdiv-cdf":
        return fdiv_cdf_bound(qv, ns, delta, float(req["epsilon"]), req["f_name"],
                              lambda_grid(req))
    raise ValueError(f"kind must be one of {BOUND_KINDS}")


def target_world(cfg: MetaConfig, kind: str, epsilon: float, h: Hypothesis,
                 f_name: str | None = None, cost_kind: str = HALF_SQ) -> MetaConfig:
    """The shifted meta-distribution a certificate of ``kind`` declares: the
    source itself for the plain kinds or a zero budget, the archetype tilt
    whose ``f_name`` divergence is ``epsilon``, or the class means moved
    against ``h`` at transport cost ``epsilon`` under ``cost_kind``.  Raises
    RuntimeError when the shift misses its budget."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}")
    if kind in ("mean", "cdf") or epsilon == 0.0:
        return cfg
    if kind in FDIV_KINDS:
        target, achieved = shift_meta_fdiv(cfg, tilt_for_divergence(cfg, f_name, epsilon))
        if abs(achieved[f_name] - epsilon) > 1e-6:
            raise RuntimeError("tilt search failed to hit the divergence budget")
        return target
    target, cost = shift_meta_wass(cfg, epsilon, adversarial_directions(cfg, h), cost_kind)
    if abs(cost - epsilon) > 1e-9:
        raise RuntimeError("mean shift failed to hit the transport budget")
    return target


def _draw_source(cfg: MetaConfig, h: Hypothesis, K: int, n_k: int, root: int):
    """K fresh clients of n_k samples from the source world, seeded by
    ``root``: the drawn world, its empirical zero-one risks and sample
    counts."""
    world = draw_world(cfg, K, n_k, seed=root)
    qv = empirical_risk_values(h, world.features, world.labels, _ZERO_ONE)
    return world, qv, np.full(K, n_k)


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
        # per_lambda is left out for the mean-style kinds
        return {k: v for k, v in asdict(self).items() if v is not None}

    def write_json(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, dtype=np.uint64)[0])


def coverage_experiment(cfg: MetaConfig, bound_kind: str, params: dict,
                        trials: int, seed: int = 0, jobs: int = 1) -> CoverageReport:
    """``coverage_experiments`` for one kind."""
    return coverage_experiments(cfg, [(bound_kind, params)], trials, seed, jobs)[0]


@dataclass
class _CoveragePlan:
    """What one requested kind's trials need, fixed before the first trial."""

    bound_kind: str
    kind: str
    h: Hypothesis
    K: int
    n_k: int
    delta: float
    epsilon: float
    target_clients: int
    lams: np.ndarray
    req: dict
    target_cfg: MetaConfig

    @classmethod
    def of(cls, cfg: MetaConfig, bound_kind: str, params: dict) -> "_CoveragePlan":
        if bound_kind not in _COVERAGE_KINDS:
            raise ValueError(f"bound_kind must be one of {_COVERAGE_KINDS}")
        kind = "cdf" if bound_kind == "cdf-curve" else bound_kind
        h: Hypothesis = params["h"]
        delta = float(params.get("delta", 0.1))
        epsilon = float(params.get("epsilon", 0.0))
        lams = lambda_grid(params)
        return cls(
            bound_kind=bound_kind, kind=kind, h=h,
            K=int(params.get("K", 50)), n_k=int(params.get("n_k", 100)),
            delta=delta, epsilon=epsilon,
            target_clients=int(params.get("target_clients", 2000)), lams=lams,
            req={**params, "delta": delta, "epsilon": epsilon, "lambda_grid": lams},
            target_cfg=target_world(cfg, kind, epsilon, h, params.get("f_name")),
        )

    def source_key(self) -> tuple:
        return self.h.cache_key(), self.K, self.n_k

    def target_key(self) -> tuple:
        return self.target_cfg.digest(), self.target_clients, self.h.cache_key()

    def outcome(self, source, risks: np.ndarray) -> tuple[int, np.ndarray]:
        """Certify one trial's source and test it against the target's exact
        risks: (violated, per-threshold violations)."""
        world, qv, ns = source
        clients = None
        if self.kind == "wass-mean":
            clients = [Client(ds.client_id, ds, _ZERO_ONE,
                              max_queries=self.req.get("max_queries"))
                       for ds in world.datasets()]
            query_empirical(clients, self.h)   # qv's queries, charged as certify charges them
        cert = issue_certificate(self.kind, self.req, qv, ns, clients, self.h)
        lams = self.lams
        if self.kind not in CURVE_KINDS:
            violated = float(np.mean(risks)) > cert.value + VIOLATION_GUARD
            return int(violated), np.zeros(len(lams), dtype=int)
        curve_vals = cert.bounds[np.searchsorted(cert.lambdas, lams)]
        surv = np.mean(risks[None, :] >= lams[:, None], axis=1)
        viol = surv > curve_vals + VIOLATION_GUARD
        return int(np.any(viol)), viol.astype(int)

    def report(self, cfg: MetaConfig, outcomes: list, trials: int) -> CoverageReport:
        violations = int(sum(r[0] for r in outcomes))
        per_lambda_counts = np.sum([r[1] for r in outcomes], axis=0)
        rate = violations / trials
        threshold = self.delta + 3.0 * float(np.sqrt(self.delta * (1 - self.delta) / trials))
        # a run where every trial violates is a failure even when the
        # small-trials threshold saturates at 1
        passed = rate <= threshold and violations < trials
        per_lambda = None
        if self.kind in CURVE_KINDS:
            per_lambda = {
                "lambdas": self.lams.tolist(),
                "violation_rates": (per_lambda_counts / trials).tolist(),
            }
        return CoverageReport(
            bound_kind=self.bound_kind,
            trials=trials,
            violations=violations,
            violation_rate=rate,
            delta=self.delta,
            threshold=threshold,
            passed=passed,
            config_digest=cfg.digest(),
            per_lambda=per_lambda,
            notes={"K": self.K, "n_k": self.n_k, "epsilon": self.epsilon},
        )


def coverage_experiments(cfg: MetaConfig, requests: list[tuple[str, dict]],
                         trials: int, seed: int = 0, jobs: int = 1) -> list[CoverageReport]:
    """Repeatedly certify fresh source worlds and test each certificate
    against the exact statistics of its declared shifted target; one report
    per ``(bound_kind, params)`` request, in order.

    ``bound_kind`` is a certificate kind, with ``cdf-curve`` for ``cdf``.
    ``params`` carries: h (Hypothesis, required), K, n_k, delta,
    target_clients, and per kind epsilon / f_name / lambda_grid / grid_size /
    max_queries.  The clients answer zero-one queries under the half-squared
    cost.  A ``wass-mean`` trial charges each client its zero-radius query and
    its radius grid against ``max_queries`` (None: no cap), as certify does,
    and raises BudgetExceededError past it.
    A violation is recorded when the target statistic exceeds the certificate
    by more than a 1e-9 float guard; a report passes when its violation rate
    stays within delta plus three binomial standard errors.

    Trial t seeds its source world by (seed, t) alone and its target risks by
    SeedSequence([seed, t, 1]), whatever the kind.  So the kinds share each
    trial's draws (common random numbers): the trial draws its source once
    per (h, K, n_k) and its target risks once per declared target world and
    client count, and every report equals that of the kind run on its own.
    The trials run in the outer loop, ``jobs`` of them at a time, each
    holding only its own draws.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    plans = [_CoveragePlan.of(cfg, bound_kind, params) for bound_kind, params in requests]

    def run_trial(t: int) -> list[tuple[int, np.ndarray]]:
        sources: dict[tuple, tuple] = {}
        targets: dict[tuple, np.ndarray] = {}
        outcomes = []
        for plan in plans:
            src, tgt = plan.source_key(), plan.target_key()
            if src not in sources:
                sources[src] = _draw_source(cfg, plan.h, plan.K, plan.n_k, _trial_seed(seed, t))
            if tgt not in targets:
                rng_t = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence([seed, t, 1])))
                targets[tgt] = sample_true_risks(plan.target_cfg, plan.target_clients,
                                                 plan.h, rng_t)
            outcomes.append(plan.outcome(sources[src], targets[tgt]))
        return outcomes

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]
    return [plan.report(cfg, [r[i] for r in results], trials)
            for i, plan in enumerate(plans)]


def tightness_probe(cfg: MetaConfig, bound_kind: str, K_schedule: list[int],
                    n_schedule: list[int], trials: int, seed: int,
                    params: dict) -> list[dict]:
    """Median certificate-minus-achievable gap along a (K, n_k) schedule.

    The achievable statistic is the exact target mean under the declared
    shift (no shift for the plain mean bound), computed once by
    ``mean_true_risk``'s quadrature, so the same ground truth serves every
    schedule point.  Rows carry it as ``truth``, the difference of its last
    two quadrature levels as ``truth_error``, and the median slack
    components, so the vanishing pieces can be read off separately.
    """
    if bound_kind not in TIGHTNESS_KINDS:
        raise ValueError("tightness probe supports the mean-style bounds")
    if len(K_schedule) == 0 or len(K_schedule) != len(n_schedule):
        raise ValueError("schedules must be nonempty and aligned")
    if list(K_schedule) != sorted(K_schedule) or list(n_schedule) != sorted(n_schedule):
        raise ValueError("schedules must be nondecreasing")
    h: Hypothesis = params["h"]
    req = {"delta": float(params.get("delta", 0.1)),
           "epsilon": float(params.get("epsilon", 0.0)), "f_name": params.get("f_name")}
    target_cfg = target_world(cfg, bound_kind, req["epsilon"], h, req["f_name"])
    truth, truth_error = mean_true_risk(target_cfg, h)

    rows = []
    for K, n_k in zip(K_schedule, n_schedule):
        gaps = []
        slacks: dict[str, list[float]] = {}
        for t in range(trials):
            _, qv, ns = _draw_source(cfg, h, K, n_k, _trial_seed(seed, 1_000_000 * K + t))
            b = issue_certificate(bound_kind, req, qv, ns)
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
            "truth_error": truth_error,
        }
        for key, vals in slacks.items():
            row[f"slack_{key}"] = float(np.median(vals))
        rows.append(row)
    return rows
