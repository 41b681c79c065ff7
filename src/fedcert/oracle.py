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
  * ``coverage_experiments``     Monte-Carlo: draw fresh worlds, certify,
                                 draw the shifted targets, count violations;
                                 the kinds share each trial's draws;
  * ``tightness_probe``          certificate-minus-achievable gap along a
                                 schedule of world sizes, against the exact
                                 target mean of ``mean_true_risk``.

Each certificate kind is wired once, here, for the command line and the two
experiments alike: ``BOUND_KINDS`` names the kinds, ``issue_certificate``
maps a kind to its bound function (its row kernel's row 0, made into a
certificate by ``Rows.bound`` or ``Rows.curve``), ``certify_rows`` to its
row kernel, and ``target_world`` builds the shifted meta-distribution the
kind declares.

The coverage trials use common random numbers: trial t seeds its source
world by (seed, t) and its target risks by (seed, t, 1), whatever the kind.
So every kind certifies the same clients, and kinds that declare the same
target world test against the same risks.  A call of
``coverage_experiments`` certifies one rule on one source size: it draws
that source once for every trial, in one sampling pass that keeps only the
query values and each ``wass-mean`` kind's answers on its radius grid
(``_source_risks``: each block of clients answered by ``query.answer_table``,
the function that answers ``certify``'s clients), and each trial's targets
once, in one draw for every target world of one layout (``_TargetDraws``);
each kind then certifies what it kept in one kernel call, and each report
equals its kind's run alone.

Target statistics use exact per-client risks (Gaussian class-conditional
worlds with a binary linear rule admit a closed form), so coverage tests
carry no data-level noise on the target side.  The coverage trials draw
finite target populations of such risks (``sample_true_risks``); the
tightness probe needs only their population mean, a low-dimensional
Gaussian integral that ``mean_true_risk`` evaluates by quadrature, with no
sampling at all.  Those risks are zero-one risks, so the experiments query
their clients with the zero-one loss, ``answer_table``'s default.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .certificates import Rows, write_json
from .fdiv import fdiv_cdf_bound, fdiv_cdf_rows, fdiv_mean_bound, fdiv_mean_rows
from .losses import LINEAR, LOGISTIC, Hypothesis
from .metasim import (
    MetaConfig,
    _categorical,
    _choice_cdf,
    draw_sample_rows,
    shift_meta_fdiv,
    shift_meta_wass,
    tilt_for_divergence,
)
from .nonrobust import cdf_bound, cdf_rows, mean_bound, mean_rows
from .query import HALF_SQ, BudgetExceededError, answer_table
from .wass import DEFAULT_GRID_SIZE, certificate_grid, wass_mean_certificate, wass_mean_rows

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
    "survival_at",
    "request_grid",
    "issue_certificate",
    "certify_rows",
    "target_world",
    "CoverageReport",
    "coverage_experiments",
    "tightness_probe",
]

VIOLATION_GUARD = 1e-9

BOUND_KINDS = ("mean", "cdf", "fdiv-mean", "fdiv-cdf", "wass-mean")
CURVE_KINDS = ("cdf", "fdiv-cdf")
FDIV_KINDS = ("fdiv-mean", "fdiv-cdf")
TIGHTNESS_KINDS = ("mean", "fdiv-mean")

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
    zero-one risks (no data-level sampling).  Binary worlds only.  The
    one-world case of ``_TargetDraws``."""
    return _TargetDraws([cfg], n_clients, h).risks(rng)[0]


def _draw_layout(cfg: MetaConfig) -> tuple:
    """The fields that fix how many uniforms, affine maps and translations
    ``sample_true_risks`` draws, and at what scale: worlds that agree on
    them, whatever their archetype weights, means, proportions, Dirichlet
    concentration and class spread, draw those alike from one stream."""
    return cfg.dim, cfg.shift_mode, cfg.sigma_affine, cfg.sigma_shift, cfg.archetypes is None


class _TargetDraws:
    """Exact zero-one risks of ``n_clients`` fresh clients of each of several
    binary worlds that share one ``_draw_layout``, from one stream.

    A world draws, in order: one uniform per client for its archetype (a
    world built from archetypes), the client's affine map and translation
    (under feature shift), then the Dirichlet label proportions of each
    archetype group (under label shift), the groups in the sorted order of
    their base proportions.  Only the last draws and the archetype picks
    depend on the weights.  So ``risks`` draws the uniforms and the maps
    once for every world; each world picks its archetypes from its own CDF
    over the shared uniforms and draws its proportions from the stream's
    state after the maps, restored for each world.  Each world's risks
    equal those of ``sample_true_risks`` on its own from the same stream.
    The per-world arrays (archetype CDF, means, proportion groups) are made
    once, here."""

    def __init__(self, cfgs: list[MetaConfig], n_clients: int, h: Hypothesis):
        if any(cfg.n_classes != 2 for cfg in cfgs):
            raise ValueError("exact risks implemented for binary worlds")
        if len({_draw_layout(cfg) for cfg in cfgs}) != 1:
            raise ValueError("target worlds drawn together must share one draw layout")
        self.margin = _binary_margin(h)
        self.T = int(n_clients)
        self.layout = cfgs[0]
        self.worlds = [self._world(cfg) for cfg in cfgs]

    def _world(self, cfg: MetaConfig) -> dict:
        if cfg.archetypes is None:
            return {"cfg": cfg, "group_props": np.full((1, 2), 0.5),
                    "means": np.broadcast_to(cfg.class_means, (self.T, 2, cfg.dim)).copy()}
        # archetypes that share their proportions share one Dirichlet group
        group_props, group_of = np.unique(np.stack([a.class_props for a in cfg.archetypes]),
                                          axis=0, return_inverse=True)
        return {"cfg": cfg, "cdf": _choice_cdf(cfg.archetype_weights),
                "means": np.stack([a.class_means for a in cfg.archetypes]),
                "group_props": group_props, "group_of": group_of.ravel()}

    def risks(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Each world's risks, (n_clients,) each, in the given order."""
        cfg, T = self.layout, self.T
        d = cfg.dim
        u, b0 = self.margin
        # rng.choice(p=w) takes rng.random(T) and counts the CDF entries at
        # or below each uniform: _categorical
        uniforms = rng.random(T) if cfg.archetypes is not None else None
        if cfg.shift_mode in ("feature", "both"):
            A = rng.normal(0.0, cfg.sigma_affine, size=(T, d, d))
            b = rng.normal(0.0, cfg.sigma_shift, size=(T, d))
        else:
            A = np.zeros((T, d, d))
            b = np.zeros((T, d))
        ut = u[None, :] + np.einsum("tij,i->tj", A, u)
        score_off = b @ u + b0
        label = cfg.shift_mode in ("label", "both")
        after_maps = rng.bit_generator.state if label and len(self.worlds) > 1 else None
        out = []
        for i, world in enumerate(self.worlds):
            if uniforms is None:
                means, group = world["means"], np.zeros(T, dtype=int)
            else:
                arche = _categorical(world["cdf"], uniforms)
                means, group = world["means"][arche], world["group_of"][arche]
            if label:
                if i:
                    rng.bit_generator.state = after_maps
                props = np.empty((T, 2))
                # dirichlet concentration depends on the (archetype) base
                # proportions
                for g, bp in enumerate(world["group_props"]):
                    mask = group == g
                    if mask.any():
                        props[mask] = rng.dirichlet(world["cfg"].alpha_dir * 2 * bp,
                                                    size=int(mask.sum()))
            else:
                props = world["group_props"][group]
            out.append(_risks_from_parts(ut, means, score_off, props, world["cfg"].cov_scale))
        return out


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


@lru_cache(maxsize=None)
def _legendre_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)``, an eigenproblem, solved once per n; read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_table(n)
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


def survival_at(risks: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The share of ``risks`` at or above each threshold of ``lams``, from
    one sort: each count is exact, so each share is ``np.mean(risks >=
    lam)`` to the last bit."""
    below = np.searchsorted(np.sort(risks), lams, side="left")
    return (len(risks) - below) / len(risks)


def request_grid(req: dict, ns) -> np.ndarray:
    """The radius grid a ``wass-mean`` request's clients of ``ns`` samples
    answer (``wass.certificate_grid``): from its epsilon, its delta (by
    default the coverage trials' 0.1) and its grid_size."""
    return certificate_grid(ns, float(req["epsilon"]), float(req.get("delta", 0.1)),
                            grid_size=int(req.get("grid_size", DEFAULT_GRID_SIZE)))


def issue_certificate(kind: str, req: dict, qv: np.ndarray, ns: np.ndarray,
                      table: tuple | None = None):
    """The certificate of ``kind`` from the clients' empirical answers ``qv``
    on ``ns`` samples each, from its kind's bound function: the one-row case
    of ``certify_rows``, which takes the same arguments.  ``req`` carries
    delta and, per kind, epsilon, f_name, lambda_grid and grid_size.
    ``wass-mean`` reads ``table``: its ``request_grid`` and the clients'
    (values, slopes) on it, (K, G)."""
    delta = float(req["delta"])
    if kind == "mean":
        return mean_bound(qv, ns, delta)
    if kind == "cdf":
        return cdf_bound(qv, ns, delta, lambda_grid(req))
    if kind == "wass-mean":
        if table is None:
            raise ValueError("a wass-mean certificate needs the clients' answers on its grid")
        return wass_mean_certificate(*table, ns, float(req["epsilon"]), delta)
    if kind == "fdiv-mean":
        return fdiv_mean_bound(qv, ns, delta, float(req["epsilon"]), req["f_name"])
    if kind == "fdiv-cdf":
        return fdiv_cdf_bound(qv, ns, delta, float(req["epsilon"]), req["f_name"],
                              lambda_grid(req))
    raise ValueError(f"kind must be one of {BOUND_KINDS}")


def certify_rows(kind: str, req: dict, qv: np.ndarray, ns: np.ndarray,
                 table: tuple | None = None) -> Rows:
    """``issue_certificate`` for a (T, K) matrix of T problems: one kernel
    call returns each row's value and slack terms, or for a curve kind its
    band at the request's thresholds, in their given order.  ``wass-mean``
    reads ``table``: its ``request_grid`` and the (values, slopes) on it,
    (T, K, G)."""
    delta = float(req["delta"])
    if kind == "wass-mean":
        if table is None:
            raise ValueError("wass-mean rows need the clients' answers on the radius grid")
        return wass_mean_rows(*table, ns, float(req["epsilon"]), delta)
    if kind == "mean":
        return mean_rows(qv, ns, delta)
    if kind == "fdiv-mean":
        return fdiv_mean_rows(qv, ns, delta, float(req["epsilon"]), req["f_name"])
    if kind in CURVE_KINDS:
        lams, back = np.unique(lambda_grid(req), return_inverse=True)
        band = (cdf_rows(qv, ns, delta, lams) if kind == "cdf" else
                fdiv_cdf_rows(qv, ns, delta, float(req["epsilon"]), req["f_name"], lams))
        return band._replace(value=band.value[:, back], raw=band.raw[:, back])
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


def _source_risks(cfg: MetaConfig, h: Hypothesis, roots: list[int], K: int, n_k: int,
                  grids=()) -> tuple[np.ndarray, list]:
    """The zero-one risks, (len(roots), K), of the clients of each root's
    ``draw_world(cfg, K, n_k, root)``, and their values and slopes on each
    grid of ``grids``, (2, len(roots), K, G): one ``draw_sample_rows`` pass,
    and one ``answer_table`` call per block on radius 0 and the grids laid
    end to end (each radius is answered on its own), as ``certify`` asks
    its clients; each grid's table views its columns."""
    qv = np.empty(len(roots) * K)
    grid = np.concatenate([np.empty(0), *grids])
    table = np.empty((2, len(roots) * K, len(grid)))
    for rows, X, labels in draw_sample_rows(cfg, roots, K, n_k):
        values, slopes, _ = answer_table(h, X, labels, [0.0, *grid])
        qv[rows], table[:, rows] = values[:, 0], (values[:, 1:], slopes[:, 1:])
    table = table.reshape(2, len(roots), K, len(grid))
    return (qv.reshape(len(roots), K),
            np.split(table, np.cumsum([len(g) for g in grids]), axis=3)[:-1])


def _check_kind_request(params: dict) -> None:
    """ValueError naming a field of ``params`` that the experiment call takes."""
    for key in ("h", "K", "n_k", "target_clients", "max_queries"):
        if key in params:
            raise ValueError(f"request field {key!r} is an argument of the experiment")


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
        write_json(path, self.to_json_dict())


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, dtype=np.uint64)[0])


@dataclass
class _CoveragePlan:
    """What one requested kind's trials need, fixed before the first trial."""

    kind: str
    delta: float
    epsilon: float
    lams: np.ndarray
    req: dict
    target_cfg: MetaConfig
    grid: np.ndarray | None   # the radius grid a wass-mean kind's clients answer

    @classmethod
    def of(cls, cfg: MetaConfig, h: Hypothesis, K: int, n_k: int, kind: str,
           params: dict) -> "_CoveragePlan":
        if kind not in BOUND_KINDS:
            raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")
        _check_kind_request(params)
        delta = float(params.get("delta", 0.1))
        epsilon = float(params.get("epsilon", 0.0))
        lams = lambda_grid(params)
        req = {**params, "delta": delta, "epsilon": epsilon, "lambda_grid": lams}
        return cls(
            kind=kind, delta=delta, epsilon=epsilon, lams=lams, req=req,
            target_cfg=target_world(cfg, kind, epsilon, h, params.get("f_name")),
            grid=request_grid(req, np.full(K, n_k)) if kind == "wass-mean" else None,
        )

    def target_statistic(self, risks: np.ndarray):
        """What the check reads of one trial's exact target risks: their
        mean, or their survival at each threshold."""
        if self.kind not in CURVE_KINDS:
            return float(np.mean(risks))
        return survival_at(risks, self.lams)

    def report(self, cfg: MetaConfig, K: int, n_k: int, violated: np.ndarray) -> CoverageReport:
        """The report of ``violated``: per trial, or per trial and threshold
        for a curve kind."""
        trials = len(violated)
        violations = int(np.count_nonzero(violated.reshape(trials, -1).any(axis=1)))
        rate = violations / trials
        threshold = self.delta + 3.0 * float(np.sqrt(self.delta * (1 - self.delta) / trials))
        # a run where every trial violates is a failure even when the
        # small-trials threshold saturates at 1
        passed = rate <= threshold and violations < trials
        per_lambda = None
        if self.kind in CURVE_KINDS:
            per_lambda = {
                "lambdas": self.lams.tolist(),
                "violation_rates": (np.sum(violated, axis=0) / trials).tolist(),
            }
        return CoverageReport(
            bound_kind=self.kind,
            trials=trials,
            violations=violations,
            violation_rate=rate,
            delta=self.delta,
            threshold=threshold,
            passed=passed,
            config_digest=cfg.digest(),
            per_lambda=per_lambda,
            notes={"K": K, "n_k": n_k, "epsilon": self.epsilon},
        )


def coverage_experiments(cfg: MetaConfig, h: Hypothesis, K: int, n_k: int,
                         requests: list[tuple[str, dict]], trials: int, seed: int = 0, *,
                         target_clients: int = 2000,
                         max_queries: int | None = None) -> list[CoverageReport]:
    """Repeatedly certify ``h`` on fresh source worlds of K clients of n_k
    samples, and test each certificate against the exact statistics of
    ``target_clients`` clients of its declared shifted target; one report
    per ``(bound_kind, params)`` request, in order, and no draw at all for
    no request.  K, n_k and target_clients are taken as ints.

    ``bound_kind`` is one of ``BOUND_KINDS``, and its report carries it.
    ``params`` holds one kind's delta, epsilon, f_name, lambda_grid and
    grid_size; one that holds h, K, n_k, target_clients or max_queries
    raises ValueError.  The clients answer zero-one queries under the
    half-squared cost.  A trial certifies every kind on one client set, so
    one zero-radius query plus every ``wass-mean`` radius grid, laid end to
    end, must fit ``max_queries`` (None: no cap), as certify charges them in
    its one table, or client 0 raises BudgetExceededError before the first
    trial.
    A violation is recorded when the target statistic exceeds the certificate
    by more than a 1e-9 float guard; a report passes when its violation rate
    stays within delta plus three binomial standard errors.

    Trial t seeds its source world by (seed, t) alone and its target risks by
    SeedSequence([seed, t, 1]), whatever the kind, so every report equals
    that of the kind run on its own.  One ``_source_risks`` pass over every
    trial's root keeps only the query values and each ``wass-mean`` kind's
    answers on its radius grid.  Per trial, the target worlds that share a
    ``_draw_layout`` are drawn by one ``_TargetDraws``, kinds that declare
    one target world (by its ``digest``) share its risks, and each kind
    keeps only the target statistic it checks.  Every kind then certifies
    its trials in one ``certify_rows`` call.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    K, n_k, target_clients = int(K), int(n_k), int(target_clients)
    plans = [_CoveragePlan.of(cfg, h, K, n_k, bound_kind, params)
             for bound_kind, params in requests]
    if not plans:
        return []
    grids = [plan.grid for plan in plans if plan.grid is not None]
    if max_queries is not None and 1 + sum(len(grid) for grid in grids) > max_queries:
        raise BudgetExceededError(0, max_queries)
    qv, tables = _source_risks(cfg, h, [_trial_seed(seed, t) for t in range(trials)],
                               K, n_k, grids)
    # the plans that declare one target world share its risks, and the
    # target worlds that draw alike share one draw per trial
    digests = [plan.target_cfg.digest() for plan in plans]
    layouts = {}
    for digest, plan in zip(digests, plans):
        layouts.setdefault(_draw_layout(plan.target_cfg), {})[digest] = plan.target_cfg
    draws = [(list(worlds), _TargetDraws(list(worlds.values()), target_clients, h))
             for worlds in layouts.values()]
    stats = [np.empty((trials, len(plan.lams)) if plan.kind in CURVE_KINDS else trials)
             for plan in plans]
    for t in range(trials):
        risks = {}
        for keys, draw in draws:
            rng_t = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, t, 1])))
            risks.update(zip(keys, draw.risks(rng_t)))
        for plan, digest, stat in zip(plans, digests, stats):
            stat[t] = plan.target_statistic(risks[digest])
    tables = iter(tables)
    ns = np.full((trials, K), n_k)
    reports = []
    for plan, stat in zip(plans, stats):
        table = (plan.grid, *next(tables)) if plan.grid is not None else None
        value = certify_rows(plan.kind, plan.req, qv, ns, table).value
        reports.append(plan.report(cfg, K, n_k, stat > value + VIOLATION_GUARD))
    return reports


def tightness_probe(cfg: MetaConfig, h: Hypothesis, bound_kind: str, K_schedule: list[int],
                    n_schedule: list[int], trials: int, seed: int,
                    params: dict) -> list[dict]:
    """Median gap of ``h``'s certificate minus the achievable statistic
    along a (K, n_k) schedule.  ``params`` holds the kind's delta, epsilon
    and f_name; a field of the call (h, K, n_k, ...) raises ValueError.

    The achievable statistic is the exact target mean under the declared
    shift (no shift for the plain mean bound), computed once by
    ``mean_true_risk``'s quadrature, so the same ground truth serves every
    schedule point.  Rows carry it as ``truth``, the difference of its last
    two quadrature levels as ``truth_error``, and the median slack
    components, so the vanishing pieces can be read off separately.  Each
    schedule point draws its (trials, K) query matrix in one
    ``_source_risks`` pass, trial t under the root (seed, 1e6 K + t), and
    certifies it in one ``certify_rows`` call.
    """
    if bound_kind not in TIGHTNESS_KINDS:
        raise ValueError("tightness probe supports the mean-style bounds")
    if len(K_schedule) == 0 or len(K_schedule) != len(n_schedule):
        raise ValueError("schedules must be nonempty and aligned")
    if list(K_schedule) != sorted(K_schedule) or list(n_schedule) != sorted(n_schedule):
        raise ValueError("schedules must be nondecreasing")
    _check_kind_request(params)
    req = {"delta": float(params.get("delta", 0.1)),
           "epsilon": float(params.get("epsilon", 0.0)), "f_name": params.get("f_name")}
    target_cfg = target_world(cfg, bound_kind, req["epsilon"], h, req["f_name"])
    truth, truth_error = mean_true_risk(target_cfg, h)

    rows = []
    for K, n_k in zip(K_schedule, n_schedule):
        qv, _ = _source_risks(cfg, h, [_trial_seed(seed, 1_000_000 * K + t)
                                       for t in range(trials)], K, n_k)
        certified = certify_rows(bound_kind, req, qv, np.full((trials, K), n_k))
        gaps = certified.value - truth
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
        for key, vals in certified.slack.items():
            row[f"slack_{key}"] = float(np.median(vals))
        rows.append(row)
    return rows
