"""The verification layer itself: grid and LP oracles on instances small
enough to reason about by hand, closed-form risks against Monte Carlo, and
the coverage / tightness harnesses on toy worlds."""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fedcert.metasim
import fedcert.oracle
import fedcert.query
from scipy.special import ndtr

from fedcert import (
    ZERO_ONE,
    Archetype,
    Hypothesis,
    LossFn,
    MetaConfig,
    adversarial_directions,
    coverage_experiments,
    exact_zero_one_risk,
    fdiv_mean_bound,
    grid_ball_oracle,
    sample_true_risks,
    tightness_probe,
    wass_alloc_grid_oracle,
    wass_ball_lp_oracle,
)
from fedcert.certificates import Rows
from fedcert.losses import LINEAR, LOGISTIC, loss_values
from fedcert.metasim import _BLOCK_BYTES
from fedcert.oracle import (
    CURVE_KINDS,
    VIOLATION_GUARD,
    CoverageReport,
    _binary_margin,
    _CoveragePlan,
    _risks_from_parts,
    _source_risks,
    _TargetDraws,
    _trial_seed,
    certify_rows,
    issue_certificate,
    lambda_grid,
    mean_true_risk,
    request_grid,
    target_world,
)
from fedcert.metasim import draw_world
from fedcert.query import (
    BudgetExceededError,
    Client,
    empirical_risk,
    empirical_risk_values,
    query_profiles,
)
from fedcert.wass import certificate_grid, wass_mean_bound

from _corpus import concave_curve, tangents

BASE_MEANS = np.array([[-1.0, 0.0], [1.0, 0.0]])
H = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.0]), bias=0.0)
ZERO_ONE_LOSS = LossFn(ZERO_ONE)


def _draw_source(cfg, h, K, n_k, root):
    """K fresh clients of n_k samples from the source world, seeded by
    ``root``: the drawn world, its empirical zero-one risks and sample
    counts, drawn on its own as the reference the sampling pass must equal."""
    world = draw_world(cfg, K, n_k, seed=root)
    qv = empirical_risk_values(h, world.features, world.labels, ZERO_ONE_LOSS)
    return world, qv, np.full(K, n_k)


def _wass_trial(source, h, req):
    """The ``wass-mean`` certificate of one trial's drawn source, as certify
    issues it: the world's clients each answer one table, radius 0 and then
    the request's radius grid, and the certificate reads the grid's
    columns."""
    world, qv, ns = source
    clients = [Client(ds.client_id, ds, ZERO_ONE_LOSS, max_queries=req.get("max_queries"))
               for ds in world.datasets()]
    grid = request_grid(req, ns)
    values, slopes = query_profiles(clients, h, np.r_[0.0, grid])
    assert values[:, 0].tolist() == qv.tolist()
    return issue_certificate("wass-mean", req, qv, ns, (grid, values[:, 1:], slopes[:, 1:]))


def plain_cfg(**kw):
    args = dict(dim=2, n_classes=2, class_means=BASE_MEANS, seed=9)
    args.update(kw)
    return MetaConfig(**args)


def archetype_cfg(seed=9):
    arche = [
        Archetype(class_means=BASE_MEANS, class_props=np.array([0.5, 0.5]),
                  score=0.0),
        Archetype(class_means=BASE_MEANS * 0.4, class_props=np.array([0.4, 0.6]),
                  score=1.0),
    ]
    return MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS, seed=seed,
                      shift_mode="both", archetypes=arche,
                      archetype_weights=np.array([0.6, 0.4]))


# -------------------------------------------------------------- grid oracle

def test_grid_oracle_no_freedom_is_plain_mean():
    # at epsilon 0 a strictly convex generator pins every ratio at 1
    for name in ("kl", "chi-square"):
        for q in ([0.4], [0.1, 0.9], [0.2, 0.5, 0.8]):
            q = np.array(q)
            got = grid_ball_oracle(q, name, 0.0, step=1e-2)
            assert abs(got - float(np.mean(q))) < 1e-12


def test_grid_oracle_refines_upward():
    # grids nest when the step halves, so the value can only improve, and it
    # never exceeds the ball's supremum that the dual certificate bounds
    q = np.array([0.9, 0.3])
    exact = fdiv_mean_bound(q, np.ones(2, int), 0.1, 0.3,
                            "chi-square").extra["program_value"]
    coarse = grid_ball_oracle(q, "chi-square", 0.3, step=4e-3)
    fine = grid_ball_oracle(q, "chi-square", 0.3, step=2e-3)
    assert coarse <= fine + 1e-12
    assert fine <= exact + 1e-12
    assert exact - coarse <= 2 * 4e-3


def test_grid_oracle_matches_two_client_closed_form():
    # the ratios (1 + a, 1 - a) have chi-square a^2 <= 1/2, so a = sqrt(1/2)
    # and the worst mean is 0.5 + 0.3 a
    closed = 0.5 + 0.3 * np.sqrt(0.5)
    got = grid_ball_oracle(np.array([0.8, 0.2]), "chi-square", 0.5, step=1e-3)
    assert got <= closed + 1e-9
    assert abs(got - closed) <= 2e-3


def test_grid_oracle_validation():
    with pytest.raises(ValueError):
        grid_ball_oracle(np.ones(4), "kl", 0.1, step=1e-2)
    with pytest.raises(ValueError):
        grid_ball_oracle(np.ones(2), "kl", 0.1, step=0.0)
    with pytest.raises(ValueError):
        grid_ball_oracle(np.array([0.5, -0.1, 0.2]), "kl", 0.1, step=1e-2)


def _three_client_slice_loop(q, name, epsilon, step):
    """The K = 3 grid search slice by slice over the first coordinate, every
    (a2, a3) pair tested: the reference the oracle's pinned search must match."""
    f = {"kl": lambda t: np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0),
         "chi-square": lambda t: (t - 1.0) ** 2}[name]
    grid = np.unique(np.concatenate([np.minimum(np.arange(0.0, 3.0 + step / 2, step), 3.0),
                                     [1.0, 3.0]]))
    fg = f(grid)
    S2 = grid[:, None] + grid[None, :]
    F2 = fg[:, None] + fg[None, :]
    Q2 = q[1] * grid[:, None] + q[2] * grid[None, :]
    best = -np.inf
    for a1, f1 in zip(grid, fg):
        ok = ((np.abs((a1 + S2) / 3.0 - 1.0) <= 1e-12)
              & ((f1 + F2) / 3.0 <= epsilon + 1e-12))
        if np.any(ok):
            best = max(best, (np.max(Q2[ok]) + q[0] * a1) / 3.0)
    return float(best)


def test_grid_oracle_three_clients_matches_the_slice_loop():
    # bit for bit, with ties and zeros in q and a zero budget
    rng = np.random.default_rng(np.random.SeedSequence(8181))
    for t in range(24):
        name = "kl" if t % 2 else "chi-square"
        q = rng.uniform(0.0, 1.0, 3)
        if t % 3 == 0:
            q[int(rng.integers(3))] = 0.0
        if t % 4 == 1:
            q[1] = q[2]
        epsilon = 0.0 if t % 7 == 0 else float(rng.uniform(0.0, 0.5))
        got = grid_ball_oracle(q, name, epsilon, step=1e-2)
        want = _three_client_slice_loop(q, name, epsilon, 1e-2)
        assert got == want, (t, name)


# ---------------------------------------------------------------- LP oracle

def test_lp_oracle_zero_radius_is_source_mean():
    p = np.array([0.2, 0.5, 0.3])
    ell = np.array([0.1, 0.9, 0.4])
    C = 1.0 - np.eye(3)
    got = wass_ball_lp_oracle(p, ell, 0.0, C)
    assert abs(got - float(p @ ell)) < 1e-9


def test_lp_oracle_big_radius_moves_everything_to_the_max():
    p = np.array([0.25, 0.25, 0.5])
    ell = np.array([0.3, 0.8, 0.1])
    C = 1.0 - np.eye(3)
    got = wass_ball_lp_oracle(p, ell, 10.0, C)
    assert abs(got - 0.8) < 1e-9


def test_lp_oracle_monotone_in_radius():
    rng = np.random.default_rng(np.random.SeedSequence(901))
    p = rng.dirichlet(np.ones(5))
    ell = rng.uniform(0, 1, 5)
    C = rng.uniform(0.1, 1.0, (5, 5))
    np.fill_diagonal(C, 0.0)
    vals = [wass_ball_lp_oracle(p, ell, r, C) for r in (0.0, 0.05, 0.2, 1.0)]
    assert np.all(np.diff(vals) >= -1e-9)


def test_lp_oracle_validation():
    C = np.zeros((2, 2))
    with pytest.raises(ValueError):
        wass_ball_lp_oracle([0.5, 0.5], [0.1], 0.1, C)
    with pytest.raises(ValueError):
        wass_ball_lp_oracle([0.7, 0.7], [0.1, 0.2], 0.1, C)
    big = np.zeros((25, 25))
    with pytest.raises(ValueError):
        wass_ball_lp_oracle(np.full(25, 1 / 25), np.zeros(25), 0.1, big)


def test_alloc_oracle_needs_two_clients():
    grid = np.array([0.1, 0.2])
    rng = np.random.default_rng(np.random.SeedSequence(819))
    values, slopes = tangents([concave_curve(rng, 0.1, 0.2) for _ in range(3)], grid)
    assert np.isfinite(wass_alloc_grid_oracle(grid, values[:2], slopes[:2], 0.1, 0.2, 1e-3))
    for k in (1, 3):
        with pytest.raises(ValueError):
            wass_alloc_grid_oracle(grid, values[:k], slopes[:k], 0.1, 0.2, 1e-3)


# -------------------------------------------------------------- exact risks

def test_exact_risk_symmetric_gaussians():
    # unit means at +-1 along the decision axis, unit noise: both classes err
    # with probability Phi(-1)
    risk = exact_zero_one_risk(
        np.zeros((2, 2)), np.zeros(2), [0.5, 0.5], BASE_MEANS, 1.0, H
    )
    assert abs(risk - ndtr(-1.0)) < 1e-12


def test_ndtr_matches_scipy_ndtr():
    # scipy.special.ndtr is the reference: the port evaluates the same
    # Cephes forms with numpy's exp, which differs from the C library's in
    # the last bit now and then
    rng = np.random.default_rng(np.random.SeedSequence(905))
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 1_000_001),
        rng.uniform(-40.0, 40.0, 100_000),
        np.linspace(-38.0, -37.0, 10_001),   # the underflow tail: subnormal, then 0
        edges, -edges,
        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
    ])
    got, want = fedcert.oracle.ndtr(x), ndtr(x)
    assert got.shape == x.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(got == 1.0, want == 1.0)
    assert (want == 0.0).any() and (want == 1.0).any()
    normal = np.abs(want) >= np.finfo(float).tiny
    assert np.all(np.abs(got - want)[normal] <= 1e-15 * want[normal])
    # below the smallest normal number an ulp is 5e-324, not a ratio
    subnormal = (want > 0.0) & ~normal
    assert subnormal.any()
    assert np.all(np.abs(got - want)[subnormal] <= 4 * 5e-324)
    # any shape, one call
    assert np.array_equal(fedcert.oracle.ndtr(x[:10].reshape(5, 2)), got[:10].reshape(5, 2))
    assert fedcert.oracle.ndtr(-1.0) == got[np.flatnonzero(x == -1.0)[0]]


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 9.5), (0.0, 1e-3), (2.0, 2.5)])
def test_tanh_sinh_nodes_lie_strictly_inside_their_interval(n, lo, hi):
    R, w = fedcert.oracle._tanh_sinh(n, lo, hi)
    assert len(R) == len(w)
    assert np.all((R > lo) & (R < hi))
    assert np.all(np.diff(R) >= 0) and np.all(w > 0)
    # the rule integrates 1 over the interval (to 4e-8 at n = 8)
    assert abs(w.sum() - (hi - lo)) <= 1e-7 * (hi - lo)


def test_exact_risk_matches_monte_carlo():
    rng = np.random.default_rng(np.random.SeedSequence(902))
    A = rng.normal(0, 0.1, (2, 2))
    b = rng.normal(0, 0.2, 2)
    props = np.array([0.35, 0.65])
    h = Hypothesis(kind=LOGISTIC, weights=np.array([0.8, -0.4]), bias=0.05)
    risk = exact_zero_one_risk(A, b, props, BASE_MEANS, 0.9, h)

    N = 200_000
    labels = (rng.uniform(size=N) < props[1]).astype(int)
    x = BASE_MEANS[labels] + 0.9 * rng.normal(size=(N, 2))
    z = x @ (np.eye(2) + A).T + b
    scores = z @ h.weights + h.bias
    pred = (scores >= 0).astype(int)
    mc = float(np.mean(pred != labels))
    assert abs(risk - mc) < 4 * np.sqrt(0.25 / N) + 1e-3


def test_exact_risk_linear_head_equals_margin_form():
    w = np.array([[0.2, 0.1], [-0.3, 0.4]])
    bias = np.array([0.0, 0.1])
    lin = Hypothesis(kind=LINEAR, weights=w, bias=bias)
    log = Hypothesis(kind=LOGISTIC, weights=w[1] - w[0],
                     bias=float(bias[1] - bias[0]))
    a = exact_zero_one_risk(np.zeros((2, 2)), np.zeros(2), [0.5, 0.5],
                            BASE_MEANS, 1.0, lin)
    b = exact_zero_one_risk(np.zeros((2, 2)), np.zeros(2), [0.5, 0.5],
                            BASE_MEANS, 1.0, log)
    assert abs(a - b) < 1e-12


def test_sample_true_risks_deterministic_and_consistent():
    cfg = plain_cfg(shift_mode="none")
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    r1 = sample_true_risks(cfg, 50, H, rng1)
    r2 = sample_true_risks(cfg, 50, H, rng2)
    assert np.array_equal(r1, r2)
    # no shift: every client is the base world
    want = exact_zero_one_risk(np.zeros((2, 2)), np.zeros(2), [0.5, 0.5],
                               BASE_MEANS, 1.0, H)
    assert np.allclose(r1, want, atol=1e-12)


def test_sample_true_risks_archetype_world():
    cfg = archetype_cfg()
    risks = sample_true_risks(cfg, 400, H, np.random.default_rng(6))
    assert risks.shape == (400,)
    assert np.all((risks >= 0) & (risks <= 1))
    assert np.std(risks) > 0


def _true_risks_grouped_over_all_rows(cfg, T, h, rng):
    """The truth draw as it grouped clients by ``np.unique`` over all T rows
    of base proportions: the reference for the per-archetype grouping."""
    u, b0 = _binary_margin(h)
    d = cfg.dim
    if cfg.archetypes is not None:
        arche = rng.choice(len(cfg.archetypes), size=T, p=cfg.archetype_weights)
        means = np.stack([a.class_means for a in cfg.archetypes])[arche]
        base_props = np.stack([a.class_props for a in cfg.archetypes])[arche]
    else:
        means = np.broadcast_to(cfg.class_means, (T, 2, d)).copy()
        base_props = np.full((T, 2), 0.5)
    if cfg.shift_mode in ("feature", "both"):
        A = rng.normal(0.0, cfg.sigma_affine, size=(T, d, d))
        b = rng.normal(0.0, cfg.sigma_shift, size=(T, d))
    else:
        A = np.zeros((T, d, d))
        b = np.zeros((T, d))
    if cfg.shift_mode in ("label", "both"):
        props = np.empty((T, 2))
        for bp in np.unique(base_props, axis=0):
            mask = np.all(base_props == bp, axis=1)
            props[mask] = rng.dirichlet(cfg.alpha_dir * 2 * bp, size=int(mask.sum()))
    else:
        props = base_props
    ut = u[None, :] + np.einsum("tij,i->tj", A, u)
    return _risks_from_parts(ut, means, b @ u + b0, props, cfg.cov_scale)


def test_sample_true_risks_groups_by_archetype_as_by_rows():
    # three archetypes, two of them sharing proportions, listed out of their
    # sorted order; the rare one is missed by the small draws
    shared = [Archetype(class_means=BASE_MEANS * f, class_props=np.array(p))
              for f, p in ((1.0, [0.7, 0.3]), (0.5, [0.4, 0.6]), (0.8, [0.7, 0.3]))]
    worlds = [archetype_cfg()]
    worlds += [MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS, shift_mode=mode,
                          archetypes=shared, archetype_weights=np.array([0.6, 0.05, 0.35]))
               for mode in ("both", "label", "feature")]
    worlds += [plain_cfg(shift_mode="label"), plain_cfg(shift_mode="both")]
    for cfg in worlds:
        for T in (1, 3, 2000):
            rng, ref = np.random.default_rng(T), np.random.default_rng(T)
            got = sample_true_risks(cfg, T, H, rng)
            want = _true_risks_grouped_over_all_rows(cfg, T, H, ref)
            assert np.array_equal(got, want), (cfg.shift_mode, T)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_true_risks_binary_only():
    means3 = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    cfg = MetaConfig(dim=2, n_classes=3, class_means=means3, seed=1)
    with pytest.raises(ValueError):
        sample_true_risks(cfg, 10, H, np.random.default_rng(0))


# ------------------------------------------------------ mean true risk

MEANS_3D = np.array([[-1.0, 0.2, 0.3], [1.0, -0.1, 0.5]])
H1 = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.3)
H2_TILTED = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.3]), bias=0.0)
H3 = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.3, -0.2]), bias=0.2)


def _archetype_world_3d(**kw):
    arche = [Archetype(class_means=MEANS_3D, class_props=np.array([0.5, 0.5]), score=0.0),
             Archetype(class_means=MEANS_3D * 0.5, class_props=np.array([0.3, 0.7]),
                       score=1.0)]
    return MetaConfig(dim=3, n_classes=2, class_means=MEANS_3D, archetypes=arche,
                      archetype_weights=np.array([0.6, 0.4]), **kw)


def _kl_tilted_target():
    cfg = archetype_cfg()
    return fedcert.oracle.target_world(cfg, "fdiv-mean", 0.05, H, "kl")


# every shift mode; d = 1, 2 and 3; with and without archetypes; sigma_affine
# 0.05 and 0.5 (where ut can reach 0); sigma_shift 0 and 0.1; the KL tilt
TRUTH_WORLDS = {
    "none-2d-archetypes": (lambda: replace(archetype_cfg(), shift_mode="none"), H),
    "label-2d-archetypes": (lambda: replace(archetype_cfg(), shift_mode="label"), H),
    "label-1d": (lambda: MetaConfig(dim=1, n_classes=2, class_means=[[-1.0], [1.0]],
                                    shift_mode="label"), H1),
    "feature-1d-jump": (lambda: MetaConfig(dim=1, n_classes=2, class_means=[[-1.0], [1.0]],
                                           shift_mode="feature", sigma_affine=0.5,
                                           sigma_shift=0.0), H1),
    "feature-2d-jump-at-zero": (lambda: plain_cfg(shift_mode="feature", sigma_affine=0.5,
                                                  sigma_shift=0.0), H2_TILTED),
    "both-2d-archetypes": (archetype_cfg, H2_TILTED),
    "both-2d-kl-tilted": (_kl_tilted_target, H),
    "both-3d-wide": (lambda: MetaConfig(dim=3, n_classes=2, class_means=MEANS_3D,
                                        shift_mode="both", sigma_affine=0.5,
                                        sigma_shift=0.1), H3),
    "both-3d-archetypes-no-translation": (lambda: _archetype_world_3d(
        shift_mode="both", sigma_affine=0.05, sigma_shift=0.0), H3),
    "feature-3d-archetypes-wide": (lambda: _archetype_world_3d(
        shift_mode="feature", sigma_affine=0.5, sigma_shift=0.0), H3),
}


@pytest.mark.parametrize("name", TRUTH_WORLDS)
def test_mean_true_risk_matches_a_million_client_draw(name):
    make, h = TRUTH_WORLDS[name]
    cfg = make()
    value, error = fedcert.oracle.mean_true_risk(cfg, h)
    assert 0.0 <= error <= fedcert.oracle.TRUTH_TOL
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([14, 1])))
    # four draws of 250,000, to keep the arrays small
    risks = np.concatenate([sample_true_risks(cfg, 250_000, h, rng) for _ in range(4)])
    se = np.std(risks) / np.sqrt(len(risks))
    assert se > 0
    assert abs(np.mean(risks) - value) <= 4.0 * se, (np.mean(risks), value, se)


# each rule the quadrature picks: Gauss-Legendre radii (2-D, 3-D) and
# tanh-sinh radii (1-D, 2-D with the jump at ut = 0, 3-D)
@pytest.mark.parametrize("name", ["both-2d-kl-tilted", "both-3d-archetypes-no-translation",
                                  "feature-1d-jump", "feature-2d-jump-at-zero", "both-3d-wide"])
def test_mean_true_risk_is_stable_when_the_nodes_double(name):
    make, h = TRUTH_WORLDS[name]
    cfg = make()
    value, _ = fedcert.oracle.mean_true_risk(cfg, h)
    at = fedcert.oracle._mean_risk_at
    n = 2 * fedcert.oracle._FIRST_NODES
    while abs(at(cfg, h, n) - at(cfg, h, n // 2)) > fedcert.oracle.TRUTH_TOL:
        n *= 2
    assert at(cfg, h, n) == value
    assert abs(at(cfg, h, 2 * n) - value) <= 1e-9


@pytest.mark.parametrize("mode", ["none", "label"])
def test_mean_true_risk_without_feature_shift_is_the_closed_form(mode):
    for cfg in (replace(archetype_cfg(), shift_mode=mode), plain_cfg(shift_mode=mode)):
        arche = cfg.archetypes or [Archetype(class_means=cfg.class_means)]
        want = sum(w * exact_zero_one_risk(np.zeros((2, 2)), np.zeros(2), a.class_props,
                                           a.class_means, cfg.cov_scale, H2_TILTED)
                   for w, a in zip(cfg.archetype_weights if cfg.archetypes else [1.0], arche))
        value, error = fedcert.oracle.mean_true_risk(cfg, H2_TILTED)
        assert error == 0.0
        assert abs(value - want) <= 1e-12


@pytest.mark.parametrize("bias, pick", [(0.3, 0), (-0.3, 1), (0.0, None)])
def test_mean_true_risk_of_a_zero_margin_rule(bias, pick):
    # a constant rule errs on all of class 0 (b0 > 0), all of class 1 (b0 < 0)
    # or, by sample_true_risks' s -> 1e-300 convention, half of each (b0 = 0)
    h = Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=bias)
    for mode in ("none", "both"):
        cfg = replace(archetype_cfg(), shift_mode=mode)
        props = np.stack([a.class_props for a in cfg.archetypes])
        per_archetype = props[:, pick] if pick is not None else np.full(2, 0.5)
        value, _ = fedcert.oracle.mean_true_risk(cfg, h)
        assert abs(value - cfg.archetype_weights @ per_archetype) <= 1e-15
        drawn = sample_true_risks(cfg, 200, h, np.random.default_rng(3))
        if mode == "none":
            # each client's risk is its archetype's
            assert np.all(np.min(np.abs(drawn[:, None] - per_archetype), axis=1) <= 1e-15)


def test_mean_true_risk_refuses_to_stop_short(monkeypatch):
    make, h = TRUTH_WORLDS["feature-2d-jump-at-zero"]
    monkeypatch.setattr(fedcert.oracle, "_MAX_NODES", 16)
    with pytest.raises(RuntimeError, match="quadrature"):
        fedcert.oracle.mean_true_risk(make(), h)


def test_mean_true_risk_binary_only():
    means3 = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        fedcert.oracle.mean_true_risk(MetaConfig(dim=2, n_classes=3, class_means=means3), H)


def test_adversarial_directions_shapes_and_signs():
    cfg = archetype_cfg()
    h = Hypothesis(kind=LOGISTIC, weights=np.array([3.0, 4.0]), bias=0.0)
    dirs = adversarial_directions(cfg, h)
    assert dirs.shape == (2, 2, 2)
    uhat = np.array([0.6, 0.8])
    assert np.allclose(dirs[:, 0, :], uhat)
    assert np.allclose(dirs[:, 1, :], -uhat)
    zero = Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=0.0)
    with pytest.raises(ValueError):
        adversarial_directions(cfg, zero)


# ----------------------------------------------------------------- coverage

def test_coverage_validation():
    cfg = plain_cfg(shift_mode="both")
    with pytest.raises(ValueError):
        coverage_experiments(cfg, H, 5, 10, [("median", {})], trials=2)
    with pytest.raises(ValueError):
        coverage_experiments(cfg, H, 5, 10, [("mean", {})], trials=0)
    with pytest.raises(ValueError):
        coverage_experiments(cfg, H, 5, 10, [("fdiv-mean", {"epsilon": 0.05, "f_name": "kl"})],
                             trials=2)


@pytest.mark.parametrize("key, value", [("h", H), ("K", 6), ("n_k", 20),
                                        ("target_clients", 300), ("max_queries", 7)])
def test_a_request_holding_a_field_of_the_call_is_refused(monkeypatch, key, value):
    # the rule and the source size are the call's: a request that still
    # carries one would run at the call's values without notice
    cfg = archetype_cfg()
    passes = _counting(monkeypatch, "_source_risks")
    for kind, extra in _ALL_KINDS:
        with pytest.raises(ValueError, match=repr(key)):
            coverage_experiments(cfg, H, 5, 10, [("mean", {}), (kind, {**extra, key: value})],
                                 trials=2)
    with pytest.raises(ValueError, match=repr(key)):
        tightness_probe(cfg, H, "mean", [5], [10], 1, 0, {"delta": 0.1, key: value})
    assert not passes


def test_coverage_mean_smoke_and_determinism():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    run = (cfg, H, 10, 25, [("mean", {"delta": 0.1})])
    rep1 = coverage_experiments(*run, trials=3, seed=4, target_clients=300)[0]
    rep2 = coverage_experiments(*run, trials=3, seed=4, target_clients=300)[0]
    assert rep1.to_json_dict() == rep2.to_json_dict()
    assert rep1.trials == 3
    want_thr = 0.1 + 3 * np.sqrt(0.1 * 0.9 / 3)
    assert abs(rep1.threshold - want_thr) < 1e-12
    assert rep1.config_digest == cfg.digest()
    assert rep1.notes["K"] == 10 and rep1.notes["n_k"] == 25


def test_coverage_without_requests_draws_nothing(monkeypatch):
    passes = _counting(monkeypatch, "_source_risks")
    assert coverage_experiments(archetype_cfg(), H, 5, 10, [], trials=3) == []
    assert not passes


def test_coverage_takes_numpy_sizes_as_ints(tmp_path):
    # a K or n_k read off a numpy schedule runs as the int it holds, and
    # its report still writes as JSON
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    run = dict(trials=2, seed=4, target_clients=300)
    want, = coverage_experiments(cfg, H, 10, 25, [("mean", {"delta": 0.1})], **run)
    got, = coverage_experiments(cfg, H, np.int64(10), 25.0, [("mean", {"delta": 0.1})],
                                **{**run, "target_clients": np.int64(300)})
    assert got.to_json_dict() == want.to_json_dict()
    got.write_json(tmp_path / "rep.json")
    assert json.loads((tmp_path / "rep.json").read_text())["notes"]["K"] == 10


def test_coverage_single_trial_passes_only_without_violation():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    rep = coverage_experiments(cfg, H, 8, 20, [("mean", {"delta": 0.1})], trials=1, seed=11,
                               target_clients=200)[0]
    # the binomial threshold saturates past 1 here, so the all-violate guard
    # is the only thing that can fail the report
    assert rep.threshold >= 1.0
    assert rep.passed == (rep.violations == 0)


def test_coverage_cdf_reports_per_lambda(tmp_path):
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    grid = np.linspace(0, 1, 11)
    params = {"delta": 0.1, "lambda_grid": grid}
    rep = coverage_experiments(cfg, H, 10, 25, [("cdf", params)], trials=2, seed=3,
                               target_clients=300)[0]
    assert rep.per_lambda is not None
    assert len(rep.per_lambda["violation_rates"]) == 11
    out = tmp_path / "rep.json"
    rep.write_json(out)
    assert '"per_lambda"' in out.read_text()


def test_coverage_fdiv_and_wass_smoke():
    cfg = archetype_cfg()
    params = {"delta": 0.1, "epsilon": 0.05, "f_name": "kl"}
    rep = coverage_experiments(cfg, H, 12, 30, [("fdiv-mean", params)], trials=2, seed=7,
                               target_clients=300)[0]
    assert rep.bound_kind == "fdiv-mean"
    assert 0.0 <= rep.violation_rate <= 1.0
    wparams = {"delta": 0.1, "epsilon": 0.02, "grid_size": 8}
    wrep = coverage_experiments(cfg, H, 6, 30, [("wass-mean", wparams)], trials=2, seed=8,
                                target_clients=300)[0]
    assert wrep.bound_kind == "wass-mean"


_ALL_KINDS = [
    ("mean", {}),
    ("cdf", {"lambda_grid": np.linspace(0.0, 1.0, 11)}),
    ("fdiv-mean", {"epsilon": 0.05, "f_name": "kl"}),
    ("fdiv-cdf", {"epsilon": 0.05, "f_name": "chi-square",
                  "lambda_grid": np.linspace(0.0, 1.0, 6)}),
    ("wass-mean", {"epsilon": 0.02, "grid_size": 6}),
]


def _counting(monkeypatch, name, owner=fedcert.oracle):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_coverage_experiments_equal_each_kind_run_alone(monkeypatch):
    cfg = archetype_cfg()
    requests = [(kind, {"delta": 0.1, **extra}) for kind, extra in _ALL_KINDS]
    # one zero-radius query and the 6 radii fill the budget exactly
    run = dict(trials=3, seed=5, target_clients=300, max_queries=7)
    alone = [coverage_experiments(cfg, H, 8, 25, [request], **run)[0].to_json_dict()
             for request in requests]
    worlds = _counting(monkeypatch, "draw_world", fedcert.metasim)
    passes = _counting(monkeypatch, "_source_risks")
    targets = _counting(monkeypatch, "risks", fedcert.oracle._TargetDraws)
    got = coverage_experiments(cfg, H, 8, 25, requests, **run)
    assert [r.to_json_dict() for r in got] == alone
    # every kind, wass-mean too, reads the one source: one source pass over
    # the trials, and no world drawn on its own
    assert len(worlds) == 0 and len(passes) == 1
    # the four target worlds (the source, two tilts, the moved means) share
    # one draw layout: one target draw per trial serves them all
    assert len(targets) == 3


@pytest.mark.parametrize("K", [1, 2 * (_BLOCK_BYTES // (8 * 30 * 2)) + 1])
def test_draw_source_risks_equal_each_datasets_own_risk(K):
    cfg = archetype_cfg()
    world, qv, ns = _draw_source(cfg, H, K, 30, root=4)
    datasets = world.datasets()
    zero_one = LossFn(ZERO_ONE)
    assert qv.tolist() == [empirical_risk(H, ds, zero_one).value for ds in datasets]
    # and each dataset's own model pass and mean
    assert qv.tolist() == [float(np.mean(loss_values(zero_one, H, ds.features, ds.labels)))
                           for ds in datasets]
    assert ns.tolist() == [30] * K


@pytest.mark.parametrize("K", [1, (_BLOCK_BYTES // (8 * 30 * 2)) + 3])
def test_source_risks_equal_each_roots_own_draw(monkeypatch, K):
    # trial roots on both sides of 2**32 and 2**63, as Python ints; passes of
    # two roots, with blocks that straddle them
    monkeypatch.setattr(fedcert.metasim, "_PASS_CLIENTS", 2 * K)
    roots = [_trial_seed(2, t) for t in range(4)] + [2**32 - 1, 2**32, 2**63 - 1, 2**63]
    assert {r >= 2**63 for r in roots} == {False, True}
    cfg = archetype_cfg()
    qv, tables = _source_risks(cfg, H, roots, K, 30)
    assert qv.shape == (len(roots), K) and tables == []
    for root, row in zip(roots, qv):
        assert row.tolist() == _draw_source(cfg, H, K, 30, root)[1].tolist()


@pytest.mark.parametrize("K", [1, (_BLOCK_BYTES // (8 * 30 * 2)) + 3])
def test_source_tables_equal_each_roots_query_profiles(monkeypatch, K):
    # passes of two roots, with blocks that straddle them, on two grids
    monkeypatch.setattr(fedcert.metasim, "_PASS_CLIENTS", 2 * K)
    roots = [_trial_seed(6, t) for t in range(3)]
    cfg = archetype_cfg()
    grids = [certificate_grid(np.full(K, 30), 0.05, 0.1, grid_size=6), np.array([0.01, 0.3, 9.0])]
    qv, tables = _source_risks(cfg, H, roots, K, 30, grids)
    assert [v.shape for v, _ in tables] == [(3, K, len(g)) for g in grids]
    for i, root in enumerate(roots):
        world, want_qv, _ = _draw_source(cfg, H, K, 30, root)
        assert qv[i].tobytes() == want_qv.tobytes()
        clients = [Client(ds.client_id, ds, ZERO_ONE_LOSS) for ds in world.datasets()]
        for grid, (values, slopes) in zip(grids, tables):
            want_values, want_slopes = query_profiles(clients, H, grid)
            assert values[i].tobytes() == want_values.tobytes()
            assert slopes[i].tobytes() == want_slopes.tobytes()


def _as_certificate(rows, t, params):
    """Row t of ``certify_rows``' wass-mean rows, made into a certificate
    issued under ``params`` by the builder ``wass_mean_certificate`` uses."""
    def row(v):
        return v[t:t + 1]
    one = Rows(row(rows.value), row(rows.raw), {k: row(v) for k, v in rows.slack.items()},
               {k: row(v) for k, v in rows.extra.items()})
    return one.bound("wass-mean", **params)


@pytest.mark.parametrize("K, epsilon, grid_size", [(1, 0.05, 4), (8, 0.02, 6), (8, 0.3, 16)])
def test_wass_rows_equal_each_trials_wass_mean_bound(K, epsilon, grid_size):
    cfg, n_k, trials = archetype_cfg(), 20, 4
    req = {"delta": 0.1, "epsilon": epsilon, "grid_size": grid_size}
    roots = [_trial_seed(13, t) for t in range(trials)]
    grid = certificate_grid(np.full(K, n_k), epsilon, 0.1, grid_size=grid_size)
    qv, (table,) = _source_risks(cfg, H, roots, K, n_k, [grid])
    rows = certify_rows("wass-mean", req, qv, np.full((trials, K), n_k), (grid, *table))
    for t, root in enumerate(roots):
        source = _draw_source(cfg, H, K, n_k, root)
        cert = _wass_trial(source, H, req)
        # repr tells every float apart, to the last bit and the sign of zero
        assert repr(_as_certificate(rows, t, cert.params)) == repr(cert)
        # the library bound asks the grid alone, and issues the same certificate
        clients = [Client(ds.client_id, ds, ZERO_ONE_LOSS) for ds in source[0].datasets()]
        assert repr(wass_mean_bound(clients, H, epsilon, 0.1, grid_size=grid_size)) == repr(cert)


def test_wass_coverage_checks_the_query_budget_before_the_first_trial(monkeypatch):
    cfg = archetype_cfg()
    requests = [("wass-mean", {"delta": 0.1, "epsilon": 0.02, "grid_size": 6})]
    grid = certificate_grid(np.full(5, 20), 0.02, 0.1, grid_size=6)
    passes = _counting(monkeypatch, "_source_risks")
    for cap in (1, len(grid)):
        with pytest.raises(BudgetExceededError) as err:
            coverage_experiments(cfg, H, 5, 20, requests, trials=2, target_clients=200,
                                 max_queries=cap)
        assert (err.value.client_id, err.value.max_queries) == (0, cap)
        # the clients of trial 0, asked one at a time, ran out at client 0 too
        with pytest.raises(BudgetExceededError) as one_by_one:
            _wass_trial(_draw_source(cfg, H, 5, 20, _trial_seed(0, 0)), H,
                        {**requests[0][1], "max_queries": cap})
        assert one_by_one.value.client_id == 0
    assert not passes
    ok = coverage_experiments(cfg, H, 5, 20, requests, trials=2, target_clients=200,
                              max_queries=len(grid) + 1)
    assert ok[0].trials == 2 and len(passes) == 1


def _tilted_and_moved_targets(cfg):
    """The worlds a verify run declares from ``cfg``: the source, a KL and a
    chi-square tilt, and the class means moved against H."""
    return [cfg, target_world(cfg, "fdiv-mean", 0.05, H, "kl"),
            target_world(cfg, "fdiv-cdf", 0.1, H, "chi-square"),
            target_world(cfg, "wass-mean", 0.02, H)]


@pytest.mark.parametrize("shift_mode", ["none", "feature", "label", "both"])
def test_target_draws_equal_each_world_drawn_alone(shift_mode):
    shared = [Archetype(class_means=BASE_MEANS * f, class_props=np.array(p), score=s)
              for f, p, s in ((1.0, [0.7, 0.3], 0.0), (0.5, [0.4, 0.6], 1.0),
                              (0.8, [0.7, 0.3], 2.0))]
    cfg = MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS, shift_mode=shift_mode,
                     archetypes=shared, archetype_weights=np.array([0.6, 0.05, 0.35]))
    worlds = _tilted_and_moved_targets(cfg)
    # a world of other proportions and concentration shares the layout too
    worlds.append(replace(cfg, alpha_dir=2.0, archetypes=shared[::-1]))
    for T in (1, 3, 2000):
        got = _TargetDraws(worlds, T, H).risks(np.random.default_rng(T))
        for world, risks in zip(worlds, got):
            assert np.array_equal(risks, sample_true_risks(world, T, H,
                                                           np.random.default_rng(T)))
    plain = [plain_cfg(shift_mode=shift_mode), plain_cfg(shift_mode=shift_mode, cov_scale=2.0)]
    got = _TargetDraws(plain, 50, H).risks(np.random.default_rng(1))
    for world, risks in zip(plain, got):
        assert np.array_equal(risks, sample_true_risks(world, 50, H, np.random.default_rng(1)))


def test_target_draws_need_one_layout():
    for other in (plain_cfg(shift_mode="both"), replace(archetype_cfg(), sigma_shift=0.2),
                  replace(archetype_cfg(), shift_mode="label")):
        with pytest.raises(ValueError):
            _TargetDraws([archetype_cfg(), other], 10, H)


# -------------------------------------------------- batched against per trial

def _per_trial_coverage(cfg, h, K, n_k, kind, params, trials, seed, target_clients,
                        max_queries=None):
    """The coverage report of one kind from a loop over trials: each trial
    draws its source and target risks, certifies with issue_certificate
    (``wass-mean`` on the drawn world's clients, under ``max_queries``) and
    applies the outcome rule to that one certificate."""
    delta, epsilon = float(params.get("delta", 0.1)), float(params.get("epsilon", 0.0))
    lams = lambda_grid(params)
    req = {**params, "delta": delta, "epsilon": epsilon, "lambda_grid": lams,
           "max_queries": max_queries}
    target = target_world(cfg, kind, epsilon, h, params.get("f_name"))
    violations, per_lambda = 0, np.zeros(len(lams), dtype=int)
    for t in range(trials):
        source = _draw_source(cfg, h, K, n_k, _trial_seed(seed, t))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, t, 1])))
        risks = fedcert.oracle.sample_true_risks(target, target_clients, h, rng)
        cert = (_wass_trial(source, h, req) if kind == "wass-mean"
                else issue_certificate(kind, req, *source[1:]))
        if kind not in CURVE_KINDS:
            violations += int(float(np.mean(risks)) > cert.value + VIOLATION_GUARD)
            continue
        curve_vals = cert.bounds[np.searchsorted(cert.lambdas, lams)]
        viol = np.mean(risks[None, :] >= lams[:, None], axis=1) > curve_vals + VIOLATION_GUARD
        violations += int(np.any(viol))
        per_lambda += viol
    rate = violations / trials
    threshold = delta + 3.0 * float(np.sqrt(delta * (1 - delta) / trials))
    return CoverageReport(
        bound_kind=kind, trials=trials, violations=violations, violation_rate=rate,
        delta=delta, threshold=threshold, passed=rate <= threshold and violations < trials,
        config_digest=cfg.digest(),
        per_lambda={"lambdas": lams.tolist(), "violation_rates": (per_lambda / trials).tolist()}
        if kind in CURVE_KINDS else None,
        notes={"K": K, "n_k": n_k, "epsilon": epsilon},
    ).to_json_dict()


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("K", [1, 8])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("inflate", [1.0, 4.0])
def test_batched_coverage_equals_the_per_trial_loop(monkeypatch, trials, K, epsilon, inflate):
    # inflate 4 scales every target risk (capped at 1) so that trials
    # violate: every target draw, each world's of coverage_experiments' shared
    # ones and the per-trial loop's sample_true_risks, goes through risks
    original = fedcert.oracle._TargetDraws.risks
    monkeypatch.setattr(fedcert.oracle._TargetDraws, "risks",
                        lambda *args: [np.minimum(1.0, inflate * r) for r in original(*args)])
    cfg, seed, delta, n_k = archetype_cfg(), 13, 0.1, 20
    # a grid, out of order and with a repeat, that holds trial 0's first
    # breakpoint qv_0 + s_0 exactly
    qv0 = _draw_source(cfg, H, K, n_k, _trial_seed(seed, 0))[1][0]
    edge = qv0 + np.sqrt(np.log((K + 1) / delta) / (2 * n_k))
    grid = np.array([0.5, edge, 0.0, 0.5, 1.0, 0.25])
    common = {"delta": delta, "lambda_grid": grid}
    requests = [("mean", common), ("cdf", common)]
    requests += [(kind, {**common, "epsilon": epsilon, "f_name": name})
                 for kind in ("fdiv-mean", "fdiv-cdf") for name in ("kl", "chi-square")]
    got = [r.to_json_dict() for r in coverage_experiments(cfg, H, K, n_k, requests,
                                                          trials=trials, seed=seed,
                                                          target_clients=300)]
    assert got == [_per_trial_coverage(cfg, H, K, n_k, kind, params, trials, seed, 300)
                   for kind, params in requests]
    if inflate > 1.0 and (K, trials) == (8, 7):
        # at K = 1 every certificate is clipped to 1 and none is violated
        assert any(r["violations"] for r in got)
        assert any(0 < max(r["per_lambda"]["violation_rates"]) < 1 for r in got if "per_lambda" in r)
    with pytest.raises(ValueError):
        certify_rows("wass-mean", common, np.zeros((1, K)), np.full((1, K), n_k))


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("K", [1, 8])
def test_batched_wass_coverage_equals_the_per_trial_path(trials, K):
    # the per-trial path certified each trial's drawn world through its
    # clients; two wass-mean kinds share the source pass, under a cap that
    # one zero-radius query and both grids, as certify asks them in one
    # table, fill exactly.  At these sizes every certificate reads 1 and no
    # trial violates; the raw values are compared bit for bit in
    # test_wass_rows_equal_each_trials_wass_mean_bound
    cfg, seed = archetype_cfg(), 13
    requests = [("wass-mean", {"delta": 0.1, "epsilon": 0.02, "grid_size": 6}),
                ("wass-mean", {"delta": 0.1, "epsilon": 0.3, "grid_size": 3})]
    got = [r.to_json_dict() for r in coverage_experiments(cfg, H, K, 20, requests,
                                                          trials=trials, seed=seed,
                                                          target_clients=300, max_queries=10)]
    assert got == [_per_trial_coverage(cfg, H, K, 20, kind, params, trials, seed, 300, 10)
                   for kind, params in requests]
    with pytest.raises(BudgetExceededError):
        coverage_experiments(cfg, H, K, 20, requests, trials=trials, seed=seed,
                             target_clients=300, max_queries=9)


def test_wass_kinds_share_one_flip_build_per_block(monkeypatch):
    # two wass-mean kinds answer their radius grids from one flip table per
    # block of the source pass, laid end to end; each radius is answered on
    # its own, so each report equals its kind's run alone
    monkeypatch.setattr(fedcert.metasim, "_PASS_CLIENTS", 16)
    cfg, K, n_k = archetype_cfg(), 8, 25
    requests = [("wass-mean", {"delta": 0.1, "epsilon": epsilon}) for epsilon in (0.02, 0.1)]
    run = dict(trials=5, seed=3, target_clients=300)
    alone = [coverage_experiments(cfg, H, K, n_k, [request], **run)[0].to_json_dict()
             for request in requests]
    blocks = _counting(monkeypatch, "answer_table")
    builds = _counting(monkeypatch, "_FlipInner", fedcert.query)
    got = coverage_experiments(cfg, H, K, n_k, requests, **run)
    assert [r.to_json_dict() for r in got] == alone
    assert len(blocks) > 1 and len(builds) == len(blocks)


def test_wass_coverage_counts_the_trials_whose_rows_read_below_their_target(monkeypatch):
    # at test sizes every wass-mean certificate reads 1 and no trial
    # violates; with the rows of trials 0, 2 and 4 lowered to 0, those read
    # below their target's mean risk, and the report counts them and fails
    cfg, trials = archetype_cfg(), 5
    run = (cfg, H, 8, 20, [("wass-mean", {"delta": 0.1, "epsilon": 0.02, "grid_size": 6})])
    honest, = coverage_experiments(*run, trials=trials, seed=13, target_clients=300)
    assert honest.violations == 0 and honest.passed
    rows_of = fedcert.oracle.wass_mean_rows

    def lowered(*args, **kwargs):
        rows = rows_of(*args, **kwargs)
        value = rows.value.copy()
        value[::2] = 0.0
        return rows._replace(value=value)

    monkeypatch.setattr(fedcert.oracle, "wass_mean_rows", lowered)
    report, = coverage_experiments(*run, trials=trials, seed=13, target_clients=300)
    assert (report.trials, report.violations, report.violation_rate) == (trials, 3, 3 / trials)
    assert report.violation_rate > report.threshold and not report.passed


def test_target_statistic_is_the_mean_or_the_survival_at_each_threshold():
    cfg = archetype_cfg()
    grid = np.array([0.5, 0.1, 0.0, 0.5, 1.0])
    # risks on every threshold, where the survival counts a tie
    risks = np.r_[np.random.default_rng(3).uniform(0.0, 1.0, 50), grid, 0.1]
    params = {"lambda_grid": grid}
    assert (_CoveragePlan.of(cfg, H, 8, 20, "mean", params).target_statistic(risks)
            == float(np.mean(risks)))
    survival = _CoveragePlan.of(cfg, H, 8, 20, "cdf", params).target_statistic(risks)
    assert survival.tolist() == np.mean(risks[None, :] >= grid[:, None], axis=1).tolist()


def test_coverage_memory_does_not_grow_with_trials():
    # a trial keeps its query values and each kind's target statistic; held
    # target risks would add about 1.4 MB from 10 to 40 trials here, held
    # worlds about 3.6 MB
    cfg = archetype_cfg()
    common = {"delta": 0.1}
    requests = [("mean", common), ("cdf", common),
                ("fdiv-mean", {**common, "epsilon": 0.05, "f_name": "kl"}),
                ("fdiv-cdf", {**common, "epsilon": 0.05, "f_name": "chi-square"})]
    coverage_experiments(cfg, H, 50, 100, requests, trials=2, seed=1)

    def peak(trials):
        tracemalloc.start()
        try:
            coverage_experiments(cfg, H, 50, 100, requests, trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40) - peak(10) < 256 * 1024


def test_tightness_memory_does_not_grow_with_trials():
    # a schedule point keeps its (trials, K) query matrix; the source pass
    # holds a bounded number of clients' parameters and one block of
    # features, where the trials' features would add about 9.6 MB here
    cfg = archetype_cfg()
    params = {"delta": 0.1, "epsilon": 0.05, "f_name": "kl"}
    K_schedule, n_schedule = [50, 200], [100, 100]
    tightness_probe(cfg, H, "fdiv-mean", K_schedule, n_schedule, 2, 1, params)

    def peak(trials):
        tracemalloc.start()
        try:
            tightness_probe(cfg, H, "fdiv-mean", K_schedule, n_schedule, trials, 1, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    matrix_growth = (40 - 10) * max(K_schedule) * 8
    assert peak(40) - peak(10) < matrix_growth + 256 * 1024


# ---------------------------------------------------------------- tightness

def test_tightness_validation():
    cfg = plain_cfg(shift_mode="both")
    with pytest.raises(ValueError):
        tightness_probe(cfg, H, "cdf", [5], [10], 1, 0, {})
    with pytest.raises(ValueError):
        tightness_probe(cfg, H, "mean", [], [], 1, 0, {})
    with pytest.raises(ValueError):
        tightness_probe(cfg, H, "mean", [5, 10], [10], 1, 0, {})
    with pytest.raises(ValueError):
        tightness_probe(cfg, H, "mean", [10, 5], [10, 20], 1, 0, {})


def test_tightness_rows_smoke():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    rows = tightness_probe(
        cfg, H, "mean", [5, 10], [10, 20], trials=3, seed=2,
        params={"delta": 0.1},
    )
    assert len(rows) == 2
    for row in rows:
        assert {"K", "n_k", "median_gap", "se_median", "mean_gap",
                "truth", "truth_error", "slack_meta", "slack_per_client"} <= set(row)
        assert 0.0 <= row["truth"] <= 1.0
        assert row["truth"] == fedcert.oracle.mean_true_risk(cfg, H)[0]
        assert 0.0 <= row["truth_error"] <= fedcert.oracle.TRUTH_TOL
    single = tightness_probe(
        cfg, H, "mean", [5], [10], trials=1, seed=2,
        params={"delta": 0.1},
    )
    assert single[0]["se_median"] == 0.0


def _per_trial_tightness(cfg, h, bound_kind, K_schedule, n_schedule, trials, seed, params):
    """tightness_probe's rows from a loop that certifies one trial at a time."""
    req = {"delta": float(params.get("delta", 0.1)),
           "epsilon": float(params.get("epsilon", 0.0)), "f_name": params.get("f_name")}
    truth, truth_error = mean_true_risk(
        target_world(cfg, bound_kind, req["epsilon"], h, req["f_name"]), h)
    rows = []
    for K, n_k in zip(K_schedule, n_schedule):
        certs = [issue_certificate(bound_kind, req, *_draw_source(
            cfg, h, K, n_k, _trial_seed(seed, 1_000_000 * K + t))[1:]) for t in range(trials)]
        gaps = np.array([b.value - truth for b in certs])
        row = {"K": K, "n_k": n_k, "median_gap": float(np.median(gaps)),
               "se_median": float(1.2533 * np.std(gaps, ddof=1) / np.sqrt(trials))
               if trials > 1 else 0.0,
               "mean_gap": float(np.mean(gaps)), "truth": truth, "truth_error": truth_error}
        for key in certs[0].slack:
            row[f"slack_{key}"] = float(np.median([b.slack[key] for b in certs]))
        rows.append(row)
    return rows


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("kind,extra", [("mean", {}),
                                        ("fdiv-mean", {"epsilon": 0.05, "f_name": "kl"}),
                                        ("fdiv-mean", {"epsilon": 0.05, "f_name": "chi-square"}),
                                        ("fdiv-mean", {"epsilon": 0.0, "f_name": "kl"})])
def test_batched_tightness_equals_the_per_trial_loop(trials, kind, extra):
    cfg = archetype_cfg()
    params = {"delta": 0.1, **extra}
    args = (cfg, H, kind, [1, 8], [10, 30], trials, 3, params)
    assert tightness_probe(*args) == _per_trial_tightness(*args)
