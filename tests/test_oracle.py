"""The verification layer itself: grid and LP oracles on instances small
enough to reason about by hand, closed-form risks against Monte Carlo, and
the coverage / tightness harnesses on toy worlds."""
from dataclasses import replace

import numpy as np
import pytest

import fedcert.oracle
from scipy.special import ndtr

from fedcert import (
    ZERO_ONE,
    Archetype,
    Hypothesis,
    LossFn,
    MetaConfig,
    adversarial_directions,
    coverage_experiment,
    coverage_experiments,
    exact_zero_one_risk,
    fdiv_mean_bound,
    grid_ball_oracle,
    sample_true_risks,
    tightness_probe,
    wass_alloc_grid_oracle,
    wass_ball_lp_oracle,
)
from fedcert.losses import LINEAR, LOGISTIC, loss_values
from fedcert.metasim import _BLOCK_BYTES
from fedcert.oracle import _binary_margin, _draw_source, _risks_from_parts
from fedcert.query import empirical_risk

from _corpus import concave_curve, tangents

BASE_MEANS = np.array([[-1.0, 0.0], [1.0, 0.0]])
H = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.0]), bias=0.0)


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
    exact = fdiv_mean_bound(q, np.ones(2, int), 0.1, 0.3, "chi-square",
                            include_slack=False).raw_value
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
        coverage_experiment(cfg, "median", {"h": H}, trials=2)
    with pytest.raises(ValueError):
        coverage_experiment(cfg, "mean", {"h": H}, trials=0)
    with pytest.raises(ValueError):
        coverage_experiment(cfg, "fdiv-mean",
                            {"h": H, "epsilon": 0.05, "f_name": "kl"}, trials=2)


def test_coverage_mean_smoke_and_determinism():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    params = {"h": H, "K": 10, "n_k": 25, "delta": 0.1, "target_clients": 300}
    rep1 = coverage_experiment(cfg, "mean", params, trials=3, seed=4)
    rep2 = coverage_experiment(cfg, "mean", params, trials=3, seed=4)
    assert rep1.to_json_dict() == rep2.to_json_dict()
    assert rep1.trials == 3
    want_thr = 0.1 + 3 * np.sqrt(0.1 * 0.9 / 3)
    assert abs(rep1.threshold - want_thr) < 1e-12
    assert rep1.config_digest == cfg.digest()
    assert rep1.notes["K"] == 10 and rep1.notes["n_k"] == 25
    rep_jobs = coverage_experiment(cfg, "mean", params, trials=3, seed=4, jobs=2)
    assert rep_jobs.to_json_dict() == rep1.to_json_dict()


def test_coverage_single_trial_passes_only_without_violation():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    params = {"h": H, "K": 8, "n_k": 20, "delta": 0.1, "target_clients": 200}
    rep = coverage_experiment(cfg, "mean", params, trials=1, seed=11)
    # the binomial threshold saturates past 1 here, so the all-violate guard
    # is the only thing that can fail the report
    assert rep.threshold >= 1.0
    assert rep.passed == (rep.violations == 0)


def test_coverage_cdf_reports_per_lambda(tmp_path):
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    grid = np.linspace(0, 1, 11)
    params = {"h": H, "K": 10, "n_k": 25, "delta": 0.1,
              "target_clients": 300, "lambda_grid": grid}
    rep = coverage_experiment(cfg, "cdf-curve", params, trials=2, seed=3)
    assert rep.per_lambda is not None
    assert len(rep.per_lambda["violation_rates"]) == 11
    out = tmp_path / "rep.json"
    rep.write_json(out)
    assert '"per_lambda"' in out.read_text()


def test_coverage_fdiv_and_wass_smoke():
    cfg = archetype_cfg()
    params = {"h": H, "K": 12, "n_k": 30, "delta": 0.1, "epsilon": 0.05,
              "f_name": "kl", "target_clients": 300}
    rep = coverage_experiment(cfg, "fdiv-mean", params, trials=2, seed=7)
    assert rep.bound_kind == "fdiv-mean"
    assert 0.0 <= rep.violation_rate <= 1.0
    wparams = {"h": H, "K": 6, "n_k": 30, "delta": 0.1, "epsilon": 0.02,
               "grid_size": 8, "target_clients": 300}
    wrep = coverage_experiment(cfg, "wass-mean", wparams, trials=2, seed=8)
    assert wrep.bound_kind == "wass-mean"


_ALL_KINDS = [
    ("mean", {}),
    ("cdf-curve", {"lambda_grid": np.linspace(0.0, 1.0, 11)}),
    ("fdiv-mean", {"epsilon": 0.05, "f_name": "kl"}),
    ("fdiv-cdf", {"epsilon": 0.05, "f_name": "chi-square",
                  "lambda_grid": np.linspace(0.0, 1.0, 6)}),
    # one zero-radius query and the 6 radii fill the budget exactly
    ("wass-mean", {"epsilon": 0.02, "grid_size": 6, "max_queries": 7}),
]


def _counting(monkeypatch, name):
    calls = []
    original = getattr(fedcert.oracle, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(fedcert.oracle, name, counted)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_coverage_experiments_equal_each_kind_run_alone(monkeypatch, jobs):
    cfg = archetype_cfg()
    common = {"h": H, "K": 8, "n_k": 25, "delta": 0.1, "target_clients": 300}
    requests = [(kind, {**common, **extra}) for kind, extra in _ALL_KINDS]
    alone = [coverage_experiment(cfg, kind, params, trials=3, seed=5).to_json_dict()
             for kind, params in requests]
    sources = _counting(monkeypatch, "draw_world")
    targets = _counting(monkeypatch, "sample_true_risks")
    got = coverage_experiments(cfg, requests, trials=3, seed=5, jobs=jobs)
    assert [r.to_json_dict() for r in got] == alone
    # one source per trial; mean and cdf-curve declare the source as target
    assert len(sources) == 3
    assert len(targets) == 3 * 4


def test_coverage_experiments_draw_a_source_per_client_count(monkeypatch):
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    common = {"h": H, "n_k": 20, "delta": 0.1, "target_clients": 200}
    requests = [("mean", {**common, "K": 6}), ("cdf-curve", {**common, "K": 6}),
                ("mean", {**common, "K": 9})]
    sources = _counting(monkeypatch, "draw_world")
    got = coverage_experiments(cfg, requests, trials=2, seed=3)
    assert len(sources) == 2 * 2
    assert [r.notes["K"] for r in got] == [6, 6, 9]
    assert got[2].to_json_dict() == coverage_experiment(cfg, *requests[2], trials=2,
                                                        seed=3).to_json_dict()


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


# ---------------------------------------------------------------- tightness

def test_tightness_validation():
    cfg = plain_cfg(shift_mode="both")
    with pytest.raises(ValueError):
        tightness_probe(cfg, "cdf-curve", [5], [10], 1, 0, {"h": H})
    with pytest.raises(ValueError):
        tightness_probe(cfg, "mean", [], [], 1, 0, {"h": H})
    with pytest.raises(ValueError):
        tightness_probe(cfg, "mean", [5, 10], [10], 1, 0, {"h": H})
    with pytest.raises(ValueError):
        tightness_probe(cfg, "mean", [10, 5], [10, 20], 1, 0, {"h": H})


def test_tightness_rows_smoke():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.02)
    rows = tightness_probe(
        cfg, "mean", [5, 10], [10, 20], trials=3, seed=2,
        params={"h": H, "delta": 0.1},
    )
    assert len(rows) == 2
    for row in rows:
        assert {"K", "n_k", "median_gap", "se_median", "mean_gap",
                "truth", "truth_error", "slack_meta", "slack_per_client"} <= set(row)
        assert 0.0 <= row["truth"] <= 1.0
        assert row["truth"] == fedcert.oracle.mean_true_risk(cfg, H)[0]
        assert 0.0 <= row["truth_error"] <= fedcert.oracle.TRUTH_TOL
    single = tightness_probe(
        cfg, "mean", [5], [10], trials=1, seed=2,
        params={"h": H, "delta": 0.1},
    )
    assert single[0]["se_median"] == 0.0
