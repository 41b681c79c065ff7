"""The divergence ball, the dual kernels, and the f-divergence certificates.

The kernels are checked three independent ways: closed forms (the chi-square
ball, Cauchy-Schwarz in the all-active regime, two-point laws), properties
that hold by construction (the band below the ball, monotonicity in epsilon,
the reductions at epsilon 0), and the exhaustive ball oracle on a frozen
corpus.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fedcert import Hypothesis, MetaConfig
from fedcert.fdiv import ball, fdiv_cdf_bound, fdiv_mean_bound, _golden, _kl_bernoulli
from fedcert.nonrobust import cdf_bound, mean_bound
from fedcert.oracle import grid_ball_oracle, mean_true_risk, sample_true_risks, target_world

from _corpus import ball_instance

NAMES = ("kl", "chi-square")
# probabilities from subnormal to one ulp below 1, with the ends and repeats
_PS = np.r_[0.0, 5e-324, 1e-300, 1e-12, np.linspace(0.0, 1.0, 41), 0.3, 0.3,
            1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0]


def _exact_kl(q: float, p: float) -> float:
    """kl(q || p) of two floats, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        q, p = Decimal(q), Decimal(p)
        rest = (1 - q) * ((1 - q) / (1 - p)).ln() if q < 1 else Decimal(0)
        return float(q * (q / p).ln() + rest)


# ------------------------------------------------------------------- ball

@pytest.mark.parametrize("epsilon", [0.0, 1e-6, 0.05, 0.5, 4.0])
def test_chi2_ball_matches_its_closed_form(epsilon):
    p = _PS
    got = ball("chi-square", p, epsilon)
    assert np.array_equal(got, np.minimum(1.0, p + np.sqrt(epsilon * p * (1.0 - p))))
    # below 1 the two-point chi-square divergence (q-p)^2 / (p(1-p)) is epsilon
    inner = (got < 1.0) & (p > 1e-200) & (p < 1.0)
    chi2 = (got[inner] - p[inner]) ** 2 / (p[inner] * (1.0 - p[inner]))
    assert np.allclose(chi2, epsilon, rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("epsilon", [1e-9, 1e-3, 0.05, 0.5, 4.0])
def test_kl_ball_is_the_upper_root_to_adjacent_floats(epsilon):
    p = _PS[(_PS > 0.0) & (_PS < 1.0)]
    q = ball("kl", p, epsilon)
    at_one = q == 1.0
    # 1 exactly where kl(1 || p) = -log p is within the budget
    assert np.array_equal(at_one, -np.log(p) <= epsilon)
    q, p = q[~at_one], p[~at_one]
    below = np.nextafter(q, 0.0)
    # the bisection's own invariant: kl above epsilon at q, within it one float below
    assert np.all(_kl_bernoulli(q, p) > epsilon)
    assert np.all((_kl_bernoulli(below, p) <= epsilon) | (below < p))
    # and kl in exact arithmetic agrees that q is the root, to rounding
    for qi, bi, pi in zip(q, below, p):
        assert _exact_kl(qi, pi) >= epsilon * (1.0 - 1e-10), (qi, pi)
        assert bi < pi or _exact_kl(bi, pi) <= epsilon * (1.0 + 1e-10), (bi, pi)


@pytest.mark.parametrize("name", NAMES)
def test_ball_is_monotone_and_keeps_the_ends(name):
    p = np.sort(_PS)
    previous = p
    for epsilon in (0.0, 1e-8, 0.01, 0.05, 0.3, 2.0):
        q = ball(name, p, epsilon)
        assert np.all(np.diff(q) >= 0.0), epsilon
        assert np.all(q >= previous), epsilon
        assert q[0] == 0.0 and q[-1] == 1.0
        previous = q
    # at epsilon 0 the ball is the point p itself (KL: its next float)
    assert np.allclose(ball(name, p, 0.0), p, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("epsilon", [0.05, 0.3])
def test_ball_matches_the_grid_oracle_on_indicators(name, epsilon):
    # a 0/1 query vector's worst mean over the ball is the worst probability
    # of the event it marks; the grid optimum sits below it within its step
    for K, step in ((2, 1e-3), (3, 5e-3)):
        for ones in range(K + 1):
            q = np.r_[np.ones(ones), np.zeros(K - ones)]
            orc = grid_ball_oracle(q, name, epsilon, step)
            got = float(ball(name, ones / K, epsilon))
            assert orc - 1e-12 <= got <= orc + 2 * step, (K, ones)


def test_bad_divergence_arguments_are_refused():
    qv, n = np.array([0.2, 0.4]), np.array([10, 10])
    for name, epsilon in (("hellinger", 0.1), ("kl", -0.01), ("chi-square", float("nan"))):
        with pytest.raises(ValueError):
            ball(name, [0.5], epsilon)
        with pytest.raises(ValueError):
            fdiv_mean_bound(qv, n, 0.1, epsilon, name)
        with pytest.raises(ValueError):
            fdiv_cdf_bound(qv, n, 0.1, epsilon, name, [0.3])
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ball("kl", [0.2, p], 0.1)
    with pytest.raises(ValueError):
        fdiv_mean_bound(qv, n, 1.0, 0.1, "kl")


# ------------------------------------------------------------- mean bound

def test_golden_search_finds_each_rows_minimum_or_its_nearest_end():
    # one quadratic per row, its minimum inside the bracket, at an end or past it
    lo, hi = math.log(1e-9), math.log(1e9)
    u0 = np.array([-30.0, lo, -5.0, 0.0, 3.3, hi, 30.0])
    got = _golden(lambda u: (u - u0) ** 2 + 1.0, len(u0))
    assert np.allclose(got, (np.clip(u0, lo, hi) - u0) ** 2 + 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_mean_bound_zero_shift_reduces_to_empirical(name):
    qv = np.array([0.12, 0.4, 0.33, 0.05, 0.2])
    n = np.full(5, 50)
    b = fdiv_mean_bound(qv, n, 0.1, 0.0, name, include_slack=False)
    assert abs(b.raw_value - float(np.mean(qv))) < 1e-12
    assert b.slack == {"meta": 0.0, "per_client": 0.0}
    plain = mean_bound(qv, n, 0.1, include_slack=False)
    assert abs(b.value - plain.value) < 1e-12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("include_slack", [True, False])
def test_mean_bound_monotone_in_epsilon(name, include_slack):
    rng = np.random.default_rng(np.random.SeedSequence(633))
    qv = rng.uniform(0.0, 0.6, 40)
    n = np.full(40, 100)
    prev = -np.inf
    for eps in (0.0, 1e-12, 1e-8, 1e-4, 0.02, 0.05, 0.1, 0.2, 1.0, 10.0):
        b = fdiv_mean_bound(qv, n, 0.1, eps, name, include_slack=include_slack)
        assert b.raw_value >= prev - 1e-12, eps
        assert b.slack["meta"] >= 0.0 and b.slack["per_client"] >= 0.0
        prev = b.raw_value


@pytest.mark.parametrize("name", NAMES)
def test_mean_bound_slack_spends_the_mean_bounds_events(name):
    rng = np.random.default_rng(np.random.SeedSequence(634))
    qv = rng.uniform(0.0, 0.5, 30)
    n = rng.integers(20, 200, 30)
    delta = 0.05
    plain = mean_bound(qv, n, delta)
    for eps in (0.0, 0.1):
        b = fdiv_mean_bound(qv, n, delta, eps, name)
        program = b.extra["program_value"]
        assert b.extra == {"program_value": program}
        # the program is the dual on the query values themselves
        assert program == fdiv_mean_bound(qv, n, delta, eps, name,
                                          include_slack=False).raw_value
        assert abs(b.raw_value - (program + b.slack["meta"] + b.slack["per_client"])) < 1e-12
        assert b.value == min(b.raw_value, 1.0)
        assert set(b.params) == {"K", "delta", "epsilon", "divergence", "include_slack"}
    # at epsilon 0 the certificate is the mean bound, term by term
    b = fdiv_mean_bound(qv, n, delta, 0.0, name)
    assert abs(b.slack["per_client"] - plain.slack["per_client"]) < 1e-12
    assert abs(b.slack["meta"] - plain.slack["meta"]) < 1e-12
    assert abs(b.raw_value - plain.raw_value) < 1e-12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5])
def test_mean_bound_on_indicators_is_the_two_point_ball(name, epsilon):
    # on a 0/1 population the worst mean is the worst probability of the
    # ones: the dual's infimum meets the primal closed form
    for K, ones in ((10, 3), (40, 1), (25, 24), (7, 7)):
        qv = np.r_[np.ones(ones), np.zeros(K - ones)]
        b = fdiv_mean_bound(qv, np.full(K, 5), 0.1, epsilon, name, include_slack=False)
        want = float(ball(name, ones / K, epsilon))
        assert want - 1e-12 <= b.raw_value <= want + 1e-9, (K, ones)


@pytest.mark.parametrize("epsilon", [1e-10, 1e-4, 0.01])
def test_chi2_mean_bound_is_cauchy_schwarz_while_every_client_is_active(epsilon):
    # when mean - sqrt(var / epsilon) lies below every value, the dual's
    # minimiser takes all of them, and the worst mean is mean + sqrt(eps var);
    # at epsilon 1e-10 that minimiser sits near c = -3e4
    rng = np.random.default_rng(np.random.SeedSequence(636))
    qv = rng.uniform(0.2, 0.6, 50)
    var = float(np.var(qv))
    assert qv.mean() - np.sqrt(var / epsilon) < qv.min()
    b = fdiv_mean_bound(qv, np.full(50, 9), 0.1, epsilon, "chi-square", include_slack=False)
    assert abs(b.raw_value - (qv.mean() + np.sqrt(epsilon * var))) < 1e-12


def _grid_dual(name, x, t, epsilon):
    """The smallest value of the dual formula, written out plainly, over a
    dense grid of its parameter (eta for KL, c for chi-square)."""
    if name == "kl":
        eta = np.geomspace(2e-3, 1e4, 8001)[:, None]
        inner = np.mean(np.exp((x - 1.0) / eta), axis=1) + (1.0 - np.exp(-1.0 / eta[:, 0])) * t
        values = 1.0 + eta[:, 0] * np.log(inner) + eta[:, 0] * epsilon
    else:
        c = np.linspace(-20.0, max(x.max(), 1.0), 40001)[:, None]
        hinge = np.mean(np.maximum(x - c, 0.0) ** 2, axis=1)
        ends = np.maximum(1.0 - c[:, 0], 0.0) ** 2 - np.maximum(-c[:, 0], 0.0) ** 2
        values = c[:, 0] + np.sqrt(1.0 + epsilon) * np.sqrt(hinge + ends * t)
    return float(values.min())


def _plain_dual(name, x, t, epsilon):
    """``_grid_dual`` floored at the limit mean(x) + t, and that limit at
    epsilon 0."""
    limit = float(np.mean(x) + t)
    return limit if epsilon == 0 else max(_grid_dual(name, x, t, epsilon), limit)


@pytest.mark.parametrize("name", NAMES)
def test_mean_bound_is_the_dual_over_the_dkw_band(name):
    # the search's value against the dual formula on a dense grid: never
    # above it, and below it by no more than the grid's coarseness; with
    # slack x = qv + s and t are the mean bound's terms
    rng = np.random.default_rng(np.random.SeedSequence(637))
    for K, delta, epsilon in ((7, 0.1, 0.2), (40, 0.05, 0.01), (200, 0.2, 0.5), (25, 0.1, 0.0)):
        qv = rng.uniform(0.0, 0.7, K)
        n = rng.integers(20, 300, K)
        plain = mean_bound(qv, n, delta)
        t = plain.slack["meta"]
        x = qv + np.sqrt(np.log((K + 1) / delta) / (2 * n))
        b = fdiv_mean_bound(qv, n, delta, epsilon, name)
        for got, want in ((b.raw_value, _plain_dual(name, x, t, epsilon)),
                          (b.extra["program_value"], _plain_dual(name, qv, 0.0, epsilon))):
            assert want - 1e-5 <= got <= want + 1e-12, (K, got, want)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("include_slack", [True, False])
def test_mean_bound_dominates_plain_bound(name, include_slack):
    # the robust certificate never reads below the mean bound on the same
    # events: by Jensen without slack, by its floor with it; the second
    # instance is small K with large slack, the third clips at 1
    seeds = np.random.SeedSequence(635).spawn(3)
    cases = [(np.random.default_rng(seeds[0]).uniform(0.0, 0.4, 25), 80),
             (np.random.default_rng(seeds[1]).uniform(0.0, 0.3, 30), 10),
             (np.random.default_rng(seeds[2]).uniform(0.3, 0.9, 5), 10)]
    for qv, n_k in cases:
        n = np.full(len(qv), n_k)
        plain = mean_bound(qv, n, 0.1, include_slack=include_slack)
        for eps in (0.0, 1e-6, 0.01, 0.05, 0.1, 0.5, 4.0):
            rob = fdiv_mean_bound(qv, n, 0.1, eps, name, include_slack=include_slack)
            assert rob.raw_value >= plain.raw_value - 1e-12, (len(qv), eps)
            assert rob.value >= plain.value - 1e-12, (len(qv), eps)


@pytest.mark.parametrize("name", NAMES)
def test_mean_bound_floor_binds_only_where_the_dkw_step_undercuts(name):
    # K = 30, n_k = 10: the dual over the DKW band reads well below the mean
    # bound, and the certificate is the mean bound; K = 2000, n_k = 50: the
    # dual is above it and the floor leaves it alone
    rng = np.random.default_rng(np.random.SeedSequence(638))
    qv, n = rng.uniform(0.0, 0.3, 30), np.full(30, 10)
    plain = mean_bound(qv, n, 0.1)
    x = qv + np.sqrt(np.log(31 / 0.1) / 20)
    assert _grid_dual(name, x, plain.slack["meta"], 0.05) < plain.raw_value - 0.05
    b = fdiv_mean_bound(qv, n, 0.1, 0.05, name)
    assert abs(b.raw_value - plain.raw_value) < 1e-12
    assert abs(b.slack["meta"] + b.slack["per_client"] + b.extra["program_value"]
               - plain.raw_value) < 1e-12

    qv, n = rng.uniform(0.0, 0.25, 2000), np.full(2000, 50)
    plain = mean_bound(qv, n, 0.1)
    assert fdiv_mean_bound(qv, n, 0.1, 0.05, name).raw_value > plain.raw_value + 0.01


def test_mean_bound_tracks_the_ball_oracle_subset():
    # fast slice of the frozen corpus; the acceptance suite runs all fifty
    cases = [(2, i, 1e-3) for i in range(4)] + [(3, i, 2e-3) for i in range(2)]
    for K, i, step in cases:
        name, epsilon, q = ball_instance(K, i)
        got = fdiv_mean_bound(q, np.ones(K, int), 0.1, epsilon, name,
                              include_slack=False).raw_value
        orc = grid_ball_oracle(q, name, epsilon, step)
        assert orc - 1e-12 <= got <= orc + 2e-3, (K, i, name)


# -------------------------------------------------------------- cdf bound

def test_cdf_zero_shift_matches_plain_survival():
    rng = np.random.default_rng(np.random.SeedSequence(71))
    qv = rng.uniform(0.0, 1.0, 20)
    n = np.full(20, 60)
    grid = np.linspace(0.0, 1.0, 21)
    rob = fdiv_cdf_bound(qv, n, 0.1, 0.0, "kl", grid, include_slack=False)
    plain = cdf_bound(qv, n, 0.1, grid, include_slack=False)
    for lam in grid:
        assert abs(rob.at(lam) - plain.at(lam)) < 1e-12
        assert abs(rob.at(lam) - float(np.mean(qv >= lam))) < 1e-12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("include_slack", [True, False])
def test_cdf_bound_is_the_ball_of_the_plain_band(name, include_slack):
    rng = np.random.default_rng(np.random.SeedSequence(73))
    qv = rng.uniform(0.0, 1.0, 40)
    n = rng.integers(20, 300, 40)
    grid = np.linspace(0.0, 1.0, 31)
    band = cdf_bound(qv, n, 0.1, grid, include_slack=include_slack)
    for epsilon in (0.0, 0.01, 0.08, 0.5):
        curve = fdiv_cdf_bound(qv, n, 0.1, epsilon, name, grid, include_slack=include_slack)
        assert np.array_equal(curve.lambdas, band.lambdas)
        assert np.array_equal(curve.bounds, ball(name, band.bounds, epsilon))
        assert np.array_equal(curve.raw, band.raw)
        assert np.all(curve.bounds >= band.bounds)
        if epsilon == 0.0:
            assert np.allclose(curve.bounds, band.bounds, rtol=0.0, atol=1e-12)
        assert curve.params == {
            "kind": "fdiv-cdf", "K": 40, "delta": 0.1, "epsilon": epsilon,
            "divergence": name, "meta_slack": band.params["meta_slack"],
            "include_slack": include_slack}


def test_cdf_bound_shape_and_extremes():
    rng = np.random.default_rng(np.random.SeedSequence(72))
    qv = rng.uniform(0.2, 0.6, 30)
    n = np.full(30, 100)
    grid = np.linspace(0.0, 1.0, 41)
    curve = fdiv_cdf_bound(qv, n, 0.1, 0.05, "chi-square", grid)
    assert np.all(np.diff(curve.bounds) <= 1e-12)
    assert np.all(curve.bounds <= 1.0) and np.all(curve.bounds >= 0.0)
    # past every breakpoint only the meta slack is left, widened by the ball
    meta = curve.params["meta_slack"]
    assert curve.at(2.0) == pytest.approx(float(ball("chi-square", meta, 0.05)), abs=1e-15)
    # below the grid the curve makes no claim beyond the trivial one
    assert curve.at(-0.5) == 1.0


def test_cdf_bound_dominates_empirical_survival():
    rng = np.random.default_rng(np.random.SeedSequence(73))
    qv = rng.uniform(0.0, 1.0, 40)
    n = np.full(40, 70)
    grid = np.linspace(0.0, 1.0, 31)
    curve = fdiv_cdf_bound(qv, n, 0.1, 0.08, "chi-square", grid,
                           include_slack=False)
    for lam in grid:
        assert curve.at(lam) >= float(np.mean(qv >= lam)) - 1e-12


# ---------------------------------------------- coverage at a million clients

# the README world and its from_world rule: the archetype-weighted class
# means' difference, with the bias at their midpoint
_README_WORLD = {
    "dim": 2, "n_classes": 2, "class_means": [[-1.2, 0.0], [1.2, 0.0]],
    "cov_scale": 0.8, "shift_mode": "both", "seed": 31,
    "archetypes": [
        {"class_means": [[-1.2, 0.0], [1.2, 0.0]], "class_props": [0.5, 0.5], "score": 0.0},
        {"class_means": [[-0.6, 0.1], [0.6, -0.1]], "class_props": [0.4, 0.6], "score": 1.0},
    ],
    "archetype_weights": [0.7, 0.3],
}


@pytest.fixture(scope="module")
def readme_risks():
    """The README world, its rule, and 10^6 exact client risks."""
    cfg = MetaConfig.from_json_dict(_README_WORLD)
    means = np.einsum("m,mcd->cd", cfg.archetype_weights,
                      np.stack([a.class_means for a in cfg.archetypes]))
    w = means[1] - means[0]
    h = Hypothesis(kind="logistic", weights=w, bias=-float(w @ (means[0] + means[1])) / 2.0)
    risks = sample_true_risks(cfg, 10**6, h, np.random.default_rng(np.random.SeedSequence(31)))
    return cfg, h, risks


def test_kl_mean_certificate_covers_the_declared_tilt_at_a_million_clients(readme_risks):
    cfg, h, risks = readme_risks
    K, epsilon, delta = len(risks), 0.01, 0.1
    # exact client risks, and n_k = 1e15 so the per-client slack is 1e-7
    cert = fdiv_mean_bound(risks, np.full(K, 1e15), delta, epsilon, "kl")
    truth, error = mean_true_risk(target_world(cfg, "fdiv-mean", epsilon, h, "kl"), h)
    assert error < 1e-12
    # the certificate reads 0.1329, the tilt's truth 0.12686
    assert cert.value >= truth


def test_kl_cdf_certificate_covers_the_declared_tilt_at_a_million_clients(readme_risks):
    cfg, h, risks = readme_risks
    K, epsilon, delta, lam = len(risks), 0.05, 0.1, 0.2
    curve = fdiv_cdf_bound(risks, np.full(K, 1e15), delta, epsilon, "kl", [lam])
    target = target_world(cfg, "fdiv-cdf", epsilon, h, "kl")
    drawn = sample_true_risks(target, 10**6, h, np.random.default_rng(np.random.SeedSequence(32)))
    survival = float(np.mean(drawn >= lam))
    se = np.sqrt(survival * (1.0 - survival) / len(drawn))
    # the certificate reads 0.4067, the tilt's survival 0.3867 +- 0.0005
    assert curve.at(lam) >= survival - 3.0 * se
