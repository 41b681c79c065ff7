import numpy as np
import pytest

from fedcert import cdf_bound, mean_bound

QV = np.array([0.1, 0.2, 0.3, 0.4])
N = np.full(4, 100)


def test_mean_bound_frozen_example():
    # mean .25, meta sqrt(ln50/8) ~ .69929, per-client sqrt(ln50/200) ~ .13986
    b = mean_bound(QV, N, 0.1)
    assert abs(b.slack["meta"] - 0.6992874056341343) < 1e-12
    assert abs(b.slack["per_client"] - 0.13985748112682686) < 1e-12
    assert abs(b.raw_value - 1.0891448867609612) < 1e-12
    assert b.value == 1.0


def test_mean_bound_large_world_slack_small():
    b = mean_bound(np.zeros(10000), np.full(10000, 10000), 0.5)
    assert b.value < 0.05


def test_mean_bound_vanishing_slack_limit():
    K = 200_000
    b = mean_bound(np.full(K, 0.3), np.full(K, 100_000), 0.1)
    assert abs(b.value - 0.3) < 0.02


def test_mean_bound_dominates_empirical_mean():
    rng = np.random.default_rng(0)
    for _ in range(50):
        K = int(rng.integers(1, 30))
        qv = rng.uniform(0, 1, size=K)
        n = rng.integers(1, 500, size=K)
        b = mean_bound(qv, n, float(rng.uniform(0.01, 0.5)))
        assert b.value >= min(float(np.mean(qv)), 1.0) - 1e-12
        assert 0.0 <= b.value <= 1.0
        assert b.slack["meta"] >= 0 and b.slack["per_client"] >= 0


def test_mean_bound_monotone_in_delta():
    b1 = mean_bound(QV, N, 0.05)
    b2 = mean_bound(QV, N, 0.2)
    assert b1.raw_value >= b2.raw_value


def test_mean_bound_input_validation():
    with pytest.raises(ValueError):
        mean_bound(QV, N, 0.0)
    with pytest.raises(ValueError):
        mean_bound(QV, N, 1.0)
    with pytest.raises(ValueError):
        mean_bound(np.array([1.2]), np.array([10]), 0.1)
    with pytest.raises(ValueError):
        mean_bound(QV, N[:2], 0.1)


def test_cdf_bound_frozen_example():
    curve = cdf_bound(QV, N, 0.1, np.array([0.25]))
    # per-client shift .13986: indicators at lambda=.25 are [0,1,1,1]
    assert abs(curve.params["meta_slack"] - 0.758713564692573) < 1e-12
    i = np.searchsorted(curve.lambdas, 0.25)
    assert curve.lambdas[i] == 0.25
    assert abs(curve.raw[i] - (0.75 + 0.758713564692573)) < 1e-12
    assert curve.bounds[i] == 1.0


def test_cdf_bound_extremes():
    curve = cdf_bound(QV, N, 0.1, np.array([-0.5, 2.0]))
    assert curve.at(-0.5) == 1.0
    # above every shifted value only the meta term remains
    assert abs(curve.at(2.0) - curve.params["meta_slack"]) < 1e-12


def test_cdf_bound_nonincreasing_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(30):
        K = int(rng.integers(1, 40))
        qv = rng.uniform(0, 1, size=K)
        n = rng.integers(2, 400, size=K)
        grid = np.sort(rng.uniform(-0.2, 1.4, size=13))
        curve = cdf_bound(qv, n, 0.1, grid)
        assert np.all(np.diff(curve.bounds) <= 1e-12)
        assert np.all((curve.bounds >= 0) & (curve.bounds <= 1))
        shifts = np.sqrt(np.log((K + 1) / 0.1) / (2 * n))
        for lam in grid:
            emp = np.mean(qv + shifts >= lam)
            assert curve.at(lam) >= min(1.0, emp) - 1e-12


def test_cdf_bound_step_structure_between_breakpoints():
    # the curve is exact between breakpoints: querying off-grid thresholds
    # returns the value at the breakpoint immediately left of them
    curve = cdf_bound(QV, N, 0.1, np.linspace(0, 1, 5))
    lam = 0.3
    i = np.searchsorted(curve.lambdas, lam, side="right") - 1
    assert curve.at(lam) == curve.bounds[i]


def test_the_certificate_pads_the_empirical_program():
    # the mean bound is mean(qv) plus its two slack terms; the band at lambda
    # is the share of shifted values at or above it plus the meta term
    b = mean_bound(QV, N, 0.9)
    assert abs(b.raw_value - (np.mean(QV) + b.slack["meta"] + b.slack["per_client"])) < 1e-12
    assert b.value == b.raw_value < 1.0
    curve = cdf_bound(QV, N, 0.9, np.array([0.45]))
    shift = np.sqrt(np.log(5 / 0.9) / 200)
    want = np.mean(QV + shift >= 0.45) + curve.params["meta_slack"]
    assert abs(curve.at(0.45) - want) < 1e-12 and want < 1.0
