"""Transport-shift certificate: envelopes, water-filling and the assembled
mean bound, whose program value is the water-fill's exact maximum.

The allocation layer is checked against a brute 2-D grid oracle and the
envelope against an O(G^2) chord maximum recomputed in the test.
"""
import numpy as np
import pytest

from fedcert import (
    ZERO_ONE,
    BudgetExceededError,
    Client,
    Hypothesis,
    LocalDataset,
    LossFn,
    empirical_risk,
)
from fedcert import wass
from fedcert.concave import GreedyFill
from fedcert.losses import CROSS_ENTROPY, LINEAR, LOGISTIC
from fedcert.oracle import wass_alloc_grid_oracle
from fedcert.wass import (
    QvProfile,
    build_profiles,
    mean_radius_cap,
    wass_mean_bound,
)

H = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, -0.5]), bias=0.1)


def brute_envelope(x, y, t):
    """Concave upper envelope by exhausting chords between sample points."""
    best = -np.inf
    for i in range(len(x)):
        if x[i] - 1e-15 <= t <= x[i] + 1e-15:
            best = max(best, y[i])
        for j in range(len(x)):
            if x[i] < x[j] and x[i] - 1e-15 <= t <= x[j] + 1e-15:
                lam = (t - x[i]) / (x[j] - x[i])
                best = max(best, (1 - lam) * y[i] + lam * y[j])
    return best


def make_clients(rng, K, n, max_queries=None):
    out = []
    for i in range(K):
        ds = LocalDataset(
            client_id=i,
            features=rng.normal(size=(n, 2)),
            labels=rng.integers(0, 2, size=n),
        )
        out.append(Client(i, ds, LossFn(ZERO_ONE), max_queries=max_queries))
    return out


# ---------------------------------------------------------------- envelope

def test_envelope_matches_chord_bruteforce():
    rng = np.random.default_rng(np.random.SeedSequence(801))
    for _ in range(20):
        G = int(rng.integers(3, 12))
        x = np.sort(rng.uniform(0.0, 1.0, G))
        x += np.arange(G) * 1e-6   # keep strictly increasing
        y = rng.uniform(0.0, 1.0, G)
        p = QvProfile(client_id=0, n_samples=10, rhos=x, qvs=y)
        probes = np.concatenate([x, (x[:-1] + x[1:]) / 2.0])
        for t in probes:
            assert abs(float(p.envelope(t)) - brute_envelope(x, y, t)) < 1e-10
        # the envelope dominates the raw points
        assert np.all(p.envelope(x) >= y - 1e-12)
        # and its slopes are nonincreasing
        slopes = np.diff(p.hull_y) / np.diff(p.hull_x)
        assert np.all(np.diff(slopes) <= 1e-9)


def test_profile_validation():
    with pytest.raises(ValueError):
        QvProfile(client_id=0, n_samples=5, rhos=[0.1, 0.2], qvs=[0.3])
    with pytest.raises(ValueError):
        QvProfile(client_id=0, n_samples=5, rhos=[0.2, 0.1], qvs=[0.3, 0.4])
    with pytest.raises(ValueError):
        QvProfile(client_id=0, n_samples=5, rhos=[], qvs=[])


# -------------------------------------------------------------- allocation

def _alloc_instance(rng):
    eps = float(rng.uniform(0.05, 0.5))
    delta = 0.1
    floor = eps / 2.0
    cap = mean_radius_cap(eps, delta, 2)
    top = 2.0 * cap
    profiles = []
    for cid in range(2):
        x = np.linspace(floor, top, 12)
        y = rng.uniform(0.0, 0.8, 12)
        profiles.append(QvProfile(client_id=cid, n_samples=40, rhos=x, qvs=y))
    slope = max(float(np.max(np.abs(np.diff(p.hull_y) / np.diff(p.hull_x))))
                for p in profiles)
    return eps, delta, floor, cap, top, profiles, slope


def test_waterfill_matches_grid_oracle():
    rng = np.random.default_rng(np.random.SeedSequence(802))
    for _ in range(10):
        eps, delta, floor, cap, top, profiles, slope = _alloc_instance(rng)
        alloc = wass._waterfill(profiles, floor, cap)
        step = (top - floor) / 1500.0
        orc = wass_alloc_grid_oracle(profiles, floor, cap, step)
        # grid points are feasible, so the exact maximizer dominates them
        assert alloc.objective >= orc - 1e-9
        # and the grid resolves the optimum to one step of the worst slope
        assert alloc.objective <= orc + slope * step + 1e-9
        assert alloc.mean_rho <= cap + 1e-12
        assert np.all(alloc.rho >= floor - 1e-12)
        want = [p.envelope(r) for p, r in zip(profiles, alloc.rho)]
        assert np.allclose(alloc.values, want)


def _looped_waterfill(profiles, floor, mean_cap):
    """The water-fill with its segment table built as Python tuples, one
    profile at a time: the reference the array build must match bit for
    bit."""
    K = len(profiles)
    segs = []
    for i, p in enumerate(profiles):
        lo = np.maximum(p.hull_x[:-1], floor)
        segs += [(i, *s) for s in zip(lo, p.hull_x[1:] - lo, p.hull_y[1:] - p.envelope(lo))
                 if s[1] > 0.0 and s[2] > 0.0]
    segs = np.array(segs).reshape(-1, 4)
    taken = GreedyFill(segs[:, 2], segs[:, 3]).taken(K * (mean_cap - floor))
    rho = np.full(K, floor)
    used = taken > 0.0
    np.maximum.at(rho, segs[used, 0].astype(int), segs[used, 1] + taken[used])
    return rho, np.array([p.envelope(r) for p, r in zip(profiles, rho)])


def test_waterfill_matches_the_per_profile_loop_bit_for_bit():
    rng = np.random.default_rng(np.random.SeedSequence(814))
    for trial in range(200):
        K = int(rng.integers(1, 8))
        profiles = []
        for cid in range(K):
            x = np.unique(rng.uniform(0.0, 2.0, int(rng.integers(1, 10))))
            y = np.cumsum(rng.uniform(0.0, 0.2, len(x))) * (trial % 9 != 0)
            profiles.append(QvProfile(client_id=cid, n_samples=10, rhos=x, qvs=y))
        # floors below, inside and past the grids
        floor = float(rng.uniform(-0.2, 2.2))
        cap = floor + float(rng.exponential(0.5))
        alloc = wass._waterfill(profiles, floor, cap)
        rho, values = _looped_waterfill(profiles, floor, cap)
        assert alloc.rho.tolist() == rho.tolist()
        assert alloc.values.tolist() == values.tolist()
        assert alloc.objective == float(np.mean(values))


def test_wass_mean_bound_waterfills_once(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(813))
    clients = make_clients(rng, 4, 30)
    eps, delta = 0.08, 0.1
    allocs = []
    real = wass._waterfill

    def counting(*args):
        allocs.append(real(*args))
        return allocs[-1]

    monkeypatch.setattr(wass, "_waterfill", counting)
    b = wass_mean_bound(clients, H, eps, delta)
    assert len(allocs) == 1
    # the program value is the exact maximum itself, not a level near it
    assert b.extra["program_value"] == allocs[0].objective
    assert b.extra["witness_rho"] == allocs[0].rho.tolist()
    cap = mean_radius_cap(eps, delta, 4)
    assert b.params["mean_radius_cap"] == cap
    assert allocs[0].rho.min() >= eps / 4 and allocs[0].mean_rho <= cap + 1e-12


def test_constant_profiles_stay_at_the_floor():
    x = np.linspace(0.05, 1.0, 8)
    profiles = [
        QvProfile(client_id=i, n_samples=20, rhos=x, qvs=np.full(8, 0.37))
        for i in range(3)
    ]
    alloc = wass._waterfill(profiles, 0.05, mean_radius_cap(0.15, 0.1, 3))
    assert abs(alloc.objective - 0.37) < 1e-12
    assert np.allclose(alloc.rho, 0.05)


# ------------------------------------------------------------------ bounds

def test_mean_radius_cap_formula():
    eps, delta, K, c1 = 0.1, 0.05, 7, 0.9
    want = eps * (1 + 1 / 7) + c1 * np.sqrt(np.log((K + 2) / delta) / K)
    assert abs(mean_radius_cap(eps, delta, K, c1) - want) < 1e-12
    assert abs(mean_radius_cap(eps, delta, K, c1, include_slack=False)
               - eps * 8 / 7) < 1e-12


def test_build_profiles_grid_and_query_accounting():
    rng = np.random.default_rng(np.random.SeedSequence(804))
    clients = make_clients(rng, 3, 25, max_queries=16)
    eps, delta = 0.09, 0.1
    profiles = build_profiles(clients, H, eps, delta, grid_size=16)
    cap = mean_radius_cap(eps, delta, 3)
    for c, p in zip(clients, profiles):
        assert abs(p.rhos[0] - eps / 3) < 1e-15
        assert abs(p.rhos[-1] - 3 * cap) < 1e-12
        assert len(p.rhos) <= 16
        assert c.queries_used == len(p.rhos)
        assert p.n_samples == 25


def test_build_profiles_asks_each_client_once(monkeypatch):
    from fedcert import query
    rng = np.random.default_rng(np.random.SeedSequence(808))
    clients = make_clients(rng, 3, 25)
    keys, builds = [], []
    cache_key, make_inner = Hypothesis.cache_key, query._make_inner
    monkeypatch.setattr(Hypothesis, "cache_key",
                        lambda self: keys.append(1) or cache_key(self))
    monkeypatch.setattr(query, "_make_inner",
                        lambda *args: builds.append(1) or make_inner(*args))
    profiles = build_profiles(clients, H, 0.09, 0.1, grid_size=16)
    assert len(keys) == len(builds) == 3
    for c, p in zip(clients, profiles):
        assert c.queries_used == len(c.audit_log) == len(p.rhos) == 16
        assert [e["rho"] for e in c.audit_log] == p.rhos.tolist()


def test_build_profiles_budget_exhaustion():
    rng = np.random.default_rng(np.random.SeedSequence(805))
    clients = make_clients(rng, 2, 20, max_queries=5)
    with pytest.raises(BudgetExceededError):
        build_profiles(clients, H, 0.1, 0.1, grid_size=16)


def test_build_profiles_validation():
    with pytest.raises(ValueError):
        build_profiles([], H, 0.1, 0.1)
    rng = np.random.default_rng(np.random.SeedSequence(806))
    with pytest.raises(ValueError):
        build_profiles(make_clients(rng, 1, 10), H, 0.1, 0.1, grid_size=0)


def test_zero_epsilon_needs_slack_off():
    rng = np.random.default_rng(np.random.SeedSequence(807))
    clients = make_clients(rng, 3, 30)
    with pytest.raises(ValueError):
        wass_mean_bound(clients, H, 0.0, 0.1)


def test_a_budget_past_the_per_client_slack_is_refused_before_any_query():
    # log((K+2) n_k / (epsilon delta)) is not positive for the client of 10
    # samples once epsilon delta >= 4 * 10; its slack would be NaN
    rng = np.random.default_rng(np.random.SeedSequence(815))
    clients = make_clients(rng, 2, 10)
    clients[1] = make_clients(rng, 1, 1000)[0]
    for eps in (400.0, 1e5):
        with pytest.raises(ValueError, match="per-client slack"):
            wass_mean_bound(clients, H, eps, 0.1)
        assert all(c.queries_used == 0 for c in clients)
    b = wass_mean_bound(clients, H, 399.0, 0.1, grid_size=2)
    assert np.isfinite(b.raw_value) and b.slack["per_client"] > 0.0


def test_zero_epsilon_reduces_to_empirical_mean():
    rng = np.random.default_rng(np.random.SeedSequence(808))
    clients = make_clients(rng, 4, 40)
    emp = np.mean([
        empirical_risk(H, c._dataset, LossFn(ZERO_ONE)).value for c in clients
    ])
    b = wass_mean_bound(clients, H, 0.0, 0.1, include_slack=False)
    assert abs(b.value - emp) <= 2e-9
    assert b.slack["meta"] == 0.0 and b.slack["per_client"] == 0.0


def test_mean_bound_dominates_empirical_and_grows_with_epsilon():
    rng = np.random.default_rng(np.random.SeedSequence(809))

    def fresh():
        r = np.random.default_rng(np.random.SeedSequence(810))
        return make_clients(r, 4, 60)

    emp = np.mean([
        empirical_risk(H, c._dataset, LossFn(ZERO_ONE)).value for c in fresh()
    ])
    prev = -np.inf
    for eps in (0.01, 0.05, 0.1):
        b = wass_mean_bound(fresh(), H, eps, 0.1, include_slack=False)
        assert b.value >= emp - 1e-9
        assert b.value >= prev - 2e-6
        prev = b.value
    rob = wass_mean_bound(fresh(), H, 0.05, 0.1)
    assert rob.raw_value >= emp - 1e-9


def test_mean_bound_slack_formula_and_extras():
    rng = np.random.default_rng(np.random.SeedSequence(811))
    clients = make_clients(rng, 5, 50)
    eps, delta, K = 0.04, 0.1, 5
    b = wass_mean_bound(clients, H, eps, delta)
    meta = np.sqrt(np.log((K + 2) / delta) / (2 * K))
    ns = np.full(K, 50.0)
    per_client = float(np.mean(
        np.sqrt(np.log((K + 2) * ns / (eps * delta)) / ns)
    ))
    assert abs(b.slack["meta"] - meta) < 1e-12
    assert abs(b.slack["per_client"] - per_client) < 1e-12
    assert abs(b.raw_value - (b.extra["program_value"] + meta + per_client)) < 1e-12
    assert b.value == min(b.raw_value, 1.0)
    assert set(b.extra) == {"program_value", "witness_mean_rho", "witness_rho"}
    assert b.extra["witness_mean_rho"] <= b.params["mean_radius_cap"] + 1e-12


def test_status_reports_inexact_queries():
    rng = np.random.default_rng(np.random.SeedSequence(814))
    datasets = [
        LocalDataset(client_id=i, features=rng.normal(size=(4, 2)),
                     labels=rng.integers(0, 2, size=4))
        for i in range(2)
    ]
    flip = [Client(i, ds, LossFn(ZERO_ONE)) for i, ds in enumerate(datasets)]
    assert wass_mean_bound(flip, H, 0.05, 0.1, grid_size=2).status == "optimal"
    # the logistic score-line route bounds its inner supremum from above,
    # which keeps the certificate sound
    line = [Client(0, datasets[0], LossFn(ZERO_ONE)),
            Client(1, datasets[1], LossFn(CROSS_ENTROPY))]
    cert = wass_mean_bound(line, H, 0.05, 0.1, grid_size=2)
    assert {e["status"] for e in line[1].audit_log} == {"bound"}
    assert cert.status == "optimal"
    # a two-class linear-classifier's cross-entropy takes the same route
    linear = Hypothesis(kind=LINEAR, weights=np.array([[0.0, 0.0], [1.0, -0.5]]),
                        bias=np.array([0.0, 0.1]))
    mixed = [Client(0, datasets[0], LossFn(ZERO_ONE)),
             Client(1, datasets[1], LossFn(CROSS_ENTROPY))]
    assert wass_mean_bound(mixed, linear, 0.05, 0.1, grid_size=2).status == "optimal"
    assert {e["status"] for e in mixed[0].audit_log} == {"exact"}
    assert {e["status"] for e in mixed[1].audit_log} == {"bound"}


def test_mean_bound_validation():
    rng = np.random.default_rng(np.random.SeedSequence(812))
    clients = make_clients(rng, 2, 10)
    with pytest.raises(ValueError):
        wass_mean_bound(clients, H, -0.01, 0.1)
    with pytest.raises(ValueError):
        wass_mean_bound(clients, H, 0.1, 0.0)
