"""Transport-shift certificate: tangent envelopes, water-filling and the
assembled mean bound, whose program value is the water-fill's exact maximum.

The allocation layer is checked against a brute 2-D grid oracle and a
per-client loop, and the envelope against the exact queries it bounds.
"""
import numpy as np
import pytest

from fedcert import (
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    BudgetExceededError,
    Client,
    Hypothesis,
    LocalDataset,
    LossFn,
    TransportCost,
    adversarial_risk,
    empirical_risk,
    loss_values,
    query_profiles,
)
from fedcert import wass
from fedcert.losses import CROSS_ENTROPY, LINEAR, LOGISTIC
from fedcert.oracle import wass_alloc_grid_oracle, wass_ball_lp_oracle
from fedcert.wass import (
    DEFAULT_C1,
    mean_radius_cap,
    radius_grid,
    wass_mean_bound,
)

from _corpus import concave_curve, tangents
from _greedy_fill import GreedyFill

H = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, -0.5]), bias=0.1)


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


def envelope(grid, values, slopes, rho):
    """Each client's envelope at radii ``rho`` (one row per client) as the
    water-fill finds it: floor and cap both at the radius leave it no
    budget to spend."""
    return np.array([wass._waterfill(grid, values, slopes, r, r).values for r in rho]).T


# ---------------------------------------------------------------- envelope

def test_envelope_bounds_each_concave_curve_and_meets_it_on_the_grid():
    rng = np.random.default_rng(np.random.SeedSequence(801))
    for _ in range(40):
        grid = np.unique(rng.uniform(0.1, 1.0, int(rng.integers(1, 10))))
        curves = [concave_curve(rng, 0.05, 1.2) for _ in range(3)]
        values, slopes = tangents(curves, grid)
        dense = np.linspace(0.05, 2.0, 300)
        env = envelope(grid, values, slopes, dense)
        exact = np.array([c(dense)[0] for c in curves])
        assert np.all(env >= exact - 1e-12)
        assert np.all(env <= 1.0)
        assert np.allclose(envelope(grid, values, slopes, grid), values, atol=1e-12)
        # concave: the envelope's slopes do not rise
        assert np.all(np.diff(env, 2, axis=1) <= 1e-9)


def _route_clients(rng):
    """Clients of the flip, lookup-table grid and score-line routes."""
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    axis = np.linspace(-2.0, 2.0, 5)
    table_grid = np.array([[a, b] for a in axis for b in axis])
    lookup = Hypothesis(kind=LOOKUP, weights=rng.uniform(0.0, 1.0, len(table_grid)),
                        grid=table_grid)
    on_table = LocalDataset(client_id=1, features=table_grid[rng.integers(0, 25, 30)],
                            labels=np.zeros(30))
    return [(H, Client(0, LocalDataset(0, X, y), LossFn(ZERO_ONE))),
            (lookup, Client(1, on_table, LossFn(SQUARED))),
            (H, Client(2, LocalDataset(2, X, y), LossFn(CROSS_ENTROPY)))]


def test_envelope_lies_above_the_exact_query_on_every_route():
    rng = np.random.default_rng(np.random.SeedSequence(816))
    grid = radius_grid(0.01, 1.5, 8)
    dense = np.linspace(0.0, 2.0, 401)
    for h, client in _route_clients(rng):
        answers = client.query_profile(h, grid)
        values = np.array([[q.value for q in answers]])
        slopes = np.array([[q.gamma_star for q in answers]])
        env = envelope(grid, values, slopes, dense)[0]
        ds = client._dataset
        exact = [adversarial_risk(h, ds, r, loss_fn=client._loss_fn).value for r in dense]
        assert np.all(env >= np.array(exact) - 1e-12), h.kind


def test_envelope_lies_above_the_transport_lp_on_lookup_tables():
    cost = TransportCost()
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([817, seed]))
        table_grid = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        h = Hypothesis(kind=LOOKUP, weights=rng.uniform(0, 1, size=5), grid=table_grid)
        ds = LocalDataset(client_id=0, features=table_grid[rng.integers(0, 5, size=3)],
                          labels=np.zeros(3))
        client = Client(0, ds, LossFn(SQUARED))
        grid = radius_grid(0.02, 1.0, int(rng.integers(2, 6)))
        answers = client.query_profile(h, grid)
        values = np.array([[q.value for q in answers]])
        slopes = np.array([[q.gamma_star for q in answers]])
        losses = loss_values(LossFn(SQUARED), h, table_grid, np.zeros(5))
        dist = np.abs(ds.features - table_grid.T)
        radii = np.linspace(0.0, 1.2, 25)
        env = envelope(grid, values, slopes, radii)[0]
        for r, e in zip(radii, env):
            lp = wass_ball_lp_oracle(np.full(3, 1 / 3), losses, r, cost.of_distance(dist))
            assert e >= lp - 1e-9


# -------------------------------------------------------------- allocation

def _alloc_instance(rng):
    eps = float(rng.uniform(0.05, 0.5))
    delta = 0.1
    floor = eps / 2.0
    cap = mean_radius_cap(eps, delta, 2)
    top = 2.0 * cap
    grid = np.linspace(floor, top, 12)
    values, slopes = tangents([concave_curve(rng, floor, top) for _ in range(2)], grid)
    return floor, cap, top, grid, values, slopes


def test_waterfill_matches_grid_oracle():
    rng = np.random.default_rng(np.random.SeedSequence(802))
    for _ in range(10):
        floor, cap, top, grid, values, slopes = _alloc_instance(rng)
        alloc = wass._waterfill(grid, values, slopes, floor, cap)
        step = (top - floor) / 1500.0
        orc = wass_alloc_grid_oracle(grid, values, slopes, floor, cap, step)
        # grid points are feasible, so the exact maximizer dominates them
        assert alloc.objective >= orc - 1e-9
        # and the grid resolves the optimum to one step of the worst slope
        assert alloc.objective <= orc + np.max(slopes) * step + 1e-9
        assert alloc.mean_rho <= cap + 1e-12
        assert np.all(alloc.rho >= floor - 1e-12)
        lines = values + slopes * (alloc.rho[:, None] - grid)
        assert alloc.values.tolist() == np.minimum(1.0, lines.min(axis=1)).tolist()


def _looped_waterfill(grid, values, slopes, floor, mean_cap):
    """The water-fill with its pieces built as Python tuples, one client and
    one tangent line at a time: the reference the array build must match
    bit for bit."""
    K = len(values)
    pieces = []
    for k, (v, s) in enumerate(zip(values.tolist(), slopes.tolist())):
        edges = [-np.inf]
        for j in range(len(grid) - 1):
            step = grid[j + 1] - grid[j]
            drop = s[j] - s[j + 1]
            x = (v[j + 1] - v[j] - s[j + 1] * step) / drop if drop > 0 else step
            edges.append(min(max(grid[j] + x, grid[j]), grid[j + 1]))
        edges.append(np.inf)
        for j in range(len(grid)):
            lo = max(edges[j], floor)
            if s[j] > 0.0:
                width = min(edges[j + 1], lo + (1.0 - (v[j] + s[j] * (lo - grid[j]))) / s[j]) - lo
                if width > 0.0:
                    pieces.append((k, width, s[j] * width))
    pieces = np.array(pieces).reshape(-1, 3)
    taken = GreedyFill(pieces[:, 1], pieces[:, 2]).taken(K * (mean_cap - floor))
    spent = [0.0] * K
    for k, t in zip(pieces[:, 0].astype(int), taken):
        spent[k] += t
    rho = [floor + t for t in spent]
    out = [min(1.0, min(vj + sj * (r - gj) for vj, sj, gj in zip(v, s, grid)))
           for v, s, r in zip(values.tolist(), slopes.tolist(), rho)]
    return np.array(rho), np.array(out)


def test_waterfill_matches_the_per_client_loop_bit_for_bit():
    rng = np.random.default_rng(np.random.SeedSequence(814))
    for _ in range(200):
        K = int(rng.integers(1, 8))
        grid = np.unique(rng.uniform(0.0, 2.0, int(rng.integers(1, 10))))
        values, slopes = tangents([concave_curve(rng, 0.0, 2.0) for _ in range(K)], grid)
        # floors below, inside and past the grids
        floor = float(rng.uniform(-0.2, 2.2))
        cap = floor + float(rng.exponential(0.5))
        alloc = wass._waterfill(grid, values, slopes, floor, cap)
        rho, want = _looped_waterfill(grid.tolist(), values, slopes, floor, cap)
        assert alloc.rho.tolist() == rho.tolist()
        assert alloc.values.tolist() == want.tolist()
        assert alloc.objective == float(np.mean(want))


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
    # one water-fill of the certificate's one row
    assert len(allocs) == 1 and allocs[0].rho.shape == (1, 4)
    # the program value is the exact maximum itself, not a level near it
    assert b.extra["program_value"] == allocs[0].objective[0]
    assert b.extra["witness_rho"] == allocs[0].rho[0].tolist()
    cap = mean_radius_cap(eps, delta, 4)
    assert b.params["mean_radius_cap"] == cap
    assert allocs[0].rho.min() >= eps / 4 and allocs[0].mean_rho[0] <= cap + 1e-12


def test_constant_profiles_stay_at_the_floor():
    grid = np.linspace(0.05, 1.0, 8)
    values, slopes = np.full((3, 8), 0.37), np.zeros((3, 8))
    alloc = wass._waterfill(grid, values, slopes, 0.05, mean_radius_cap(0.15, 0.1, 3))
    assert abs(alloc.objective - 0.37) < 1e-12
    assert np.allclose(alloc.rho, 0.05)


def test_one_tangent_spends_the_budget_past_the_floor():
    # a one-point grid is one tangent line per client, which rises with the
    # budget up to 1
    grid = np.array([0.1])
    alloc = wass._waterfill(grid, np.array([[0.2], [0.5]]), np.array([[1.0], [2.0]]),
                            0.1, 0.3)
    # the steeper client takes the spare 0.4 until it reaches 1 at 0.35,
    # the other the remaining 0.15
    assert np.allclose(alloc.rho, [0.25, 0.35])
    assert np.allclose(alloc.values, [0.35, 1.0])


# ------------------------------------------------------------------ bounds

def test_mean_radius_cap_formula():
    eps, delta, K = 0.1, 0.05, 7
    want = eps * (1 + 1 / 7) + DEFAULT_C1 * np.sqrt(np.log((K + 2) / delta) / K)
    assert abs(mean_radius_cap(eps, delta, K) - want) < 1e-12


def test_radius_grid_spans_the_floor_to_the_whole_budget_on_one_client():
    rng = np.random.default_rng(np.random.SeedSequence(804))
    clients = make_clients(rng, 3, 25, max_queries=16)
    eps, delta = 0.09, 0.1
    cap = mean_radius_cap(eps, delta, 3)
    grid = radius_grid(eps / 3, 3 * cap, 16)
    assert abs(grid[0] - eps / 3) < 1e-15
    assert abs(grid[-1] - 3 * cap) < 1e-12
    assert len(grid) == 16 and np.all(np.diff(grid) > 0)
    wass_mean_bound(clients, H, eps, delta, grid_size=16)
    for c in clients:
        assert c.queries_used == len(c.audit_log) == 16
        assert [e["rho"] for e in c.audit_log] == grid.tolist()


def test_radius_grid_validation():
    assert radius_grid(0.1, 1.0, 1).tolist() == [0.1]
    with pytest.raises(ValueError):
        radius_grid(0.1, 1.0, 0)


def test_wass_mean_bound_asks_each_client_once(monkeypatch):
    from fedcert import query
    rng = np.random.default_rng(np.random.SeedSequence(808))
    clients = make_clients(rng, 3, 25)
    builds = []
    flip_init = query._FlipInner.__init__

    def counted(self, h, X, y, cost):
        builds.append(np.shape(y))
        flip_init(self, h, X, y, cost)

    monkeypatch.setattr(query._FlipInner, "__init__", counted)
    wass_mean_bound(clients, H, 0.09, 0.1, grid_size=16)
    # the three same-size flip clients answer through one stacked build
    assert builds == [(3, 25)]
    for c in clients:
        assert c.queries_used == len(c.audit_log) == 16


def test_wass_mean_bound_budget_exhaustion():
    rng = np.random.default_rng(np.random.SeedSequence(805))
    clients = make_clients(rng, 2, 20, max_queries=5)
    with pytest.raises(BudgetExceededError):
        wass_mean_bound(clients, H, 0.1, 0.1, grid_size=16)
    assert clients[0].queries_used == 5


def test_wass_mean_bound_needs_clients_and_a_grid():
    with pytest.raises(ValueError):
        wass_mean_bound([], H, 0.1, 0.1)
    rng = np.random.default_rng(np.random.SeedSequence(806))
    clients = make_clients(rng, 1, 10)
    with pytest.raises(ValueError):
        wass_mean_bound(clients, H, 0.1, 0.1, grid_size=0)
    assert clients[0].queries_used == 0


def test_coarse_grids_bound_an_exact_feasible_allocation():
    # the witness of a fine grid is feasible for every grid, and the exact
    # queries there give a value at or below the program each grid solves;
    # chords joining the grid answers fall below it at every size here
    # (0.650 at a one-point grid, 0.673 at two, 0.847 at 16, against 0.849).
    # The program runs at the mean cap epsilon (1 + 1/K): the certificate's
    # own cap adds its estimation term, which here lets every client reach 1
    rng = np.random.default_rng(np.random.SeedSequence(818))
    clients = make_clients(rng, 10, 40)
    eps, K = 0.05, len(clients)
    floor, cap = eps / K, eps * (1 + 1 / K)

    def program(grid_size):
        grid = radius_grid(floor, K * cap, grid_size)
        values, slopes = query_profiles(clients, H, grid)
        alloc = wass._waterfill(grid, values, slopes, floor, cap)
        return alloc, np.mean(wass._chords(grid, values, alloc.rho))

    fine, _ = program(256)
    feasible = np.mean([adversarial_risk(H, c._dataset, r).value
                        for c, r in zip(clients, fine.rho)])
    assert fine.objective >= feasible - 1e-12
    for g in (1, 2, 3, 4, 8, 16):
        alloc, chord_value = program(g)
        assert alloc.objective >= feasible - 1e-12, g
        assert alloc.objective - chord_value >= -1e-12, g


def test_zero_epsilon_is_refused_before_any_query():
    # the per-client slack carries log(1/epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(807))
    clients = make_clients(rng, 3, 30)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        wass_mean_bound(clients, H, 0.0, 0.1)
    assert all(c.queries_used == 0 for c in clients)


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


def test_zero_floor_and_cap_take_each_clients_radius_zero_answer():
    rng = np.random.default_rng(np.random.SeedSequence(808))
    clients = make_clients(rng, 4, 40)
    emp = np.mean([
        empirical_risk(H, c._dataset, LossFn(ZERO_ONE)).value for c in clients
    ])
    grid = np.array([0.0])
    alloc = wass._waterfill(grid, *query_profiles(clients, H, grid), 0.0, 0.0)
    assert alloc.rho.tolist() == [0.0] * 4
    assert abs(alloc.objective - emp) <= 2e-9


def test_mean_bound_dominates_empirical_and_grows_with_epsilon():
    rng = np.random.default_rng(np.random.SeedSequence(809))

    def fresh():
        r = np.random.default_rng(np.random.SeedSequence(810))
        return make_clients(r, 4, 60)

    emp = np.mean([
        empirical_risk(H, c._dataset, LossFn(ZERO_ONE)).value for c in fresh()
    ])
    # the program value; the slacked one carries log(1/epsilon)
    prev = -np.inf
    for eps in (0.01, 0.05, 0.1):
        program = wass_mean_bound(fresh(), H, eps, 0.1).extra["program_value"]
        assert program >= emp - 1e-9
        assert program >= prev - 2e-6
        prev = program
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
    assert set(b.extra) == {"program_value", "chord_value", "grid_gap",
                            "witness_mean_rho", "witness_rho"}
    assert b.extra["grid_gap"] == b.extra["program_value"] - b.extra["chord_value"]
    # the chord value interpolates each client's grid answers at its radius
    grid = np.array(sorted({e["rho"] for e in clients[0].audit_log}))
    chords = [np.interp(r, grid, [e["value"] for e in c.audit_log])
              for c, r in zip(clients, b.extra["witness_rho"])]
    assert abs(b.extra["chord_value"] - np.mean(chords)) < 1e-12
    assert 0.0 <= b.extra["grid_gap"]
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
