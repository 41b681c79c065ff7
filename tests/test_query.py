
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcert import (
    CROSS_ENTROPY,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    BudgetExceededError,
    Client,
    Hypothesis,
    LocalDataset,
    LossFn,
    MetaConfig,
    TransportCost,
    QueryValue,
    adversarial_risk,
    answer_table,
    draw_world,
    empirical_risk,
    empirical_risk_values,
    phi_gamma,
    query_profiles,
    wass_ball_lp_oracle,
)
from fedcert.losses import (
    LINEAR,
    DimensionMismatchError,
    Sample,
    loss_values,
    score_loss_values,
)
from fedcert import concave
from fedcert.metasim import _BLOCK_BYTES
from fedcert import query
from fedcert.query import (
    SCORE_LINE_TAU,
    _grid_candidates,
    _grid_staircases,
    _make_inner,
    _rising_score,
    sq_distances,
)

from _greedy_fill import GreedyFill
from test_concave import chain_hull

COST = TransportCost()


def dataset(X, y, cid=0):
    return LocalDataset(client_id=cid, features=np.atleast_2d(np.asarray(X, float)),
                        labels=np.asarray(y))


def costs(cost, X, G):
    """The cost from each row of X to each row of G, from the norm of their
    differences: the reference ``TransportCost.pairwise`` must match."""
    X, G = np.atleast_2d(X), np.atleast_2d(G)
    return cost.of_distance(np.linalg.norm(X[:, None, :] - G[None, :, :], axis=2))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("kind", ["half-squared-l2", "l2"])
def test_pairwise_costs_equal_the_norm_of_the_differences(d, kind):
    rng = np.random.default_rng(np.random.SeedSequence([1701, d, len(kind)]))
    G = rng.normal(size=(40, d)) * 2.0
    X = np.concatenate([rng.normal(size=(25, d)) * 3.0, G[:5]])   # some on the grid
    cost = TransportCost(kind)
    got = cost.pairwise(X, G)
    assert got.shape == (30, 40)
    assert np.all(got == costs(cost, X, G))
    assert np.all(got[25:, :5][np.eye(5, dtype=bool)] == 0.0)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("kind", ["half-squared-l2", "l2"])
def test_squared_distances_and_their_map_equal_pairwise_costs(d, kind):
    rng = np.random.default_rng(np.random.SeedSequence([1704, d, len(kind)]))
    G = rng.normal(size=(40, d)) * 2.0
    X = np.concatenate([rng.normal(size=(25, d)) * 3.0, G[:5]])   # some on the grid
    cost = TransportCost(kind)
    sq = sq_distances(X, G)
    want = costs(cost, X, G)
    assert cost.of_sq_distance(sq).tobytes() == cost.pairwise(X, G).tobytes() == want.tobytes()
    # the map never falls, so each group's least squared distance maps to its
    # least cost
    starts = np.r_[0, np.sort(rng.choice(np.arange(1, 40), 6, replace=False))]
    got = cost.of_sq_distance(np.minimum.reduceat(sq, starts, axis=1))
    assert got.tobytes() == np.minimum.reduceat(want, starts, axis=1).tobytes()


def test_empirical_all_correct_is_zero():
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    ds = dataset([[2.0], [3.0], [-1.0]], [1, 1, 0])
    assert empirical_risk(h, ds, LossFn(ZERO_ONE)).value == 0.0


def test_empirical_mean_of_two_losses():
    # squared losses 0.1 and 0.3 by construction -> mean 0.2
    grid = np.array([[0.0], [1.0]])
    h = Hypothesis(kind=LOOKUP, weights=np.array([0.0, 1.0]), grid=grid)
    y = np.array([np.sqrt(0.1), 1.0 - np.sqrt(0.3)])
    ds = dataset([[0.0], [1.0]], y)
    qv = empirical_risk(h, ds, LossFn(SQUARED))
    assert abs(qv.value - 0.2) < 1e-12
    assert qv.rho == 0.0 and qv.status == "exact"


def test_empirical_matches_naive_resummation():
    rng = np.random.default_rng(3)
    h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=3), bias=0.1)
    X = rng.normal(size=(100, 3))
    y = rng.integers(0, 2, size=100)
    qv = empirical_risk(h, dataset(X, y), LossFn(CROSS_ENTROPY))
    total = 0.0
    for i in range(100):
        total += float(loss_values(LossFn(CROSS_ENTROPY), h, X[i:i + 1], y[i:i + 1])[0])
    assert abs(qv.value - total / 100) < 1e-12


# -- phi_gamma ---------------------------------------------------------------

# -- many datasets' empirical risks at once ---------------------------------

_BATCH_RULES = {
    "logistic": Hypothesis(kind=LOGISTIC, weights=np.array([0.8, -1.3]), bias=0.2),
    "binary-linear": Hypothesis(kind=LINEAR, weights=np.array([[0.4, -0.2], [-0.9, 0.5]]),
                                bias=np.array([0.1, -0.1])),
    "lookup": Hypothesis(kind=LOOKUP, weights=np.linspace(0.0, 1.0, 9),
                         grid=np.stack(np.meshgrid(*[np.linspace(-1, 1, 3)] * 2),
                                       -1).reshape(-1, 2)),
}
# datasets of 2-D features per block when each holds n samples
_PER_BLOCK = {n: _BLOCK_BYTES // (8 * n * 2) for n in (30, 100)}


def _batch_datasets(rule, sizes, seed):
    """Datasets of the given sample counts; a lookup table's lie on its grid."""
    rng = np.random.default_rng(seed)
    out = []
    for k, n in enumerate(sizes):
        X = (_BATCH_RULES["lookup"].grid[rng.integers(0, 9, size=n)] if rule == "lookup"
             else rng.normal(size=(n, 2)) * 1.5)
        out.append(dataset(X, rng.integers(0, 2, size=n), cid=k))
    return out


def _one_at_a_time(h, ds, loss_fn):
    """The empirical risk from its own model pass and its own mean."""
    return QueryValue(value=float(np.mean(loss_values(loss_fn, h, ds.features, ds.labels))),
                      rho=0.0, gamma_star=0.0, inner_iterations=0)


@pytest.mark.parametrize("sizes", [
    [30],                                     # K = 1
    [40] * 3 + [7, 40, 1, 7],                 # ragged n_k
    [_BLOCK_BYTES // 16 + 5, 30],             # one dataset larger than a block
    [100] * (2 * _PER_BLOCK[100] + 3),        # K spanning three blocks
    [30, 100] * (_PER_BLOCK[100] + 1),        # ragged, the larger count over a block
], ids=["K1", "ragged", "over-a-block", "three-blocks", "ragged-blocks"])
@pytest.mark.parametrize("kind", [ZERO_ONE, CROSS_ENTROPY, SQUARED])
@pytest.mark.parametrize("rule", list(_BATCH_RULES))
def test_zero_radius_profiles_equal_each_datasets_own_risk(rule, kind, sizes):
    h, loss_fn = _BATCH_RULES[rule], LossFn(kind)
    datasets = _batch_datasets(rule, sizes, seed=len(sizes))
    clients = [Client(k, ds, loss_fn) for k, ds in enumerate(datasets)]
    if rule == "binary-linear" and kind == SQUARED:
        for ask in (lambda: query_profiles(clients, h, [0.0]),
                    lambda: empirical_risk(h, datasets[0], loss_fn)):
            with pytest.raises(ValueError):
                ask()
        assert all(c.queries_used == 0 for c in clients)
        return
    values, slopes = query_profiles(clients, h, [0.0])
    want = [_one_at_a_time(h, ds, loss_fn) for ds in datasets]
    assert values[:, 0].tolist() == [qv.value for qv in want] and not slopes.any()
    assert [c.audit_log for c in clients] == [[{"client": k, **qv.to_json_dict()}]
                                              for k, qv in enumerate(want)]
    assert [empirical_risk(h, ds, loss_fn) for ds in datasets] == want


@pytest.mark.parametrize("K", [1, 2 * _PER_BLOCK[30] + 1])
@pytest.mark.parametrize("kind", [ZERO_ONE, CROSS_ENTROPY])
@pytest.mark.parametrize("rule", list(_BATCH_RULES))
def test_empirical_risk_values_of_stacked_datasets(rule, kind, K):
    h, loss_fn = _BATCH_RULES[rule], LossFn(kind)
    datasets = _batch_datasets(rule, [30] * K, seed=K)
    X = np.stack([ds.features for ds in datasets])
    got = empirical_risk_values(h, X, np.stack([ds.labels for ds in datasets]), loss_fn)
    assert got.dtype == float and got.shape == (K,)
    assert got.tolist() == [_one_at_a_time(h, ds, loss_fn).value for ds in datasets]
    assert np.array_equal(h.stacked_scores(X),
                          np.concatenate([h.scores(ds.features) for ds in datasets]))
    with pytest.raises(DimensionMismatchError):
        h.stacked_scores(X[..., :1])


def test_zero_radius_profiles_of_no_clients_are_empty():
    values, slopes = query_profiles([], _BATCH_RULES["logistic"], [0.0])
    assert values.shape == slopes.shape == (0, 1)


def _budget_clients():
    """Clients of two losses; the third has spent its budget already."""
    h = _BATCH_RULES["logistic"]
    datasets = _batch_datasets("logistic", [20, 35, 20, 50, 20], seed=5)
    losses = [ZERO_ONE, CROSS_ENTROPY, ZERO_ONE, SQUARED, ZERO_ONE]
    caps = [None, 3, 1, None, 2]
    clients = [Client(k, ds, LossFn(kind), max_queries=cap)
               for k, (ds, kind, cap) in enumerate(zip(datasets, losses, caps))]
    clients[2].query(h, 0.05)
    return clients, h


def test_zero_radius_profiles_match_a_loop_of_client_queries():
    looped, h = _budget_clients()
    batched, _ = _budget_clients()
    want = []
    with pytest.raises(BudgetExceededError) as loop_error:
        for c in looped:
            want.append(c.query(h, 0.0))
    with pytest.raises(BudgetExceededError) as batch_error:
        query_profiles(batched, h, [0.0])
    assert batch_error.value.client_id == loop_error.value.client_id == 2
    for a, b in zip(batched, looped):
        assert a.audit_log == b.audit_log
        assert a.queries_used == b.queries_used
    assert [c.queries_used for c in batched] == [1, 1, 1, 0, 0]
    # past the spent client, every answer is the loop's
    rest = batched[:2] + batched[3:]
    values, slopes = query_profiles(rest, h, [0.0])
    want = [c.query(h, 0.0) for c in looped[:2] + looped[3:]]
    assert values[:, 0].tolist() == [q.value for q in want]
    assert not np.any(slopes)
    for a, b in zip(rest, looped[:2] + looped[3:]):
        assert a.audit_log == b.audit_log
        assert a.queries_used == b.queries_used


def ramp_lookup(num=1001):
    # table value equals the grid coordinate: squared loss becomes an exact
    # quadratic in the perturbed position
    g = np.linspace(0.0, 1.0, num)
    return Hypothesis(kind=LOOKUP, weights=g.copy(), grid=g.reshape(-1, 1))


def _quad_oracle(y, x, gamma, grid):
    # closed form: objective (y-g)^2 - gamma/2 (g-x)^2, maximized over the
    # grid by checking the endpoints and the neighbours of the stationary
    # point when the quadratic is concave
    a = 1.0 - gamma / 2.0
    cands = [grid[0], grid[-1]]
    if a < 0:
        g_star = (-y + gamma / 2.0 * x) / (gamma / 2.0 - 1.0)
        for gs in (np.floor(g_star * (len(grid) - 1)), np.ceil(g_star * (len(grid) - 1))):
            idx = int(np.clip(gs, 0, len(grid) - 1))
            cands.append(grid[idx])
    vals = [min((y - g) ** 2, 1.0) - gamma * 0.5 * (g - x) ** 2 for g in cands]
    return max(vals)


def test_phi_gamma_matches_quadratic_closed_form():
    h = ramp_lookup()
    grid = h.grid[:, 0]
    for gamma, x in ((1.0, 0.9), (4.0, 0.9), (4.0, 0.2), (0.3, 0.5)):
        z = Sample(features=np.array([x]), label=0.3)
        got = phi_gamma(h, gamma, z, COST, LossFn(SQUARED), grid=h.grid)
        want = _quad_oracle(0.3, x, gamma, grid)
        assert abs(got - want) < 1e-6, (gamma, x)


def test_phi_gamma_hand_values():
    h = ramp_lookup()
    z = Sample(features=np.array([0.9]), label=0.3)
    # gamma=1: convex in g, endpoint g=1 wins: 0.49 - 0.5*0.01 = 0.485
    assert abs(phi_gamma(h, 1.0, z, COST, LossFn(SQUARED), grid=h.grid) - 0.485) < 1e-12
    # gamma=4: concave, unconstrained argmax 1.5 capped at g=1: 0.49 - 2*0.01
    assert abs(phi_gamma(h, 4.0, z, COST, LossFn(SQUARED), grid=h.grid) - 0.47) < 1e-12


def test_phi_gamma_zero_is_sup_of_loss():
    h = ramp_lookup()
    z = Sample(features=np.array([0.5]), label=1.0)   # loss attains 1 at g=0
    assert phi_gamma(h, 0.0, z, COST, LossFn(SQUARED), grid=h.grid) == 1.0


def test_phi_gamma_large_gamma_recovers_pointwise_loss():
    h = ramp_lookup()
    z = Sample(features=np.array([0.5]), label=0.3)
    base = (0.3 - 0.5) ** 2
    got = phi_gamma(h, 1e7, z, COST, LossFn(SQUARED), grid=h.grid)
    assert abs(got - base) < 1e-6


def test_phi_gamma_nonincreasing_in_gamma():
    rng = np.random.default_rng(11)
    h = ramp_lookup(301)
    for _ in range(20):
        z = Sample(features=np.array([float(rng.uniform())]), label=float(rng.uniform()))
        gammas = np.sort(rng.uniform(0, 5, size=6))
        vals = [phi_gamma(h, g, z, COST, LossFn(SQUARED), grid=h.grid) for g in gammas]
        assert np.all(np.diff(vals) <= 1e-12)


def test_phi_gamma_plateau_on_the_score_line():
    # logistic squared loss with an out-of-range target saturates left of the
    # decision point; the score line's nodes must reach the clipped plateau
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    z = Sample(features=np.array([2.0]), label=1.5)
    for gamma in (0.05, 0.1, 0.2):
        got = phi_gamma(h, gamma, z, COST, LossFn(SQUARED))
        want = 1.0 - gamma * 0.5 * 4.0   # project onto the plateau {score <= 0}
        assert got <= want + 1e-9        # never above the true supremum
        assert got >= want - 5e-3        # and close enough to certify tightly


# -- adversarial_risk --------------------------------------------------------

def five_point_instance(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    table = rng.uniform(0, 1, size=5)
    h = Hypothesis(kind=LOOKUP, weights=table, grid=grid)
    X = grid[rng.integers(0, 5, size=3)]
    y = np.full(3, 0.0)
    return h, dataset(X, y), grid


def lp_value(h, ds, rho, grid):
    losses = loss_values(LossFn(SQUARED), h, grid, np.zeros(len(grid)))
    cost = costs(COST, ds.features, grid)
    masses = np.full(len(ds), 1.0 / len(ds))
    return wass_ball_lp_oracle(masses, losses, rho, cost)


def test_adversarial_risk_matches_lp_on_five_point_instances():
    for seed in range(12):
        h, ds, grid = five_point_instance(seed)
        for rho in (0.01, 0.05, 0.2):
            qv = adversarial_risk(h, ds, rho, COST, LossFn(SQUARED), grid=grid)
            lp = lp_value(h, ds, rho, grid)
            assert abs(qv.value - min(lp, 1.0)) < 1e-4, (seed, rho)


def test_adversarial_risk_mixed_labels_vs_joint_lp():
    # label changes are infinitely expensive: the LP couples each sample only
    # to targets sharing its label (cross pairs get a prohibitive cost)
    grid = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    rng = np.random.default_rng(99)
    table = rng.uniform(0, 1, size=5)
    h = Hypothesis(kind=LOOKUP, weights=table, grid=grid)
    X = grid[[0, 2, 4]]
    y = np.array([0.0, 1.0, 0.0])
    ds = dataset(X, y)

    losses = np.concatenate([
        loss_values(LossFn(SQUARED), h, grid, np.zeros(5)),
        loss_values(LossFn(SQUARED), h, grid, np.ones(5)),
    ])
    cost = np.full((3, 10), 1e9)
    for i in range(3):
        block = slice(0, 5) if y[i] == 0.0 else slice(5, 10)
        cost[i, block] = costs(COST, X[i:i + 1], grid)[0]
    for rho in (0.02, 0.1):
        lp = wass_ball_lp_oracle(np.full(3, 1 / 3), losses, rho, cost)
        qv = adversarial_risk(h, ds, rho, COST, LossFn(SQUARED), grid=grid)
        assert abs(qv.value - min(lp, 1.0)) < 1e-4


def test_adversarial_risk_continuity_at_zero():
    h, ds, grid = five_point_instance(4)
    base = empirical_risk(h, ds, LossFn(SQUARED)).value
    qv = adversarial_risk(h, ds, 1e-9, COST, LossFn(SQUARED), grid=grid)
    assert abs(qv.value - base) < 1e-3


def test_adversarial_risk_saturates():
    g = np.linspace(0.0, 1.0, 11)
    h = Hypothesis(kind=LOOKUP, weights=np.where(g == 0.0, 1.0, 0.0), grid=g.reshape(-1, 1))
    ds = dataset([[1.0], [0.5]], [0.0, 0.0])
    # moving both samples to g=0 costs at most 1/2 each; budget 1 covers it
    qv = adversarial_risk(h, ds, 1.0, COST, LossFn(ZERO_ONE), grid=g.reshape(-1, 1))
    assert qv.value == 1.0


def test_adversarial_risk_rejects_nonpositive_rho():
    h, ds, grid = five_point_instance(0)
    with pytest.raises(ValueError):
        adversarial_risk(h, ds, -0.1, COST, LossFn(SQUARED), grid=grid)


def test_monotone_in_rho_fuzz():
    rng = np.random.default_rng(21)
    for seed in range(25):
        h, ds, grid = five_point_instance(seed + 100)
        rhos = np.sort(rng.uniform(1e-4, 0.5, size=4))
        vals = [adversarial_risk(h, ds, r, COST, LossFn(SQUARED), grid=grid).value
                for r in rhos]
        assert np.all(np.diff(vals) >= -1e-9)


def test_weak_duality_against_random_feasible_perturbations():
    rng = np.random.default_rng(8)
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.5]), bias=-0.2)
    X = rng.normal(size=(6, 1))
    y = rng.integers(0, 2, size=6)
    ds = dataset(X, y)
    rho = 0.1
    dual = adversarial_risk(h, ds, rho, COST, LossFn(CROSS_ENTROPY)).value
    n = len(ds)
    hits = 0
    while hits < 100:
        # random move directions, scaled to sit inside the average-cost ball
        moves = rng.normal(size=(n, 1))
        budget_used = np.mean(0.5 * np.sum(moves ** 2, axis=1))
        scale = np.sqrt(rho / budget_used) * rng.uniform(0.2, 1.0)
        Xp = X + moves * scale
        assert np.mean(0.5 * np.sum((Xp - X) ** 2, axis=1)) <= rho + 1e-12
        perturbed = float(np.mean(loss_values(LossFn(CROSS_ENTROPY), h, Xp, y)))
        assert perturbed <= dual + 1e-6
        hits += 1


def test_gamma_star_within_lemma_range():
    h, ds, grid = five_point_instance(2)
    for rho in (0.05, 0.3):
        qv = adversarial_risk(h, ds, rho, COST, LossFn(SQUARED), grid=grid)
        assert 0.0 <= qv.gamma_star <= 1.0 / rho + 1e-9


def test_flip_solver_agrees_with_fine_grid():
    # zero-one loss with a linear rule: the exact flip distance must dominate
    # any grid discretization and agree in the fine-grid limit
    rng = np.random.default_rng(17)
    h = Hypothesis(kind=LOGISTIC, weights=np.array([2.0]), bias=-0.5)
    X = rng.normal(size=(5, 1))
    y = rng.integers(0, 2, size=5)
    ds = dataset(X, y)
    fine = np.linspace(-4, 4, 4001).reshape(-1, 1)
    for rho in (0.01, 0.1):
        exact = adversarial_risk(h, ds, rho, COST, LossFn(ZERO_ONE))
        gridded = adversarial_risk(h, ds, rho, COST, LossFn(ZERO_ONE), grid=fine)
        assert exact.value >= gridded.value - 1e-9
        assert abs(exact.value - gridded.value) < 1e-2
        assert exact.status == "exact"


# -- the exact flip route ----------------------------------------------------
# Expected values are worked out by hand or checked through the public
# phi_gamma, never through the knapsack the route solves.

UNIT_RULE = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)


def test_flip_knapsack_hand_instance_splits_one_sample():
    # correct samples at x = 1, 2, 3 flip at half-squared costs 0.5, 2, 4.5;
    # the sample at x = -1 is already wrong.  Budget n * rho = 2 pays the first
    # flip and 1.5 / 2 of the second: value (1 + 1 + 0.75) / 4, slope 1 / 2
    ds = dataset([[1.0], [2.0], [3.0], [-1.0]], [1, 1, 1, 1])
    qv = adversarial_risk(UNIT_RULE, ds, 0.5)
    assert abs(qv.value - 0.6875) < 1e-15
    assert abs(qv.gamma_star - 0.5) < 1e-15
    assert qv.status == "exact" and qv.inner_iterations == 1


def test_flip_constant_rule_gives_empirical_value():
    ds = dataset([[0.1, 2.0], [-1.0, 0.5], [3.0, -2.0]], [1, 0, 1])
    # zero logistic weights, and a binary linear rule whose rows are equal
    for h in (Hypothesis(kind=LOGISTIC, weights=np.array([0.0, 0.0]), bias=0.3),
              Hypothesis(kind=LINEAR, weights=np.array([[0.5, -1.0], [0.5, -1.0]]),
                         bias=np.array([0.0, 0.3]))):
        emp = empirical_risk(h, ds, LossFn(ZERO_ONE)).value
        assert emp == pytest.approx(1 / 3)
        for rho in (1e-9, 1e-3, 0.1, 10.0):
            qv = adversarial_risk(h, ds, rho)
            assert qv.value == emp and qv.gamma_star == 0.0


def test_flip_boundary_samples_flip_for_free():
    # score 0 predicts class 1, so the first two samples are correct yet sit on
    # the boundary; the tiny budget goes to the third, whose flip costs 2
    ds = dataset([[0.0], [0.0], [2.0]], [1, 1, 1])
    rho = 1e-6
    qv = adversarial_risk(UNIT_RULE, ds, rho)
    assert abs(qv.value - (2.0 + 3 * rho / 2.0) / 3.0) < 1e-15
    assert qv.gamma_star == 0.5


def test_flip_saturates_once_every_finite_flip_is_paid():
    ds = dataset([[1.0], [2.0], [-1.0]], [1, 1, 1])   # costs 0.5 and 2
    just_short = adversarial_risk(UNIT_RULE, ds, 2.5 / 3 - 1e-9)
    assert just_short.value < 1.0 and just_short.gamma_star == 0.5
    for rho in (2.5 / 3 + 1e-9, 5.0):
        qv = adversarial_risk(UNIT_RULE, ds, rho)
        assert qv.value == 1.0 and qv.gamma_star == 0.0


def test_flip_route_weak_duality_and_shape_on_random_instances():
    rng = np.random.default_rng(np.random.SeedSequence(1201))
    rhos = np.linspace(0.01, 1.0, 25)
    for trial in range(20):
        d = int(rng.integers(1, 4))
        weights = rng.normal(size=d) if trial % 5 else np.zeros(d)
        h = Hypothesis(kind=LOGISTIC, weights=weights, bias=float(rng.normal()))
        n = int(rng.integers(1, 30))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        ds = dataset(X, y)
        samples = [Sample(features=X[i], label=y[i]) for i in range(n)]
        vals = []
        for rho in rhos:
            qv = adversarial_risk(h, ds, float(rho))
            assert 0.0 <= qv.gamma_star <= 1.0 / rho
            dual = qv.gamma_star * rho + np.mean(
                [phi_gamma(h, qv.gamma_star, z) for z in samples])
            assert abs(qv.value - dual) < 1e-12, (trial, rho)
            vals.append(qv.value)
        vals = np.array(vals)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) <= 1e-12)


def test_grid_route_off_grid_data_never_below_empirical():
    # continuous data off the declared grid: each sample may stay where it is
    rng = np.random.default_rng(np.random.SeedSequence(1202))
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, -0.5]), bias=0.1)
    axis = np.linspace(-3.0, 3.0, 7)
    grid = np.array([[a, b] for a in axis for b in axis])
    ds = dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, size=40))
    c = Client(0, ds, LossFn(ZERO_ONE), grid=grid)
    emp = c.query(h, 0.0).value
    assert emp > 0.0
    vals = [c.query(h, float(r)).value for r in np.geomspace(1e-4, 2.0, 12)]
    assert vals[0] >= emp
    assert np.all(np.diff(vals) >= 0.0)


def test_grid_route_lookup_data_on_a_subset_grid():
    # a ramp table on 11 points searched over every other point: the sample
    # at 0.5 is wrong, the others flip at the nearest point across 0.5 for a
    # half-squared cost of 0.125 each, slope 8
    table = np.linspace(0.0, 1.0, 11)
    h = Hypothesis(kind=LOOKUP, weights=table.copy(), grid=table.reshape(-1, 1))
    X = [[0.1], [0.5], [0.9]]
    y = [0, 0, 1]
    ds = dataset(X, y)
    c = Client(0, ds, LossFn(ZERO_ONE), grid=table[::2].reshape(-1, 1))
    emp = c.query(h, 0.0).value
    assert emp == pytest.approx(1 / 3)
    qv = c.query(h, 1e-6)
    assert qv.value >= emp
    assert abs(qv.value - (1.0 + 3e-6 / 0.125) / 3.0) < 1e-15
    assert qv.gamma_star == 8.0 and qv.status == "exact"
    dual = qv.gamma_star * 1e-6 + np.mean([
        phi_gamma(h, qv.gamma_star, Sample(features=np.array(x), label=lab),
                  COST, LossFn(ZERO_ONE), grid=table[::2].reshape(-1, 1))
        for x, lab in zip(X, y)])
    assert abs(qv.value - dual) < 1e-15
    # the budget 3 / 24 pays exactly one flip; 0.1 pays both
    assert abs(c.query(h, 1.0 / 24.0).value - 2.0 / 3.0) < 1e-15
    qv = c.query(h, 0.1)
    assert qv.value == 1.0 and qv.gamma_star == 0.0


def test_grid_route_refuses_lookup_data_off_its_table():
    h = ramp_lookup(11)
    ds = dataset([[0.55]], [0.3])
    with pytest.raises(ValueError):
        adversarial_risk(h, ds, 0.1, COST, LossFn(SQUARED))


# -- the score-line route -----------------------------------------------------
# The brute-force side of these checks is worked out here, on each sample's
# score line, without the knapsack the route solves.  A two-class
# linear-classifier takes the route as its margin logistic rule; its brute
# force moves along w1 - w0 and uses the linear rule's own losses.

def _score_line_instance(rng, kind, cost_kind, rule=LOGISTIC):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 31))
    if rule == LOGISTIC:
        h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=d) * rng.uniform(0.3, 3.0),
                       bias=float(rng.normal()))
    else:
        h = Hypothesis(kind=LINEAR, weights=rng.normal(size=(2, d)) * rng.uniform(0.3, 3.0),
                       bias=rng.normal(size=2))
    X = rng.normal(size=(n, d))
    y = (rng.integers(0, 2, size=n).astype(float) if kind == CROSS_ENTROPY
         else rng.uniform(-0.5, 1.5, size=n))
    return h, X, y, LossFn(kind), TransportCost(cost_kind)


def _margin(h, X):
    """The binary rule's margin score at each row of X: the logistic score,
    or s1 - s0."""
    s = h.scores(X)
    return s if h.kind == LOGISTIC else s[:, 1] - s[:, 0]


def _line_points(h, X, y, loss_fn, cost, span=40.0, num=100_001):
    """Losses and costs of ``num`` points on each sample's score line, with
    margin scores within ``span`` of its own; the middle point is the sample."""
    w = h.margin_direction()
    s = _margin(h, X)
    t = np.linspace(-span, span, num)
    L = np.empty((len(X), num))
    C = np.empty((len(X), num))
    for i in range(len(X)):
        pts = X[i] + np.outer(t / (w @ w), w)
        L[i] = loss_values(loss_fn, h, pts, np.full(num, y[i]))
        C[i] = cost.of_distance(np.linalg.norm(pts - X[i], axis=1))
    assert np.allclose(_margin(h, X[:1] + np.outer(t[:3] / (w @ w), w)), s[0] + t[:3])
    return L, C


def _random_feasible(rng, h, X, y, loss_fn, cost, rho, tries=300):
    """The best mean loss of random moves whose mean cost is within rho;
    half of them run along the margin direction, where the losses change
    fastest."""
    n, d = X.shape
    best = float(np.mean(loss_values(loss_fn, h, X, y)))
    for trial in range(tries):
        moves = rng.normal(size=(n, d))
        if trial % 2:
            moves = np.outer(rng.choice([-1.0, 1.0], size=n), h.margin_direction())
        moves *= rng.exponential(1.0, size=(n, 1)) ** 2
        spent = float(np.mean(cost.of_distance(np.linalg.norm(moves, axis=1))))
        if spent == 0.0:
            continue
        # half-squared cost scales with the square of the move
        scale = rho / spent if cost.kind == "l2" else np.sqrt(rho / spent)
        Xp = X + moves * scale * rng.uniform(0.5, 1.0)
        assert np.mean(cost.of_distance(np.linalg.norm(Xp - X, axis=1))) <= rho * (1 + 1e-12)
        best = max(best, float(np.mean(loss_values(loss_fn, h, Xp, y))))
    return best


def _front(c, l):
    """The points with more loss than every cheaper one: only they can
    attain a penalized maximum."""
    o = np.argsort(c, kind="stable")
    c, l = c[o], l[o]
    rising = np.r_[True, l[1:] > np.maximum.accumulate(l)[:-1]]
    return c[rising], l[rising]


@pytest.mark.parametrize("rule, kind", [(LOGISTIC, CROSS_ENTROPY), (LOGISTIC, SQUARED),
                                        (LINEAR, CROSS_ENTROPY)])
@pytest.mark.parametrize("cost_kind", ["half-squared-l2", "l2"])
def test_score_line_bound_is_sound_and_within_tau(rule, kind, cost_kind):
    seed = [1301, len(kind), len(cost_kind)] + ([2] if rule == LINEAR else [])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 48)])
    for _ in range(5):
        h, X, y, loss_fn, cost = _score_line_instance(rng, kind, cost_kind, rule)
        L, C = _line_points(h, X, y, loss_fn, cost)
        front = [_front(c, l) for c, l in zip(C, L)]

        def mean_phi(g):
            return float(np.mean([np.max(l - g * c) for c, l in front]))

        on_grid = [mean_phi(g) for g in gammas]
        ds = dataset(X, y)
        emp = empirical_risk(h, ds, loss_fn).value
        for rho in (1e-3, 0.05, 0.4, 3.0):
            qv = adversarial_risk(h, ds, rho, cost, loss_fn)
            assert qv.status == "bound" and qv.inner_iterations == 1
            assert 0.0 <= qv.gamma_star <= 1.0 / rho
            if rule == LINEAR:
                # every field equals the margin logistic rule's answer
                margin = Hypothesis(kind=LOGISTIC, weights=h.margin_direction(),
                                    bias=float(h.bias[1] - h.bias[0]))
                assert qv == adversarial_risk(margin, ds, rho, cost, loss_fn)
            dual = min(qv.gamma_star * rho + mean_phi(qv.gamma_star),
                       min(g * rho + p for g, p in zip(gammas, on_grid)))
            feasible = _random_feasible(rng, h, X, y, loss_fn, cost, rho)
            assert emp <= qv.value
            assert feasible <= qv.value + 1e-12, (rho, feasible, qv.value)
            assert qv.value <= dual + SCORE_LINE_TAU + 1e-4, (rho, qv.value, dual)


def test_score_line_phi_is_within_tau_below_the_line_maximum():
    rng = np.random.default_rng(np.random.SeedSequence(1302))
    for kind in (CROSS_ENTROPY, SQUARED):
        h, X, y, loss_fn, cost = _score_line_instance(rng, kind, "half-squared-l2")
        L, C = _line_points(h, X, y, loss_fn, cost)
        for gamma in (0.0, 0.1, 1.0, 10.0):
            got = np.array([phi_gamma(h, gamma, Sample(features=X[i], label=y[i]),
                                      cost, loss_fn) for i in range(len(X))])
            dense = np.max(L - gamma * C, axis=1)
            # the nodes are points of the line, at most tau below its maximum;
            # neighbouring dense points differ by 8e-4 in score, so the
            # maximum lies less than 1e-3 above theirs
            assert np.all(got >= dense - SCORE_LINE_TAU - 1e-12)
            assert np.all(got <= dense + 1e-3)


def test_score_line_constant_rule_gives_empirical_value():
    h = Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=0.4)
    ds = dataset([[0.1, 2.0], [-1.0, 0.5], [3.0, -2.0]], [1.0, 0.0, 1.0])
    for kind in (CROSS_ENTROPY, SQUARED):
        emp = empirical_risk(h, ds, LossFn(kind)).value
        for rho in (1e-3, 0.1, 10.0):
            qv = adversarial_risk(h, ds, rho, COST, LossFn(kind))
            assert qv.value == emp and qv.gamma_star == 0.0


def test_score_line_plateau_and_asymptote_hand_values():
    # y = 1.5: the squared loss reaches its clip at sigmoid(u) = 1/2, u = 0,
    # a half-squared cost of 2 away from x = 2; the budget 2 buys it whole
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    qv = adversarial_risk(h, dataset([[2.0]], [1.5]), 2.0, COST, LossFn(SQUARED))
    assert qv.value == 1.0
    # the clip point is a node, so phi finds the plateau's edge exactly
    z = Sample(features=np.array([2.0]), label=1.5)
    for gamma in (0.05, 0.2):
        assert phi_gamma(h, gamma, z, COST, LossFn(SQUARED)) == 1.0 - gamma * 2.0
    # y = 0.5 and x = 0: the loss rises on both sides towards 1/4, never
    # reached; the bound sits within tau above any reachable value
    ds = dataset([[0.0]], [0.5])
    for rho in (0.5, 50.0):
        qv = adversarial_risk(h, ds, rho, COST, LossFn(SQUARED))
        reach = (0.5 - 1.0 / (1.0 + np.exp(-np.sqrt(2.0 * rho)))) ** 2
        assert reach <= qv.value <= min(reach, 0.25) + SCORE_LINE_TAU


def _counted_model_passes(monkeypatch):
    """The number of samples each ``scores`` or ``stacked_scores`` call
    scores, in call order."""
    passes = []
    for name in ("scores", "stacked_scores"):
        def counted(self, Xq, model=getattr(Hypothesis, name)):
            out = model(self, Xq)
            passes.append(len(out))
            return out
        monkeypatch.setattr(Hypothesis, name, counted)
    return passes


def test_score_line_build_makes_one_model_pass_per_profile_call(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(1303))
    h, X, y, loss_fn, cost = _score_line_instance(rng, CROSS_ENTROPY, "l2")
    c = Client(0, dataset(X, y), loss_fn, cost=cost)
    passes = _counted_model_passes(monkeypatch)
    c.query(h, 0.1)
    assert passes == [len(X)]
    del passes[:]
    c.query_profile(h, [0.01, 0.5, 2.0])
    assert passes == [len(X)]


def test_score_line_cross_entropy_needs_binary_labels():
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    with pytest.raises(ValueError):
        adversarial_risk(h, dataset([[0.0], [1.0]], [0.0, 0.5]), 0.1, COST,
                         LossFn(CROSS_ENTROPY))


# -- the hulled fills against the per-row reference ----------------------------
# Before the segmented hull, each sample's candidates were sorted by one
# lexsort and hulled by one monotone chain, row by row.  That fill is kept
# here as the reference, and every answer must equal it bit for bit.

def per_row_hull_fill(blocks):
    """Total loss at cost 0, and the fill over the rising segments of each
    row's upper hull of its (C, L) points, one row at a time; ``blocks``
    yields (C, L) matrices, one row per sample."""
    base, pieces = [], []
    for C, L in blocks:
        order = np.lexsort((-L, C))
        Cs, Ls = (np.take_along_axis(a, order, axis=1) for a in (C, L))
        best_before = np.maximum.accumulate(Ls, axis=1)[:, :-1]
        keep = np.column_stack([np.ones(len(Ls), dtype=bool), Ls[:, 1:] > best_before])
        base.append(Ls[:, 0])
        pieces += [np.diff(chain_hull(c[k], l[k])) for c, l, k in zip(Cs, Ls, keep)]
    return float(np.sum(np.concatenate(base))), GreedyFill(*np.concatenate(pieces, axis=1))


def grid_reference(h, X, y, grid, cost, loss_fn):
    """The reference fill of the grid route: each sample's own point at
    cost 0, then every grid point."""
    L = np.array([loss_values(loss_fn, h, grid, np.full(len(grid), lab)) for lab in y])
    own = loss_values(loss_fn, h, X, y)
    return per_row_hull_fill([(np.column_stack([np.zeros(len(X)), costs(cost, X, grid)]),
                               np.column_stack([own, L]))])


_REFERENCE_RHOS = np.concatenate([[0.0], np.geomspace(1e-5, 20.0, 40)])


def assert_answers_match(inner, base, fill):
    """A one-client inner's table equals, bit for bit, the reference
    ``GreedyFill`` ``fill``'s from the total loss ``base`` at cost 0, and
    its status is its route's."""
    assert inner._base.tolist() == [base]
    gain, slope = fill(inner._n * _REFERENCE_RHOS)
    values, slopes = inner.table(_REFERENCE_RHOS)
    assert values.shape == slopes.shape == (1, len(_REFERENCE_RHOS))
    assert values[0].tobytes() == np.clip((base + gain) / inner._n, 0.0, 1.0).tobytes()
    assert slopes[0].tobytes() == slope.tobytes()
    assert inner._status == ("bound" if isinstance(inner, query._ScoreLineInner) else "exact")


def _grid_case(name):
    rng = np.random.default_rng(np.random.SeedSequence([1702, len(name)]))
    axis = np.linspace(-3.0, 3.0, 9)
    grid = np.array([[a, b] for a in axis for b in axis])
    logistic = Hypothesis(kind=LOGISTIC, weights=np.array([1.1, -0.6]), bias=0.2)
    if name == "on-grid":
        # samples snapped onto the grid: each has a grid point at cost 0
        X = grid[rng.integers(0, len(grid), 60)]
        return logistic, X, rng.integers(0, 2, 60), grid, COST, LossFn(ZERO_ONE)
    if name == "off-grid":
        X = rng.normal(size=(60, 2)) * 1.5
        return logistic, X, rng.integers(0, 2, 60), grid, TransportCost("l2"), LossFn(ZERO_ONE)
    if name == "lookup":
        # a table of quarter steps, so many grid points share a loss; its
        # first three points are listed twice, so a sample there has two
        # grid points at cost 0 (a lookup reads the first copy for both)
        grid = np.concatenate([grid, grid[:3]])
        h = Hypothesis(kind=LOOKUP, weights=rng.integers(0, 5, len(grid)) / 4.0, grid=grid)
        X = np.concatenate([grid[rng.integers(0, len(grid), 40)], grid[:3]])
        return h, X, rng.choice([0.0, 0.5, 1.0], len(X)), None, COST, LossFn(SQUARED)
    if name == "cost-0 neighbour":
        # a grid point 1e-200 from samples on the boundary: its half-squared
        # cost underflows to 0, and it is on the other side, so it has more
        # loss at cost 0 than the samples' own points
        h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.0]), bias=0.0)
        grid = np.concatenate([grid, [[-1e-200, 0.5]]])
        X = np.concatenate([[[0.0, 0.5]] * 3, rng.normal(size=(20, 2))])
        return h, X, np.r_[1, 1, 0, rng.integers(0, 2, 20)], grid, COST, LossFn(ZERO_ONE)
    X = np.concatenate([rng.normal(size=(40, 2)), grid[rng.integers(0, len(grid), 20)]])
    return logistic, X, rng.uniform(-0.5, 1.5, 60), grid, COST, LossFn(SQUARED)


@pytest.mark.parametrize("name", ["on-grid", "off-grid", "lookup", "squared",
                                  "cost-0 neighbour"])
def test_grid_fill_matches_the_per_row_reference(name):
    h, X, y, grid, cost, loss_fn = _grid_case(name)
    inner = _make_inner(h, X[None], np.asarray(y)[None], cost, loss_fn, grid)
    search = h.grid if grid is None else grid
    if name == "cost-0 neighbour":
        assert cost.pairwise(X[:1], search)[0, -1] == 0.0
        assert inner._base[0] > empirical_risk(h, dataset(X, y), loss_fn).value * len(X)
    assert_answers_match(inner, *grid_reference(h, X, y, search, cost, loss_fn))


@pytest.mark.parametrize("name", ["on-grid", "off-grid", "lookup", "squared",
                                  "cost-0 neighbour"])
def test_grid_staircases_from_squared_distance_minima_equal_the_full_cost_ones(name):
    h, X, y, grid, cost, loss_fn = _grid_case(name)
    search = h.grid if grid is None else grid
    losses, which, own = _grid_candidates(h, X, y, search, loss_fn)
    C = costs(cost, X, search)
    full = _grid_staircases(lambda label, mine, order: C[mine][:, order],
                            losses, which, own, lambda c: c)
    got = _grid_staircases(lambda label, mine, order: sq_distances(X[mine], search[order]),
                           losses, which, own, cost.of_sq_distance)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in full]


def line_reference_rows(h, X, y, cost, loss_fn):
    """Each sample's candidate row (C, L), from its own loop over the levels
    k tau: its own point at cost 0, then on each side where the loss rises
    above its own, one candidate per node j -- the larger of the losses of
    nodes j - 1 and j, at node j - 1's cost when that node has more loss
    than the sample, else at cost 0 -- and a tail carrying the side's
    ceiling.  Also, per row, how many sides have a candidate of positive
    cost."""
    J = round(1 / SCORE_LINE_TAU)
    levels = np.arange(1, J + 1) / J
    w = float(np.linalg.norm(h.weights))
    rows, costly = [], []
    for s, lab in zip(h.scores(X), y):
        own = score_loss_values(loss_fn, h, np.array([s]), np.array([lab]))[0]
        C, L, sides = [0.0], [own], 0
        for side in ((-1.0, 1.0) if w > 0.0 else ()):
            if loss_fn.kind == CROSS_ENTROPY:
                top = 1.0 if (lab == 1.0) == (side < 0.0) else 0.0
            else:
                top = min(1.0, (lab if side < 0.0 else 1.0 - lab) ** 2)
            if top <= own:
                continue
            u = _rising_score(loss_fn, levels[levels < top], lab, side)
            u = u[np.isfinite(u)]
            node_l = score_loss_values(loss_fn, h, u, np.full(len(u), lab))
            node_c = cost.of_distance(np.abs(u - s) / w)
            first = len(C)
            prev_c, prev_l = 0.0, -np.inf
            for c, l in zip(node_c, node_l):
                C.append(prev_c if prev_l > own else 0.0)
                L.append(max(prev_l, l))
                prev_c, prev_l = c, l
            C.append(prev_c if prev_l > own else 0.0)
            L.append(top)
            sides += max(C[first:]) > 0.0
        rows.append((np.array(C), np.array(L)))
        costly.append(sides)
    return rows, np.array(costly)


def _line_cases(kind, rng):
    """(name, h, X, y): random samples of a two-feature rule; a rule whose
    scores are its one feature, with samples at nodes (own loss equal to a
    node's), at and past the clip, and squared-loss labels 1.5 and -0.5,
    whose low levels have no point on one side; and a constant rule."""
    loss_fn = LossFn(kind)
    h = Hypothesis(kind=LOGISTIC, weights=np.array([0.9, -1.4]), bias=0.3)
    X = rng.normal(size=(80, 2)) * 2.0
    # squared-loss labels near 1/2 rise on both sides of the score line
    y = (rng.integers(0, 2, 80).astype(float) if kind == CROSS_ENTROPY
         else np.concatenate([rng.uniform(0.3, 0.7, 40), rng.uniform(-0.5, 1.5, 40)]))
    yield "random", h, X, y
    J = round(1 / SCORE_LINE_TAU)
    at = np.array([1, 7, 250, 251, 600, J]) / J
    s, labels = [], []
    for lab in ([0.0, 1.0] if kind == CROSS_ENTROPY else [1.5, -0.5, 0.5, 0.0, 1.0, 0.9]):
        for side in (-1.0, 1.0):
            u = _rising_score(loss_fn, at, lab, side)
            u = np.concatenate([u[np.isfinite(u)], [8.0 * side, 0.0]])
            s.append(u)
            labels += [lab] * len(u)
    identity = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    on_line = np.concatenate(s)[:, None]
    assert np.array_equal(identity.scores(on_line), on_line[:, 0])   # the samples sit at nodes
    yield "edges", identity, on_line, np.array(labels)
    yield "constant", Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=0.3), X[:20], y[:20]


@pytest.mark.parametrize("kind", [CROSS_ENTROPY, SQUARED])
@pytest.mark.parametrize("cost_kind", ["half-squared-l2", "l2"])
def test_score_line_fill_matches_the_per_row_reference(kind, cost_kind):
    rng = np.random.default_rng(np.random.SeedSequence([1703, len(kind), len(cost_kind)]))
    cost, loss_fn = TransportCost(cost_kind), LossFn(kind)
    for name, h, X, y in _line_cases(kind, rng):
        inner = _make_inner(h, X[None], y[None], cost, loss_fn, None)
        rows, costly = line_reference_rows(h, X, y, cost, loss_fn)
        if name == "random":
            assert sum(len(c) for c, _ in rows) > 2 * concave._HULL_BLOCK   # several blocks
            if kind == SQUARED:
                # some staircases hold candidates of both sides
                assert np.count_nonzero(costly == 2) >= 20
        if name == "edges":
            assert max(l[0] for _, l in rows) == 1.0   # a sample at the clip
        assert_answers_match(inner, *per_row_hull_fill((c[None], l[None]) for c, l in rows))


def full_cost_line_staircases(inner):
    """The score-line staircases from every candidate's cost, the keys
    mapped before their minima are taken, in the inner's blocks."""
    step = max(1, concave._HULL_BLOCK // inner._loss.shape[1])
    for start in range(0, inner._n, step):
        block = slice(start, start + step)
        present, which = np.unique(inner._which[block], return_inverse=True)
        at, own = inner._which[block], inner._own[block]
        C = np.where(inner._via_l[at] > own[:, None],
                     inner._costs(inner._via_u[at], inner._s[block, None]), 0.0)
        yield _grid_staircases(lambda label, mine, order, C=C: C[mine][:, order],
                               inner._loss[present], which, own, lambda c: c)


@pytest.mark.parametrize("kind", [CROSS_ENTROPY, SQUARED])
@pytest.mark.parametrize("cost_kind", ["half-squared-l2", "l2"])
def test_score_line_staircases_from_distance_minima_equal_the_full_cost_ones(kind, cost_kind):
    rng = np.random.default_rng(np.random.SeedSequence([1705, len(kind), len(cost_kind)]))
    for name, h, X, y in _line_cases(kind, rng):
        inner = _make_inner(h, X[None], y[None], TransportCost(cost_kind), LossFn(kind), None)
        got, want = list(inner._staircases_by_block()), list(full_cost_line_staircases(inner))
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert [a.tobytes() for a in g] == [a.tobytes() for a in w], name


# -- the client boundary -----------------------------------------------------

def make_client(max_queries=None):
    rng = np.random.default_rng(31)
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, -1.0]), bias=0.0)
    ds = dataset(rng.normal(size=(12, 2)), rng.integers(0, 2, size=12), cid=7)
    return Client(7, ds, LossFn(ZERO_ONE), max_queries=max_queries), h


def test_client_rebuilds_its_solver_when_weights_change_in_place():
    c, h = make_client()
    before = c.query(h, 0.05)
    h.weights[0] = -h.weights[0]
    after = c.query(h, 0.05)
    assert after != before
    assert after == adversarial_risk(h, c._dataset, 0.05, COST, LossFn(ZERO_ONE))


def test_query_dispatch_and_counting():
    c, h = make_client()
    qv = c.query(h)
    assert qv.rho == 0.0 and c.queries_used == 1
    qv2 = c.query(h, 0.05)
    assert qv2.rho == 0.05 and c.queries_used == 2
    assert qv2.value >= qv.value - 1e-9


def test_budget_enforced():
    c, h = make_client(max_queries=5)
    for _ in range(5):
        c.query(h)
    with pytest.raises(BudgetExceededError) as ei:
        c.query(h)
    assert ei.value.client_id == 7


def test_repeat_query_deterministic():
    c, h = make_client()
    a = c.query(h, 0.07).value
    b = c.query(h, 0.07).value
    assert a == b


def test_audit_log_records_scalars_only():
    c, h = make_client()
    c.query(h, 0.0)
    c.query(h, 0.1)
    assert len(c.audit_log) == 2
    for entry in c.audit_log:
        assert set(entry) == {"client", "value", "rho", "gamma_star",
                              "inner_iterations", "status"}
        assert all(np.isscalar(v) or isinstance(v, str) for v in entry.values())


def test_public_surface_exposes_no_samples():
    c, h = make_client()
    public = {a for a in dir(c) if not a.startswith("_")}
    assert public == {"client_id", "max_queries", "audit_log", "queries_used",
                      "n_samples", "query", "query_profile"}
    for name in public - {"query", "query_profile"}:
        val = getattr(c, name)
        assert not isinstance(val, (LocalDataset, np.ndarray))
    for out in [c.query(h, 0.02), *c.query_profile(h, [0.0, 0.02, 0.5])]:
        assert set(vars(out)) <= {"value", "rho", "gamma_star", "inner_iterations", "status"}
        assert all(type(v) in (float, int, str) for v in vars(out).values())


@pytest.mark.parametrize("rho", [-0.5, -1e-300, np.nan])
def test_bad_radius_is_refused_before_the_budget_is_charged(rho):
    c, h = make_client(max_queries=4)
    for ask in (lambda: c.query(h, rho), lambda: c.query_profile(h, [0.0, 0.1, rho])):
        with pytest.raises(ValueError):
            ask()
    assert c.queries_used == 0 and c.audit_log == []
    with pytest.raises(ValueError):
        adversarial_risk(h, c._dataset, rho)


def _route_clients(max_queries=None):
    """(client factory, hypothesis) for the flip, grid and score-line routes,
    and a two-class linear-classifier's cross-entropy on the score line."""
    rng = np.random.default_rng(np.random.SeedSequence(1401))
    X = rng.normal(size=(20, 2)) * 1.5
    y = rng.integers(0, 2, size=20)
    grid = np.stack(np.meshgrid(*[np.linspace(-3, 3, 7)] * 2), -1).reshape(-1, 2)
    logistic = Hypothesis(kind=LOGISTIC, weights=np.array([0.8, -1.3]), bias=0.2)
    linear = Hypothesis(kind=LINEAR, weights=np.array([[0.4, -0.2], [-0.9, 0.5]]),
                        bias=np.array([0.1, -0.1]))
    ds = dataset(X, y)
    on_grid = dataset(grid[np.argmin(costs(COST, X, grid), axis=1)], y)
    return {
        "flip": (lambda: Client(0, ds, LossFn(ZERO_ONE), max_queries=max_queries), logistic),
        "grid": (lambda: Client(0, on_grid, LossFn(ZERO_ONE), max_queries=max_queries,
                                grid=grid), logistic),
        "score-line": (lambda: Client(0, ds, LossFn(CROSS_ENTROPY), max_queries=max_queries,
                                      cost=TransportCost("l2")), logistic),
        "binary-linear": (lambda: Client(0, ds, LossFn(CROSS_ENTROPY),
                                         max_queries=max_queries), linear),
    }


_PROFILE_RHOS = [0.0, 1e-3, 0.05, 0.05, 0.0, 0.3, 2.0]


@pytest.mark.parametrize("route", ["flip", "grid", "score-line", "binary-linear"])
def test_query_profile_matches_a_per_radius_loop(route):
    make, h = _route_clients()[route]
    looped, batched = make(), make()
    want = [looped.query(h, r) for r in _PROFILE_RHOS]
    got = batched.query_profile(h, np.array(_PROFILE_RHOS))
    assert got == want   # value, rho, gamma_star, inner_iterations and status
    assert batched.audit_log == looped.audit_log
    assert batched.queries_used == looped.queries_used == len(_PROFILE_RHOS)
    assert {q.status for q in got[1:] if q.rho > 0} == {
        "flip": {"exact"}, "grid": {"exact"}, "score-line": {"bound"},
        "binary-linear": {"bound"}}[route]


@pytest.mark.parametrize("route", ["flip", "binary-linear"])
def test_query_profile_answers_what_fits_when_the_budget_runs_out(route):
    make, h = _route_clients(max_queries=4)[route]
    rhos = [0.05, 0.0, 0.3, 2.0, 0.5]
    looped, batched = make(), make()
    looped.query(h, 0.0)
    batched.query(h, 0.0)
    with pytest.raises(BudgetExceededError):
        for r in rhos:
            looped.query(h, r)
    with pytest.raises(BudgetExceededError):
        batched.query_profile(h, rhos)
    assert batched.queries_used == looped.queries_used == 4
    assert batched.audit_log == looped.audit_log
    assert [e["rho"] for e in batched.audit_log] == [0.0, 0.05, 0.0, 0.3]
    # an exhausted budget answers nothing, and an empty profile costs nothing
    assert batched.query_profile(h, []) == []
    with pytest.raises(BudgetExceededError):
        batched.query_profile(h, [0.0])
    assert batched.queries_used == 4 and len(batched.audit_log) == 4


_ROUTE_RULES = {
    "logistic": Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0),
    "binary-linear": Hypothesis(kind=LINEAR, weights=np.array([[1.0], [-1.0]]),
                                bias=np.zeros(2)),
    "three-class": Hypothesis(kind=LINEAR, weights=np.array([[1.0], [0.0], [-1.0]]),
                              bias=np.zeros(3)),
    "lookup": Hypothesis(kind=LOOKUP, weights=np.array([0.0, 1.0]),
                         grid=np.array([[0.0], [1.0]])),
}
_NO_ZERO_ONE_ROUTE = ("zero-one adversarial queries need a binary linear rule "
                      "or a declared perturbation grid")
_NO_SMOOTH_ROUTE = ("smooth-loss adversarial queries need a logistic rule, or "
                    "clipped cross-entropy with a two-class linear-classifier")
# the route of each rule and loss with no declared grid, or its refusal; a
# declared grid, and a lookup table's own, takes the grid route
_ROUTE_TABLE = {
    ("logistic", ZERO_ONE): "flip",
    ("logistic", CROSS_ENTROPY): "line",
    ("logistic", SQUARED): "line",
    ("binary-linear", ZERO_ONE): "flip",
    ("binary-linear", CROSS_ENTROPY): "line",
    ("binary-linear", SQUARED): _NO_SMOOTH_ROUTE,
    ("three-class", ZERO_ONE): _NO_ZERO_ONE_ROUTE,
    ("three-class", CROSS_ENTROPY): _NO_SMOOTH_ROUTE,
    ("three-class", SQUARED): _NO_SMOOTH_ROUTE,
    ("lookup", ZERO_ONE): "grid",
    ("lookup", CROSS_ENTROPY): "grid",
    ("lookup", SQUARED): "grid",
}


@pytest.mark.parametrize("declared", [False, True], ids=["no-grid", "grid"])
@pytest.mark.parametrize("rule, kind", list(_ROUTE_TABLE))
def test_the_route_table_and_its_refusals_at_every_entry_point(rule, kind, declared):
    """A refused rule, loss and grid raises the same ValueError through
    every entry point, before anything is charged or logged."""
    h, loss_fn = _ROUTE_RULES[rule], LossFn(kind)
    grid = np.array([[0.0], [1.0], [2.0]]) if declared else None
    want = "grid" if declared else _ROUTE_TABLE[rule, kind]
    if want in ("flip", "grid", "line"):
        assert query._route(h, loss_fn, grid)[0] == want
        return
    ds = dataset([[0.0], [1.0]], [0, 1])
    asks = {
        "_route": lambda c: query._route(h, loss_fn, grid),
        "Client.query": lambda c: c.query(h, 0.1),
        "query_profile": lambda c: c.query_profile(h, [0.0, 0.1]),
        "query_profiles": lambda c: query_profiles([c], h, [0.0, 0.1]),
        "adversarial_risk": lambda c: adversarial_risk(h, ds, 0.1, COST, loss_fn, grid),
        "phi_gamma": lambda c: phi_gamma(h, 0.5, Sample(ds.features[0], 0), COST, loss_fn,
                                         grid),
    }
    for name, ask in asks.items():
        c = Client(0, ds, loss_fn, max_queries=3, grid=grid)
        with pytest.raises(ValueError) as err:
            ask(c)
        assert str(err.value) == want, name
        assert c.queries_used == 0 and c.audit_log == [], name
    if kind == ZERO_ONE:
        # a budget that covers only radius 0 answers it and never picks the
        # refused route: the next radius raises BudgetExceededError
        for name in ("query_profile", "query_profiles"):
            c = Client(0, ds, loss_fn, max_queries=1, grid=grid)
            with pytest.raises(BudgetExceededError):
                asks[name](c)
            assert c.queries_used == 1 and [e["rho"] for e in c.audit_log] == [0.0], name


@pytest.mark.parametrize("h, labels, kind", [
    (Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0), [0.0, 0.5], CROSS_ENTROPY),
    (Hypothesis(kind=LINEAR, weights=np.array([[1.0], [0.0], [-1.0]]), bias=np.zeros(3)),
     [0.0, 2.0], CROSS_ENTROPY),
    (Hypothesis(kind=LINEAR, weights=np.array([[1.0], [-1.0]]), bias=np.zeros(2)),
     [0.0, 1.0], SQUARED),
], ids=["score-line-labels", "three-class", "linear-squared"])
def test_a_refused_query_uses_no_budget(h, labels, kind):
    """The score-line route refuses cross-entropy labels outside {0, 1}, and
    a linear-classifier's smooth loss unless it is a two-class rule's
    cross-entropy: the query raises before it is charged, and a profile is
    refused whole, its leading rho = 0 too, where a loop would answer that
    one first."""
    c = Client(0, dataset([[0.0], [1.0]], labels), LossFn(kind), max_queries=3)
    for ask in (lambda: c.query(h, 0.1), lambda: c.query_profile(h, [0.0, 0.1])):
        with pytest.raises(ValueError):
            ask()
    assert c.queries_used == 0 and c.audit_log == []
    if kind == CROSS_ENTROPY:
        assert c.query(h, 0.0) == empirical_risk(h, c._dataset, LossFn(kind))
        assert c.queries_used == 1 and len(c.audit_log) == 1


@pytest.mark.parametrize("h", [
    Hypothesis(kind=LOGISTIC, weights=np.array([1.0, -1.0]), bias=0.2),
    Hypothesis(kind=LINEAR, weights=np.array([[0.4, -0.2], [-0.9, 0.5]]),
               bias=np.array([0.1, -0.1])),
], ids=["logistic", "binary-linear"])
def test_flip_build_makes_one_model_pass(monkeypatch, h):
    c, _ = make_client()
    passes = _counted_model_passes(monkeypatch)
    first = c.query(h, 0.1)
    assert passes == [c.n_samples]
    del passes[:]
    c.query_profile(h, [0.01, 0.5, 2.0])
    assert passes == [c.n_samples]
    monkeypatch.undo()
    assert first == adversarial_risk(h, c._dataset, 0.1)


# -- one stacked flip kernel and query_profiles ------------------------------

def flip_reference(h, X, y, cost, rhos):
    """One client's flip-route table from its own ``GreedyFill`` over the
    finite flip costs of its correct samples, each of gain 1."""
    scores = h.scores(X)
    wrong = h.labels_from_scores(scores) != np.asarray(y).astype(int)
    margin = scores if h.kind == LOGISTIC else scores[:, 1] - scores[:, 0]
    norm = float(np.linalg.norm(h.margin_direction()))
    flip = cost.of_distance(np.abs(margin) / norm if norm else np.full(len(X), np.inf))
    finite = flip[~wrong & np.isfinite(flip)]
    gain, slope = GreedyFill(finite, np.ones(len(finite)))(len(X) * np.asarray(rhos, float))
    return np.clip((np.count_nonzero(wrong) + gain) / len(X), 0.0, 1.0), slope


def _shared_key_costs():
    """Two different costs whose reciprocals round to one key."""
    c = 3.0
    while 1.0 / np.nextafter(c, np.inf) != 1.0 / c:
        c = np.nextafter(c, np.inf)
    return np.nextafter(c, np.inf), c


_STACK_RHOS = np.concatenate([np.geomspace(1e-6, 30.0, 23), [0.0, 0.4, 0.4, np.inf]])


def _flip_stacks():
    """(name, h, X (B, n, d), y (B, n), cost): random worlds, a constant rule,
    samples on the boundary (zero-cost pieces), tied costs, and different
    costs that share ``GreedyFill``'s key, larger first."""
    rng = np.random.default_rng(np.random.SeedSequence(1901))
    logistic = Hypothesis(kind=LOGISTIC, weights=np.array([0.7, -1.1]), bias=0.1)
    linear = Hypothesis(kind=LINEAR, weights=np.array([[0.4, -0.2], [-0.9, 0.5]]),
                        bias=np.array([0.1, -0.1]))
    X, y = rng.normal(size=(7, 15, 2)) * 2.0, rng.integers(0, 2, size=(7, 15))
    yield "random", logistic, X, y, COST
    yield "binary-linear", linear, X, y, TransportCost("l2")
    yield "constant", Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=0.3), X, y, COST
    identity = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    on_line = np.array([[0.0, 0.0, -0.5, 0.0, 2.0], [0.5, 0.5, 0.5, -0.5, 0.0]])
    yield "boundary", identity, on_line[..., None], np.array([[1, 1, 0, 0, 1]] * 2), COST
    yield "tied", identity, np.tile([[1.0, -1.0, 1.0, 2.0, 1.0, -2.0]], (3, 1))[..., None], \
        np.tile([1, 0, 1, 1, 0, 0], (3, 1)), TransportCost("l2")
    big, small = _shared_key_costs()
    shared = np.array([[big, small, 1.0, big], [small, big, small, 5.0]])
    yield "shared key", identity, shared[..., None], np.ones((2, 4), dtype=int), \
        TransportCost("l2")


@pytest.mark.parametrize("case", list(_flip_stacks()), ids=lambda c: c[0])
def test_stacked_flip_table_equals_each_clients_greedy_fill(case):
    name, h, X, y, cost = case
    inner = _make_inner(h, X[:1], y[:1], cost, LossFn(ZERO_ONE), None)
    assert type(inner).__name__ == "_FlipInner"
    values, slopes = type(inner)(h, X, y, cost).table(_STACK_RHOS)
    assert values.shape == slopes.shape == (len(X), len(_STACK_RHOS))
    for b in range(len(X)):
        want_v, want_s = flip_reference(h, X[b], y[b], cost, _STACK_RHOS)
        assert values[b].tobytes() == want_v.tobytes(), (name, b)
        assert slopes[b].tobytes() == want_s.tobytes(), (name, b)
    if name == "shared key":
        big, small = _shared_key_costs()
        assert big != small and 1.0 / big == 1.0 / small


def _profile_outcome(clients, ask):
    """What ``ask(clients)`` returned or raised, and each client's budget and
    audit log, as bytes and reprs, so that equal outcomes agree bit for bit."""
    try:
        got, raised = ask(clients), None
    except (BudgetExceededError, ValueError) as exc:
        got, raised = None, exc
    tables = None if got is None else tuple((np.shape(t), np.asarray(t, float).tobytes())
                                            for t in got)
    err = None if raised is None else (type(raised), getattr(raised, "client_id", None))
    return tables, err, [(c.queries_used, repr(c.audit_log)) for c in clients]


def _looped(h, rhos):
    def ask(clients):
        answers = [c.query_profile(h, rhos) for c in clients]
        return ([[q.value for q in a] for a in answers],
                [[q.gamma_star for q in a] for a in answers])
    return ask


def assert_profiles_match_a_loop(make, h, rhos, spend=()):
    """``query_profiles`` on fresh clients from ``make`` against a loop of
    ``query_profile`` on their twins, after the zero-radius queries each
    (client index, count) in ``spend`` asks first."""
    twins = make(), make()
    for clients in twins:
        for i, count in spend:
            for _ in range(count):
                clients[i].query(h, 0.0)
    want = _profile_outcome(twins[0], _looped(h, rhos))
    got = _profile_outcome(twins[1], lambda cs: query_profiles(cs, h, rhos))
    assert got == want
    return got


def _table(tables, which=0):
    shape, raw = tables[which]
    return np.frombuffer(raw).reshape(shape)


def _mixed_clients(max_queries=None):
    """Flip clients of 12 and 20 samples, interleaved, then a grid client
    and a score-line client, and a flip client with its own cost."""
    rng = np.random.default_rng(np.random.SeedSequence(1902))
    grid = np.stack(np.meshgrid(*[np.linspace(-3, 3, 7)] * 2), -1).reshape(-1, 2)
    data = [dataset(rng.normal(size=(n, 2)) * 1.5, rng.integers(0, 2, size=n), cid=i)
            for i, n in enumerate([12, 20, 12, 12, 20, 12])]
    on_grid = dataset(grid[rng.integers(0, len(grid), 10)], rng.integers(0, 2, 10), cid=6)
    zero_one = LossFn(ZERO_ONE)
    return ([Client(ds.client_id, ds, zero_one, max_queries=max_queries) for ds in data]
            + [Client(6, on_grid, zero_one, max_queries=max_queries, grid=grid),
               Client(7, data[0], LossFn(CROSS_ENTROPY), max_queries=max_queries),
               Client(8, data[1], zero_one, TransportCost("l2"), max_queries=max_queries)])


_PROFILES_H = Hypothesis(kind=LOGISTIC, weights=np.array([0.8, -1.3]), bias=0.2)


def test_query_profiles_matches_a_loop_over_mixed_routes():
    rhos = [1e-3, 0.05, 0.0, 0.3, 0.05, 2.0]
    twins = _mixed_clients(), _mixed_clients()
    want = _profile_outcome(twins[0], _looped(_PROFILES_H, rhos))
    assert _profile_outcome(twins[1], lambda cs: query_profiles(cs, _PROFILES_H, rhos)) == want
    assert _table(want[0]).shape == (9, len(rhos)) and want[1] is None
    statuses = [{e["status"] for e in c.audit_log if e["rho"] > 0} for c in twins[1]]
    assert statuses == [{"exact"}] * 7 + [{"bound"}, {"exact"}]
    assert all(c.queries_used == len(c.audit_log) == len(rhos) for c in twins[1])


def test_query_profiles_stacks_each_size_once(monkeypatch):
    builds = []
    flip_init = query._FlipInner.__init__

    def counted(self, h, X, y, cost):
        builds.append(np.shape(y))
        flip_init(self, h, X, y, cost)

    monkeypatch.setattr(query._FlipInner, "__init__", counted)
    query_profiles(_mixed_clients(), _PROFILES_H, [0.01, 0.2])
    # four clients of 12 and two of 20 at the default cost; the client with
    # its own cost is a block of one
    assert sorted(builds) == [(1, 20), (2, 20), (4, 12)]


@pytest.mark.parametrize("rhos", [[0.0], [0.0, 0.0], [], [0.2, 0.0, 0.7]])
def test_query_profiles_answers_zero_radii_with_the_empirical_risk(rhos):
    assert_profiles_match_a_loop(_mixed_clients, _PROFILES_H, rhos)


def test_query_profiles_of_a_constant_rule():
    flat = Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=-0.4)
    tables, err, _ = assert_profiles_match_a_loop(
        lambda: _mixed_clients()[:6], flat, [0.01, 0.0, 5.0])
    assert err is None
    values, slopes = _table(tables, 0), _table(tables, 1)
    assert values.shape == (6, 3)
    assert np.all(values[:, 0] == values[:, 2]) and np.all(slopes == 0.0)


def test_query_profiles_of_boundary_and_tied_samples():
    identity = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    big, small = _shared_key_costs()
    rows = [[0.0, 0.0, 1.0, -1.0, 1.0], [0.0, 2.0, 2.0, 2.0, -0.5],
            [big, small, big, 1.0, 0.0], [small, big, 0.5, 0.5, 0.5]]

    def make():
        return [Client(i, dataset(np.array(r)[:, None], [1, 1, 1, 0, 1], cid=i),
                       LossFn(ZERO_ONE), TransportCost("l2")) for i, r in enumerate(rows)]

    assert_profiles_match_a_loop(make, identity, [0.0, 1e-9, 0.1, 0.1, 0.35, 1.0, np.inf])


def test_query_profiles_budget_runs_out_in_the_third_clients_vector():
    rhos = [0.02, 0.0, 0.1, 0.5, 1.0]
    tables, err, logs = assert_profiles_match_a_loop(
        lambda: _mixed_clients(max_queries=7), _PROFILES_H, rhos, spend=[(2, 4)])
    assert tables is None and err == (BudgetExceededError, 2)
    assert [used for used, _ in logs] == [5, 5, 7, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("bad", [np.nan, -0.5, -1e-300])
def test_query_profiles_refuses_a_bad_radius_before_charging(bad):
    tables, err, logs = assert_profiles_match_a_loop(
        lambda: _mixed_clients(max_queries=20), _PROFILES_H, [0.1, 0.0, bad])
    assert err == (ValueError, None)
    assert all(used == 0 and log == "[]" for used, log in logs)


@st.composite
def flip_worlds(draw):
    """(clients factory, rule, radii, spend): a random binary rule (a zero
    one among them) and clients of a few sample counts, some with their
    features rounded so that samples tie or sit on the boundary."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from([LOGISTIC, LINEAR, "constant"]))
    counts = draw(st.lists(st.sampled_from([1, 3, 8]), min_size=1, max_size=6))
    rhos = draw(st.lists(st.sampled_from([0.0, 1e-4, 0.02, 0.3, 0.3, 4.0]), max_size=6))
    cost_kind = draw(st.sampled_from(["half-squared-l2", "l2"]))
    max_queries = draw(st.sampled_from([None, 2, 5, 9]))
    rounded = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if kind == LINEAR:
        h = Hypothesis(kind=LINEAR, weights=rng.normal(size=(2, 2)), bias=rng.normal(size=2))
    else:
        w = np.zeros(2) if kind == "constant" else rng.normal(size=2)
        h = Hypothesis(kind=LOGISTIC, weights=w, bias=float(rng.normal()))
    data = []
    for i, n in enumerate(counts):
        X = rng.normal(size=(n, 2)) * 2.0
        data.append(dataset(np.round(X) if rounded else X, rng.integers(0, 2, size=n), cid=i))

    def make():
        return [Client(ds.client_id, ds, LossFn(ZERO_ONE), TransportCost(cost_kind),
                       max_queries=max_queries) for ds in data]
    spend = [(i, int(k)) for i, k in enumerate(rng.integers(0, 3, size=len(data)))
             if max_queries is not None]
    return make, h, rhos, spend


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flip_worlds())
def test_query_profiles_matches_a_loop_on_random_flip_worlds(world):
    make, h, rhos, spend = world
    tables, err, _ = assert_profiles_match_a_loop(make, h, rhos, spend)
    if tables is not None and rhos:
        clients = make()
        values, slopes = _table(tables, 0), _table(tables, 1)
        robust = [j for j, r in enumerate(rhos) if r != 0.0]
        for c, v, g in zip(clients, values, slopes):
            want_v, want_s = flip_reference(h, c._dataset.features, c._dataset.labels,
                                            c._cost, [rhos[j] for j in robust])
            assert v[robust].tobytes() == want_v.tobytes()
            assert g[robust].tobytes() == want_s.tobytes()


# -- stacked grid clients ----------------------------------------------------

def grid_table_reference(h, X, y, grid, cost, loss_fn, rhos):
    """One grid client's table from its own ``GreedyFill`` over the per-row
    reference hulls (``grid_reference``)."""
    base, fill = grid_reference(h, X, y, grid, cost, loss_fn)
    gain, slope = fill(len(X) * np.asarray(rhos, float))
    return np.clip((base + gain) / len(X), 0.0, 1.0), slope


def _grid_stacks():
    """(name, h, X (B, n, d), y (B, n), grid, cost, loss): on-grid and
    off-grid samples, a lookup table, real labels under the squared loss,
    and a rule that no sample can flip (every staircase a lone point)."""
    rng = np.random.default_rng(np.random.SeedSequence(1904))
    axis = np.linspace(-3.0, 3.0, 7)
    grid = np.array([[a, b] for a in axis for b in axis])
    logistic = Hypothesis(kind=LOGISTIC, weights=np.array([0.9, -0.5]), bias=0.1)
    on = grid[rng.integers(0, len(grid), (5, 12))]
    yield "on-grid", logistic, on, rng.integers(0, 2, (5, 12)), grid, COST, LossFn(ZERO_ONE)
    yield "off-grid", logistic, rng.normal(size=(4, 9, 2)) * 1.5, rng.integers(0, 2, (4, 9)), \
        grid, TransportCost("l2"), LossFn(ZERO_ONE)
    table = Hypothesis(kind=LOOKUP, weights=rng.integers(0, 5, len(grid)) / 4.0, grid=grid)
    yield "lookup", table, on, rng.choice([0.0, 0.5, 1.0], (5, 12)), grid, COST, \
        LossFn(SQUARED)
    yield "squared", logistic, on, rng.uniform(-0.5, 1.5, (5, 12)), grid, COST, LossFn(SQUARED)
    flat = Hypothesis(kind=LOGISTIC, weights=np.zeros(2), bias=0.3)
    yield "constant", flat, on, rng.integers(0, 2, (5, 12)), grid, COST, LossFn(ZERO_ONE)


@pytest.mark.parametrize("case", list(_grid_stacks()), ids=lambda c: c[0])
def test_stacked_grid_table_equals_each_clients_greedy_fill(case):
    name, h, X, y, grid, cost, loss_fn = case
    values, slopes = query._GridInner(h, X, y, grid, cost, loss_fn).table(_STACK_RHOS)
    assert values.shape == slopes.shape == (len(X), len(_STACK_RHOS))
    for b in range(len(X)):
        want_v, want_s = grid_table_reference(h, X[b], y[b], grid, cost, loss_fn, _STACK_RHOS)
        assert values[b].tobytes() == want_v.tobytes(), (name, b)
        assert slopes[b].tobytes() == want_s.tobytes(), (name, b)


@st.composite
def grid_stacks(draw):
    """(h, X, y, grid, cost, loss): B clients of n samples in d dimensions
    on a random grid, some samples on grid points, under a logistic rule
    with zero-one or squared loss, or a lookup table."""
    seed = draw(st.integers(0, 2**32 - 1))
    B, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    points = draw(st.integers(1, 12))
    kind = draw(st.sampled_from([ZERO_ONE, SQUARED, LOOKUP]))
    cost = TransportCost(draw(st.sampled_from(["half-squared-l2", "l2"])))
    rng = np.random.default_rng(seed)
    grid = np.round(rng.normal(size=(points, d)) * 2.0, draw(st.sampled_from([0, 3])))
    X = rng.normal(size=(B, n, d)) * 1.5
    on = rng.random((B, n)) < (1.0 if kind == LOOKUP else draw(st.sampled_from([0.0, 0.5])))
    X[on] = grid[rng.integers(0, points, np.count_nonzero(on))]
    if kind == LOOKUP:
        h = Hypothesis(kind=LOOKUP, weights=rng.integers(0, 3, points) / 2.0, grid=grid)
        return h, X, rng.choice([0.0, 0.5, 1.0], (B, n)), grid, cost, LossFn(SQUARED)
    h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=d), bias=float(rng.normal()))
    y = rng.integers(0, 2, (B, n)) if kind == ZERO_ONE else rng.uniform(-0.5, 1.5, (B, n))
    return h, X, y, grid, cost, LossFn(kind)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid_stacks())
def test_stacked_grid_table_equals_each_clients_greedy_fill_on_random_stacks(stack):
    h, X, y, grid, cost, loss_fn = stack
    values, slopes = query._GridInner(h, X, y, grid, cost, loss_fn).table(_STACK_RHOS)
    for b in range(len(X)):
        want_v, want_s = grid_table_reference(h, X[b], y[b], grid, cost, loss_fn, _STACK_RHOS)
        assert values[b].tobytes() == want_v.tobytes()
        assert slopes[b].tobytes() == want_s.tobytes()


def _grid_clients(max_queries=None):
    """Zero-one grid clients of two grid arrays and two sample counts,
    interleaved, mostly on their grid and one off it; then one with the l2
    cost and one with the squared loss, each alone in its stack."""
    rng = np.random.default_rng(np.random.SeedSequence(1905))
    grid_a = np.stack(np.meshgrid(*[np.linspace(-3, 3, 7)] * 2), -1).reshape(-1, 2)
    grid_b = np.stack(np.meshgrid(*[np.linspace(-2, 2, 5)] * 2), -1).reshape(-1, 2)
    kinds = [(grid_a, 12), (grid_a, 20), (grid_b, 12), (grid_a, 12), (grid_b, 12),
             (grid_a, 20), (None, 12), (grid_a, 12), (grid_b, 12)]
    clients = []
    for i, (grid, n) in enumerate(kinds):
        X = rng.normal(size=(n, 2)) * 1.5 if grid is None else grid[rng.integers(0, len(grid), n)]
        clients.append(Client(i, dataset(X, rng.integers(0, 2, n), cid=i), LossFn(ZERO_ONE),
                              max_queries=max_queries, grid=grid_a if grid is None else grid))
    X = grid_a[rng.integers(0, len(grid_a), 12)]
    clients.append(Client(9, dataset(X, rng.integers(0, 2, 12), cid=9), LossFn(ZERO_ONE),
                          TransportCost("l2"), max_queries=max_queries, grid=grid_a))
    clients.append(Client(10, dataset(X, rng.uniform(-0.5, 1.5, 12), cid=10), LossFn(SQUARED),
                          max_queries=max_queries, grid=grid_a))
    return clients


_GRID_RHOS = [1e-3, 0.0, 0.05, 0.3, 0.0, 2.0]


@pytest.mark.parametrize("rhos", [_GRID_RHOS, [0.0], [0.0, 0.0], [], [0.2, 0.2, np.inf]])
@pytest.mark.parametrize("per_block", [None, 2])
def test_query_profiles_matches_a_loop_over_grid_clients(monkeypatch, rhos, per_block):
    if per_block is not None:
        # blocks of two 12-sample clients on the 49-point grid
        monkeypatch.setattr(query, "_GRID_BLOCK_BYTES", per_block * 8 * 12 * 49)
    tables, err, logs = assert_profiles_match_a_loop(_grid_clients, _PROFILES_H, rhos)
    assert err is None and all(used == len(rhos) for used, _ in logs)


def test_query_profiles_stacks_grid_clients_by_grid_size_cost_and_loss(monkeypatch):
    builds = []
    grid_init = query._GridInner.__init__

    def counted(self, h, X, y, grid, cost, loss_fn):
        builds.append((len(grid), np.shape(y)))
        grid_init(self, h, X, y, grid, cost, loss_fn)

    monkeypatch.setattr(query._GridInner, "__init__", counted)
    query_profiles(_grid_clients(), _PROFILES_H, [0.01, 0.2])
    # grid A: four clients of 12 (three on it, one off it) and two of 20;
    # grid B: three of 12; the l2-cost and squared-loss clients are blocks
    # of one
    assert sorted(builds) == [(25, (3, 12)), (49, (1, 12)), (49, (1, 12)), (49, (2, 20)),
                              (49, (4, 12))]


def test_query_profiles_grid_budget_runs_out_partway_through_a_vector():
    rhos = [0.02, 0.0, 0.1, 0.5, 1.0]
    tables, err, logs = assert_profiles_match_a_loop(
        lambda: _grid_clients(max_queries=7), _PROFILES_H, rhos, spend=[(3, 4)])
    assert tables is None and err == (BudgetExceededError, 3)
    assert [used for used, _ in logs] == [5, 5, 5, 7] + [0] * 7


@pytest.mark.parametrize("rhos", [_GRID_RHOS, [0.0, 0.0]])
@pytest.mark.parametrize("route", ["grid", "line"])
def test_answer_table_equals_the_profiles_of_its_clients(monkeypatch, route, rhos):
    # a grid stack (the four 12-sample clients of grid A, one off it) and a
    # score-line client, answered as one table and through their clients
    if route == "grid":
        clients, want = [_grid_clients()[i] for i in (0, 3, 6, 7)], "exact"
    else:
        clients, want = [_mixed_clients()[7]], "bound"
    first = clients[0]
    X = np.stack([c._dataset.features for c in clients])
    y = np.stack([c._dataset.labels for c in clients])
    builds = []
    make_inner = query._make_inner

    def counted(*args):
        builds.append(1)
        return make_inner(*args)

    monkeypatch.setattr(query, "_make_inner", counted)
    values, slopes, status = answer_table(_PROFILES_H, X, y, rhos, first._cost,
                                          first._loss_fn, first._grid)
    robust = any(rhos)
    assert builds == [1] * robust and status == (want if robust else "exact")
    got = query_profiles(clients, _PROFILES_H, rhos)
    assert values.tobytes() == got[0].tobytes() and slopes.tobytes() == got[1].tobytes()
    if not robust:
        assert not slopes.any()
        assert values[:, 0].tolist() == empirical_risk_values(_PROFILES_H, X, y,
                                                              first._loss_fn).tolist()


_TABLE = np.stack(np.meshgrid(*[np.linspace(-3, 3, 7)] * 2), -1).reshape(-1, 2)
_LOOKUP_H = Hypothesis(kind=LOOKUP, weights=np.arange(len(_TABLE)) % 5 / 4.0, grid=_TABLE)


def _lookup_clients(off_at=None, max_queries=None):
    """Squared-loss clients of a lookup table, of 10 and 15 samples on it;
    with ``off_at``, a client off the table at that place."""
    rng = np.random.default_rng(np.random.SeedSequence(1906))
    sizes = [10, 15, 10, 10, 15]
    clients = []
    for i, n in enumerate(sizes):
        X = rng.normal(size=(n, 2)) if i == off_at else _TABLE[rng.integers(0, len(_TABLE), n)]
        clients.append(Client(i, dataset(X, rng.choice([0.0, 0.5, 1.0], n), cid=i),
                              LossFn(SQUARED), max_queries=max_queries))
    return clients


@pytest.mark.parametrize("off_at", [None, 0])
def test_query_profiles_matches_a_loop_over_lookup_clients(off_at):
    tables, err, logs = assert_profiles_match_a_loop(
        lambda: _lookup_clients(off_at), _LOOKUP_H, [0.0, 0.1, 0.4])
    if off_at is None:
        assert err is None
    else:
        assert err == (ValueError, None) and all(used == 0 for used, _ in logs)


@pytest.mark.parametrize("off_at", [1, 3])
def test_a_lookup_client_off_its_table_refuses_the_profiles_before_any_charge(off_at):
    clients = _lookup_clients(off_at, max_queries=10)
    with pytest.raises(ValueError, match="table's grid"):
        query_profiles(clients, _LOOKUP_H, [0.0, 0.1, 0.4])
    assert all(c.queries_used == 0 and c.audit_log == [] for c in clients)


# ------------------------------------------------------ row views of a draw

_VIEW_CFG = MetaConfig(dim=2, n_classes=2, class_means=[[-1.0, 0.0], [1.0, 0.0]],
                       cov_scale=0.8, shift_mode="both", seed=3)
_VIEW_GRID = np.stack(np.meshgrid(*[np.linspace(-4, 4, 17)] * 2), -1).reshape(-1, 2)
_VIEW_ORDERS = ["consecutive", "out-of-order", "two-draws", "mixed"]


def _copied(ds):
    return LocalDataset(ds.client_id, ds.features.copy(), ds.labels.copy())


def _view_lists(on_grid=False):
    """Row views of two draws of ten clients of 12 samples (on the grid's
    points for the grid route): a whole draw in order, its rows out of
    order, rows of both draws, and a draw with a standalone dataset in it."""
    a, b = (draw_world(_VIEW_CFG, 10, 12, seed) for seed in (11, 12))
    if on_grid:
        a, b = (replace(w, features=np.clip(np.round(w.features * 2) / 2, -4, 4)) for w in (a, b))
    a, b = a.datasets(), b.datasets()
    return {"consecutive": a, "out-of-order": a[3:] + a[2::-1],
            "two-draws": a[:4] + b[4:] + a[4:6], "mixed": a[:5] + [_copied(b[0])] + a[5:]}


def test_stacked_reads_consecutive_row_views_in_place():
    views = _view_lists()
    columns = views["consecutive"][0]._columns
    X, y = query._stacked(views["consecutive"][2:7])
    assert np.shares_memory(X, columns[0]) and np.shares_memory(y, columns[1])
    assert np.array_equal(X, columns[0][2:7]) and np.array_equal(y, columns[1][2:7])
    for order in _VIEW_ORDERS[1:]:
        X, y = query._stacked(views[order])
        assert not np.shares_memory(X, columns[0])
        assert np.array_equal(X, np.stack([ds.features for ds in views[order]]))
        assert np.array_equal(y, np.stack([ds.labels for ds in views[order]]))


def test_row_views_are_the_drawn_rows():
    world = draw_world(_VIEW_CFG, 4, 3, 11)
    for k, ds in enumerate(world.datasets()):
        assert ds.client_id == k and len(ds) == 3
        assert np.shares_memory(ds.features, world.features)
        assert np.array_equal(ds.features, world.features[k])
        assert np.array_equal(ds.labels, world.labels[k])
    with pytest.raises(ValueError, match="empty dataset"):
        draw_world(_VIEW_CFG, 4, 0, 11).datasets()


@pytest.mark.parametrize("per_block", [None, 4])
@pytest.mark.parametrize("order", _VIEW_ORDERS)
@pytest.mark.parametrize("rule", ["logistic", "binary-linear"])
def test_zero_radius_tables_of_row_views_equal_those_of_standalone_copies(
        monkeypatch, rule, order, per_block):
    if per_block is not None:
        monkeypatch.setattr(query, "_BLOCK_BYTES", per_block * 8 * 12 * 2)
    h, views = _BATCH_RULES[rule], _view_lists()[order]
    for kind in (ZERO_ONE, CROSS_ENTROPY):
        got, copied = (query_profiles([Client(i, ds, LossFn(kind)) for i, ds in enumerate(data)],
                                      h, [0.0])[0]
                       for data in (views, [_copied(ds) for ds in views]))
        assert got.tolist() == copied.tolist()
        assert got[:, 0].tolist() == [_one_at_a_time(h, ds, LossFn(kind)).value for ds in views]


def _view_clients(order, route, copy, max_queries=None):
    views = _view_lists(on_grid=route == "grid")[order]
    grid = _VIEW_GRID if route == "grid" else None
    return [Client(i, _copied(ds) if copy else ds, LossFn(ZERO_ONE), max_queries=max_queries,
                   grid=grid) for i, ds in enumerate(views)]


def _views_against_copies(order, route, ask_views, ask_copies, max_queries, spend):
    """The outcome of ``ask_views`` on clients of row views against that of
    ``ask_copies`` on clients of their standalone copies, after the
    zero-radius queries each (client index, count) in ``spend`` asks."""
    twins = (_view_clients(order, route, False, max_queries),
             _view_clients(order, route, True, max_queries))
    for clients in twins:
        for i, count in spend:
            for _ in range(count):
                clients[i].query(_PROFILES_H, 0.0)
    got = _profile_outcome(twins[0], ask_views)
    assert got == _profile_outcome(twins[1], ask_copies)
    return got


@pytest.mark.parametrize("budget", ["none", "spent"])
@pytest.mark.parametrize("order", _VIEW_ORDERS)
def test_zero_radius_profiles_of_row_views_equal_a_loop_over_standalone_copies(order, budget):
    h = _PROFILES_H
    tables, err, logs = _views_against_copies(
        order, "flip", lambda cs: (query_profiles(cs, h, [0.0])[0][:, 0],),
        lambda cs: ([c.query(h, 0.0).value for c in cs],),
        *((None, ()) if budget == "none" else (3, [(4, 3)])))
    if budget == "none":
        assert err is None and all(used == 1 for used, _ in logs)
    else:
        assert err == (BudgetExceededError, 4)
        assert [used for used, _ in logs] == [1] * 4 + [3] + [0] * (len(logs) - 5)


@pytest.mark.parametrize("per_block", [None, 4])
@pytest.mark.parametrize("budget", ["none", "partway"])
@pytest.mark.parametrize("order", _VIEW_ORDERS)
@pytest.mark.parametrize("route", ["flip", "grid"])
def test_query_profiles_of_row_views_equal_a_loop_over_standalone_copies(
        monkeypatch, route, order, budget, per_block):
    if per_block is not None:
        monkeypatch.setattr(query, "_BLOCK_BYTES", per_block * 8 * 12 * 2)
        monkeypatch.setattr(query, "_GRID_BLOCK_BYTES", per_block * 8 * 12 * len(_VIEW_GRID))
    h, rhos = _PROFILES_H, [0.0, 0.02, 0.3, 0.0, 1.0]
    # with a cap of 5, client 6 has three queries left for the five radii
    tables, err, logs = _views_against_copies(
        order, route, lambda cs: query_profiles(cs, h, rhos), _looped(h, rhos),
        *((None, ()) if budget == "none" else (5, [(6, 2)])))
    if budget == "none":
        assert err is None and all(used == len(rhos) for used, _ in logs)
    else:
        assert err == (BudgetExceededError, 6)
        assert [used for used, _ in logs] == [5] * 7 + [0] * (len(logs) - 7)
