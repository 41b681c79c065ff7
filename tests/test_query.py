import copy

import numpy as np
import pytest

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
    TransportCost,
    QueryValue,
    adversarial_risk,
    empirical_risk,
    empirical_risk_values,
    empirical_risks,
    phi_gamma,
    query_empirical,
    wass_ball_lp_oracle,
)
from fedcert.losses import (
    LINEAR,
    DimensionMismatchError,
    Sample,
    loss_values,
)
from fedcert import concave
from fedcert.concave import GreedyFill
from fedcert.metasim import _BLOCK_BYTES
from fedcert.query import SCORE_LINE_TAU, _make_inner

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
def test_empirical_risks_equal_each_datasets_own_risk(rule, kind, sizes):
    h, loss_fn = _BATCH_RULES[rule], LossFn(kind)
    datasets = _batch_datasets(rule, sizes, seed=len(sizes))
    if rule == "binary-linear" and kind == SQUARED:
        for ask in (lambda: empirical_risks(h, datasets, loss_fn),
                    lambda: empirical_risk(h, datasets[0], loss_fn)):
            with pytest.raises(ValueError):
                ask()
        return
    got = empirical_risks(h, datasets, loss_fn)
    assert got == [empirical_risk(h, ds, loss_fn) for ds in datasets]
    assert got == [_one_at_a_time(h, ds, loss_fn) for ds in datasets]


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


def test_empirical_risks_of_no_datasets_is_empty():
    assert empirical_risks(_BATCH_RULES["logistic"], [], LossFn(ZERO_ONE)) == []


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


def test_query_empirical_matches_a_loop_of_client_queries():
    looped, h = _budget_clients()
    batched, _ = _budget_clients()
    want = []
    with pytest.raises(BudgetExceededError) as loop_error:
        for c in looped:
            want.append(c.query(h, 0.0))
    with pytest.raises(BudgetExceededError) as batch_error:
        query_empirical(batched, h)
    assert batch_error.value.client_id == loop_error.value.client_id == 2
    for a, b in zip(batched, looped):
        assert a.audit_log == b.audit_log
        assert a.queries_used == b.queries_used
    assert [c.queries_used for c in batched] == [1, 1, 1, 0, 0]
    # past the spent client, every answer is the loop's
    rest = batched[:2] + batched[3:]
    got = query_empirical(rest, h)
    assert got[:2] == [c.query(h, 0.0) for c in looped[:2]]
    assert got[2:] == [c.query(h, 0.0) for c in looped[3:]]
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


def test_score_line_build_makes_one_model_pass_and_queries_none(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(1303))
    h, X, y, loss_fn, cost = _score_line_instance(rng, CROSS_ENTROPY, "l2")
    c = Client(0, dataset(X, y), loss_fn, cost=cost)
    passes = []
    scores = Hypothesis.scores

    def counted(self, Xq):
        passes.append(len(Xq))
        return scores(self, Xq)

    monkeypatch.setattr(Hypothesis, "scores", counted)
    c.query(h, 0.1)
    assert 1 <= len(passes) <= 2
    del passes[:]
    for rho in (0.01, 0.5, 2.0):
        c.query(h, rho)
    assert passes == []


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
    reference = copy.copy(inner)
    reference._base, reference._fill = base, fill
    assert inner._base == base
    got, want = inner.query_profile(_REFERENCE_RHOS), reference.query_profile(_REFERENCE_RHOS)
    assert got == want   # value, rho, gamma_star, inner_iterations and status


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
    inner = _make_inner(h, X, y, cost, loss_fn, grid)
    search = h.grid if grid is None else grid
    if name == "cost-0 neighbour":
        assert cost.pairwise(X[:1], search)[0, -1] == 0.0
        assert inner._base > empirical_risk(h, dataset(X, y), loss_fn).value * len(X)
    assert_answers_match(inner, *grid_reference(h, X, y, search, cost, loss_fn))


@pytest.mark.parametrize("kind", [CROSS_ENTROPY, SQUARED])
@pytest.mark.parametrize("cost_kind", ["half-squared-l2", "l2"])
def test_score_line_fill_matches_the_per_row_reference(kind, cost_kind):
    rng = np.random.default_rng(np.random.SeedSequence([1703, len(kind), len(cost_kind)]))
    h = Hypothesis(kind=LOGISTIC, weights=np.array([0.9, -1.4]), bias=0.3)
    X = rng.normal(size=(80, 2)) * 2.0
    # squared-loss labels near 1/2 rise on both sides of the score line
    y = (rng.integers(0, 2, 80).astype(float) if kind == CROSS_ENTROPY
         else np.concatenate([rng.uniform(0.3, 0.7, 40), rng.uniform(-0.5, 1.5, 40)]))
    inner = _make_inner(h, X, y, TransportCost(cost_kind), LossFn(kind), None)
    rows = [inner._staircase(sample) for sample in inner._samples]
    if kind == SQUARED:
        # some staircases hold candidates of both sides
        assert sum(np.count_nonzero(c == 0.0) > 2 for c, _ in rows) >= 20
    assert sum(map(len, (c for c, _ in rows))) > 2 * concave._HULL_BLOCK   # several blocks
    assert_answers_match(inner, *per_row_hull_fill((c[None], l[None]) for c, l in rows))


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
    passes = []
    scores = Hypothesis.scores

    def counted(self, Xq):
        passes.append(len(Xq))
        return scores(self, Xq)

    monkeypatch.setattr(Hypothesis, "scores", counted)
    first = c.query(h, 0.1)
    assert passes == [c.n_samples]
    del passes[:]
    c.query_profile(h, [0.01, 0.5, 2.0])
    assert passes == []
    monkeypatch.undo()
    assert first == adversarial_risk(h, c._dataset, 0.1)
