"""Acceptance suite: the statistical and numerical guarantees the package
advertises, run end to end at desk scale.

Each test prints one PASS/FAIL line with the measured quantities so a log
scan shows the whole gate at a glance.  Tolerances and runtime ceilings are
part of the assertions.
"""
import copy
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from fedcert import (
    ZERO_ONE,
    Archetype,
    Client,
    Hypothesis,
    LocalDataset,
    LossFn,
    MetaConfig,
    TransportCost,
    adversarial_risk,
    cdf_bound,
    coverage_experiments,
    empirical_risk,
    fdiv_cdf_bound,
    fdiv_mean_bound,
    grid_ball_oracle,
    mean_bound,
    query_profiles,
    tightness_probe,
    wass_alloc_grid_oracle,
    wass_ball_lp_oracle,
    wass_mean_bound,
)
from fedcert.cli import main as cli_main
from fedcert.losses import (
    CROSS_ENTROPY,
    LINEAR,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    loss_values,
)
from fedcert.query import phi_gamma  # noqa: F401  (re-exported surface check)
from fedcert.wass import _waterfill, mean_radius_cap

from _corpus import concave_curve, iter_ball_corpus, tangents

BASE_MEANS = np.array([[-1.0, 0.0], [1.0, 0.0]])
H2 = Hypothesis(kind=LOGISTIC, weights=np.array([1.0, 0.0]), bias=0.0)


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def plain_world(seed=100, **kw):
    args = dict(dim=2, n_classes=2, class_means=BASE_MEANS,
                shift_mode="both", seed=seed)
    args.update(kw)
    return MetaConfig(**args)


def archetype_world(seed=200):
    arche = [
        Archetype(class_means=BASE_MEANS, class_props=np.array([0.5, 0.5]),
                  score=0.0),
        Archetype(class_means=BASE_MEANS * 0.45,
                  class_props=np.array([0.4, 0.6]), score=1.0),
    ]
    return MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS,
                      shift_mode="both", seed=seed, archetypes=arche,
                      archetype_weights=np.array([0.65, 0.35]))


# --------------------------------------------------------------------- 1

def test_acceptance_1_coverage_same_world():
    t0 = time.monotonic()
    cfg = plain_world(seed=101)
    params = {"delta": 0.1}
    mean_rep = coverage_experiments(cfg, H2, 100, 200, [("mean", params)], trials=200,
                                    seed=11)[0]
    cdf_rep = coverage_experiments(cfg, H2, 100, 200, [("cdf", params)], trials=200,
                                   seed=12)[0]
    elapsed = time.monotonic() - t0
    max_lambda_rate = max(cdf_rep.per_lambda["violation_rates"])
    ok = (mean_rep.violation_rate <= 0.1
          and max_lambda_rate <= 0.1
          and elapsed < 60.0)
    _report(1, ok, f"mean rate {mean_rep.violation_rate:.3f}, "
                   f"max per-lambda cdf rate {max_lambda_rate:.3f} "
                   f"(50-point grid, 200 trials, K=100, n_k=200), {elapsed:.1f}s")


# --------------------------------------------------------------------- 2

def test_acceptance_2_coverage_divergence_tilts():
    t0 = time.monotonic()
    cfg = archetype_world(seed=201)
    worst = 0.0
    runs = []
    for f_name in ("kl", "chi-square"):
        for eps in (0.05, 0.2):
            for kind in ("fdiv-mean", "fdiv-cdf"):
                params = {"delta": 0.1, "epsilon": eps, "f_name": f_name}
                rep = coverage_experiments(cfg, H2, 100, 200, [(kind, params)], trials=100,
                                           seed=21)[0]
                worst = max(worst, rep.violation_rate)
                runs.append(f"{kind}/{f_name}/eps={eps}:{rep.violation_rate:.2f}")
    elapsed = time.monotonic() - t0
    ok = worst <= 0.1 and elapsed < 180.0
    _report(2, ok, f"worst violation rate {worst:.3f} over 8 tilted runs "
                   f"[{'; '.join(runs)}], {elapsed:.1f}s")


# --------------------------------------------------------------------- 3

def test_acceptance_3_coverage_transport_attack():
    t0 = time.monotonic()
    cfg = MetaConfig(dim=1, n_classes=2, class_means=np.array([[-1.0], [1.0]]),
                     shift_mode="both", seed=301)
    h = Hypothesis(kind=LOGISTIC, weights=np.array([1.0]), bias=0.0)
    params = {"delta": 0.1, "epsilon": 0.02}
    rep = coverage_experiments(cfg, h, 50, 100, [("wass-mean", params)], trials=50,
                               seed=31)[0]
    elapsed = time.monotonic() - t0
    ok = rep.violation_rate <= 0.1 and elapsed < 180.0
    _report(3, ok, f"violation rate {rep.violation_rate:.3f} under transport "
                   f"attacks at cost exactly 0.02 (50 trials, K=50), {elapsed:.1f}s")


# --------------------------------------------------------------------- 4

def test_acceptance_4_solvers_match_oracles():
    t0 = time.monotonic()

    # the dual certificate on the query values alone is the ball's supremum:
    # never below the grid optimum, and above it by at most the grid's error
    worst_reweight, reweight_ok = 0.0, True
    for K, i, step, name, epsilon, q in iter_ball_corpus():
        raw = fdiv_mean_bound(q, np.ones(K, int), 0.1, epsilon,
                              name).extra["program_value"]
        orc = grid_ball_oracle(q, name, epsilon, step=step)
        reweight_ok = reweight_ok and orc - 1e-12 <= raw <= orc + 2e-3
        worst_reweight = max(worst_reweight, raw - orc)

    rng = np.random.default_rng(np.random.SeedSequence(40402))
    worst_alloc = 0.0
    tol_alloc_ok = True
    for _ in range(10):
        eps = float(rng.uniform(0.05, 0.5))
        delta = 0.1
        floor = eps / 2.0
        cap = mean_radius_cap(eps, delta, 2)
        top = 2.0 * cap
        grid = np.linspace(floor, top, 12)
        # each client's answers and right derivatives on a concave curve
        values, slopes = tangents([concave_curve(rng, floor, top) for _ in range(2)], grid)
        slope = float(np.max(slopes))
        value = _waterfill(grid, values, slopes, floor, cap).objective
        step = (top - floor) / 1500.0
        orc = wass_alloc_grid_oracle(grid, values, slopes, floor, cap, step)
        diff = abs(value - orc)
        worst_alloc = max(worst_alloc, diff)
        tol_alloc_ok = tol_alloc_ok and diff <= slope * step + 1e-9

    cost = TransportCost()
    worst_lp = 0.0
    for seed in range(20):
        inner = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        table = inner.uniform(0, 1, size=5)
        h = Hypothesis(kind=LOOKUP, weights=table, grid=grid)
        ds = LocalDataset(client_id=0,
                          features=grid[inner.integers(0, 5, size=3)],
                          labels=np.zeros(3))
        for rho in (0.01, 0.05, 0.2):
            qv = adversarial_risk(h, ds, rho, cost, LossFn(SQUARED), grid=grid)
            losses = loss_values(LossFn(SQUARED), h, grid, np.zeros(5))
            dist = np.linalg.norm(ds.features[:, None, :] - grid[None, :, :], axis=2)
            lp = wass_ball_lp_oracle(np.full(3, 1 / 3), losses, rho, cost.of_distance(dist))
            worst_lp = max(worst_lp, abs(qv.value - lp))

    elapsed = time.monotonic() - t0
    ok = (reweight_ok and tol_alloc_ok and worst_lp <= 1e-4
          and elapsed < 120.0)
    _report(4, ok, f"reweight certificate-oracle at most {worst_reweight:.2e} (50 frozen "
                   f"instances, within [-1e-12, 2e-3]); allocation |waterfill-grid| "
                   f"{worst_alloc:.2e} (tol grid); adversarial-vs-LP "
                   f"{worst_lp:.2e} (tol 1e-4), {elapsed:.1f}s")


# --------------------------------------------------------------------- 5

def test_acceptance_5_zero_budget_reductions():
    rng = np.random.default_rng(np.random.SeedSequence(50505))
    worst = 0.0

    for _ in range(20):
        K = int(rng.integers(3, 40))
        qv = rng.uniform(0, 1, K)
        ns = rng.integers(10, 300, K)
        delta = float(rng.uniform(0.02, 0.3))
        grid = np.linspace(0, 1, 21)

        # the robust program at a zero budget is the plain mean, and the
        # two certificates differ by exactly their slack terms
        a = fdiv_mean_bound(qv, ns, delta, 0.0, "kl")
        b = mean_bound(qv, ns, delta)
        worst = max(worst, abs(a.value - b.value), abs(a.extra["program_value"] - np.mean(qv)))
        slack_diff = sum(a.slack.values()) - sum(b.slack.values())
        worst = max(worst, abs((a.raw_value - b.raw_value) - slack_diff))

        ca = fdiv_cdf_bound(qv, ns, delta, 0.0, "chi-square", grid)
        cb = cdf_bound(qv, ns, delta, grid)
        worst = max(worst, max(abs(ca.at(l) - cb.at(l)) for l in grid))

    wrng = np.random.default_rng(np.random.SeedSequence(50506))
    datasets = [
        LocalDataset(client_id=i, features=wrng.normal(size=(30, 2)),
                     labels=wrng.integers(0, 2, 30))
        for i in range(4)
    ]
    clients = [Client(i, ds, LossFn(ZERO_ONE)) for i, ds in enumerate(datasets)]
    # at a zero floor and mean cap every client takes its radius-0 answer
    grid = np.array([0.0])
    alloc = _waterfill(grid, *query_profiles(clients, H2, grid), 0.0, 0.0)
    emp = float(np.mean([
        empirical_risk(H2, ds, LossFn(ZERO_ONE)).value for ds in datasets
    ]))
    worst = max(worst, abs(alloc.objective - emp), float(np.max(alloc.rho)))

    exact_rho0 = True
    for kind in (ZERO_ONE, SQUARED, CROSS_ENTROPY):
        ds = datasets[0]
        c = Client(0, ds, LossFn(kind))
        exact_rho0 = exact_rho0 and (
            c.query(H2, 0.0).value == empirical_risk(H2, ds, LossFn(kind)).value
        )

    ok = worst <= 1e-9 and exact_rho0
    _report(5, ok, f"zero-budget reductions max |diff| {worst:.2e} "
                   f"(tol 1e-9); rho=0 queries exactly equal empirical risk: "
                   f"{exact_rho0}")


# --------------------------------------------------------------------- 6

def test_acceptance_6_monotonicity_fuzz():
    t0 = time.monotonic()
    rng = np.random.default_rng(np.random.SeedSequence(60606))
    checked = 0
    ok = True

    for trial in range(400):   # divergence bounds vs epsilon
        K = int(rng.integers(3, 40))
        qv = rng.uniform(0, 1, K)
        ns = rng.integers(10, 200, K)
        delta = float(rng.uniform(0.02, 0.3))
        name = "kl" if trial % 2 else "chi-square"
        e1, e2 = np.sort(rng.uniform(0.0, 0.3, 2))
        b1 = fdiv_mean_bound(qv, ns, delta, float(e1), name)
        b2 = fdiv_mean_bound(qv, ns, delta, float(e2), name)
        ok = ok and b2.raw_value >= b1.raw_value - 1e-10
        ok = ok and 0.0 <= b1.value <= 1.0 and 0.0 <= b2.value <= 1.0
        checked += 1

    for trial in range(250):   # survival curves vs lambda
        K = int(rng.integers(3, 30))
        qv = rng.uniform(0, 1, K)
        ns = rng.integers(10, 200, K)
        delta = float(rng.uniform(0.02, 0.3))
        grid = np.linspace(0, 1, 21)
        if trial % 2:
            curve = cdf_bound(qv, ns, delta, grid)
        else:
            curve = fdiv_cdf_bound(qv, ns, delta, float(rng.uniform(0, 0.2)),
                                   "chi-square", grid)
        ok = ok and bool(np.all(np.diff(curve.bounds) <= 1e-12))
        ok = ok and bool(np.all((curve.bounds >= 0) & (curve.bounds <= 1)))
        checked += 1

    cost = TransportCost()
    for trial in range(250):   # query values vs radius
        n = int(rng.integers(3, 12))
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, n)
        ds = LocalDataset(client_id=0, features=X, labels=y)
        h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=2),
                       bias=float(rng.normal()))
        r1, r2 = np.sort(rng.uniform(0.0, 0.5, 2))
        q1 = adversarial_risk(h, ds, float(r1), cost, LossFn(ZERO_ONE))
        q2 = adversarial_risk(h, ds, float(r2), cost, LossFn(ZERO_ONE))
        ok = ok and q2.value >= q1.value - 1e-9
        ok = ok and 0.0 <= q1.value <= 1.0 and 0.0 <= q2.value <= 1.0
        checked += 1

    for trial in range(100):   # transport bounds vs epsilon
        sub = np.random.default_rng(np.random.SeedSequence([60607, trial]))
        datasets = [
            LocalDataset(client_id=i, features=sub.normal(size=(20, 2)),
                         labels=sub.integers(0, 2, 20))
            for i in range(3)
        ]
        e1, e2 = np.sort(sub.uniform(0.005, 0.3, 2))

        # the program value: the slacked one carries log(1/epsilon)
        def program(eps):
            clients = [Client(i, ds, LossFn(ZERO_ONE))
                       for i, ds in enumerate(datasets)]
            return wass_mean_bound(clients, H2, float(eps), 0.1,
                                   grid_size=8).extra["program_value"]
        p1, p2 = program(e1), program(e2)
        ok = ok and p2 >= p1 - 3e-6
        ok = ok and 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        checked += 1

    elapsed = time.monotonic() - t0
    ok = ok and checked == 1000
    _report(6, ok, f"{checked} fuzzed instances: epsilon/lambda/rho "
                   f"monotonicity and [0,1] range all hold, {elapsed:.1f}s")


# --------------------------------------------------------------------- 7

def test_acceptance_7_gap_shrinks_with_world_size():
    t0 = time.monotonic()
    cfg = plain_world(seed=700, sigma_affine=0.03)
    Ks = [25, 50, 100, 200]
    rows = tightness_probe(
        cfg, H2, "mean", Ks, [2 * k for k in Ks], trials=30, seed=71,
        params={"delta": 0.1},
    )
    gaps = [r["median_gap"] for r in rows]
    ses = [r["se_median"] for r in rows]
    strict = all(
        gaps[i + 1] < gaps[i] + 2.0 * float(np.hypot(ses[i], ses[i + 1]))
        for i in range(len(gaps) - 1)
    )
    clipped = any(g + rows[0]["truth"] >= 1.0 for g in gaps)
    elapsed = time.monotonic() - t0
    ok = strict and not clipped and elapsed < 300.0
    _report(7, ok, "median gaps " + " > ".join(f"{g:.4f}" for g in gaps)
            + f" (K={Ks}, n=2K, 30 trials, 2x SE rule), {elapsed:.1f}s")


# --------------------------------------------------------------------- 8

def test_acceptance_8_smooth_loss_answers_lie_above_random_feasible_moves():
    # the smooth-loss answers bound the worst case from above, for logistic
    # rules and for two-class linear-classifiers (their margin rules)
    rng = np.random.default_rng(np.random.SeedSequence(80808))
    rules = [(LOGISTIC, CROSS_ENTROPY), (LOGISTIC, SQUARED), (LINEAR, CROSS_ENTROPY)]
    rhos = (0.01, 0.1, 1.0)
    worst = -np.inf
    for case in range(60):
        rule, kind = rules[case % 3]
        d, n = int(rng.integers(1, 4)), int(rng.integers(5, 21))
        if rule == LOGISTIC:
            h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=d), bias=float(rng.normal()))
        else:
            h = Hypothesis(kind=LINEAR, weights=rng.normal(size=(2, d)), bias=rng.normal(size=2))
        X = rng.normal(size=(n, d)) * 1.5
        y = (rng.integers(0, 2, size=n) if kind == CROSS_ENTROPY
             else rng.uniform(-0.5, 1.5, size=n))
        loss_fn = LossFn(kind)
        answers = Client(0, LocalDataset(0, X, y), loss_fn).query_profile(h, rhos)
        u = h.margin_direction()
        for rho, qv in zip(rhos, answers):
            for trial in range(100):
                # half the moves run along the margin direction
                moves = (np.outer(rng.choice([-1.0, 1.0], size=n), u) if trial % 2
                         else rng.normal(size=(n, d)))
                moves *= rng.exponential(1.0, size=(n, 1)) ** 2
                spent = float(np.mean(0.5 * np.sum(moves * moves, axis=1)))
                if spent == 0.0:
                    continue
                Xp = X + moves * np.sqrt(rho / spent) * rng.uniform(0.5, 1.0)
                worst = max(worst, float(np.mean(loss_values(loss_fn, h, Xp, y))) - qv.value)
    ok = worst <= 1e-12
    _report(8, ok, f"60 rules x 3 radii x 100 random feasible moves, largest excess "
                   f"of a move over the answer {worst:.2e} (tol 1e-12)")


# --------------------------------------------------------------------- 9

PIPELINE_CONFIG = {
    "world": {
        "dim": 2, "n_classes": 2,
        "class_means": [[-1.1, 0.0], [1.1, 0.0]],
        "shift_mode": "both", "seed": 90,
        "archetypes": [
            {"class_means": [[-1.1, 0.0], [1.1, 0.0]],
             "class_props": [0.5, 0.5], "score": 0.0},
            {"class_means": [[-0.5, 0.1], [0.5, -0.1]],
             "class_props": [0.4, 0.6], "score": 1.0},
        ],
        "archetype_weights": [0.7, 0.3],
    },
    "model": {"from_world": {"scale": 1.0}},
    "data": {"K": 12, "n_k": 40},
    "certificates": [
        {"kind": "mean", "delta": 0.1, "target_clients": 250},
        {"kind": "fdiv-cdf", "delta": 0.1, "epsilon": 0.05, "f_name": "kl",
         "target_clients": 250,
         "lambda_grid": {"start": 0.0, "stop": 1.0, "num": 11}},
        {"kind": "wass-mean", "delta": 0.1, "epsilon": 0.02,
         "grid_size": 8, "target_clients": 250},
    ],
    "verify": {
        "trials": 3, "target_clients": 250,
        "kinds": [{"kind": "mean", "delta": 0.1}],
        "tightness": {"bound_kind": "mean", "K_schedule": [5, 10],
                      "n_schedule": [10, 20], "trials": 2},
    },
}


def _run_pipeline(cfg_path: str, out: Path):
    for argv in (
        ["simulate", "--config", cfg_path, "--out", str(out)],
        ["certify", "--config", cfg_path, "--out", str(out / "certs")],
        ["verify", "--config", cfg_path, "--out", str(out / "ver")],
        ["emit-plots", "--out", str(out / "certs")],
    ):
        rc = cli_main(argv)
        assert rc == 0, f"{argv[0]} exited {rc}"


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_acceptance_9_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(copy.deepcopy(PIPELINE_CONFIG)))
    _run_pipeline(str(cfg_path), tmp_path / "run1")
    _run_pipeline(str(cfg_path), tmp_path / "run2")
    d1 = _tree_digest(tmp_path / "run1")
    d2 = _tree_digest(tmp_path / "run2")
    ok = d1 == d2 and len(d1) > 10
    _report(9, ok, f"two full pipeline runs, {len(d1)} files each, "
                   f"byte-identical: {d1 == d2}")
