import json

import numpy as np
import pytest

from fedcert import (
    Archetype,
    ClientSpec,
    MetaConfig,
    WorldFieldError,
    archetype_divergences,
    draw_world,
    export_world,
    generate_dataset,
    generate_datasets,
    load_client_pool,
    load_world,
    sample_clients,
    shift_meta_fdiv,
    shift_meta_wass,
    tilt_for_divergence,
)
from fedcert.metasim import (
    _BLOCK_BYTES,
    _categorical,
    _choice_cdf,
    _dirichlet,
    _philox_keys,
    tilt_divergence_limit,
)

BASE_MEANS = np.array([[-1.0, 0.0], [1.0, 0.0]])


def plain_cfg(**kw):
    args = dict(dim=2, n_classes=2, class_means=BASE_MEANS, seed=123)
    args.update(kw)
    return MetaConfig(**args)


def two_archetype_cfg(w=(0.5, 0.5), scores=(0.0, 1.0), seed=123):
    arche = [
        Archetype(class_means=BASE_MEANS, class_props=np.array([0.5, 0.5]), score=scores[0]),
        Archetype(class_means=BASE_MEANS * 0.5, class_props=np.array([0.4, 0.6]), score=scores[1]),
    ]
    return MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS, seed=seed,
                      archetypes=arche, archetype_weights=np.array(w))


def _client_rng(seed: int, client_id: int, stream: int) -> np.random.Generator:
    """The reference stream of one client: a Generator built per client."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), int(client_id), stream]))
    )


def test_categorical_draws_match_generator_choice():
    # the same draws from the same uniforms, and the same stream state after
    # them, for the spec stream's single draws and the data stream's label
    # vectors
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    for k in range(500):
        p = rng.dirichlet(np.full(int(rng.integers(2, 6)), 0.5))
        if k % 7 == 0:   # a class that is never drawn
            p[rng.integers(len(p))] = 0.0
            p /= p.sum()
        for n in (None, 1, 7, 50):
            ours, ref = _client_rng(k, n or 0, 0), _client_rng(k, n or 0, 0)
            got, want = _categorical(_choice_cdf(p), ours.random(n)), ref.choice(len(p), size=n, p=p)
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
            assert ours.random() == ref.random()


def test_negative_proportions_are_rejected():
    with pytest.raises(ValueError):
        Archetype(class_means=BASE_MEANS, class_props=np.array([1.2, -0.2]))
    spec = sample_clients(plain_cfg(), 1)[0].to_json_dict()
    spec["class_props"] = [1.2, -0.2]
    with pytest.raises(ValueError):
        ClientSpec.from_json_dict(spec)


def test_mode_none_clients_are_identical():
    cfg = plain_cfg(shift_mode="none")
    for s in sample_clients(cfg, 3):
        assert np.all(s.affine == 0.0)
        assert np.all(s.shift == 0.0)
        assert np.allclose(s.class_props, 0.5)


def test_specs_deterministic_across_runs():
    cfg = plain_cfg(shift_mode="both", sigma_affine=0.05)
    a = [s.to_json_dict() for s in sample_clients(cfg, 8)]
    b = [s.to_json_dict() for s in sample_clients(cfg, 8)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_clients_individually_reproducible():
    # per-client seeding: client k is the same no matter how many neighbours exist
    cfg = plain_cfg(shift_mode="both")
    five = sample_clients(cfg, 5)
    two = sample_clients(cfg, 2)
    assert json.dumps(five[1].to_json_dict()) == json.dumps(two[1].to_json_dict())


def test_dirichlet_proportions_mean_uniform():
    # Dirichlet(alpha * 1_C) has uniform mean regardless of concentration
    cfg = plain_cfg(shift_mode="label", alpha_dir=0.4)
    props = np.array([s.class_props for s in sample_clients(cfg, 1000)])
    assert np.all(np.abs(props.mean(axis=0) - 0.5) < 0.02)


def test_generate_dataset_single_sample():
    cfg = plain_cfg(shift_mode="none")
    spec = sample_clients(cfg, 1)[0]
    ds = generate_dataset(spec, 1, cfg)
    assert len(ds) == 1 and ds.features.shape == (1, 2)


def test_generate_dataset_shift_moves_the_mean():
    cfg = plain_cfg(shift_mode="none", cov_scale=1.0)
    spec = sample_clients(cfg, 1)[0]
    n = 4000
    base = generate_dataset(spec, n, cfg)
    shifted_spec = type(spec)(
        client_id=spec.client_id, affine=spec.affine, shift=np.ones(2),
        class_props=spec.class_props, class_means=spec.class_means,
        archetype=spec.archetype, seed_entropy=spec.seed_entropy,
    )
    moved = generate_dataset(shifted_spec, n, cfg)
    delta = moved.features.mean(axis=0) - base.features.mean(axis=0)
    assert np.all(np.abs(delta - 1.0) < 3.0 / np.sqrt(n))


def test_generate_dataset_deterministic():
    cfg = plain_cfg(shift_mode="both")
    spec = sample_clients(cfg, 1)[0]
    d1 = generate_dataset(spec, 50, cfg)
    d2 = generate_dataset(spec, 50, cfg)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)


# -- the batched draw against a per-client reference --------------------------

# roots of one, two and three or more uint32 words
ROOTS = (0, 31, 2**63 + 5, 2**70 + 3)


def test_philox_keys_match_seed_sequence():
    ids = [0, 1, 2**32 - 1]
    for root in ROOTS + (2**32 - 1, 2**32, 2**128 - 1):
        for stream in (0, 1):
            want = np.array([np.random.SeedSequence([root, k, stream]).generate_state(2, np.uint64)
                             for k in ids])
            got = _philox_keys(root, ids, stream)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
            # and the key Philox itself takes from that SeedSequence
            built = np.random.Philox(np.random.SeedSequence([root, ids[2], stream]))
            assert np.array_equal(got[2], built.state["state"]["key"])
    for root, ids in ((-1, [0]), (0, [-1]), (0, [2**32])):
        with pytest.raises(ValueError):
            _philox_keys(root, ids, 0)


def three_class_cfg(shift_mode, archetypes, seed):
    means = np.array([[-1.0, 0.0, 0.5], [1.0, 0.5, 0.0], [0.0, -1.0, 1.0]])
    kw = {}
    if archetypes:
        kw = dict(archetypes=[
            Archetype(class_means=means, score=0.0),
            Archetype(class_means=0.5 * means, class_props=[0.2, 0.0, 0.8], score=1.0),
            Archetype(class_means=-means, class_props=[0.5, 0.3, 0.2], score=2.0),
        ], archetype_weights=[0.5, 0.3, 0.2])
    return MetaConfig(dim=3, n_classes=3, class_means=means, shift_mode=shift_mode,
                      seed=seed, **kw)


def reference_world(cfg, K, n_k):
    """The world drawn one client at a time, each through Generators built
    for it, in the draw order of the simulator's streams."""
    d, C = cfg.dim, cfg.n_classes
    specs, data = [], []
    for k in range(K):
        rng = _client_rng(cfg.seed, k, 0)
        if cfg.archetypes is not None:
            arche = int(rng.choice(len(cfg.archetypes), p=cfg.archetype_weights))
            means, props = cfg.archetypes[arche].class_means, cfg.archetypes[arche].class_props
        else:
            arche, means, props = -1, cfg.class_means, np.full(C, 1.0 / C)
        affine, shift = np.zeros((d, d)), np.zeros(d)
        if cfg.shift_mode in ("feature", "both"):
            affine = rng.normal(0.0, cfg.sigma_affine, size=(d, d))
            shift = rng.normal(0.0, cfg.sigma_shift, size=d)
        if cfg.shift_mode in ("label", "both"):
            props = rng.dirichlet(cfg.alpha_dir * C * props)
        specs.append(ClientSpec(client_id=k, affine=affine, shift=shift, class_props=props,
                                class_means=means, archetype=arche, seed_entropy=cfg.seed))
        rng = _client_rng(cfg.seed, k, 1)
        labels = rng.choice(C, size=n_k, p=props)
        X = means[labels] + cfg.cov_scale * rng.standard_normal((n_k, d))
        data.append((X @ (np.eye(d) + affine).T + shift, labels))
    return specs, data


def assert_same_world(specs, datasets, ref_specs, ref_data):
    assert len(specs) == len(ref_specs) == len(datasets) == len(ref_data)
    for spec, ref in zip(specs, ref_specs):
        assert (spec.client_id, spec.archetype, spec.seed_entropy) == \
            (ref.client_id, ref.archetype, ref.seed_entropy)
        for key in ("affine", "shift", "class_props", "class_means"):
            assert np.array_equal(getattr(spec, key), getattr(ref, key)), key
    for ds, (X, labels) in zip(datasets, ref_data):
        assert np.array_equal(ds.features, X)
        assert np.array_equal(ds.labels, labels) and ds.labels.dtype == labels.dtype


N_K = 64
# clients in one block of the data draw at N_K samples of dim 3
BLOCK = _BLOCK_BYTES // (8 * N_K * 3)


@pytest.mark.parametrize("K", [1, 2 * BLOCK + 1])
@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("archetypes", [False, True])
@pytest.mark.parametrize("shift_mode", ["none", "feature", "label", "both"])
def test_batched_draw_matches_per_client_reference(shift_mode, archetypes, root, K):
    cfg = three_class_cfg(shift_mode, archetypes, root)
    specs = sample_clients(cfg, K)
    ref_specs, ref_data = reference_world(cfg, K, N_K)
    assert_same_world(specs, generate_datasets(specs, N_K, cfg), ref_specs, ref_data)
    # the single-spec path is the batched one called with one spec
    assert_same_world(specs[-1:], [generate_dataset(specs[-1], N_K, cfg)],
                      ref_specs[-1:], ref_data[-1:])


def test_batched_datasets_follow_each_specs_own_root():
    # specs drawn under different roots, interleaved in one call
    cfgs = [three_class_cfg("both", True, root) for root in ROOTS]
    drawn = [sample_clients(cfg, 3) for cfg in cfgs]
    refs = [reference_world(cfg, 3, 6) for cfg in cfgs]
    order = [(w, k) for k in range(3) for w in range(len(cfgs))]
    specs = [drawn[w][k] for w, k in order]
    assert_same_world(specs, generate_datasets(specs, 6, cfgs[0]),
                      [refs[w][0][k] for w, k in order], [refs[w][1][k] for w, k in order])


def test_philox_keys_take_a_stream_per_id():
    ids = [0, 7, 2**32 - 1]
    for root in ROOTS:
        got = _philox_keys(root, ids + ids, [0] * 3 + [1] * 3)
        want = np.concatenate([_philox_keys(root, ids, 0), _philox_keys(root, ids, 1)])
        assert np.array_equal(got, want)
    for stream in (-1, 2**32):
        with pytest.raises(ValueError):
            _philox_keys(0, [0], stream)


def test_gamma_dirichlet_equals_generator_dirichlet():
    # numpy's gamma branch, value for value and stream state after it, for
    # alphas whose largest is 0.1 or more, zero alphas included
    rng = np.random.default_rng(7)
    cases = [[0.1, 0.05], [0.1001, 0.0], [0.0, 0.1, 0.02], [0.8, 0.8], [3.0, 0.2, 0.0]]
    cases += [list(rng.uniform(0.0, 2.0, size=int(rng.integers(2, 6))) + [0.1])
              for _ in range(60)]
    for k, alphas in enumerate(cases):
        ours, ref = _client_rng(k, 0, 0), _client_rng(k, 0, 0)
        assert np.array_equal(np.array(_dirichlet(ours, alphas)), ref.dirichlet(alphas))
        assert ours.random() == ref.random()


def dirichlet_branch_cfg(alpha_dir):
    """A label-shifted world whose archetype rows have largest alphas
    alpha_dir and 2 * alpha_dir, the second with a zero alpha."""
    return MetaConfig(
        dim=2, n_classes=2, class_means=BASE_MEANS, shift_mode="both", seed=77,
        alpha_dir=alpha_dir, archetype_weights=[0.5, 0.5], archetypes=[
            Archetype(class_means=BASE_MEANS, class_props=[0.5, 0.5]),
            Archetype(class_means=-BASE_MEANS, class_props=[0.0, 1.0]),
        ])


# largest row alphas: all below 0.1 (numpy's stick-breaking branch), then
# 0.0999 / 0.1 / 0.1001 on the uniform row and on the zero-alpha row
@pytest.mark.parametrize("alpha_dir", [0.02, 0.0999, 0.1, 0.1001, 0.04995, 0.05, 0.05005])
def test_draw_matches_reference_on_both_dirichlet_branches(alpha_dir):
    cfg = dirichlet_branch_cfg(alpha_dir)
    K = 40
    ref_specs, ref_data = reference_world(cfg, K, 5)
    assert {s.archetype for s in ref_specs} == {0, 1}
    assert_same_world(sample_clients(cfg, K), draw_world(cfg, K, 5).datasets(),
                      ref_specs, ref_data)


def assert_columns_equal_objects(world, specs, datasets):
    assert world.seed_entropy == specs[0].seed_entropy
    assert np.array_equal(world.archetype, [s.archetype for s in specs])
    for key in ("affine", "shift", "class_props", "class_means"):
        assert np.array_equal(getattr(world, key), np.stack([getattr(s, key) for s in specs]))
    assert np.array_equal(world.features, np.stack([ds.features for ds in datasets]))
    assert np.array_equal(world.labels, np.stack([ds.labels for ds in datasets]))
    assert world.labels.dtype == datasets[0].labels.dtype
    assert [ds.client_id for ds in world.datasets()] == list(range(len(specs)))
    assert [s.to_json_dict() for s in world.specs()] == [s.to_json_dict() for s in specs]


@pytest.mark.parametrize("K", [1, 2 * BLOCK + 1])
@pytest.mark.parametrize("shift_mode", ["none", "both"])
def test_draw_world_columns_equal_the_objects(shift_mode, K):
    cfg = three_class_cfg(shift_mode, True, 31)
    specs = sample_clients(cfg, K, seed=5)
    world = draw_world(cfg, K, N_K, seed=5)
    assert world.features.shape == (K, N_K, 3) and world.labels.shape == (K, N_K)
    assert_columns_equal_objects(world, specs, generate_datasets(specs, N_K, cfg))


def test_draw_world_rejects_bad_sizes():
    cfg = plain_cfg()
    for K, n_k in ((0, 5), (3, -1)):
        with pytest.raises(ValueError):
            draw_world(cfg, K, n_k)


@pytest.mark.parametrize("field, value", [
    ("alpha_dir", 0.0), ("alpha_dir", -1.0), ("alpha_dir", float("nan")),
    ("sigma_affine", -0.1), ("sigma_shift", -1e-9), ("sigma_affine", float("inf")),
    ("cov_scale", float("nan")), ("cov_scale", float("inf")),
])
def test_out_of_range_world_parameters_are_refused(field, value):
    with pytest.raises(WorldFieldError) as err:
        plain_cfg(shift_mode="both", **{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, float("inf")], [float("nan"), 1.0]])
def test_archetype_weights_without_a_positive_finite_sum_are_refused(weights):
    with pytest.raises(WorldFieldError) as err:
        two_archetype_cfg(w=weights)
    assert err.value.field == "archetype_weights"


# -- meta-level shifts -------------------------------------------------------

def test_tilt_zero_is_identity():
    cfg = two_archetype_cfg()
    shifted, div = shift_meta_fdiv(cfg, 0.0)
    assert div["kl"] == 0.0 and div["chi-square"] == 0.0
    assert np.array_equal(shifted.archetype_weights, cfg.archetype_weights)


def test_divergences_match_hand_values():
    # w=(.5,.5) tilted to (.25,.75): scores (0,1), e^t = 3
    cfg = two_archetype_cfg()
    shifted, div = shift_meta_fdiv(cfg, np.log(3.0))
    assert np.allclose(shifted.archetype_weights, [0.25, 0.75], atol=1e-12)
    chi2_hand = 0.5 * (0.25 / 0.5 - 1) ** 2 + 0.5 * (0.75 / 0.5 - 1) ** 2
    kl_hand = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
    assert abs(div["chi-square"] - 0.25) < 1e-12
    assert abs(div["chi-square"] - chi2_hand) < 1e-12
    assert abs(div["kl"] - kl_hand) < 1e-12
    assert abs(div["kl"] - 0.1308120) < 1e-6


def test_divergences_match_independent_summation():
    # four archetypes, random tilt: check against a direct re-summation
    rng = np.random.default_rng(5)
    arche = [
        Archetype(class_means=BASE_MEANS + rng.normal(size=(2, 2)) * 0.1,
                  class_props=np.array([0.5, 0.5]), score=float(m))
        for m in range(4)
    ]
    w = rng.dirichlet(np.ones(4))
    cfg = MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS, seed=0,
                     archetypes=arche, archetype_weights=w)
    shifted, div = shift_meta_fdiv(cfg, 0.37)
    wp = shifted.archetype_weights
    kl = sum(wp[m] * np.log(wp[m] / w[m]) for m in range(4))
    chi2 = sum(w[m] * (wp[m] / w[m] - 1) ** 2 for m in range(4))
    assert abs(div["kl"] - kl) < 1e-8
    assert abs(div["chi-square"] - chi2) < 1e-8


def test_tilt_for_divergence_hits_budget():
    cfg = two_archetype_cfg()
    for name, eps in (("kl", 0.05), ("kl", 0.2), ("chi-square", 0.05), ("chi-square", 0.2)):
        t = tilt_for_divergence(cfg, name, eps)
        _, div = shift_meta_fdiv(cfg, t)
        assert abs(div[name] - eps) < 1e-9


def test_tilt_constant_scores_rejected():
    cfg = two_archetype_cfg(scores=(1.0, 1.0))
    with pytest.raises(ValueError):
        tilt_for_divergence(cfg, "kl", 0.1)


@pytest.mark.parametrize("name", ["kl", "chi-square"])
def test_tilt_limit_is_the_divergence_at_infinite_tilt(name):
    # all mass on the top-score archetype, of source weight 0.3
    cfg = two_archetype_cfg(w=(0.7, 0.3))
    limit = tilt_divergence_limit(cfg, name)
    assert limit == pytest.approx(-np.log(0.3) if name == "kl" else 1.0 / 0.3 - 1.0,
                                  rel=1e-15)
    achieved = [shift_meta_fdiv(cfg, t)[1][name] for t in (1.0, 5.0, 10.0, 40.0)]
    assert achieved[0] < achieved[1] < achieved[2] < limit
    assert achieved[3] == pytest.approx(limit, rel=1e-12)
    t = tilt_for_divergence(cfg, name, 0.9 * limit)
    assert abs(shift_meta_fdiv(cfg, t)[1][name] - 0.9 * limit) < 1e-9
    for eps in (limit, 5.0):
        with pytest.raises(ValueError, match="unreachable by tilting"):
            tilt_for_divergence(cfg, name, eps)


@pytest.mark.parametrize("name", ["kl", "chi-square"])
def test_a_tilt_leaves_an_archetype_of_weight_zero_empty(name):
    # the top score sits on an archetype the source excludes; the target may
    # not load it, so the tilt moves mass between the other two
    cfg = two_archetype_cfg()
    cfg.archetypes.append(Archetype(class_means=BASE_MEANS, class_props=np.array([0.5, 0.5]),
                                    score=10.0))
    cfg.archetype_weights = np.array([0.5, 0.5, 0.0])
    limit = tilt_divergence_limit(cfg, name)
    assert limit == pytest.approx(np.log(2.0) if name == "kl" else 1.0, rel=1e-12)
    t = tilt_for_divergence(cfg, name, 0.5 * limit)
    shifted, div = shift_meta_fdiv(cfg, t)
    assert shifted.archetype_weights[2] == 0.0
    assert abs(div[name] - 0.5 * limit) < 1e-9


def test_top_scores_no_float_tilt_separates_leave_no_reachable_budget():
    # at scores 0 and 1e-300 every tilt the search tries leaves the weights
    # as they are, so no positive budget is reachable
    cfg = two_archetype_cfg(w=(0.7, 0.3), scores=(0.0, 1e-300))
    assert tilt_divergence_limit(cfg, "kl") < 1e-12
    with pytest.raises(ValueError, match="unreachable by tilting"):
        tilt_for_divergence(cfg, "kl", 0.05)


def test_wass_budget_zero_is_identity():
    cfg = plain_cfg()
    shifted, cost = shift_meta_wass(cfg, 0.0)
    assert cost == 0.0
    assert np.array_equal(shifted.class_means, cfg.class_means)


def test_wass_single_norm_cost():
    # half-squared cost of a norm-0.3 move is 0.045
    cfg = plain_cfg()
    shifted, cost = shift_meta_wass(cfg, 0.045)
    assert abs(cost - 0.045) < 1e-15
    moved = shifted.class_means - cfg.class_means
    assert np.allclose(np.linalg.norm(moved, axis=1), 0.3)


def test_wass_per_archetype_radii():
    # radii (0.2, 0.4) at weights (.5,.5): 0.5*0.02 + 0.5*0.08 = 0.05
    cfg = two_archetype_cfg()
    shifted, cost = shift_meta_wass(cfg, 0.05, radii=np.array([0.2, 0.4]))
    assert abs(cost - 0.05) < 1e-15
    for a, a0, r in zip(shifted.archetypes, cfg.archetypes, (0.2, 0.4)):
        assert np.allclose(np.linalg.norm(a.class_means - a0.class_means, axis=1), r)


def test_wass_radii_over_budget_rejected():
    cfg = two_archetype_cfg()
    with pytest.raises(ValueError):
        shift_meta_wass(cfg, 0.04, radii=np.array([0.2, 0.4]))


def test_wass_negative_budget_rejected():
    with pytest.raises(ValueError):
        shift_meta_wass(plain_cfg(), -0.1)


def test_archetype_divergence_excluded_support_rejected():
    cfg = two_archetype_cfg(w=(1.0, 0.0))
    bad = two_archetype_cfg(w=(0.5, 0.5))
    with pytest.raises(ValueError):
        archetype_divergences(cfg, bad)


# -- worlds on disk ----------------------------------------------------------

def test_world_round_trip(tmp_path):
    cfg = plain_cfg(shift_mode="both")
    specs = sample_clients(cfg, 4)
    datasets = [generate_dataset(s, 25, cfg) for s in specs]
    export_world(tmp_path / "w", cfg, specs, datasets)
    cfg2, specs2, datasets2 = load_world(tmp_path / "w")
    assert cfg2.digest() == cfg.digest()
    assert len(specs2) == 4
    for d1, d2 in zip(datasets, datasets2):
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)


def test_export_byte_identical_across_runs(tmp_path):
    cfg = plain_cfg(shift_mode="both")
    for sub in ("a", "b"):
        specs = sample_clients(cfg, 3)
        datasets = [generate_dataset(s, 10, cfg) for s in specs]
        export_world(tmp_path / sub, cfg, specs, datasets)
    m_a = (tmp_path / "a" / "manifest.json").read_bytes()
    m_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert m_a == m_b
    for f in sorted((tmp_path / "a").glob("client_*.csv")):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_golden_manifest_digest(tmp_path):
    # frozen on first generation; guards the sampling path against drift
    cfg = MetaConfig(dim=2, n_classes=2, class_means=BASE_MEANS,
                     cov_scale=1.0, shift_mode="both", seed=2024)
    specs = sample_clients(cfg, 2)
    datasets = [generate_dataset(s, 5, cfg) for s in specs]
    export_world(tmp_path / "g", cfg, specs, datasets)
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["config_digest"] == cfg.digest()
    x00 = datasets[0].features[0, 0]
    import hashlib
    h = hashlib.sha1((tmp_path / "g" / "manifest.json").read_bytes()).hexdigest()
    golden = json.loads((TESTS_DIR / "golden" / "world_digest.json").read_text())
    assert h == golden["manifest_sha1"], "simulator output drifted from the frozen golden world"
    assert abs(x00 - golden["first_feature"]) < 1e-15


def test_external_csv_pool(tmp_path):
    p = tmp_path / "ext.csv"
    p.write_text("f0,f1,label\n0.5,1.5,0\n-0.25,2.0,1\n")
    pool = load_client_pool([p], dim=2)
    assert len(pool) == 1 and len(pool[0]) == 2
    assert pool[0].features[1, 0] == -0.25


from pathlib import Path

TESTS_DIR = Path(__file__).parent
