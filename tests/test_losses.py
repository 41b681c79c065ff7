import numpy as np
import pytest

from fedcert import (
    CROSS_ENTROPY,
    LINEAR,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    DimensionMismatchError,
    Hypothesis,
    LossFn,
    Sample,
    loss,
    loss_values,
)


def logistic_h(w=(1.0, -0.5), b=0.2):
    return Hypothesis(kind=LOGISTIC, weights=np.array(w, dtype=float), bias=b)


def linear_h():
    W = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    return Hypothesis(kind=LINEAR, weights=W, bias=np.array([0.0, 0.1, -0.1]))


def test_zero_one_correct_and_wrong():
    h = logistic_h()
    z_pos = Sample(features=np.array([3.0, 0.0]), label=1)   # score 3.2 -> class 1
    z_neg = Sample(features=np.array([3.0, 0.0]), label=0)
    assert loss(LossFn(ZERO_ONE), h, z_pos) == 0.0
    assert loss(LossFn(ZERO_ONE), h, z_neg) == 1.0


def test_clipped_squared_identity_case():
    # score-valued rule hitting the target exactly
    h = Hypothesis(kind=LOGISTIC, weights=np.array([0.0]), bias=0.0)
    z = Sample(features=np.array([0.0]), label=0.5)   # sigmoid(0) = 0.5
    assert loss(LossFn(SQUARED), h, z) == 0.0


def test_loss_fuzz_always_in_unit_interval():
    rng = np.random.default_rng(0)
    losses = [LossFn(ZERO_ONE), LossFn(CROSS_ENTROPY), LossFn(SQUARED)]
    n = 0
    for _ in range(200):
        d = rng.integers(1, 5)
        h = Hypothesis(kind=LOGISTIC, weights=rng.normal(size=d) * 10, bias=float(rng.normal() * 10))
        X = rng.normal(size=(17, d)) * 5
        y = rng.integers(0, 2, size=17)
        for lf in losses:
            vals = loss_values(lf, h, X, y)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            n += len(vals)
    assert n >= 10_000


def test_dimension_mismatch_rejected():
    h = logistic_h()
    with pytest.raises(DimensionMismatchError):
        loss(LossFn(ZERO_ONE), h, Sample(features=np.array([1.0, 2.0, 3.0]), label=1))


def test_lookup_table_off_grid_rejected():
    grid = np.array([[0.0], [1.0]])
    h = Hypothesis(kind=LOOKUP, weights=np.array([0, 1]), grid=grid)
    assert loss(LossFn(ZERO_ONE), h, Sample(features=np.array([1.0]), label=1)) == 0.0
    with pytest.raises(ValueError):
        loss(LossFn(ZERO_ONE), h, Sample(features=np.array([0.5]), label=1))


def test_hypothesis_json_round_trip():
    for h in (logistic_h(), linear_h()):
        h2 = Hypothesis.from_json_dict(h.to_json_dict())
        assert h2.kind == h.kind
        assert np.array_equal(h2.weights, h.weights)
        assert h2.cache_key() == h.cache_key()


def test_nonfinite_weights_rejected():
    with pytest.raises(ValueError):
        Hypothesis(kind=LOGISTIC, weights=np.array([np.nan]), bias=0.0)
    with pytest.raises(ValueError):
        Sample(features=np.array([np.inf]), label=0)



def test_two_class_cross_entropy_is_the_margin_logistic_rules():
    # the score-line route answers a two-class linear-classifier's queries as
    # this logistic rule's; the losses part only by rounding and by the
    # logistic probability floor of 1e-12
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        h = Hypothesis(kind=LINEAR, weights=rng.normal(size=(2, d)) * 3.0,
                       bias=rng.normal(size=2))
        margin = Hypothesis(kind=LOGISTIC, weights=h.margin_direction(),
                            bias=float(h.bias[1] - h.bias[0]))
        X = rng.normal(size=(200, d)) * 4.0
        y = rng.integers(0, 2, size=200)
        lin, log = (loss_values(LossFn(CROSS_ENTROPY), r, X, y) for r in (h, margin))
        assert np.all(np.abs(log - lin) <= 2e-12)
