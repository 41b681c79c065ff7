import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcert import (
    CROSS_ENTROPY,
    LINEAR,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    DimensionMismatchError,
    FieldError,
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
        assert h2.to_json_dict() == h.to_json_dict()


def test_nonfinite_weights_rejected():
    with pytest.raises(ValueError):
        Hypothesis(kind=LOGISTIC, weights=np.array([np.nan]), bias=0.0)
    with pytest.raises(ValueError):
        Sample(features=np.array([np.inf]), label=0)


@pytest.mark.parametrize("kind, weights, bias", [
    (LOGISTIC, [1.0, 0.0], np.nan),
    (LINEAR, [[1.0, 0.0], [0.0, 1.0]], [0.0, np.inf]),
    (LOOKUP, [0.0, 1.0], np.nan),
    (LOOKUP, [0.0, 1.0], -np.inf),
])
def test_nonfinite_bias_rejected(kind, weights, bias):
    with pytest.raises(FieldError) as err:
        Hypothesis(kind=kind, weights=weights, bias=bias,
                   grid=[[0.0], [1.0]] if kind == LOOKUP else None)
    assert (err.value.field, str(err.value)) == ("bias", "bias must be finite")


@pytest.mark.parametrize("bias, problem", [
    ("x", "is not an array of numbers"),
    ([0.0, 1.0], "of a lookup-table rule must be one number"),
    ([], "of a lookup-table rule must be one number"),
])
def test_lookup_table_bias_must_be_one_number(bias, problem):
    # a table's bias is not used, but it is written back by to_json_dict
    with pytest.raises(FieldError) as err:
        Hypothesis(kind=LOOKUP, weights=[0, 1], grid=[[0.0], [1.0]], bias=bias)
    assert err.value.field == "bias" and problem in str(err.value)
    h = Hypothesis(kind=LOOKUP, weights=[0, 1], grid=[[0.0], [1.0]], bias=[5])
    assert h.to_json_dict()["bias"] == 5.0



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


# ------------------------------------------------------- stacked model product

def _stack_rule(rule, d, rng):
    if rule == "logistic":
        return Hypothesis(kind=LOGISTIC, weights=rng.normal(size=d), bias=rng.normal())
    if rule == "lookup":
        grid = rng.normal(size=(7, d))
        return Hypothesis(kind=LOOKUP, weights=rng.uniform(size=7), grid=grid)
    C = int(rule[-1])
    return Hypothesis(kind=LINEAR, weights=rng.normal(size=(C, d)), bias=rng.normal(size=C))


def _stack_layouts(h, B, n, d, scale, rng):
    """B datasets of n samples as a C-ordered stack, a block slice of
    drawn-like columns, a fancy-indexed gather and a strided stack."""
    def points(shape):
        if h.kind == LOOKUP:
            return h.grid[rng.integers(0, len(h.grid), size=shape[:-1])]
        return rng.normal(size=shape) * scale
    columns = points((B + 3, n, d))
    wide = np.zeros((2 * B, 2 * n, 2 * d))
    wide[::2, ::2, ::2] = points((B, n, d))
    strided = wide[::2, ::2, ::2]
    return {"stack": np.ascontiguousarray(columns[:B]), "block": columns[2:2 + B],
            "gather": columns[rng.permutation(B + 3)[:B]], "strided": strided}


def _per_dataset_scores(h, X):
    if h.kind == LOOKUP:
        return np.concatenate([h.scores(x) for x in X])
    w = h.weights.T if h.kind == LINEAR else h.weights
    return np.concatenate([x @ w for x in X]) + h.bias


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rule=st.sampled_from(["logistic", "linear-2", "linear-3", "lookup"]),
       B=st.integers(2, 40), n=st.integers(1, 60), d=st.integers(1, 12),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_stacked_scores_equal_one_product_per_dataset_bit_for_bit(rule, B, n, d, scale, seed):
    rng = np.random.default_rng(seed)
    h = _stack_rule(rule, d, rng)
    for count in (1, B):
        for layout, X in _stack_layouts(h, count, n, d, scale, rng).items():
            got, want = h.stacked_scores(X), _per_dataset_scores(h, X)
            assert got.shape == want.shape, layout
            assert got.tobytes() == want.tobytes(), layout
