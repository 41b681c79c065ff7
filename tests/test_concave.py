"""The greedy fill over concave pieces and the segmented upper hull, on
hand instances and against a monotone chain kept here as the reference.

Expected values are worked out by hand, never through the fill itself.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcert import (
    LOOKUP, SQUARED, Hypothesis, LocalDataset, LossFn, TransportCost, adversarial_risk,
)
from fedcert import concave
from fedcert.concave import GreedyFill, hull_pieces, upper_hulls


def chain_hull(x, y):
    """Upper hull (monotone chain) of points with increasing x, as rows x, y:
    one point at a time, dropping the middle of the last three while it
    lies on or below the chord of the other two."""
    hull = []
    for xi, yi in zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (xi - x1) <= (yi - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((xi, yi))
    return np.array(hull).T


def test_free_piece_is_bought_with_no_budget():
    fill = GreedyFill([2.0, 0.0], [1.0, 0.5])
    assert fill(0.0) == (0.5, 0.5)
    assert fill.taken(0.0).tolist() == [0.0, 0.0]
    assert fill(1.0) == (1.0, 0.5)


def test_slope_ties_keep_the_given_order():
    fill = GreedyFill([2.0, 1.0, 4.0], [1.0, 0.5, 2.0])
    assert fill(2.5) == (1.25, 0.5)
    assert fill.taken(2.5).tolist() == [2.0, 0.5, 0.0]


def test_zero_budget_buys_nothing_at_the_best_slope():
    fill = GreedyFill([4.0, 1.0], [1.0, 1.0])
    assert fill(0.0) == (0.0, 1.0)
    assert fill.taken(0.0).tolist() == [0.0, 0.0]


def test_exact_saturation_has_slope_zero():
    fill = GreedyFill([1.0, 4.0], [0.5, 0.25])
    assert fill(3.0) == (0.625, 0.0625)
    assert fill(5.0) == (0.75, 0.0)
    assert fill.taken(5.0).tolist() == [1.0, 4.0]
    assert fill(9.0) == (0.75, 0.0)


def test_no_pieces():
    fill = GreedyFill([], [])
    assert fill(1.0) == (0.0, 0.0)
    assert fill.taken(1.0).tolist() == []


def test_split_on_a_middle_hull_segment():
    # one sample at 0 under the l2 cost; a lookup table whose squared losses
    # at costs 0, 1, 2, 3, 5 are 0, 1/4, 25/64, 9/16, 49/64.  The point at
    # cost 2 sags below the chord, so the hull pieces are (1, 1/4),
    # (2, 5/16) and (2, 13/64).  Budget 2 buys the first and half the second.
    x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    t = np.array([0.0, 0.5, 0.625, 0.75, 0.875])
    assert x[upper_hulls(x, t ** 2, [5])].tolist() == [0.0, 1.0, 3.0, 5.0]
    h = Hypothesis(kind=LOOKUP, weights=t, grid=x.reshape(-1, 1))
    ds = LocalDataset(client_id=0, features=np.array([[0.0]]), labels=np.array([0.0]))
    qv = adversarial_risk(h, ds, 2.0, TransportCost("l2"), LossFn(SQUARED))
    assert qv.value == 0.25 + 0.15625
    assert qv.gamma_star == 0.15625
    assert qv.status == "exact"


def _scalar_fill(cost, gain, budget):
    """The fill at one budget in Python floats, piece by piece: the
    reference the one-search array call must match bit for bit."""
    with np.errstate(divide="ignore"):
        order = np.argsort(-(np.asarray(gain) / np.asarray(cost)), kind="stable")
    cost, gain = np.asarray(cost)[order].tolist(), np.asarray(gain)[order].tolist()
    paid = bought = 0.0
    for c, g in zip(cost, gain):
        if paid + c > budget:
            return bought + g * (budget - paid) / c, g / c
        paid, bought = paid + c, bought + g
    return bought, 0.0


def test_array_of_budgets_matches_the_scalar_fill_bit_for_bit():
    rng = np.random.default_rng(np.random.SeedSequence(1501))
    for trial in range(200):
        m = int(rng.integers(0, 30))
        cost = rng.exponential(1.0, m) * (rng.uniform(size=m) > 0.1)   # some free pieces
        gain = rng.choice([1.0, 0.5, 0.25], m) if trial % 2 else rng.uniform(0.0, 1.0, m)
        budgets = np.concatenate([[0.0], rng.uniform(0.0, 1.2 * cost.sum() + 1.0, 12),
                                  np.cumsum(np.sort(cost))])   # exactly at piece ends too
        fill = GreedyFill(cost, gain)
        value, slope = fill(budgets)
        want = [_scalar_fill(cost, gain, b) for b in budgets.tolist()]
        assert list(zip(value.tolist(), slope.tolist())) == want
        assert [fill(b) for b in budgets.tolist()] == want


# -- the segmented upper hull ------------------------------------------------

@st.composite
def ragged_rows(draw):
    """Ragged rows of 1, of 1 or 2, or of up to 60 small-integer points, x
    strictly increasing: their cross products are exact, so collinear runs
    and ties are decided alike by any correct arithmetic."""
    max_len = draw(st.sampled_from([1, 2, 60]))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=6))
    xs, ys = [], []
    for m in lengths:
        steps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        xs.append(np.cumsum(steps).astype(float) - draw(st.integers(0, 5)))
        ys.append(np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)),
                           dtype=float))
    return xs, ys


@settings(max_examples=300, deadline=None, database=None)
@given(ragged_rows())
def test_segmented_hull_matches_the_monotone_chain(rows):
    xs, ys = rows
    counts = [len(x) for x in xs]
    x, y = np.concatenate(xs), np.concatenate(ys)
    vertex = upper_hulls(x, y, counts)
    width, rise, per_row = hull_pieces(x, y, counts)
    want = [chain_hull(a, b) for a, b in zip(xs, ys)]
    ends = np.cumsum(counts)
    for (hx, hy), lo, hi in zip(want, ends - counts, ends):
        assert x[lo:hi][vertex[lo:hi]].tolist() == hx.tolist()
        assert y[lo:hi][vertex[lo:hi]].tolist() == hy.tolist()
    assert width.tolist() == np.concatenate([np.diff(hx) for hx, _ in want]).tolist()
    assert rise.tolist() == np.concatenate([np.diff(hy) for _, hy in want]).tolist()
    assert per_row.tolist() == [len(hx) - 1 for hx, _ in want]


def test_segmented_hull_blocks_keep_rows_whole(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(1601))
    counts = rng.integers(1, 40, 50)
    x = np.concatenate([np.cumsum(rng.integers(1, 4, m)) for m in counts]).astype(float)
    y = rng.integers(-6, 7, len(x)).astype(float)
    whole = upper_hulls(x, y, counts)
    monkeypatch.setattr(concave, "_HULL_BLOCK", 16)   # most rows alone, some longer
    assert upper_hulls(x, y, counts).tolist() == whole.tolist()
    ends = np.cumsum(counts)
    for lo, hi in zip(ends - counts, ends):
        assert x[lo:hi][whole[lo:hi]].tolist() == chain_hull(x[lo:hi], y[lo:hi])[0].tolist()
