"""The greedy fill over concave pieces and the segmented upper hull, on
hand instances, against the one-curve fill (``_greedy_fill.GreedyFill``)
and against a monotone chain, both kept as references.

Expected values are worked out by hand, never through the fill itself.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcert import (
    LOOKUP, SQUARED, Hypothesis, LocalDataset, LossFn, TransportCost, adversarial_risk,
)
from fedcert import concave
from fedcert.concave import RowFill, hull_pieces, upper_hulls

from _greedy_fill import GreedyFill


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


class OneRow:
    """A one-row ``RowFill.greedy`` read at one budget, as ``GreedyFill``
    reads it: (gain, slope) as floats, and each piece's cost taken."""

    def __init__(self, cost, gain):
        self.fill = RowFill.greedy(np.array(cost, dtype=float).reshape(1, -1),
                                   np.array(gain, dtype=float).reshape(1, -1), [len(cost)])

    def __call__(self, budget):
        value, slope = self.fill(np.array([float(budget)]))
        return float(value[0, 0]), float(slope[0, 0])

    def taken(self, budget):
        return self.fill.taken(budget)[0]


def fills(cost, gain):
    """The kernel and the reference over the same pieces."""
    return OneRow(cost, gain), GreedyFill(cost, gain)


def test_free_piece_is_bought_with_no_budget():
    for fill in fills([2.0, 0.0], [1.0, 0.5]):
        assert fill(0.0) == (0.5, 0.5)
        assert fill.taken(0.0).tolist() == [0.0, 0.0]
        assert fill(1.0) == (1.0, 0.5)


def test_slope_ties_keep_the_given_order():
    for fill in fills([2.0, 1.0, 4.0], [1.0, 0.5, 2.0]):
        assert fill(2.5) == (1.25, 0.5)
        assert fill.taken(2.5).tolist() == [2.0, 0.5, 0.0]


def test_zero_budget_buys_nothing_at_the_best_slope():
    for fill in fills([4.0, 1.0], [1.0, 1.0]):
        assert fill(0.0) == (0.0, 1.0)
        assert fill.taken(0.0).tolist() == [0.0, 0.0]


def test_exact_saturation_has_slope_zero():
    for fill in fills([1.0, 4.0], [0.5, 0.25]):
        assert fill(3.0) == (0.625, 0.0625)
        assert fill(5.0) == (0.75, 0.0)
        assert fill.taken(5.0).tolist() == [1.0, 4.0]
        assert fill(9.0) == (0.75, 0.0)


def test_no_pieces():
    for fill in fills([], []):
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
        value, slope = OneRow(cost, gain).fill(budgets)
        assert list(zip(value[0].tolist(), slope[0].tolist())) == want


def _rows_of_pieces(rng, B, M):
    """(cost, gain, m): B rows of M columns, row b's first m[b] of them
    pieces and the rest garbage that the fill must never read.  Among the
    pieces are free ones, ones of no cost and no gain, and ones of equal
    gain per unit cost from different costs."""
    m = rng.integers(0, M + 1, B)
    gain = rng.choice([0.0, 0.25, 0.5, 1.0], (B, M)) if rng.uniform() < 0.5 \
        else rng.uniform(0.0, 1.0, (B, M))
    cost = np.where(rng.uniform(size=(B, M)) < 0.3, gain * rng.choice([1.0, 2.0, 4.0], (B, M)),
                    rng.exponential(1.0, (B, M)))
    cost[rng.uniform(size=(B, M)) < 0.15] = 0.0
    past = np.arange(M) >= m[:, None]
    cost[past], gain[past] = rng.choice([np.nan, -1.0, np.inf], np.count_nonzero(past)), np.nan
    return cost, gain, m


def test_row_fill_equals_the_one_row_reference_bit_for_bit():
    rng = np.random.default_rng(np.random.SeedSequence(2701))
    for trial in range(400):
        # the first rows have no columns at all
        B, M = int(rng.integers(1, 6)), int(rng.integers(0, 12)) if trial > 2 else 0
        cost, gain, m = _rows_of_pieces(rng, B, M)
        fill = RowFill.greedy(cost.copy(), gain.copy(), m)
        with np.errstate(invalid="ignore"):   # a piece of no cost and no gain has key NaN
            refs = [GreedyFill(c[:k], g[:k]) for c, g, k in zip(cost, gain, m)]
        # per row: 0, every piece's end, exactly the row total, and past it
        ends = [np.concatenate([[0.0], ref._paid_before[1:], [ref._paid_before[-1]]])
                for ref in refs]
        G = max(map(len, ends)) + 3
        budgets = np.stack([np.concatenate([e, rng.uniform(0.0, 1.5 * e[-1] + 1.0, G - len(e))])
                            for e in ends])
        value, slope = fill(budgets)
        for b, ref in enumerate(refs):
            want_value, want_slope = ref(budgets[b])
            assert value[b].tobytes() == want_value.tobytes()
            assert slope[b].tobytes() == want_slope.tobytes()
        for g in range(G):
            taken = fill.taken(budgets[:, g])
            assert taken.shape == (B, M)
            for b, ref in enumerate(refs):
                assert taken[b, :m[b]].tobytes() == ref.taken(budgets[b, g]).tobytes()
                assert not taken[b, m[b]:].any()
        # one budget shared by every row, past every row's total
        top = np.array([max(e[-1] for e in ends) + 1.0])
        assert fill(top)[1].tolist() == [[0.0]] * B
        assert fill.taken(top[0]).tobytes() == np.where(np.arange(M) < m[:, None], cost,
                                                        0.0).tobytes()


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
