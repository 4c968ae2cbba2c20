import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from stochsubmax import constraints, lattice
from stochsubmax.errors import EnumerationLimitError
from stochsubmax.generators import partition_demo_instance
from stochsubmax.greedy import _sampled_gains, estimate_marginal_gains
from stochsubmax.lattice import (
    ConcaveOverModular,
    ThresholdCoverage,
    UtilityOracle,
    WeightedModular,
    check_lattice_submodular,
    check_monotone,
    make_utility,
    utility_descriptor,
)
from stochsubmax.model import Instance, ItemModel
from tests.conftest import FormulaUtility, examples
from tests.reference import (check_lattice_submodular_pairwise, check_monotone_pairwise,
                             multilinear_exact)


def test_modular_is_monotone_and_submodular():
    f = WeightedModular(weights=(1.0, 2.0))
    ok, _ = check_monotone(f, 2, 2)
    assert ok
    ok, _ = check_lattice_submodular(f, 2, 2)
    assert ok


def test_decreasing_function_witness():
    f = FormulaUtility(lambda u: -float(u[0]), 1)
    ok, witness = check_monotone(f, 1, 1)
    assert not ok
    u, v = witness
    assert_array_equal(u, [0])
    assert_array_equal(v, [1])


def test_capped_sum_is_monotone():
    f = FormulaUtility(lambda u: min(float(u[0] + u[1]), 2.0), 2)
    ok, _ = check_monotone(f, 2, 2)
    assert ok


def test_product_function_rejected_with_witness(product_utility):
    ok, witness = check_lattice_submodular(product_utility, 2, 2)
    assert not ok
    u, v, s, i = witness
    assert_array_equal(u, [0, 0])
    assert_array_equal(v, [0, 1])
    assert s == 1
    assert i == 0  # first coordinate


def test_concave_families_pass_checks():
    for f in (
        ConcaveOverModular(weights=(1.0, 0.5, 2.0), curve="sqrt"),
        ConcaveOverModular(weights=(1.0, 1.0, 1.0), curve="cap", theta=2.0),
    ):
        ok, witness = check_monotone(f, 3, 3)
        assert ok, witness
        ok, witness = check_lattice_submodular(f, 3, 3)
        assert ok, witness


def test_coverage_family_passes_checks():
    f = ThresholdCoverage(rates=(2, 1, 3), element_weights=(1.0, 0.5, 0.25, 2.0, 1.0))
    ok, witness = check_monotone(f, 3, 3)
    assert ok, witness
    ok, witness = check_lattice_submodular(f, 3, 3)
    assert ok, witness


@st.composite
def checked_utilities(draw):
    """(f, n, B) for n <= 4, B <= 3: one of the three families with random parameters
    at scales up to 10^3, where round-off passes the checks' 1e-9 slack per step,
    or an integer formula that may break monotonicity (negation, max less a
    coordinate) or diminishing returns (product, squared sum)."""
    n, B = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    small = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    scale = 10.0 ** draw(st.integers(0, 3))
    weights = tuple(scale * w for w in draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(
        ["modular", "sqrt", "cap", "coverage", "negation", "product", "squared", "max"]))
    if kind == "modular":
        f = WeightedModular(weights=weights)
    elif kind == "sqrt":
        f = ConcaveOverModular(weights=weights, curve="sqrt")
    elif kind == "cap":
        f = ConcaveOverModular(weights=weights, curve="cap",
                               theta=scale * draw(st.floats(0.0, 10.0)))
    elif kind == "coverage":
        m = draw(st.integers(0, 8))
        f = ThresholdCoverage(rates=tuple(draw(small)), element_weights=tuple(
            scale * w for w in draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))))
    else:
        a = np.array(draw(small))
        k = draw(st.integers(0, n - 1))
        f = FormulaUtility({
            "negation": lambda u: -int(a @ u),
            "product": lambda u: int(np.prod(u[a > 0])),
            "squared": lambda u: int(a @ u) ** 2,
            "max": lambda u: int((a * u).max()) - int(a[k] > 1) * int(u[k]),
        }[kind], n)
    return f, n, B


@given(checked_utilities())
@settings(max_examples=examples(60))
def test_adjacent_checks_match_pairwise_reference(case):
    """Both verdicts are the pairwise reference's, and each witness breaks the
    pairwise inequality."""
    f, n, B = case
    ok, witness = check_monotone(f, n, B)
    assert ok == check_monotone_pairwise(f, n, B)[0]
    if not ok:
        u, v = witness
        assert np.all(u <= v) and f.value(u) > f.value(v) + 1e-9
    ok, witness = check_lattice_submodular(f, n, B)
    assert ok == check_lattice_submodular_pairwise(f, n, B)[0]
    if not ok:
        u, v, s, i = witness
        assert np.all(u <= v) and 0 <= s <= B

        def gain(w):
            return f.value(np.where(np.arange(n) == i, np.maximum(w, s), w)) - f.value(w)

        assert gain(u) < gain(v) - 1e-9


def test_checks_allow_round_off_of_large_values():
    """A modular utility with weights near 1.5e4 at n = 5, B = 3 passes both checks:
    its cross second differences are 0 but round to about 1e-10 in floats, past a
    slack of 1e-9 / (n B^2) without the round-off allowance."""
    f = WeightedModular(weights=(16821.77, 14618.72, 13245.84, 13099.17, 17879.62))
    assert check_monotone(f, 5, 3) == (True, None)
    assert check_lattice_submodular(f, 5, 3) == (True, None)


def test_coverage_hand_values():
    f = ThresholdCoverage(rates=(2, 1), element_weights=(1.0, 1.0, 1.0, 1.0))
    assert f.value([0, 0]) == 0.0
    assert f.value([1, 0]) == 2.0
    assert f.value([1, 1]) == 2.0  # prefixes overlap, the longer one wins
    assert f.value([2, 1]) == 4.0
    assert f.value([0, 2]) == 2.0


def test_all_families_zero_at_origin():
    families = (
        WeightedModular(weights=(1.0, 2.0)),
        ConcaveOverModular(weights=(1.0, 1.0), curve="sqrt"),
        ConcaveOverModular(weights=(1.0, 1.0), curve="cap", theta=1.5),
        ThresholdCoverage(rates=(1, 2), element_weights=(1.0, 1.0, 1.0)),
    )
    for f in families:
        assert f.value(np.zeros(2, dtype=int)) == 0.0


def test_masked_value_depends_only_on_support():
    # levels outside the support are zero by construction; value must grow with the set
    f = ThresholdCoverage(rates=(2, 1, 1), element_weights=(1.0, 0.5, 0.25, 2.0))
    states = np.array([2, 1, 2])
    values = {}
    for mask in range(8):
        sel = [i for i in range(3) if mask >> i & 1]
        u = np.zeros(3, dtype=int)
        u[sel] = states[sel]
        values[frozenset(sel)] = f.value(u)
    for small, fv in values.items():
        for big, gv in values.items():
            if small <= big:
                assert fv <= gv + 1e-12


@given(
    st.lists(st.integers(100, 3000), min_size=5, max_size=5),
    st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=40),
)
@settings(max_examples=examples(50))
def test_batch_matches_single(milli_weights, rows):
    """``value_batch`` agrees with ``value`` on every row to within 2 n eps f(row)
    (eps = 2^-52), as the UtilityOracle docstring states, and exactly for the
    coverage family.

    The weights are non-dyadic (thousandths), so the products and sums round,
    and a matrix product may add the n = 5 terms in another order than a dot
    product: the two differ in the last bits on about half of such batches.
    """
    n, eps = 5, np.finfo(float).eps
    weights = tuple(w / 1000 for w in milli_weights)
    rows = np.array(rows)
    for f in (WeightedModular(weights=weights), ConcaveOverModular(weights=weights, curve="sqrt"),
              ConcaveOverModular(weights=weights, curve="cap", theta=4.1)):
        singles = [f.value(r) for r in rows]
        np.testing.assert_allclose(f.value_batch(rows), singles, rtol=2 * n * eps, atol=0)
    f = ThresholdCoverage(rates=tuple(w % 4 for w in milli_weights), element_weights=weights)
    assert f.value_batch(rows).tolist() == [f.value(r) for r in rows]


class OnlyValueBatch(UtilityOracle):
    """A proxy that defines only ``value_batch`` and records each call's shape, as the
    benchmark's counting oracle does: ``value_batch_at`` takes the default path."""

    def __init__(self, inner):
        self.inner = inner
        self.shapes = []

    @property
    def n(self):
        return self.inner.n

    def value_batch(self, states):
        self.shapes.append(np.shape(states))
        return self.inner.value_batch(states)


@st.composite
def column_blocks(draw):
    """Non-dyadic weights over n = 1..8 items, increasing columns (possibly none) and
    an (R, len(columns)) block of levels 0..3."""
    n = draw(st.integers(1, 8))
    milli = draw(st.lists(st.integers(100, 3000), min_size=n, max_size=n))
    columns = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    R = draw(st.integers(1, 12))
    levels = draw(st.lists(st.integers(0, 3), min_size=R * len(columns),
                           max_size=R * len(columns)))
    return tuple(w / 1000 for w in milli), columns, np.array(levels, dtype=np.int64).reshape(
        R, len(columns))


@given(column_blocks())
@settings(max_examples=examples(200))
def test_value_batch_at_equals_the_scattered_block(case):
    """``value_batch_at`` on a block of some items' states equals ``value_batch`` on
    its rows scattered to width n: coverage bit for bit, the weighted sums within
    2 n eps f(row). An (R, 0) block is 0 on every row, and a proxy that defines only
    ``value_batch`` gets that call's bits from one call at width n."""
    weights, columns, states = case
    n, R, eps = len(weights), len(states), np.finfo(float).eps
    wide = lattice.scatter_columns(states, columns, n)
    families = (WeightedModular(weights=weights),
                ConcaveOverModular(weights=weights, curve="sqrt"),
                ConcaveOverModular(weights=weights, curve="cap", theta=2.5),
                ThresholdCoverage(rates=tuple(int(w * 1000) % 4 for w in weights),
                                  element_weights=weights))
    for f in families:
        at = f.value_batch_at(states, columns)
        if isinstance(f, ThresholdCoverage):
            assert at.tolist() == f.value_batch(wide).tolist()
        else:
            np.testing.assert_allclose(at, f.value_batch(wide), rtol=2 * n * eps, atol=0)
        assert f.value_batch_at(states[:, :0], columns[:0]).tolist() == [0.0] * R
        proxy = OnlyValueBatch(f)
        assert proxy.value_batch_at(states, columns).tolist() == f.value_batch(wide).tolist()
        assert proxy.shapes == [(R, n)]


def gains_by_pairs(f, base, top):
    """Reference gains: two ``value_batch`` calls per item, on full copies of the base."""
    out = np.empty(base.shape)
    for i in range(base.shape[1]):
        with_i = base.copy()
        with_i[:, i] = top[:, i]
        without_i = base.copy()
        without_i[:, i] = 0
        out[:, i] = f.value_batch(with_i) - f.value_batch(without_i)
    return out


@st.composite
def gain_blocks(draw, B=None):
    """(top, on) over 1..5 items and B in 1..3 (or the given B), each row all
    off, all on, or mixed."""
    n = draw(st.integers(1, 5))
    B = draw(st.integers(1, 3)) if B is None else B
    R = draw(st.integers(1, 6))
    top = np.array(draw(st.lists(
        st.lists(st.integers(1, B), min_size=n, max_size=n), min_size=R, max_size=R
    )))
    on = []
    for _ in range(R):
        mode = draw(st.sampled_from(("off", "on", "mixed")))
        if mode == "mixed":
            on.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            on.append([mode == "on"] * n)
    return top, np.array(on, dtype=bool)


def check_gains(f, top, on):
    base = np.where(on, top, 0)
    generic = UtilityOracle.gains_batch(f, base, top, on)
    assert generic.T.flags.c_contiguous
    assert_array_equal(generic, gains_by_pairs(f, base, top))


@given(gain_blocks(), st.data())
@settings(max_examples=examples(300))
def test_coverage_gains_match_generic_and_pairs(block, data):
    # small rates over few elements: many tied longest prefixes, rate-0 items,
    # and lengths capped at the ground size. The family's gains are the generic
    # n + 1 evaluation sweep, and they equal two evaluations per item
    top, on = block
    n = top.shape[1]
    rates = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    m = data.draw(st.integers(1, 6))
    weights = data.draw(st.lists(st.sampled_from((0.0, 0.1, 0.7, 1.3)), min_size=m, max_size=m))
    f = ThresholdCoverage(rates=tuple(rates), element_weights=tuple(weights))
    assert type(f).gains_batch is UtilityOracle.gains_batch
    check_gains(f, top, on)


@given(gain_blocks(), st.data())
@settings(max_examples=examples(200))
def test_generic_gains_match_pairs(block, data):
    top, on = block
    n = top.shape[1]
    weights = tuple(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    f = data.draw(st.sampled_from((
        WeightedModular(weights=weights),
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ConcaveOverModular(weights=weights, curve="cap", theta=1.5),
    )))
    check_gains(f, top, on)


def linear_sum_tolerance(f, top):
    """Per-row bound on |closed form - gains_by_pairs| for a concave-over-modular utility.

    Every sum either side evaluates is a sum of at most n nonnegative products
    ``weights[j] * level``, each no larger than the row's total at ``top``,
    T_r = sum_j weights[j] * top[r, j]. Summed in any order, such a sum is off
    by at most (n + 1) eps times itself, and g (a cap or the square root)
    keeps that error within (n + 1) eps g(T_r). A gain is the difference of
    two g values, each of which both sides round: so 4 (n + 1) eps g(T_r).
    """
    scale = f._g(top @ np.asarray(f.weights))
    return 4 * (top.shape[1] + 1) * np.finfo(float).eps * scale[:, None]


LINEAR_GAIN_CASES = ["B = 1", "mixed"]


@pytest.mark.parametrize("case", LINEAR_GAIN_CASES)
@settings(max_examples=examples(300))
@given(data=st.data())
def test_linear_sum_gains_match_pairs(case, data):
    # weights are often 0 or tiny, so that many sums without an item are 0 or
    # far below the item's own share: the square root magnifies any error there
    top, on = data.draw(gain_blocks(B=1 if case == "B = 1" else None))
    n = top.shape[1]
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 2.0))
    weights = tuple(data.draw(st.lists(weight, min_size=n, max_size=n)))
    f = data.draw(st.sampled_from((
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ConcaveOverModular(weights=weights, curve="cap", theta=data.draw(st.floats(0.0, 4.0))),
    )))
    base = np.where(on, top, 0)
    closed = f.gains_batch(base, top, on)
    assert closed.shape == top.shape and closed.T.flags.c_contiguous
    assert np.all(np.abs(closed - gains_by_pairs(f, base, top)) <= linear_sum_tolerance(f, top))


def test_sqrt_gains_keep_an_item_that_holds_nearly_all_of_a_row():
    # item 1 holds all but 1e-20 of the row's sum; subtracting its share from the
    # row's total would lose the 1e-20 that the square root turns into 1e-10
    f = ConcaveOverModular(weights=(1e-20, 1.0), curve="sqrt")
    top = np.array([[1, 1]])
    on = np.ones((1, 2), dtype=bool)
    closed = f.gains_batch(top, top, on)
    assert closed[0, 1] == 1.0 - 1e-10
    assert np.all(np.abs(closed - gains_by_pairs(f, top, top)) <= linear_sum_tolerance(f, top))


def test_coverage_gains_edge_rows():
    # one item at B = 1 on a single row; then items 0 and 1 tied for the longest
    # prefix, so neither gains while the other is on, and a rate-0 item
    f = ThresholdCoverage(rates=(2,), element_weights=(1.0, 0.5, 0.25))
    top = np.array([[1]])
    for on in (np.array([[False]]), np.array([[True]])):
        assert_array_equal(f.gains_batch(np.where(on, top, 0), top, on), [[1.5]])
    f = ThresholdCoverage(rates=(1, 1, 0), element_weights=(1.0, 2.0))
    top = np.array([[2, 2, 2]])
    on = np.ones((1, 3), dtype=bool)
    assert_array_equal(f.gains_batch(top, top, on), [[0.0, 0.0, 0.0]])
    on[0, 1] = False
    assert_array_equal(f.gains_batch(np.where(on, top, 0), top, on), [[3.0, 0.0, 0.0]])
    on[0, 0] = False
    assert_array_equal(f.gains_batch(np.where(on, top, 0), top, on), [[3.0, 3.0, 0.0]])


def instance_over(f, probs) -> Instance:
    """An instance of the utility ``f`` whose item i has state distribution ``probs[i]``.

    Costs, budget and the outer constraint play no part in the gains.
    """
    B = len(probs[0])
    items = tuple(ItemModel(probs=tuple(float(p) for p in row), costs=(1,) * B) for row in probs)
    n = len(items)
    return Instance(n=n, B=B, budget=2, items=items, outer=constraints.cardinality(n, n),
                    utility=f)


def gains_by_enumeration(inst, x) -> np.ndarray:
    """Reference gains: the multilinear extension with x_i at 1 minus it with x_i at 0."""
    out = np.empty(inst.n)
    for i in range(inst.n):
        with_i, without_i = np.array(x, dtype=float), np.array(x, dtype=float)
        with_i[i], without_i[i] = 1.0, 0.0
        out[i] = (multilinear_exact(inst, inst.utility, with_i)
                  - multilinear_exact(inst, inst.utility, without_i))
    return out


def enumeration_tolerance(inst) -> float:
    """Bound on |expected_gains - gains_by_enumeration|, relative to f_top = f(B, ..., B).

    A multilinear value sums at most (B + 1)^n nonnegative terms, one per set
    and joint state of its items, each a product of at most 2n + 1 factors
    whose weights sum to 1, so it is at most f_top and rounds off by at most
    ((B + 1)^n + 2n) eps f_top. The closed forms add at most n + m + B rounded
    nonnegative terms of at most f_top. The concave enumeration sums at most
    (B + 1)^n atoms, each a probability (n rounded factors) times B level
    gains; a level gain subtracts two values of g at sums of at most n + 1
    nonnegative terms, none above the total at the top state, so it rounds
    off by at most (2n + 5 + 2B) eps f_top, and the enumeration by at most
    ((B + 1)^n + 4n + 2B + 5) eps f_top. A reference gain subtracts two
    multilinear values, so the two sides differ by at most
    3 (B + 1)^n + 8n + m + 2B + 5 such errors, below the relative part returned.

    Underflow adds an absolute part. In the standard model with gradual
    underflow a rounded product is fl(a b) = a b (1 + d) + h with
    |d| <= eps / 2, |h| <= 2^-1075 and d h = 0, and a sum or difference whose
    result is subnormal is exact, so only products add absolute errors. Each
    h reaches the result times the later factors of its term, which multiply
    to at most max(1, f_top): probabilities and marginals of at most 1 and at
    most one weight, value of f or level gain, none above f_top. It also
    picks up the (1 + d) of its later roundings, less than 2 in all. The
    reference takes 2n multilinear values of at most 2^n B^n terms, each of
    at most 2n + m + 2 products, and the exact side makes at most
    (B + 1)^n (n + m + 2B + 2) products, so the two make fewer than
    N = 2 (2n + 1)(n + m + B + 1)(2B + 2)^n products, and underflow moves the
    difference by less than N 2^-1074 max(1, f_top).
    """
    n, B = inst.n, inst.B
    m = len(getattr(inst.utility, "element_weights", ()))
    f_top = inst.utility.value(np.full(n, B))
    relative = 3 * ((B + 1) ** n + 3 * n + m + B + 2) * np.finfo(float).eps * f_top
    products = 2 * (2 * n + 1) * (n + m + B + 1) * (2 * B + 2) ** n
    return relative + math.ldexp(products * max(1.0, f_top), -1074)


# at least the joint level count of any case below, so every family gives exact gains
ENOUGH_SAMPLES = 4**5


@st.composite
def exact_gain_cases(draw, families=("modular", "coverage", "concave")):
    """A modular, coverage or concave instance over 1..5 items, B in 1..3, and marginals.

    Marginals are often exactly 0 or 1, state probabilities often 0, weights
    often 0; coverage rates are often 0 and lengths often capped at the ground
    size m, which may be 0; a concave cap theta is often 0.
    """
    n = draw(st.integers(1, 5))
    B = draw(st.integers(1, 3))
    probs = []
    for _ in range(n):
        raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=B, max_size=B))
        total = sum(raw)
        probs.append([r / total for r in raw] if total > 0 else [1.0] + [0.0] * (B - 1))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    family = draw(st.sampled_from(families))
    if family == "modular":
        f = WeightedModular(weights=weights)
    elif family == "coverage":
        m = draw(st.integers(0, 6))
        f = ThresholdCoverage(
            rates=tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
            element_weights=tuple(draw(st.lists(weight, min_size=m, max_size=m))),
        )
    elif draw(st.booleans()):
        f = ConcaveOverModular(weights=weights, curve="sqrt")
    else:
        theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
        f = ConcaveOverModular(weights=weights, curve="cap", theta=theta)
    x = draw(st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
                      min_size=n, max_size=n))
    return instance_over(f, probs), np.array(x)


@given(exact_gain_cases())
# the gain 5e-324 * 1.5 rounds up to 1e-323, while the reference's product
# 5e-324 * 0.5 underflows: only the absolute part of the tolerance covers it
@example((instance_over(WeightedModular(weights=(5e-324,)), [(0.5, 0.5)]), np.array([0.5])))
@settings(max_examples=examples(100))
def test_exact_gains_match_enumeration(case):
    inst, x = case
    exact = inst.utility.expected_gains(inst.prob_matrix, x, ENOUGH_SAMPLES)
    assert exact.shape == (inst.n,) and np.all(exact >= 0)
    assert np.all(np.abs(exact - gains_by_enumeration(inst, x)) <= enumeration_tolerance(inst))


@pytest.mark.parametrize("family", ["modular", "coverage", "concave"])
@given(data=st.data())
@settings(max_examples=examples(100))
def test_stacked_gains_equal_one_row_calls(family, data):
    # a (K, n) stack of marginals: a ray x, x + d, x + 2d, ... built by repeated
    # addition as the greedy builds it, capped at 1, then rows drawn at random.
    # Each row of the stacked result has the bits of a one-row call; a concave
    # stack stops before the first row whose atoms outnumber the samples, and is
    # None exactly when that is its first row
    inst, x = data.draw(exact_gain_cases(families=(family,)))
    n, f, probs = inst.n, inst.utility, inst.prob_matrix
    unit = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    step = np.array(data.draw(st.lists(st.floats(0.0, 0.25), min_size=n, max_size=n)))
    ray = np.cumsum(np.vstack([x, np.tile(step, (data.draw(st.integers(0, 5)), 1))]), axis=0)
    extra = data.draw(st.lists(st.lists(unit, min_size=n, max_size=n), max_size=3))
    stack = np.vstack([np.minimum(ray, 1.0)] + [np.array(extra).reshape(-1, n)])
    samples = data.draw(st.sampled_from((1, 4, 16, 64, ENOUGH_SAMPLES)))
    rows = [f.expected_gains(probs, row, samples) for row in stack]
    stacked = f.expected_gains(probs, stack, samples)
    exact = rows[: next((k for k, row in enumerate(rows) if row is None), len(rows))]
    if not exact:
        assert stacked is None
        return
    assert stacked.shape == (len(exact), n)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stacked, exact))


def test_stacked_gains_equal_one_row_calls_on_a_seeded_sweep():
    # 600 seeded cases of up to 7 rows, rays and random rows, with zero state
    # probabilities, weights and marginals and marginals at 1. Single-item
    # concave stacks are the delicate case: their atoms' gains reduce to one
    # dot product per row, whose BLAS kernel depends on how the row's masses
    # are laid out in memory
    rng = np.random.default_rng(5)
    for case in range(600):
        n, B = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(B), size=n) * (rng.random((n, B)) > 0.2)
        probs[:, 0] += probs.sum(axis=1) == 0
        probs /= probs.sum(axis=1, keepdims=True)
        weights = tuple(rng.uniform(0, 2, n) * (rng.random(n) > 0.2))
        f = (WeightedModular(weights=weights),
             ConcaveOverModular(weights=weights, curve="sqrt"),
             ConcaveOverModular(weights=weights, curve="cap", theta=float(rng.uniform(0, 3))),
             ThresholdCoverage(rates=tuple(int(r) for r in rng.integers(0, 5, n)),
                               element_weights=tuple(rng.uniform(0, 1.5, rng.integers(0, 8)))),
             )[case % 4]
        K = int(rng.integers(1, 8))
        rows = rng.random((K, n)) * (rng.random((K, n)) > 0.3)
        rows[rng.random((K, n)) < 0.1] = 1.0
        step = np.tile(rng.random(n) * 0.05, (K - 1, 1))
        ray = np.minimum(np.cumsum(np.vstack([rows[0], step]), axis=0), 1.0)
        for stack in (rows, ray):
            stacked = f.expected_gains(probs, stack, 4**6)
            for row, gains in zip(stack, stacked):
                assert gains.tobytes() == f.expected_gains(probs, row, 4**6).tobytes()


def loop_sums_without(share) -> np.ndarray:
    """Each row's sum over every item but i, one contiguous row add at a time."""
    without = np.empty(share.shape)
    without[:1] = 0.0
    for i in range(1, len(share)):
        np.add(without[i - 1], share[i - 1], out=without[i])
    suffix = np.zeros(share.shape[1])
    for i in range(len(share) - 2, -1, -1):
        suffix += share[i + 1]
        without[i] += suffix
    return without


@pytest.mark.parametrize("rows", [1, 4, lattice._LOOP_ROWS - 1, lattice._LOOP_ROWS, 4096])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_sums_without_equal_the_row_loop(n, rows):
    # whichever way the row length picks, the sums are the loop's bit for bit;
    # zero and negative-zero weights and levels included
    rng = np.random.default_rng(n * 10_000 + rows)
    share = rng.uniform(0.0, 4.0, size=(n, rows)) * (rng.random((n, rows)) < 0.8)
    share[rng.random((n, rows)) < 0.05] = -0.0
    got = lattice._sums_without(share)
    assert got.shape == (n, rows) and got.tobytes() == loop_sums_without(share).tobytes()


def test_exact_gains_edge_cases():
    # B = 1; item 0's length 3 is capped at m = 2, item 2 has rate 0; x_j in {0, 1}
    f = ThresholdCoverage(rates=(3, 1, 0), element_weights=(1.0, 2.0))
    one_state = np.ones((3, 1))
    gains = lambda f, probs, x: f.expected_gains(probs, x, 1)
    assert_array_equal(gains(f, one_state, [0.0, 0.0, 0.0]), [3.0, 1.0, 0.0])
    assert_array_equal(gains(f, one_state, [1.0, 1.0, 1.0]), [2.0, 0.0, 0.0])
    assert_array_equal(gains(f, one_state, [0.0, 1.0, 1.0]), [2.0, 1.0, 0.0])
    assert_array_equal(gains(f, one_state, [0.5, 0.5, 0.0]), [2.5, 0.5, 0.0])
    # B = 2 with item 1's top length 4 capped at m = 3
    f = ThresholdCoverage(rates=(1, 2), element_weights=(1.0, 0.5, 0.25))
    probs = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert_array_equal(gains(f, probs, [0.0, 0.0]), [1.375, 1.625])
    # m = 0 and zero element weights cover nothing
    for weights in ((), (0.0, 0.0)):
        f = ThresholdCoverage(rates=(1, 2), element_weights=weights)
        assert_array_equal(gains(f, probs, [0.3, 1.0]), [0.0, 0.0])
    # a modular gain is the weight times the expected level, whatever x is
    f = WeightedModular(weights=(0.0, 2.0))
    for x in ([0.0, 0.0], [1.0, 0.4]):
        assert_array_equal(gains(f, probs, x), [0.0, 3.0])
    assert_array_equal(gains(WeightedModular(weights=(1.5, 0.0)), one_state[:2], [1.0, 1.0]),
                       [1.5, 0.0])


def test_exact_concave_gains_edge_cases():
    sqrt = ConcaveOverModular(weights=(1.0, 3.0), curve="sqrt")
    one_state = np.ones((2, 1))  # B = 1
    # x in {0, 1}: the other item is surely out, surely in, or one of each
    assert_array_equal(sqrt.expected_gains(one_state, [0.0, 0.0], 1), [1.0, np.sqrt(3.0)])
    assert_array_equal(sqrt.expected_gains(one_state, [1.0, 1.0], 1),
                       [2.0 - np.sqrt(3.0), 1.0])
    assert_array_equal(sqrt.expected_gains(one_state, [1.0, 0.0], 1), [1.0, 1.0])
    # x = 1/2 gives two atoms per item; one sample is too few to enumerate them
    assert sqrt.expected_gains(one_state, [0.5, 0.5], 3) is None
    assert_array_equal(sqrt.expected_gains(one_state, [0.5, 0.5], 4),
                       [0.5 * 1.0 + 0.5 * (2.0 - np.sqrt(3.0)),
                        0.5 * np.sqrt(3.0) + 0.5 * 1.0])
    # n = 1: the item's own expected g, whatever x is; its own levels count too
    probs = np.array([[0.5, 0.5]])
    single = ConcaveOverModular(weights=(2.0,), curve="sqrt")
    for x in ([0.0], [0.4], [1.0]):
        # the three atoms' masses at x = 0.4 sum to 1 only up to rounding
        np.testing.assert_allclose(single.expected_gains(probs, x, 3),
                                   [0.5 * np.sqrt(2.0) + 0.5 * np.sqrt(4.0)],
                                   rtol=4 * np.finfo(float).eps)
    # zero weights gain nothing, and a cap at theta = 0 makes g zero everywhere
    zero = ConcaveOverModular(weights=(0.0, 2.0), curve="cap", theta=1.5)
    assert_array_equal(zero.expected_gains(one_state, [0.5, 0.5], 4), [0.0, 1.5])
    flat = ConcaveOverModular(weights=(1.0, 2.0), curve="cap", theta=0.0)
    assert_array_equal(flat.expected_gains(one_state, [0.3, 0.6], 4), [0.0, 0.0])


def test_concave_gains_enumerate_up_to_the_sample_count():
    """Exact at a level count equal to ``samples``; one sample fewer samples as before.

    The partition demo has n = 3 and B = 2 with every state probability
    positive, so at x strictly inside (0, 1) each item has 3 levels: 27 atoms.
    """
    inst = partition_demo_instance()
    f, x = inst.utility, np.array([0.3, 0.6, 0.1])
    exact, ses = estimate_marginal_gains(inst, f, x, samples=27, seed=4)
    assert_array_equal(exact, f.expected_gains(inst.prob_matrix, x, 27))
    assert_array_equal(ses, np.zeros(3))
    assert np.all(np.abs(exact - gains_by_enumeration(inst, x)) <= enumeration_tolerance(inst))
    sampled, ses = estimate_marginal_gains(inst, f, x, samples=26, seed=4)
    reference, reference_ses = _sampled_gains(inst, f, x, 26, seed=4)
    assert sampled.tobytes() == reference.tobytes()
    assert ses.tobytes() == reference_ses.tobytes() and np.all(ses > 0)
    # an item at x = 1 has no level 0: 2 x 3 x 3 = 18 atoms
    x = np.array([1.0, 0.6, 0.1])
    assert f.expected_gains(inst.prob_matrix, x, 17) is None
    assert f.expected_gains(inst.prob_matrix, x, 18) is not None


def test_concave_gains_enumerate_in_blocks():
    # 4^7 = 16384 atoms run in four blocks of BLOCK_SIZE; the sum of the block sums
    # agrees with one block over them all to rounding
    rng = np.random.default_rng(3)
    n, B = 7, 3
    f = ConcaveOverModular(weights=tuple(rng.uniform(0.5, 2.0, size=n)), curve="sqrt")
    probs = rng.dirichlet(np.ones(B), size=n)
    x = rng.uniform(0.1, 0.9, size=n)
    blocked = f.expected_gains(probs, x, 4**n)
    assert f.expected_gains(probs, x, 4**n - 1) is None
    with mock.patch.object(lattice, "BLOCK_SIZE", 4**n):
        whole = f.expected_gains(probs, x, 4**n)
    assert np.all(np.abs(blocked - whole) <= 4**n * np.finfo(float).eps * f.value(np.full(n, B)))


def test_exact_coverage_gains_agree_with_sampled_kernel():
    """Exact coverage gains against 100000 samples at n = 30, B = 3, m = 64.

    Item i's sampled gain lies in [0, g_i], g_i its largest covered weight, so
    its variance is at most g_i mu_i, mu_i the exact gain. Bernstein's
    inequality then bounds the mean of R samples: it strays from mu_i by more
    than t_i = (2/3 g_i L + sqrt((2/3 g_i L)^2 + 8 R g_i mu_i L)) / (2R) with
    probability at most 2 exp(-L). With L = ln(2n / 1e-6) the false-failure
    rate over all n items is at most 1e-6.
    """
    rng = np.random.default_rng(2024)
    n, B, m, samples = 30, 3, 64, 100_000
    f = ThresholdCoverage(
        rates=tuple(int(r) for r in rng.integers(1, 22, size=n)),
        element_weights=tuple(float(w) for w in rng.uniform(0.2, 1.5, size=m)),
    )
    inst = instance_over(f, rng.dirichlet(np.ones(B), size=n))
    x = rng.uniform(0.0, 0.6, size=n)
    exact = f.expected_gains(inst.prob_matrix, x, samples)
    sampled, _ = _sampled_gains(inst, f, x, samples, seed=5)
    top = f._prefix[np.minimum(np.asarray(f.rates) * B, m)]
    L = np.log(2 * n / 1e-6)
    lead = 2 / 3 * top * L
    bound = (lead + np.sqrt(lead**2 + 8 * samples * top * exact * L)) / (2 * samples)
    assert np.all(np.abs(sampled - exact) <= bound), np.abs(sampled - exact) / bound


def test_checks_complete_at_the_guard():
    """n = 16 at B = 1 and n = 8 at B = 3 hold exactly STATE_GUARD state vectors:
    both checks run over all of them, and a concave utility passes."""
    for n, B in ((16, 1), (8, 3)):
        assert (B + 1) ** n == lattice.STATE_GUARD
        f = ConcaveOverModular(weights=tuple(np.linspace(0.5, 2.0, n)), curve="sqrt")
        assert check_monotone(f, n, B) == (True, None)
        assert check_lattice_submodular(f, n, B) == (True, None)


def test_enumeration_guard_refuses():
    """One item more, n = 17 at B = 1 or n = 9 at B = 3, is refused, naming (B+1)^n
    and the guard."""
    for n, B in ((17, 1), (9, 3)):
        f = WeightedModular(weights=tuple([1.0] * n))
        message = f"(B+1)^n = {(B + 1) ** n} exceeds the state guard {lattice.STATE_GUARD}"
        for check in (check_monotone, check_lattice_submodular):
            with pytest.raises(EnumerationLimitError, match=re.escape(message)):
                check(f, n, B)


def test_descriptor_round_trip():
    originals = [
        WeightedModular(weights=(1.0, 2.5)),
        ConcaveOverModular(weights=(1.0, 1.0), curve="cap", theta=2.0),
        ThresholdCoverage(rates=(1, 3), element_weights=(0.5, 1.5)),
    ]
    for f in originals:
        assert make_utility(utility_descriptor(f), 2) == f


def test_make_utility_validates():
    with pytest.raises(ValueError):
        make_utility({"family": "nope", "params": {}}, 2)
    with pytest.raises(ValueError):
        make_utility({"family": "weighted-modular", "params": {"weights": [1.0]}}, 2)
    with pytest.raises(ValueError):
        WeightedModular(weights=(-1.0,))
    with pytest.raises(ValueError):
        ConcaveOverModular(weights=(1.0,), curve="cap")


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_weights_rejected(bad):
    from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular

    with pytest.raises(ValueError, match="finite"):
        WeightedModular(weights=(1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        ConcaveOverModular(weights=(bad, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ThresholdCoverage(rates=(1, 2), element_weights=(0.5, bad))
    with pytest.raises(ValueError):
        ThresholdCoverage(rates=(1, bad), element_weights=(0.5, 1.0))
    with pytest.raises(ValueError):
        ConcaveOverModular(weights=(1.0, 1.0), curve="cap", theta=float("nan"))


def test_coverage_integral_float_rates_load_as_ints():
    exact = ThresholdCoverage(rates=(2, 1), element_weights=(1.0, 0.5, 0.25))
    f = ThresholdCoverage(rates=(2.0, np.float64(1.0)), element_weights=(1.0, 0.5, 0.25))
    assert f.rates == (2, 1) and all(type(r) is int for r in f.rates)
    states = np.array([[1, 1], [0, 1], [1, 0], [0, 0], [3, 2]])
    on = states > 0
    assert f.value([1, 1]) == exact.value([1, 1]) == 1.5
    assert_array_equal(f.value_batch(states), exact.value_batch(states))
    assert_array_equal(f.gains_batch(states, np.maximum(states, 1), on),
                       exact.gains_batch(states, np.maximum(states, 1), on))


def test_coverage_fractional_rate_rejected_naming_rates():
    from stochsubmax.errors import InvalidInputError

    with pytest.raises(InvalidInputError, match=r"rates\[0\]"):
        ThresholdCoverage(rates=(1.5, 1), element_weights=(1.0, 0.5))
    with pytest.raises(InvalidInputError, match="rates"):
        ThresholdCoverage(rates=(1, -1), element_weights=(1.0, 0.5))


def test_coverage_rates_from_json_descriptor():
    import json

    from stochsubmax.errors import InvalidInputError

    doc = '{"family": "weighted-coverage-by-threshold", "params": {"rates": [2.0, 1.0], "element_weights": [1.0, 0.5, 0.25]}}'
    f = make_utility(json.loads(doc), 2)
    assert f.rates == (2, 1)
    assert_array_equal(f.value_batch(np.array([[1, 1], [0, 2]])), [1.5, 1.5])
    with pytest.raises(InvalidInputError, match=r"rates\[1\]"):
        make_utility(json.loads(doc.replace("1.0], \"element", "1.5], \"element")), 2)
