import itertools

import numpy as np
import pytest

from stochsubmax import constraints
from stochsubmax.errors import EnumerationLimitError
from stochsubmax.extensions import check_marginals, multilinear_mc
from stochsubmax.generators import random_instance
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel
from tests.reference import expected_set_value_exact, expected_set_value_mc, multilinear_exact


def test_set_value_examples(pair_instance):
    f = pair_instance.utility
    assert expected_set_value_exact(pair_instance, f, [0]) == pytest.approx(1.5)
    assert expected_set_value_exact(pair_instance, f, []) == 0.0
    assert expected_set_value_exact(pair_instance, f, [0, 1]) == pytest.approx(3.0)


def test_set_value_guard():
    items = tuple([ItemModel(probs=(0.4, 0.3, 0.3), costs=(1, 1, 2))] * 13)
    inst = Instance(
        n=13,
        B=3,
        budget=5,
        items=items,
        outer=constraints.cardinality(13, 13),
        utility=WeightedModular(weights=tuple([1.0] * 13)),
    )
    with pytest.raises(EnumerationLimitError):
        expected_set_value_exact(inst, inst.utility, range(13))


def test_set_value_mc_trivial(pair_instance):
    f = pair_instance.utility
    est, se = expected_set_value_mc(pair_instance, f, [], samples=100, seed=0)
    assert est == 0.0 and se == 0.0
    est, se = expected_set_value_mc(pair_instance, f, [0], samples=20_000, seed=1)
    exact = expected_set_value_exact(pair_instance, f, [0])
    assert abs(est - exact) <= 3 * se
    with pytest.raises(ValueError):
        expected_set_value_mc(pair_instance, f, [0], samples=1, seed=0)


def test_set_value_mc_zero_variance_when_degenerate(single_item):
    est, se = expected_set_value_mc(single_item, single_item.utility, [0], samples=500, seed=2)
    assert est == 1.0 and se == 0.0


def test_multilinear_at_vertices(partition_instance):
    f = partition_instance.utility
    for bits in itertools.product((0, 1), repeat=partition_instance.n):
        members = [i for i, b in enumerate(bits) if b]
        direct = expected_set_value_exact(partition_instance, f, members)
        via_extension = multilinear_exact(partition_instance, f, np.array(bits, float))
        assert via_extension == pytest.approx(direct, abs=1e-12)


def test_multilinear_at_origin(pair_instance):
    assert multilinear_exact(pair_instance, pair_instance.utility, [0.0, 0.0]) == 0.0


def test_multilinear_modular_value(pair_instance):
    assert multilinear_exact(
        pair_instance, pair_instance.utility, [0.5, 0.5]
    ) == pytest.approx(1.5)


def test_multilinear_affine_per_coordinate(partition_instance):
    f = partition_instance.utility
    base = np.array([0.3, 0.6, 0.2])
    for i in range(3):
        lo, mid, hi = base.copy(), base.copy(), base.copy()
        lo[i], mid[i], hi[i] = 0.0, 0.5, 1.0
        flo = multilinear_exact(partition_instance, f, lo)
        fmid = multilinear_exact(partition_instance, f, mid)
        fhi = multilinear_exact(partition_instance, f, hi)
        assert fmid == pytest.approx((flo + fhi) / 2, abs=1e-10)


def test_multilinear_monotone(partition_instance):
    f = partition_instance.utility
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.random(3)
        y = np.minimum(1.0, x + rng.random(3) * (1 - x))
        assert multilinear_exact(partition_instance, f, x) <= multilinear_exact(
            partition_instance, f, y
        ) + 1e-10


def test_multilinear_guard():
    items = tuple([ItemModel(probs=(1.0,), costs=(1,))] * 11)
    inst = Instance(
        n=11,
        B=1,
        budget=3,
        items=items,
        outer=constraints.cardinality(11, 11),
        utility=WeightedModular(weights=tuple([1.0] * 11)),
    )
    with pytest.raises(EnumerationLimitError):
        multilinear_exact(inst, inst.utility, np.full(11, 0.5))


def test_multilinear_mc_agrees_with_exact():
    hits = 0
    trials = 20
    for k in range(trials):
        inst = random_instance(
            1000 + k, n_max=3, B_max=2, budget_max=6, kinds=("cardinality",)
        )
        rng = np.random.default_rng(k)
        x = rng.random(inst.n)
        exact = multilinear_exact(inst, inst.utility, x)
        est, se = multilinear_mc(inst, inst.utility, x, samples=10_000, seed=k)
        if abs(est - exact) <= 3 * max(se, 1e-12):
            hits += 1
    assert hits >= trials - 1


def test_multilinear_mc_zero_variance_at_integral_marginals(single_item):
    est, se = multilinear_mc(single_item, single_item.utility, [1.0], samples=200, seed=0)
    assert est == 1.0 and se == 0.0
    est, se = multilinear_mc(single_item, single_item.utility, [0.0], samples=200, seed=0)
    assert est == 0.0 and se == 0.0


def test_mc_estimates_pinned(pair_instance):
    # 9000 samples span three seeded blocks; the pins hold the block streams
    # and their in-order reduction fixed, bit for bit
    f = pair_instance.utility
    a = multilinear_mc(pair_instance, f, [0.4, 0.7], samples=9000, seed=5)
    assert [v.hex() for v in a] == ["0x1.a10d6cffc5befp+0", "0x1.848e9944a1511p-7"]
    c = expected_set_value_mc(pair_instance, f, [0, 1], samples=9000, seed=5)
    assert [v.hex() for v in c] == ["0x1.802bb0cf87d9cp+1", "0x1.e74ea3f77663dp-8"]
    assert multilinear_mc(pair_instance, f, [0.4, 0.7], samples=9000, seed=6) != a
    assert expected_set_value_mc(pair_instance, f, [0, 1], samples=9000, seed=6) != c


def test_marginal_validation(pair_instance):
    with pytest.raises(ValueError):
        multilinear_exact(pair_instance, pair_instance.utility, [0.5])
    with pytest.raises(ValueError):
        multilinear_exact(pair_instance, pair_instance.utility, [1.5, 0.0])


@pytest.mark.parametrize("bad,match", [
    ([float("nan"), 0.5], "item 0"),
    ([0.5, 1.0 + 1e-9], "item 1"),
    ([[0.2, 0.3]], "expected 2 marginals"),  # a stack where one vector belongs
])
def test_multilinear_rejects_nan_and_stacks(pair_instance, bad, match):
    # NaN fails both range comparisons, so it is outside [0, 1] too
    for estimate in (lambda x: multilinear_exact(pair_instance, pair_instance.utility, x),
                     lambda x: multilinear_mc(pair_instance, pair_instance.utility, x, 100, 0)):
        with pytest.raises(ValueError, match=match):
            estimate(bad)


def test_check_marginals_checks_every_row_of_a_stack(pair_instance):
    stack = np.array([[0.2, 0.3], [0.0, 1.0], [0.4, float("nan")]])
    with pytest.raises(ValueError, match="row 2, item 1"):
        check_marginals(pair_instance, stack)
    for shape in ((0, 2), (2, 1), (1, 1, 2)):
        with pytest.raises(ValueError, match="expected 2 marginals"):
            check_marginals(pair_instance, np.zeros(shape))
    # float dust within 1e-12 of the box is clipped, row by row
    dusty = np.array([[-1e-13, 0.5], [0.5, 1 + 1e-13]])
    assert check_marginals(pair_instance, dusty).tolist() == [[0.0, 0.5], [0.5, 1.0]]
