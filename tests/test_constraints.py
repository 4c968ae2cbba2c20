import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax.constraints import (
    OuterConstraint,
    cardinality,
    in_scaled_polytope,
    independent_rows,
    is_independent,
    outer_from_json,
    outer_to_json,
    partition,
    polytope_inequalities,
    validate_outer,
)
from stochsubmax.errors import InvalidInputError

# the oracle-only kind that was deleted: every entry point refuses it by name
EXPLICIT = OuterConstraint(kind="explicit", n=3)


def test_cardinality_membership():
    outer = cardinality(3, 2)
    assert is_independent(outer, {0, 2})
    assert not is_independent(outer, {0, 1, 2})
    assert is_independent(outer, set())


def test_partition_membership():
    outer = partition(3, [[0, 1], [2]], [1, 1])
    assert not is_independent(outer, {0, 1})
    assert is_independent(outer, {0, 2})


def test_explicit_membership():
    with pytest.raises(ValueError, match="unknown outer constraint kind 'explicit'"):
        is_independent(EXPLICIT, {0})
    with pytest.raises(InvalidInputError, match="unknown outer constraint kind 'explicit'"):
        independent_rows(EXPLICIT, np.ones((1, 3), dtype=bool))


def test_cardinality_polytope():
    rows = polytope_inequalities(cardinality(3, 2))
    assert len(rows) == 1
    a, b = rows[0]
    assert list(a) == [1, 1, 1] and b == 2


def test_partition_polytope():
    rows = polytope_inequalities(partition(3, [[0, 1], [2]], [1, 1]))
    assert [(list(a), b) for a, b in rows] == [([1, 1, 0], 1.0), ([0, 0, 1], 1.0)]


def test_vacuous_cardinality_polytope():
    rows = polytope_inequalities(cardinality(4, 4))
    assert [(list(a), b) for a, b in rows] == [([1, 1, 1, 1], 4.0)]


@pytest.mark.parametrize("outer, message", [
    (partition(3, [[0, 1]], [1]), "item 3 is in no block"),
    (partition(3, [[0, 1], [1, 2]], [1, 1]), "item 2 is in blocks[0] and blocks[1]"),
    (partition(2, [[0], [1]], [1, -1]), "partition capacities must be nonnegative"),
    (cardinality(3, -1), "cardinality bound must be a nonnegative integer"),
])
def test_invalid_partition_has_no_hull(outer, message):
    """The hull's rows are the blocks and caps, so the priority rule, which
    reads each support column's block from them, and every other hull
    consumer refuse a constraint that ``validate_outer`` rejects, naming the
    fault. A negative cardinality bound is refused too: read as a hull row it
    would reject even the empty set."""
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        outer.hull
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        independent_rows(outer, np.ones((1, outer.n), dtype=bool))


def test_explicit_polytope_refused():
    for build in (lambda: EXPLICIT.hull, lambda: polytope_inequalities(EXPLICIT)):
        with pytest.raises(InvalidInputError, match="unknown outer constraint kind 'explicit'"):
            build()
    with pytest.raises(InvalidInputError, match="must be cardinality or partition, got 'explicit'"):
        outer_from_json({"kind": "explicit", "maximal": [[1, 2], [3]]}, 3)


def test_scaled_membership_examples():
    outer = cardinality(3, 2)
    x = [0.5, 0.5, 0.5]
    assert in_scaled_polytope(outer, x, 1.0)
    assert not in_scaled_polytope(outer, x, 0.5)
    assert in_scaled_polytope(outer, [0.0, 0.0, 0.0], 0.01)


def test_membership_matches_oracle_on_vertices():
    constraints_to_try = [
        cardinality(10, 3),
        cardinality(10, 10),
        partition(10, [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9]], [2, 1, 2, 1]),
    ]
    for outer in constraints_to_try:
        for bits in itertools.product((0, 1), repeat=10):
            s = {i for i, b in enumerate(bits) if b}
            assert is_independent(outer, s) == in_scaled_polytope(
                outer, np.array(bits, dtype=float), 1.0
            )


def test_explicit_hull_membership():
    # a kind without a hull has no scaled polytope to test a point against
    with pytest.raises(InvalidInputError, match="unknown outer constraint kind 'explicit'"):
        in_scaled_polytope(EXPLICIT, np.full(3, 0.25), 1.0)


@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1), st.integers(1, 4))
@settings(max_examples=80)
def test_downward_closure(mask_s, mask_drop, k):
    outer = cardinality(8, k)
    s = {i for i in range(8) if mask_s >> i & 1}
    t = {i for i in s if not (mask_drop >> i & 1)}
    if is_independent(outer, s):
        assert is_independent(outer, t)


def test_empty_set_always_feasible():
    for outer in (cardinality(3, 0), partition(3, [[0, 1], [2]], [0, 0])):
        assert is_independent(outer, set())


def test_validate_outer_messages():
    assert validate_outer(partition(3, [[0, 1]], [1]), 3)  # misses item 2
    assert validate_outer(partition(3, [[0, 1], [1, 2]], [1, 1]), 3)  # overlap
    assert validate_outer(cardinality(3, -1), 3)
    assert validate_outer(EXPLICIT, 3)
    assert not validate_outer(partition(3, [[0, 1], [2]], [1, 1]), 3)


@pytest.mark.parametrize("outer,message", [
    (partition(5, [[0, 1], [4]], [1, 1]), "item 3 is in no block"),
    (partition(3, [[0, 1], [1, 2]], [1, 1]), "item 2 is in blocks[0] and blocks[1]"),
    (partition(3, [[0, 0, 1], [2]], [1, 1]), "item 1 is in blocks[0] twice"),
    (partition(3, [[0, 1], [2, 3]], [1, 1]), "blocks[1] holds item 4, outside 1..3"),
    (partition(3, [[-1, 0, 1], [2]], [1, 1]), "blocks[0] holds item 0, outside 1..3"),
])
def test_validate_outer_names_the_id_and_where_it_sits(outer, message):
    # ids are named 1-based, as in instance files; the old text stays the prefix
    prefix = "partition blocks must partition the item set"
    assert validate_outer(outer, outer.n) == [f"{prefix}: {message}"]


def test_json_round_trip():
    for outer in (
        cardinality(3, 2),
        partition(3, [[0, 1], [2]], [1, 1]),
    ):
        assert outer_from_json(outer_to_json(outer), 3) == outer


@pytest.mark.parametrize("build,field", [
    (lambda: cardinality(3, 1.7), "k"),
    (lambda: cardinality(3, "2"), "k"),
    (lambda: partition(3, [[0, 1.5], [2]], [1, 1]), r"blocks\[0\]\[1\]"),
    (lambda: partition(3, [[0, 1], [2]], [1, 0.5]), r"caps\[1\]"),
    (lambda: partition(3, [[0, 1], [2]], [True, 1]), r"caps\[0\]"),
])
def test_constructors_reject_non_integral_values(build, field):
    with pytest.raises(InvalidInputError, match=field):
        build()


def test_constructors_accept_integral_floats_and_numpy_ints():
    assert cardinality(3, 2.0).k == 2 and type(cardinality(3, np.int64(2)).k) is int
    outer = partition(3, [np.array([1, 0]), [2.0]], [np.int32(1), 1.0])
    assert outer.blocks == ((0, 1), (2,)) and outer.caps == (1, 1)
    assert all(type(c) is int for c in outer.caps)


def test_independent_rows_counts_blocks():
    outer = partition(4, [[0, 1], [2, 3]], [1, 2])
    mask = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0]], dtype=bool)
    assert independent_rows(outer, mask).tolist() == [False, True, True]
    assert independent_rows(cardinality(4, 0), mask).tolist() == [False, False, True]
