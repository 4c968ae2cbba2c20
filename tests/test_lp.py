import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochsubmax import constraints
from stochsubmax import lp as lp_module
from stochsubmax.errors import LpCertificateError, LpStallError
from stochsubmax.generators import (
    partition_demo_instance,
    random_instance,
    single_item_instance,
    symmetric_pair_instance,
)
from stochsubmax.greedy import (
    ENTRY_TOL,
    SlotSolution,
    certify_solution,
    run_continuous_greedy,
    solution_entries,
)
from stochsubmax.lattice import WeightedModular
from stochsubmax.lp import (
    CERT_TOL,
    ROW_TOL,
    LpSolution,
    SlotProgram,
    build_slot_program,
    certify_optimal,
    program_dump,
    simplex_max,
    solve_lp,
)
from stochsubmax.model import Instance, ItemModel, expected_truncated_cost
from tests.conftest import examples


def full_slot_program(instance, outer):
    """The full time-indexed program, one column per item and feasible start slot,
    built entry by entry: the reference for ``build_slot_program``, which keeps
    only each item's latest-slot column, and the source of full programs for the
    solver tests."""
    slots = instance.slot_counts
    variables = tuple((i, t) for i in range(instance.n) for t in range(1, int(slots[i]) + 1))
    ineqs = constraints.polytope_inequalities(outer)
    rows, labels = [], []
    for i in range(instance.n):
        if slots[i]:
            rows.append([1.0 if vi == i else 0.0 for vi, _ in variables])
            labels.append(("item-cap", i))
    for r, (a, _) in enumerate(ineqs):
        rows.append([float(a[i]) for i, _ in variables])
        labels.append(("outer", r))
    for t in range(1, instance.budget + 1):
        rows.append([expected_truncated_cost(instance.items[i], t) if tp <= t else 0.0
                     for i, tp in variables])
        labels.append(("time", t))
    bounds = [1.0] * int(np.count_nonzero(slots)) + [float(b) for _, b in ineqs]
    bounds += [2.0 * t for t in range(1, instance.budget + 1)]
    return SlotProgram(
        variables=variables,
        row_labels=tuple(labels),
        row_coeffs=np.array(rows, dtype=float).reshape(len(rows), len(variables)),
        row_bounds=np.array(bounds),
    )


def latest_slot_rows(instance):
    """The full reference program's rows over each item's latest-slot column, with
    each row's largest value on the [0, 1] box, sum_j max(a_j, 0)."""
    full = full_slot_program(instance, instance.outer)
    latest = [j for j, (i, t) in enumerate(full.variables) if t == instance.slot_counts[i]]
    coeffs = full.row_coeffs[:, latest]
    return full.row_labels, coeffs, full.row_bounds, np.maximum(coeffs, 0.0).sum(axis=1)


def test_pair_instance_rows():
    # both items have costs 1 or 2 and budget 5, so each keeps the one column of
    # its latest start slot 3, which enters only the time rows t >= 3. No row can
    # bind inside the box: the outer row reaches 1 + 1 <= 2 and time row t >= 3
    # reaches 1.5 + 1.5 <= 2t, and each item cap is the column's box bound
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    assert prog.variables == ((0, 3), (1, 3))
    assert prog.row_labels == () and prog.row_coeffs.shape == (0, 2)
    rows = {label: (top, bound) for label, _, bound, top in zip(*latest_slot_rows(inst))}
    assert rows[("outer", 0)] == (2.0, 2.0)
    assert rows[("time", 3)] == (3.0, 6.0)
    assert rows[("item-cap", 0)] == rows[("item-cap", 1)] == (1.0, 1.0)


def test_single_item_outer_row_duplicates_cap():
    # in the full program the outer row of a single item is its cap row again;
    # both are the column's box bound, so the built program keeps neither
    inst = single_item_instance()
    labels, coeffs, bounds, _ = latest_slot_rows(inst)
    rows = dict(zip(labels, zip(coeffs, bounds)))
    cap_coeffs, cap_bound = rows[("item-cap", 0)]
    out_coeffs, out_bound = rows[("outer", 0)]
    assert list(cap_coeffs) == list(out_coeffs)
    assert cap_bound == out_bound == 1.0
    assert build_slot_program(inst, inst.outer).row_labels == ()


def test_trivial_lp():
    sol = simplex_max(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[0] == pytest.approx(1.0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_rows_without_columns_solve_to_the_slack_basis(warm):
    # every item's worst cost reaches the budget: the built program has no column,
    # and so no row that can bind either
    inst = single_item_instance(budget=1)
    assert build_slot_program(inst, inst.outer).row_coeffs.shape == (0, 0)
    # a program with rows but no column, as a caller may still build one
    prog = SlotProgram(variables=(), row_labels=(("outer", 0), ("time", 1)),
                       row_coeffs=np.zeros((2, 0)), row_bounds=np.array([1.0, 2.0]))
    sol = solve_lp(prog, np.zeros(0))
    assert sol.objective == 0.0 and sol.values.shape == (0,)
    assert sol.basis.tolist() == [0, 1]  # certified
    if warm:  # kept for later steps: a stacked certificate accepts it for each
        gaps = certify_optimal(np.zeros((3, 0)), prog.row_coeffs, prog.row_bounds,
                               sol.values, sol.basis)
        assert gaps.tolist() == [0.0, 0.0, 0.0]


def test_cardinality_row_binds():
    # max x1 + x2 subject to x1 + x2 <= 1, box [0, 1]
    sol = simplex_max(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert sol.objective == pytest.approx(1.0)


def grid_oracle(prog, objective, resolution=8):
    nv = len(prog.variables)
    levels = np.linspace(0.0, 1.0, resolution + 1)
    best = -np.inf
    grid = np.array(list(itertools.product(levels, repeat=nv)))
    feasible = np.all(grid @ prog.row_coeffs.T <= prog.row_bounds + 1e-9, axis=1)
    values = grid[feasible] @ objective
    return float(values.max(initial=best))


def test_pair_instance_uniform_objective_matches_grid_oracle():
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    objective = np.ones(len(prog.variables))
    sol = solve_lp(prog, objective)
    oracle_value = grid_oracle(prog, objective)
    assert oracle_value == pytest.approx(2.0)
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    assert sol.objective >= oracle_value - 1e-7


def test_solution_respects_rows_and_box():
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    rng = np.random.default_rng(7)
    for _ in range(10):
        obj = rng.uniform(-1, 2, size=len(prog.variables))
        sol = solve_lp(prog, obj)
        assert np.all(prog.row_coeffs @ sol.values <= prog.row_bounds + 1e-9)
        assert np.all(sol.values >= -1e-12) and np.all(sol.values <= 1 + 1e-12)


def test_duality_spot_check():
    # primal optimum must not exceed the bound any nonnegative row multipliers
    # give with the box: lam.b + sum_j max(c_j - (lam A)_j, 0). The partition
    # demo keeps one row, its first block's cap x(1,4) + x(2,3) <= 1, and with
    # multiplier 1 on it the uniform objective is bounded by 1 + 1 = 2
    inst = partition_demo_instance()
    prog = build_slot_program(inst, inst.outer)
    assert prog.row_labels == (("outer", 0),)
    obj = np.ones(len(prog.variables))
    sol = solve_lp(prog, obj)
    lam = np.ones(len(prog.row_labels))
    bound = float(lam @ prog.row_bounds + np.maximum(obj - lam @ prog.row_coeffs, 0.0).sum())
    assert bound == 2.0
    assert sol.objective <= bound + 1e-9
    assert sol.objective == pytest.approx(2.0)


def test_against_scipy_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(25):
        nv = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        A = rng.uniform(0, 2, size=(m, nv))
        b = rng.uniform(0.5, 4, size=m)
        c = rng.uniform(-1, 2, size=nv)
        sol = simplex_max(c, A, b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
        assert ref.success
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
        assert np.all(A @ sol.values <= b + 1e-9)


def test_negative_objective_keeps_variables_at_zero():
    sol = simplex_max(np.array([-1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([2.0]))
    assert sol.objective == pytest.approx(2.0)
    assert sol.values[0] == pytest.approx(0.0)


def test_infeasible_origin_rejected():
    with pytest.raises(ValueError):
        simplex_max(np.ones(1), np.array([[1.0]]), np.array([-1.0]))


def test_stall_guard():
    with pytest.raises(LpStallError):
        simplex_max(np.ones(2), np.array([[1.0, 1.0]]), np.array([1.0]), max_iters=0)


def test_program_dump_row_per_line():
    inst = partition_demo_instance()
    prog = build_slot_program(inst, inst.outer)
    text = program_dump(prog, np.ones(len(prog.variables)))
    lines = text.strip().splitlines()
    # objective + one line per row + bounds line
    assert len(lines) == 1 + len(prog.row_labels) + 1
    assert lines[0] == "max: 1*x(1,4) + 1*x(2,3) + 1*x(3,4)"
    assert lines[-1] == "bounds: 0 <= x <= 1"
    assert lines[1] == "('outer', 0): 1*x(1,4) + 1*x(2,3) <= 1"


@pytest.mark.parametrize("make", [symmetric_pair_instance, partition_demo_instance])
def test_program_dump_has_no_cap_rows(make):
    # an item cap repeats its column's box bound, which the last line states
    inst = make()
    prog = build_slot_program(inst, inst.outer)
    lines = program_dump(prog, None).splitlines()
    assert not any("item-cap" in line for line in lines)
    assert len(lines) == len(prog.row_labels) + 1 and lines[-1] == "bounds: 0 <= x <= 1"


def test_blocked_item_gets_no_variables():
    inst = single_item_instance(budget=2)
    prog = build_slot_program(inst, inst.outer)
    assert prog.variables == ((0, 1),)


def test_explicit_outer_refused_by_builder():
    # an outer kind without a hull has no slot program: the builder names the kind
    inst = Instance(
        n=2, B=1, budget=3,
        items=(ItemModel(probs=(1.0,), costs=(1,)),) * 2,
        outer=constraints.OuterConstraint(kind="explicit", n=2),
        utility=WeightedModular(weights=(1.0, 1.0)),
    )
    with pytest.raises(ValueError, match="unknown outer constraint kind 'explicit'"):
        build_slot_program(inst, inst.outer)


def pinned_instance(seed, n, budget, kind):
    """Seeded instance behind a pinned program, with its modular weights."""
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        p = rng.uniform(0.1, 1.0, size=3)
        p = p / p.sum()
        costs = sorted(int(c) for c in rng.integers(1, budget // 2 + 1, size=3))
        items.append(ItemModel(probs=tuple(float(v) for v in p), costs=tuple(costs)))
    if kind == "cardinality":
        outer = constraints.cardinality(n, n // 3)
    else:
        outer = constraints.partition(n, [range(b, n, 3) for b in range(3)], [2, 1, 2])
    weights = tuple(float(w) for w in np.round(rng.uniform(0.5, 2.0, size=n), 3))
    return Instance(
        n=n, B=3, budget=budget, items=tuple(items), outer=outer,
        utility=WeightedModular(weights=weights),
    )


def pinned_program(seed, n, budget, kind):
    """Seeded full slot program with a per-item objective, as one greedy step prices it."""
    inst = pinned_instance(seed, n, budget, kind)
    prog = full_slot_program(inst, inst.outer)
    item_of_var = np.array([i for i, _ in prog.variables])
    return prog, np.asarray(inst.utility.weights)[item_of_var]


# The pricing rule fixes the pivot sequence, so these pins hold for any
# implementation of it: the pivot count, the support above ENTRY_TOL and the
# vertex to 1e-12. The supports include the float dust of ``simplex_max``'s
# eta updates: the first vertex carries it at columns 51 and 62.
PINNED_VERTICES = [
    ((11, 12, 10, "cardinality"), (23, 74), 14, {
        1: 0.5351266623970522, 3: 0.46487333760294774, 6: 1.0,
        44: 0.3338886184496975, 45: 0.6661113815503024, 51: 1.6653345369377356e-16,
        61: 0.9999999999999998, 62: 1.6653345369377346e-16,
    }),
    ((12, 16, 12, "partition"), (31, 106), 41, {
        6: 0.8513203077563611, 7: 0.14867969224363592, 8: 0.31241293299951456,
        9: 0.05771136499361574, 11: 0.16958999113019418, 13: 0.46028571087667663,
        21: 0.7966587143382797, 73: 0.8521926120256874, 77: 0.1478073879743118,
        96: 0.22988899794649753, 99: 0.7701110020535024, 100: 0.03873574063652139,
        102: 0.1646055450251989,
    }),
    ((13, 20, 14, "cardinality"), (35, 157), 28, {
        3: 0.4151128227766903, 4: 0.3779884369997351, 5: 0.20689874022357468,
        7: 0.33088308302871333, 9: 0.6691169169712867, 29: 0.669116916971287,
        30: 0.26830242921602093, 32: 0.06258065381269204, 44: 1.0,
        62: 0.4953684985848253, 115: 0.08592849078012355, 116: 0.4187030106350513,
        138: 0.11878695988247463, 139: 0.44452741717388433, 140: 0.4366856229436412,
    }),
]
# named by the program, so that a re-recorded pin keeps the test's name
PINNED_IDS = [f"{kind}-n{n}" for (_, n, _, kind), *_ in PINNED_VERTICES]


@pytest.mark.parametrize("args,shape,pivots,support", PINNED_VERTICES, ids=PINNED_IDS)
def test_vertex_pinned(args, shape, pivots, support):
    prog, obj = pinned_program(*args)
    assert prog.row_coeffs.shape == shape
    lp = (obj, prog.row_coeffs, prog.row_bounds)
    sol = simplex_max(*lp)
    assert sol.iterations == pivots
    assert np.flatnonzero(sol.values > ENTRY_TOL).tolist() == [
        j for j in sorted(support) if support[j] > ENTRY_TOL
    ]
    pinned = np.zeros(len(obj))
    pinned[list(support)] = list(support.values())
    assert np.abs(sol.values - pinned).max() <= 1e-12
    assert abs(sol.objective - float(obj @ pinned)) <= 1e-12
    certify_optimal(*lp, sol.values, sol.basis)


@pytest.mark.parametrize("args,shape,pivots,support", PINNED_VERTICES, ids=PINNED_IDS)
def test_solution_entries_drop_vertex_dust(args, shape, pivots, support):
    prog, obj = pinned_program(*args)
    x = simplex_max(obj, prog.row_coeffs, prog.row_bounds).values
    entries = solution_entries(prog.variables, x)
    kept = [j for j in sorted(support) if support[j] > ENTRY_TOL]
    dust = [j for j in sorted(support) if support[j] <= ENTRY_TOL]
    assert np.all((x[dust] > 0) & (x[dust] <= ENTRY_TOL))  # the vertex carries the pinned dust
    assert entries == tuple((*prog.variables[j], float(x[j])) for j in kept)


@pytest.mark.parametrize("args", [p[0] for p in PINNED_VERTICES])
def test_greedy_returns_no_entry_at_or_below_tolerance(args):
    inst = pinned_instance(*args)
    sol = run_continuous_greedy(
        inst, inst.utility, inst.outer, stop_scale=0.25, steps=4, grad_samples=200, seed=1
    )
    assert sol.entries and all(v > ENTRY_TOL for _, _, v in sol.entries)
    assert certify_solution(inst, inst.outer, sol, 0.25).passed


@st.composite
def bounded_lps(draw):
    """Small LPs over the unit box with integer data: negative objective and row
    entries, and zero right-hand sides, so that ratio steps tie and bound flips
    and leave-at-upper pivots occur."""
    nv = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    ints = lambda lo, hi, k: st.lists(st.integers(lo, hi), min_size=k, max_size=k)
    A = np.array(draw(ints(-2, 3, m * nv)), dtype=float).reshape(m, nv)
    b = np.array(draw(ints(0, 4, m)), dtype=float)
    c = np.array(draw(ints(-3, 4, nv)), dtype=float)
    return c, A, b


@settings(max_examples=examples(300))
@given(bounded_lps())
def test_against_highs_in_the_unit_box(lp):
    c, A, b = lp
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs", options={"presolve": False})
    assert ref.success
    sol = simplex_max(c, A, b)
    assert sol.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
    assert np.all(A @ sol.values <= b + 1e-9)
    assert np.all(sol.values >= -1e-12) and np.all(sol.values <= 1 + 1e-12)


def reference_simplex_max(obj, A, b):
    """The pricing rule one column at a time, on two fresh dense solves per pivot:
    the reference for ``simplex_max``.

    The variable with the largest reduced cost along its free direction enters,
    ties within 1e-12 going to the least index; after a degenerate step (length
    at most 1e-12) the least index above 1e-9 enters instead (Bland), until the
    next nondegenerate step.
    """
    m, nv = A.shape
    total = nv + m
    A_full = np.hstack([A, np.eye(m)])
    c_full = np.concatenate([obj, np.zeros(m)])
    up_full = np.concatenate([np.ones(nv), np.full(m, np.inf)])
    basis = list(range(nv, total))
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(total, dtype=bool)
    x = np.zeros(total)
    x[basis] = b
    degenerate = False
    for it in range(1, 20001):
        B = A_full[:, basis]
        try:
            y = np.linalg.solve(B.T, c_full[basis])
        except np.linalg.LinAlgError:
            raise LpStallError(it, float(c_full @ x)) from None
        priced = []  # (signed reduced cost, index) of every nonbasic variable
        for j in range(total):
            if not in_basis[j]:
                d = c_full[j] - float(y @ A_full[:, j])
                priced.append((-d if at_upper[j] else d, j))
        improving = [(d, j) for d, j in priced if d > 1e-9]
        if not improving:
            return x[:nv].copy(), float(c_full @ x), it - 1
        if degenerate:
            entering = improving[0][1]
        else:
            best = max(d for d, _ in improving)
            entering = next(j for d, j in improving if d >= best - 1e-12)
        direction = -1 if at_upper[entering] else 1
        w = np.linalg.solve(B, A_full[:, entering])
        candidates = []
        if np.isfinite(up_full[entering]):
            candidates.append((up_full[entering], entering, -1, "flip"))
        for pos, bi in enumerate(basis):
            rate = -direction * w[pos]
            if rate < -1e-9:
                candidates.append((x[bi] / -rate, bi, pos, "lower"))
            elif rate > 1e-9 and np.isfinite(up_full[bi]):
                candidates.append(((up_full[bi] - x[bi]) / rate, bi, pos, "upper"))
        if not candidates:
            raise LpStallError(it, float(c_full @ x))
        step = max(min(c[0] for c in candidates), 0.0)
        degenerate = step <= 1e-12
        _, leaving, pos, kind = min(
            (c for c in candidates if c[0] <= step + 1e-12), key=lambda c: c[1]
        )
        x[entering] += direction * step
        for p, bi in enumerate(basis):
            x[bi] -= direction * step * w[p]
        if kind == "flip":
            at_upper[entering] = direction > 0
            x[entering] = up_full[entering] if direction > 0 else 0.0
        else:
            x[leaving] = up_full[leaving] if kind == "upper" else 0.0
            at_upper[leaving] = kind == "upper"
            in_basis[leaving] = False
            in_basis[entering] = True
            basis[pos] = entering
    raise LpStallError(20000, float(c_full @ x))


def assert_matches_reference(lp):
    """``simplex_max`` agrees with the dense-solve reference, and its answer is certified.

    Both stop after the same number of pivots. Their vertices, which lie in
    the unit box, then agree to 1e-12, their objectives to 1e-12 of the
    largest term |obj_j x_j| (at least 1), and their supports above
    ENTRY_TOL: the two round differently, and their rounding grows with the
    numbers they sum.
    """
    ref_x, ref_val, ref_iters = reference_simplex_max(*lp)
    sol = simplex_max(*lp)
    assert sol.iterations == ref_iters
    assert np.abs(sol.values - ref_x).max(initial=0.0) <= 1e-12
    terms = max(1.0, np.abs(lp[0] * ref_x).max(initial=0.0))
    assert abs(sol.objective - ref_val) <= 1e-12 * terms
    assert np.array_equal(np.flatnonzero(sol.values > ENTRY_TOL),
                          np.flatnonzero(ref_x > ENTRY_TOL))
    certify_optimal(*lp, sol.values, sol.basis)


@settings(max_examples=examples(300))
@given(bounded_lps())
def test_matches_column_by_column_reference(lp):
    assert_matches_reference(lp)


@pytest.mark.parametrize("args", [p[0] for p in PINNED_VERTICES])
def test_slot_program_matches_reference(args):
    prog, obj = pinned_program(*args)
    assert_matches_reference((obj, prog.row_coeffs, prog.row_bounds))


def test_long_program_matches_reference(monkeypatch):
    # a solve-large-sized program: n = 40, budget = 30, 771 variables over 71
    # rows; rebuilt every 16 basis changes, its 74 pivots rebuild the basis inverse 4 times,
    # and the certificate of the answer inverts its basis once more
    monkeypatch.setattr(lp_module, "REFACTOR", 16)
    rebuilds = []
    inv = np.linalg.inv

    def counting_inv(a):
        rebuilds.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    prog, obj = pinned_program(14, 40, 30, "cardinality")
    assert prog.row_coeffs.shape == (71, 771)
    assert_matches_reference((obj, prog.row_coeffs, prog.row_bounds))
    assert len(rebuilds) == 4 + 1


# Beale (1955): max 3/4 x0 - 150 x1 + 1/50 x2 - 6 x3 over two rows with zero
# right-hand side and x2 <= 1; the optimum is 1/20 at x = (1/25, 0, 1, 0), which
# lies in the unit box. Dantzig's rule with the least-index ratio test alone
# cycles on it, in the box too
BEALE_LP = (
    np.array([0.75, -150.0, 0.02, -6.0]),
    np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
)
# Beale's two rows and a third, obj + (1/4, 0, 0, 0), that bounds the objective
# by 0: every right-hand side is 0, so every pivot is degenerate, and the same
# rule alone cycles here too
DEGENERATE_LP = (
    BEALE_LP[0],
    np.vstack([BEALE_LP[1][:2], BEALE_LP[0] + [0.25, 0.0, 0.0, 0.0]]),
    np.zeros(3),
)


@pytest.mark.parametrize("lp,value,pivots", [
    (BEALE_LP, 0.05, 6),
    (DEGENERATE_LP, 0.0, 6),
], ids=["beale", "fully-degenerate"])
def test_cycling_programs_reach_a_certified_optimum(lp, value, pivots):
    # Bland's choice after each degenerate step is what ends the cycle
    sol = simplex_max(*lp)
    assert sol.iterations == pivots
    assert sol.objective == pytest.approx(value, abs=1e-12)
    assert certify_optimal(*lp, sol.values, sol.basis) <= CERT_TOL
    assert_matches_reference(lp)


# max x0 + 2 x1 subject to x0 + x1 <= 1 (row 0) and x0 + x1 <= 1.5 (row 1) in
# the unit box; variables 0, 1 are the columns and 2, 3 the slacks
SMALL_LP = (np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.5]))


@settings(max_examples=examples(300))
@given(bounded_lps())
def test_certificate_accepts_vertex_and_rejects_half_of_it(lp):
    sol = simplex_max(*lp)
    val = sol.objective
    assert certify_optimal(*lp, sol.values, sol.basis) <= CERT_TOL * max(1.0, abs(val))
    if val > 1e-6:
        # x / 2 is feasible (b >= 0) and worse by val / 2
        with pytest.raises(LpCertificateError) as err:
            certify_optimal(*lp, sol.values / 2, sol.basis)
        assert err.value.check == "duality gap"
        assert err.value.amount >= val / 2 - 1e-9


@pytest.mark.parametrize("cap,gains,value", [
    (0, [1e-9] * 5, 0.0),
    (1, [0.0, 1.0, 1e-9, 0.0, 0.0], 1.0),
    (2, [1e-10, 1e-9, 1e-9, 0.5, 1e-9], 0.5 + 1e-9),
])
def test_reduced_costs_within_pivot_tol_still_certify(cap, gains, value):
    # no column prices above PIVOT_TOL at the stop Bland's rule alone makes, yet
    # their reduced costs add up to more duality gap than the certificate allows:
    # the simplex pivots on until its duals certify the vertex
    item = ItemModel(probs=(1.0,), costs=(1,))
    inst = Instance(n=5, B=1, budget=2, items=(item,) * 5,
                    outer=constraints.partition(5, [range(5)], [cap]),
                    utility=WeightedModular(weights=(1.0,) * 5))
    prog = build_slot_program(inst, inst.outer)
    sol = solve_lp(prog, np.array(gains))  # certified
    assert sol.objective == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_certificate_rejects_suboptimal_vertex():
    # max 2 x0 + x1 subject to x0 + x1 <= 1 at the vertex x = (0, 1): the bound x0 <= 1
    # prices x0's reduced cost 1, so the gap is 1, all of it at column 0
    lp = (np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(*lp, np.array([0.0, 1.0]), [1])
    assert (err.value.check, err.value.at) == ("duality gap", "column 0")
    assert err.value.amount == pytest.approx(1.0)
    sol = simplex_max(*lp)
    assert certify_optimal(*lp, sol.values, sol.basis) == pytest.approx(0.0, abs=1e-12)


def test_certificate_rejects_point_outside_the_box():
    # x = (1.25, -0.5) meets the row x0 + x1 <= 1 but leaves the box at both
    # columns, by 0.5 at column 1
    lp = (np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(*lp, np.array([1.25, -0.5]), [0])
    assert (err.value.check, err.value.at, err.value.amount) == ("bound", "column 1", 0.5)


# max x1 subject to x0 + x1 <= 1 (row 0) and x0 <= 1 (row 1)
NEGATIVE_DUAL_LP = (np.array([0.0, 1.0]), np.array([[1.0, 1.0], [1.0, 0.0]]), np.ones(2))


def test_certificate_rejects_negative_dual():
    # the basis {x0, x1} at x = (0, 1): the duals are (1, -1)
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(*NEGATIVE_DUAL_LP, np.array([0.0, 1.0]), [0, 1],
                        row_labels=("cap", "other"))
    assert (err.value.check, err.value.at, err.value.amount) == ("dual sign", "other", 1.0)


@pytest.mark.parametrize("basis,fault", [
    ([0], "shape"),  # one basic index for two rows
    ([0, 7], "outside"),  # an index past the last slack (3)
    ([0.5, 1.0], "non-integer"),  # would truncate to {x0, x1}, whose duals are (1, -1)
], ids=["short", "out-of-range", "fractional"])
def test_certificate_rejects_malformed_basis(basis, fault):
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(*NEGATIVE_DUAL_LP, np.array([0.0, 1.0]), basis)
    assert err.value.check == "basis" and fault in err.value.at


def test_certificate_rejects_singular_basis():
    # SMALL_LP's two columns are equal, so the basis {x0, x1} is singular
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(*SMALL_LP, np.array([0.0, 1.0]), [0, 1])
    assert err.value.check == "basis" and "singular" in err.value.at


def certificate_outcome(*args):
    """A certificate's gap, or its error's (check, at, amount, objective)."""
    try:
        return certify_optimal(*args)
    except LpCertificateError as err:
        return (err.check, err.at, err.amount, err.objective)


# (lp, vertex, basis, an objective that passes, one that fails) for each check
# that depends on the objective; the vertex is (0, 1) and the row x0 + x1 <= 1
# binds there
OBJECTIVE_CHECKS = {
    # basis {x0, x1}: y = (c1, c0 - c1), negative for (0, 1)
    "dual sign": (NEGATIVE_DUAL_LP, [0, 1], [1.0, 1.0], [0.0, 1.0]),
    # basis {x1}: c0 - c1 > 0 prices x0's bound into the gap
    "duality gap": ((None, np.array([[1.0, 1.0]]), np.array([1.0])),
                    [1], [1.0, 2.0], [2.0, 1.0]),
}


@pytest.mark.parametrize("check", list(OBJECTIVE_CHECKS))
def test_stacked_certificate_reports_the_first_failing_objective(check):
    # a stack fails at its first objective in stack order that fails, with the
    # error that objective alone gives; a stack that passes returns each
    # objective's own gap, bit for bit
    (_, A, b), basis, good, bad = OBJECTIVE_CHECKS[check]
    x = np.array([0.0, 1.0])
    stack = np.array([good, good, bad, good, bad])
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(stack, A, b, x, basis)
    assert err.value.index == 2 and err.value.check == check
    alone = certificate_outcome(np.array(bad), A, b, x, basis)
    assert (err.value.check, err.value.at, err.value.amount, err.value.objective) == alone
    gaps = certify_optimal(stack[[0, 1, 3]], A, b, x, basis)
    assert gaps.shape == (3,)
    good_gap = certify_optimal(np.array(good), A, b, x, basis)
    assert gaps.tobytes() == np.array([good_gap] * 3).tobytes()


@pytest.mark.parametrize("x,basis,check", [
    ([2.0, 0.0], [0], "row"),  # 2 > 1 on the row
    ([1.25, -0.5], [0], "bound"),
    ([0.0, 1.0], [0, 1], "basis"),  # one row, two basic indices
    ([0.0, 1.0], [2.0], "basis"),  # a float index
    ([0.0, 1.0], [3], "basis"),  # past the one slack, index 2
], ids=["row", "bound", "shape", "non-integer", "out-of-range"])
def test_stacked_certificate_fails_objective_free_checks_at_index_0(x, basis, check):
    # the rows, box and basis do not depend on the objective
    A, b = np.array([[1.0, 1.0]]), np.array([1.0])
    stack = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(stack, A, b, np.array(x), basis)
    assert (err.value.check, err.value.index) == (check, 0)


@pytest.mark.parametrize("x,obj,check", [
    ([np.nan, 1.0], [1.0, 2.0], "row"),
    ([0.0, 1.0], [np.nan, 2.0], "duality gap"),
    ([0.0, 1.0], [1.0, np.nan], "dual sign"),
], ids=["vertex", "bounded-column", "basic-column"])
def test_certificate_fails_on_nan(x, obj, check):
    # NaN fails every comparison, so no check may pass it by comparing "> limit"
    A, b = np.array([[1.0, 1.0]]), np.array([1.0])
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(np.array(obj), A, b, np.array(x), [1])
    assert err.value.check == check


def test_stacked_certificate_fails_a_singular_basis_at_index_0():
    with pytest.raises(LpCertificateError) as err:
        certify_optimal(np.array([SMALL_LP[0]] * 3), *SMALL_LP[1:], np.array([0.0, 1.0]), [0, 1])
    assert err.value.check == "basis" and "singular" in err.value.at and err.value.index == 0


@settings(max_examples=examples(200))
@given(bounded_lps(), st.lists(st.integers(-3, 3), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_stacked_certificate_equals_one_objective_calls(lp, shifts, seed):
    # objectives near the solved one, some still optimal at its vertex and some not:
    # a stack passes iff every objective alone does, with each one's gap bit for
    # bit, and otherwise fails with the first failing objective's own error
    c, A, b = lp
    sol = simplex_max(c, A, b)
    rng = np.random.default_rng(seed)
    stack = np.array([c + shift * rng.random(len(c)) * (rng.random(len(c)) < 0.5)
                      for shift in shifts])
    alone = [certificate_outcome(obj, A, b, sol.values, sol.basis) for obj in stack]
    failing = [k for k, out in enumerate(alone) if isinstance(out, tuple)]
    if failing:
        with pytest.raises(LpCertificateError) as err:
            certify_optimal(stack, A, b, sol.values, sol.basis)
        assert err.value.index == failing[0]
        assert (err.value.check, err.value.at, err.value.amount,
                err.value.objective) == alone[failing[0]]
    else:
        gaps = certify_optimal(stack, A, b, sol.values, sol.basis)
        assert gaps.tobytes() == np.array(alone).tobytes()


def test_stacked_certificate_equals_one_objective_calls_on_a_seeded_sweep():
    # 300 seeded programs with real data and stacks of up to 8 objectives near
    # the solved one: every objective's gap, or the first failing one's error,
    # has the bits of a one-objective call
    rng = np.random.default_rng(17)
    for _ in range(300):
        m, nv = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        A = rng.uniform(-0.5, 2.0, size=(m, nv))
        b = rng.uniform(0.0, 3.0, size=m)
        c = rng.uniform(-1.0, 2.0, size=nv)
        sol = simplex_max(c, A, b)
        stack = c + rng.normal(0.0, 0.05, size=(int(rng.integers(1, 9)), nv))
        alone = [certificate_outcome(obj, A, b, sol.values, sol.basis) for obj in stack]
        failing = [k for k, out in enumerate(alone) if isinstance(out, tuple)]
        try:
            gaps = certify_optimal(stack, A, b, sol.values, sol.basis)
        except LpCertificateError as err:
            assert failing and err.index == failing[0]
            assert (err.check, err.at, err.amount, err.objective) == alone[failing[0]]
        else:
            assert not failing and gaps.tobytes() == np.array(alone).tobytes()


def test_solve_lp_names_worst_violated_row(monkeypatch):
    inst = symmetric_pair_instance()
    prog = full_slot_program(inst, inst.outer)
    nv, m = prog.row_coeffs.shape[1], len(prog.row_bounds)
    x = np.ones(nv)  # every start slot at once
    excess = prog.row_coeffs @ x - prog.row_bounds
    monkeypatch.setattr(lp_module, "simplex_max", lambda *a: LpSolution(
        x, float(nv), 1, np.arange(nv, nv + m)))
    with pytest.raises(LpStallError) as err:  # existing handlers still catch it
        solve_lp(prog, np.ones(nv))
    assert isinstance(err.value, LpCertificateError)
    worst = int(excess.argmax())
    assert (err.value.check, err.value.at) == ("row", prog.row_labels[worst])
    assert err.value.amount == excess[worst]
    assert str(prog.row_labels[worst]) in str(err.value)


def test_solve_lp_names_column_of_duality_gap(monkeypatch):
    # the origin on the slack basis is feasible but not optimal: every column
    # has reduced cost 1 and the largest gap term is the first column's
    inst = symmetric_pair_instance()
    prog = full_slot_program(inst, inst.outer)
    nv, m = prog.row_coeffs.shape[1], len(prog.row_bounds)
    monkeypatch.setattr(lp_module, "simplex_max", lambda *a: LpSolution(
        np.zeros(nv), 0.0, 0, np.arange(nv, nv + m)))
    with pytest.raises(LpCertificateError) as err:
        solve_lp(prog, np.ones(nv))
    assert (err.value.check, err.value.at) == ("duality gap", prog.variables[0])
    assert err.value.amount == pytest.approx(nv)
    assert str(prog.variables[0]) in str(err.value)


@pytest.mark.parametrize("seed", range(40))
def test_slot_rows_match_reference_bitwise(seed):
    # random_instance leaves some items without a slot, and B reaches 5
    inst = random_instance(seed, n_max=9, B_max=5, budget_max=14,
                           kinds=("cardinality", "partition"))
    prog = build_slot_program(inst, inst.outer)
    full = full_slot_program(inst, inst.outer)
    latest = [j for j, (i, t) in enumerate(full.variables) if t == inst.slot_counts[i]]
    assert prog.variables == tuple(full.variables[j] for j in latest)
    # the kept rows are those whose largest value on the box exceeds their bound;
    # every item cap, a single 1 against a bound of 1, is dropped by that rule
    labels, coeffs, bounds, top = latest_slot_rows(inst)
    kept = np.flatnonzero(top > bounds)
    assert not any(labels[r][0] == "item-cap" for r in kept)
    assert prog.row_labels == tuple(labels[r] for r in kept)
    assert prog.row_coeffs.tobytes() == coeffs[kept].tobytes()
    assert prog.row_bounds.tobytes() == bounds[kept].tobytes()
    assert prog.row_coeffs.shape == (len(prog.row_labels), len(prog.variables))


DOMINANCE_CASES = ["B = 1", "a top cost equals the budget", "mixed"]


@st.composite
def dominance_instances(draw, kind, case):
    """Small cardinality or partition instances; item 0 always has a start slot."""
    n = draw(st.integers(1, 7))
    B = 1 if case == "B = 1" else draw(st.integers(1, 3))
    budget = draw(st.integers(2, 8))
    tops = [draw(st.integers(1, budget - 1))] + [
        draw(st.integers(1, budget + 1)) for _ in range(n - 1)
    ]
    if case == "a top cost equals the budget":
        tops += [budget]  # an extra item with no start slot
        n += 1
    items = []
    for top in tops:
        costs = sorted(draw(st.lists(st.integers(1, top), min_size=B, max_size=B)))
        weights = draw(st.lists(st.integers(1, 4), min_size=B, max_size=B))
        items.append(ItemModel(probs=tuple(w / sum(weights) for w in weights),
                               costs=(*costs[:-1], top)))
    if kind == "cardinality":
        outer = constraints.cardinality(n, draw(st.integers(0, n)))
    else:
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
        caps = draw(st.lists(st.integers(0, 3), min_size=len(blocks), max_size=len(blocks)))
        outer = constraints.partition(n, blocks, caps)
    return Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer,
                    utility=WeightedModular(weights=(1.0,) * n))


@pytest.mark.parametrize("case", DOMINANCE_CASES)
@pytest.mark.parametrize("kind", ["cardinality", "partition"])
@settings(max_examples=examples(40), deadline=None)
@given(data=st.data())
def test_latest_slot_program_keeps_the_full_optimum(kind, case, data):
    inst = data.draw(dominance_instances(kind, case))
    gains = np.array(data.draw(st.lists(
        st.floats(-2.0, 4.0, allow_nan=False), min_size=inst.n, max_size=inst.n)))
    full = full_slot_program(inst, inst.outer)
    reduced = build_slot_program(inst, inst.outer)
    full_items = np.array([i for i, _ in full.variables])
    reduced_items = np.array([i for i, _ in reduced.variables])
    # every row the reduced program drops holds everywhere on the box of its columns
    labels, coeffs, bounds, top = latest_slot_rows(inst)
    dropped = [r for r, label in enumerate(labels) if label not in set(reduced.row_labels)]
    assert all(top[r] <= bounds[r] for r in dropped)
    # solve_lp certifies both answers by duality
    best = solve_lp(full, gains[full_items])
    ours = solve_lp(reduced, gains[reduced_items])
    assert abs(ours.objective - best.objective) <= 1e-9 * max(1.0, abs(best.objective))

    # the full optimum's mass moved to each item's latest slot
    mass = np.zeros(inst.n)
    np.add.at(mass, full_items, best.values)
    moved = mass[reduced_items]
    assert np.all(reduced.row_coeffs @ moved <= reduced.row_bounds + ROW_TOL)
    assert np.all(moved >= -ROW_TOL) and np.all(moved <= 1.0 + ROW_TOL)
    assert abs(float(gains[reduced_items] @ moved) - best.objective) <= 1e-9 * max(
        1.0, abs(best.objective))
    sol = SlotSolution(n=inst.n, budget=inst.budget,
                       entries=solution_entries(reduced.variables, moved),
                       stop_scale=1.0, steps=1, grad_samples=0, seed=0)
    report = certify_solution(inst, inst.outer, sol, 1.0)
    assert report.passed, report.failures()


@st.composite
def objective_chains(draw):
    """A random program over the unit box and a chain of 3 to 6 objectives for it.

    Integer data with zero right-hand sides and negative entries make
    degenerate vertices and ties, and each objective either moves a little
    from the one before, so that its vertex often stays optimal, or is drawn
    afresh.
    """
    nv = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    ints = lambda lo, hi, k: st.lists(st.integers(lo, hi), min_size=k, max_size=k)
    A = np.array(draw(ints(-2, 3, m * nv)), dtype=float).reshape(m, nv)
    b = np.array(draw(ints(0, 4, m)), dtype=float)
    program = SlotProgram(variables=tuple((j, 1) for j in range(nv)),
                          row_labels=tuple(("row", r) for r in range(m)),
                          row_coeffs=A, row_bounds=b)
    objectives = [np.array(draw(ints(-3, 4, nv)), dtype=float)]
    for _ in range(draw(st.integers(2, 5))):
        if draw(st.booleans()):
            nudge = draw(st.lists(st.floats(-0.5, 0.5), min_size=nv, max_size=nv))
            objectives.append(objectives[-1] + np.array(nudge))
        else:
            objectives.append(np.array(draw(ints(-3, 4, nv)), dtype=float))
    return program, objectives


@settings(max_examples=examples(300))
@given(objective_chains())
def test_chained_warm_solves_match_cold_solves(chain):
    # the greedy's reuse along a chain: each objective keeps the previous answer
    # wherever its certificate passes and solves cold otherwise; a kept answer
    # has a cold solve's objective value
    program, objectives = chain
    A, b = program.row_coeffs, program.row_bounds
    sol = None
    for obj in objectives:
        cold = solve_lp(program, obj)
        if sol is None or isinstance(
                certificate_outcome(obj, A, b, sol.values, sol.basis), tuple):
            sol = cold
        value = float(obj @ sol.values)
        assert abs(value - cold.objective) <= CERT_TOL * max(1.0, abs(cold.objective))
