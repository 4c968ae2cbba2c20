import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochsubmax import constraints
from stochsubmax.errors import LpStallError
from stochsubmax.generators import (
    random_instance,
    single_item_instance,
    symmetric_pair_instance,
)
from stochsubmax.greedy import (
    ENTRY_TOL,
    certify_solution,
    run_continuous_greedy,
    solution_entries,
)
from stochsubmax.lattice import WeightedModular
from stochsubmax.lp import build_slot_program, program_dump, simplex_max, solve_lp
from stochsubmax.model import Instance, ItemModel, expected_truncated_cost


def test_pair_instance_rows():
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    assert prog.variables == ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3))
    rows = dict(zip(prog.row_labels, zip(prog.row_coeffs, prog.row_bounds)))

    coeffs, bound = rows[("time", 1)]
    assert bound == 2.0
    assert list(coeffs) == [1.0, 0, 0, 1.0, 0, 0]

    coeffs, bound = rows[("time", 2)]
    assert bound == 4.0
    assert list(coeffs) == [1.5, 1.5, 0, 1.5, 1.5, 0]

    coeffs, bound = rows[("outer", 0)]
    assert bound == 2.0
    assert list(coeffs) == [1.0] * 6


def test_single_item_outer_row_duplicates_cap():
    inst = single_item_instance()
    prog = build_slot_program(inst, inst.outer)
    rows = dict(zip(prog.row_labels, zip(prog.row_coeffs, prog.row_bounds)))
    cap_coeffs, cap_bound = rows[("item-cap", 0)]
    out_coeffs, out_bound = rows[("outer", 0)]
    assert list(cap_coeffs) == list(out_coeffs)
    assert cap_bound == out_bound == 1.0


def test_trivial_lp():
    x, val, _ = simplex_max(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.array([1.0]))
    assert val == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)


def test_cardinality_row_binds():
    # max x1 + x2 subject to x1 + x2 <= 1, box [0, 1]
    x, val, _ = simplex_max(
        np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]), np.ones(2)
    )
    assert val == pytest.approx(1.0)


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
    # primal optimum must not exceed any nonnegative row combination dominating
    # the objective: for the uniform objective the two item-cap rows give bound 2
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    obj = np.ones(len(prog.variables))
    sol = solve_lp(prog, obj)
    multipliers = {("item-cap", 0): 1.0, ("item-cap", 1): 1.0}
    combo = np.zeros(len(prog.variables))
    bound = 0.0
    for label, row, b in zip(prog.row_labels, prog.row_coeffs, prog.row_bounds):
        lam = multipliers.get(label, 0.0)
        combo += lam * row
        bound += lam * b
    assert np.all(combo >= obj - 1e-12)  # certificate is valid
    assert sol.objective <= bound + 1e-9


def test_against_scipy_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(25):
        nv = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        A = rng.uniform(0, 2, size=(m, nv))
        b = rng.uniform(0.5, 4, size=m)
        c = rng.uniform(-1, 2, size=nv)
        x, val, _ = simplex_max(c, A, b, np.ones(nv))
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
        assert ref.success
        assert val == pytest.approx(-ref.fun, abs=1e-7)
        assert np.all(A @ x <= b + 1e-9)


def test_negative_objective_keeps_variables_at_zero():
    x, val, _ = simplex_max(
        np.array([-1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([2.0]), np.ones(2)
    )
    assert val == pytest.approx(2.0)
    assert x[0] == pytest.approx(0.0)


def test_infeasible_origin_rejected():
    with pytest.raises(ValueError):
        simplex_max(np.ones(1), np.array([[1.0]]), np.array([-1.0]), np.ones(1))


def test_stall_guard():
    with pytest.raises(LpStallError):
        simplex_max(
            np.ones(2), np.array([[1.0, 1.0]]), np.array([1.0]), np.ones(2), max_iters=0
        )


def test_program_dump_row_per_line():
    inst = symmetric_pair_instance()
    prog = build_slot_program(inst, inst.outer)
    text = program_dump(prog, np.ones(len(prog.variables)))
    lines = text.strip().splitlines()
    # objective + one line per row + bounds line
    assert len(lines) == 1 + len(prog.row_labels) + 1
    assert lines[0].startswith("max:")
    assert lines[-1] == "bounds: 0 <= x <= 1"
    assert any("('time', 1)" in ln and "<= 2" in ln for ln in lines)


def test_blocked_item_gets_no_variables():
    inst = single_item_instance(budget=2)
    prog = build_slot_program(inst, inst.outer)
    assert prog.variables == ((0, 1),)


def test_explicit_outer_refused_by_builder():
    from stochsubmax import constraints
    from stochsubmax.errors import NoCompactPolytopeError
    from stochsubmax.lattice import WeightedModular
    from stochsubmax.model import Instance, ItemModel

    inst = Instance(
        n=2, B=1, budget=3,
        items=(ItemModel(probs=(1.0,), costs=(1,)),) * 2,
        outer=constraints.explicit(2, [[0], [1]]),
        utility=WeightedModular(weights=(1.0, 1.0)),
    )
    with pytest.raises(NoCompactPolytopeError):
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
    """Seeded slot program with a per-item objective, as one greedy step builds it."""
    inst = pinned_instance(seed, n, budget, kind)
    prog = build_slot_program(inst, inst.outer)
    item_of_var = np.array([i for i, _ in prog.variables])
    return prog, np.asarray(inst.utility.weights)[item_of_var]


# Bland's rule fixes the pivot sequence, so these pins hold for any
# implementation of it: pivot count, the exact support (float dust included)
# and the vertex to 1e-12.
PINNED_VERTICES = [
    ((11, 12, 10, "cardinality"), (23, 74), 66, {
        0: 0.5351266623970532, 3: 0.4648733376029468, 6: 0.464873337602946,
        7: 0.5351266623970529, 44: 0.33388861844969653, 45: 0.6661113815503029,
        61: 1.0, 62: 3.469446951953614e-17,
    }),
    ((12, 16, 12, "partition"), (31, 106), 53, {
        0: 0.1486796922436382, 7: 0.8513203077563614, 8: 0.012197693612913188,
        11: 0.12019270516469367, 12: 0.4073238903457149, 13: 0.4602857108766785,
        21: 0.5688488466415405, 22: 0.07141105749681756, 23: 0.15639881019991492,
        73: 1.0, 86: 4.118380256959176e-17, 92: 0.06693248184018026,
        98: 0.9330675181598195, 100: 0.20334128566172754,
    }),
    ((13, 20, 14, "cardinality"), (35, 157), 112, {
        0: 0.40215583566533497, 5: 0.43442796735817724, 6: 0.1634161969764871,
        7: 0.13281990613933742, 9: 0.1841873886085842, 10: 0.30874899327857397,
        11: 0.3742437119735047, 35: 0.35082459993749965, 36: 0.6491754000625007,
        52: 1.0, 62: 0.4953684985848247, 108: 0.4650242581953268,
        109: 0.037038726525810174, 116: 0.002568516694037851, 133: 1.0,
        134: 9.47629293835595e-17,
    }),
]


@pytest.mark.parametrize("args,shape,pivots,support", PINNED_VERTICES)
def test_bland_vertex_pinned(args, shape, pivots, support):
    prog, obj = pinned_program(*args)
    assert prog.row_coeffs.shape == shape
    x, val, iters = simplex_max(obj, prog.row_coeffs, prog.row_bounds, np.ones(len(obj)))
    assert iters == pivots
    assert np.nonzero(x)[0].tolist() == sorted(support)
    np.testing.assert_allclose(x[sorted(support)], [support[j] for j in sorted(support)],
                               rtol=0, atol=1e-12)
    assert val == pytest.approx(float(obj @ x), abs=1e-12)


@pytest.mark.parametrize("args,shape,pivots,support", PINNED_VERTICES)
def test_solution_entries_drop_vertex_dust(args, shape, pivots, support):
    prog, obj = pinned_program(*args)
    x, _, _ = simplex_max(obj, prog.row_coeffs, prog.row_bounds, np.ones(len(obj)))
    entries, marginals = solution_entries(prog.variables, x, args[1])
    kept = [j for j in sorted(support) if support[j] > ENTRY_TOL]
    assert len(kept) < len(support)  # each pinned vertex carries dust
    assert entries == tuple((*prog.variables[j], float(x[j])) for j in kept)
    expected = np.zeros(args[1])
    for i, _, v in entries:
        expected[i] += v
    assert np.array_equal(marginals, expected)


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
    """Small LPs with integer data: mixed finite and infinite upper bounds,
    negative objective and row entries, and zero right-hand sides, so that
    ratio steps tie and bound flips and leave-at-upper pivots occur."""
    nv = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    ints = lambda lo, hi, k: st.lists(st.integers(lo, hi), min_size=k, max_size=k)
    A = np.array(draw(ints(-2, 3, m * nv)), dtype=float).reshape(m, nv)
    b = np.array(draw(ints(0, 4, m)), dtype=float)
    c = np.array(draw(ints(-3, 4, nv)), dtype=float)
    caps = draw(st.lists(st.one_of(st.integers(1, 3), st.none()), min_size=nv, max_size=nv))
    upper = np.array([np.inf if u is None else float(u) for u in caps])
    return c, A, b, upper


def has_improving_ray(c, A, upper):
    """Is there d >= 0 with A d <= 0 and c.d > 0, zero where the upper bound is finite?

    x = 0 is feasible (b >= 0), so such a ray means the program is unbounded.
    """
    ray = linprog(-c, A_ub=A, b_ub=np.zeros(len(A)), method="highs",
                  bounds=[(0, 1.0 if np.isinf(u) else 0.0) for u in upper])
    assert ray.success
    return -ray.fun > 1e-9


@settings(max_examples=300)
@given(bounded_lps())
def test_against_highs_with_mixed_bounds(lp):
    c, A, b, upper = lp
    # unboundedness is decided by the ray program above: HiGHS without presolve
    # can end an unbounded program with model status Unknown, and with presolve
    # it can report one as infeasible
    if has_improving_ray(c, A, upper):  # no ratio-test candidate
        with pytest.raises(LpStallError):
            simplex_max(c, A, b, upper)
        return
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, None if np.isinf(u) else u) for u in upper],
                  method="highs", options={"presolve": False})
    assert ref.success
    x, val, _ = simplex_max(c, A, b, upper)
    assert val == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
    assert np.all(A @ x <= b + 1e-9)
    assert np.all(x >= -1e-12) and np.all(x <= upper + 1e-12)


def reference_simplex_max(obj, A, b, upper):
    """Bland's rule one column at a time, in index order: the reference for ``simplex_max``."""
    m, nv = A.shape
    total = nv + m
    A_full = np.hstack([A, np.eye(m)])
    c_full = np.concatenate([obj, np.zeros(m)])
    up_full = np.concatenate([upper, np.full(m, np.inf)])
    basis = list(range(nv, total))
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(total, dtype=bool)
    x = np.zeros(total)
    x[basis] = b
    for it in range(1, 20001):
        B = A_full[:, basis]
        try:
            y = np.linalg.solve(B.T, c_full[basis])
        except np.linalg.LinAlgError:
            raise LpStallError(it, float(c_full @ x)) from None
        entering, direction = -1, 0
        for j in range(total):
            if in_basis[j]:
                continue
            d = c_full[j] - float(y @ A_full[:, j])
            if not at_upper[j] and d > 1e-9:
                entering, direction = j, 1
                break
            if at_upper[j] and d < -1e-9:
                entering, direction = j, -1
                break
        if entering < 0:
            return x[:nv].copy(), float(c_full @ x), it - 1
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


def _outcome(fn, *args):
    try:
        x, val, iters = fn(*args)
    except LpStallError:
        return "stall"
    return x.tobytes(), val, iters


@settings(max_examples=300)
@given(bounded_lps())
def test_matches_column_by_column_reference(lp):
    assert _outcome(simplex_max, *lp) == _outcome(reference_simplex_max, *lp)


@pytest.mark.parametrize("args", [p[0] for p in PINNED_VERTICES])
def test_slot_program_matches_reference_bitwise(args):
    prog, obj = pinned_program(*args)
    ones = np.ones(len(obj))
    assert (_outcome(simplex_max, obj, prog.row_coeffs, prog.row_bounds, ones)
            == _outcome(reference_simplex_max, obj, prog.row_coeffs, prog.row_bounds, ones))


def reference_rows(instance, outer):
    """The slot program's rows built entry by entry: the reference for ``build_slot_program``."""
    slots = instance.slot_counts
    var_index = {
        (i, t): j
        for j, (i, t) in enumerate(
            (i, t) for i in range(instance.n) for t in range(1, int(slots[i]) + 1)
        )
    }
    rows = []
    for i in range(instance.n):
        if slots[i]:
            row = np.zeros(len(var_index))
            for t in range(1, int(slots[i]) + 1):
                row[var_index[(i, t)]] = 1.0
            rows.append(row)
    for a, _ in constraints.polytope_inequalities(outer):
        rows.append(np.array([a[i] for i, _ in var_index], dtype=float))
    for t in range(1, instance.budget + 1):
        row = np.zeros(len(var_index))
        for (i, tp), j in var_index.items():
            if tp <= t:
                row[j] = expected_truncated_cost(instance.items[i], t)
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(var_index))


@pytest.mark.parametrize("seed", range(40))
def test_slot_rows_match_reference_bitwise(seed):
    # random_instance leaves some items without a slot, and B reaches 5
    inst = random_instance(seed, n_max=9, B_max=5, budget_max=14,
                           kinds=("cardinality", "partition"))
    prog = build_slot_program(inst, inst.outer)
    assert prog.row_coeffs.tobytes() == reference_rows(inst, inst.outer).tobytes()
    assert prog.row_coeffs.shape == (len(prog.row_labels), len(prog.variables))
