"""Time-indexed relaxation rows and a dense bounded-variable simplex.

Variables are start-slot indicators x(i, t), one per item i and feasible start
slot t in {1, ..., budget - worst cost of i}. The row set is fixed by the
instance and outer constraint:

  * per item: sum_t x(i, t) <= 1
  * per outer inequality (a, b): sum_i a_i * sum_t x(i, t) <= b
  * per time t in {1..budget}: sum_i E[min(cost_i, t)] * sum_{t' <= t} x(i, t') <= 2t

All row coefficients are nonnegative and x = 0 is feasible, so the simplex
starts from the slack basis and needs no phase 1. Bland's least-index rule is
used for both entering and leaving choices (termination over speed).

Each pivot solves the basis twice with ``np.linalg.solve``: once for the duals
y, once for the entering column w. Pricing is one matrix-vector product: the
reduced costs c - A^T y of every column, times a sign vector (+1 for a
nonbasic variable at its lower bound, -1 at its upper bound, 0 for a basic
one). The entering variable is the least index whose signed reduced cost
exceeds ``PIVOT_TOL``. The ratio test runs on the basic values and w as
arrays. Every step within 1e-12 of the shortest one ties, and the least
variable index among the tied ones leaves; a bound flip of the entering
variable counts as the entering variable's index. This gives the same pivot
sequence, and the same vertex bit for bit, as pricing one column at a time in
index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import OuterConstraint, polytope_inequalities
from .errors import LpStallError
from .model import Instance

ROW_TOL = 1e-9
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class SlotProgram:
    """Maximization LP over start-slot variables with 0 <= x <= 1 bounds."""

    variables: tuple[tuple[int, int], ...]  # (item, slot), slot 1-based
    row_labels: tuple[tuple, ...]
    row_coeffs: np.ndarray  # (rows, vars)
    row_bounds: np.ndarray  # (rows,)
    objective: np.ndarray | None = None
    var_index: dict = field(default_factory=dict, repr=False)

    def column(self, item: int, slot: int) -> int:
        return self.var_index[(item, slot)]


@dataclass(frozen=True)
class LpSolution:
    values: np.ndarray
    objective: float
    iterations: int


def build_slot_program(instance: Instance, outer: OuterConstraint) -> SlotProgram:
    """Materialize the full relaxation row set for an instance.

    Items whose worst-state cost leaves no feasible start slot get no
    variables. Raises for outer kinds without a compact polytope.
    """
    instance.require_valid()
    ineqs = polytope_inequalities(outer)  # raises NoCompactPolytopeError for explicit
    slots = instance.slot_counts
    variables = [
        (i, t) for i in range(instance.n) for t in range(1, int(slots[i]) + 1)
    ]
    var_index = {v: j for j, v in enumerate(variables)}
    nv = len(variables)
    item_of_var = np.array([i for i, _ in variables], dtype=np.int64)
    slot_of_var = np.array([t for _, t in variables], dtype=np.int64)
    scheduled = np.flatnonzero(slots > 0)
    times = np.arange(1, instance.budget + 1)

    # E[min(cost_i, t)] for every item and time, summed state by state in order
    truncated = np.zeros((instance.n, instance.budget))
    for state in range(instance.B):
        truncated = truncated + instance.prob_matrix[:, state, None] * np.minimum(
            instance.cost_matrix[:, state, None], times
        )

    cap_rows = (item_of_var == scheduled[:, None]).astype(float)
    outer_rows = np.array([a[item_of_var] for a, _ in ineqs]).reshape(len(ineqs), nv)
    time_rows = np.where(slot_of_var <= times[:, None], truncated[item_of_var].T, 0.0)
    labels = (
        [("item-cap", int(i)) for i in scheduled]
        + [("outer", r) for r in range(len(ineqs))]
        + [("time", int(t)) for t in times]
    )
    bounds = np.concatenate(
        [np.ones(len(scheduled)), [float(b) for _, b in ineqs], 2.0 * times]
    )

    return SlotProgram(
        variables=tuple(variables),
        row_labels=tuple(labels),
        row_coeffs=np.vstack([cap_rows, outer_rows, time_rows]),
        row_bounds=bounds,
        var_index=var_index,
    )


def program_dump(program: SlotProgram, objective=None) -> str:
    """Plain-text dump, one constraint row per line."""
    names = [f"x({i + 1},{t})" for i, t in program.variables]
    lines = []
    if objective is None:
        objective = program.objective
    if objective is not None:
        terms = " + ".join(
            f"{c:g}*{nm}" for c, nm in zip(objective, names) if c != 0
        )
        lines.append(f"max: {terms or '0'}")
    for label, row, bound in zip(
        program.row_labels, program.row_coeffs, program.row_bounds
    ):
        terms = " + ".join(f"{c:g}*{nm}" for c, nm in zip(row, names) if c != 0)
        lines.append(f"{label}: {terms or '0'} <= {bound:g}")
    lines.append("bounds: 0 <= x <= 1")
    return "\n".join(lines) + "\n"


def solve_lp(program: SlotProgram, objective=None) -> LpSolution:
    """Maximize the objective over the program rows and [0, 1] box."""
    if objective is None:
        objective = program.objective
    if objective is None:
        raise ValueError("no objective given")
    obj = np.asarray(objective, dtype=float)
    nv = len(program.variables)
    if obj.shape != (nv,):
        raise ValueError(f"objective must have {nv} coefficients")
    values, value, iters = simplex_max(
        obj, program.row_coeffs, program.row_bounds, np.ones(nv)
    )
    lhs = program.row_coeffs @ values
    if np.any(lhs > program.row_bounds + ROW_TOL):
        raise LpStallError(iters, value)
    return LpSolution(values=values, objective=value, iterations=iters)


def simplex_max(obj, A, b, upper, max_iters: int = 20000):
    """Bounded-variable primal simplex for max c.x, A x <= b, 0 <= x <= upper.

    Requires b >= 0 (x = 0 must be feasible). Returns (x, objective, iterations).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    obj = np.asarray(obj, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, nv = A.shape if A.size else (0, len(obj))
    if m == 0:
        x = np.where(obj > 0, np.where(np.isfinite(upper), upper, np.inf), 0.0)
        if np.any(np.isinf(x)):
            raise LpStallError(0, float("inf"))
        return x, float(obj @ x), 0
    if np.any(b < -ROW_TOL):
        raise ValueError("right-hand side must be nonnegative (x=0 feasible)")
    b = np.maximum(b, 0.0)

    total = nv + m
    A_fullT = np.vstack([A.T, np.eye(m)])  # one contiguous row per variable
    c_full = np.concatenate([obj, np.zeros(m)])
    up_full = np.concatenate([upper, np.full(m, np.inf)])
    bounded = np.isfinite(up_full)

    basis = np.arange(nv, total)
    # +1 nonbasic at its lower bound, -1 nonbasic at its upper bound, 0 basic
    sign = np.ones(total)
    sign[basis] = 0.0
    x = np.zeros(total)
    x[basis] = b

    for it in range(1, max_iters + 1):
        BT = A_fullT[basis]
        try:
            y = np.linalg.solve(BT, c_full[basis])
        except np.linalg.LinAlgError:
            raise LpStallError(it, float(c_full @ x)) from None

        # Bland: the least-index variable whose reduced cost improves along its free direction
        eligible = sign * (c_full - A_fullT @ y) > PIVOT_TOL
        entering = int(eligible.argmax())
        if not eligible[entering]:
            return x[:nv].copy(), float(c_full @ x), it - 1
        direction = int(sign[entering])

        w = np.linalg.solve(BT.T, A_fullT[entering])
        # moving the entering variable by direction*step changes basic values by
        # -direction*step*w; a basic variable bounds the step where it falls to 0
        # or rises to a finite upper bound
        xb = x[basis]
        rate = -direction * w
        falls = rate < -PIVOT_TOL
        limits = falls | ((rate > PIVOT_TOL) & bounded[basis])
        room = np.where(falls, xb, up_full[basis] - xb)
        ratio = np.divide(room, np.abs(rate), out=np.full(m, np.inf), where=limits)
        flip = up_full[entering]  # the entering variable's own bound, inf if none
        step = min(ratio.min(), flip)
        if step == np.inf:
            raise LpStallError(it, float(c_full @ x))
        step = max(step, 0.0)
        # ties within 1e-12 go to the least variable index, a flip counting as the entering one
        tied = np.flatnonzero(ratio <= step + 1e-12)
        pos = tied[np.argmin(basis[tied])] if tied.size else -1
        leaving = int(basis[pos]) if tied.size else total

        x[entering] += direction * step
        x[basis] -= (direction * step) * w

        if flip <= step + 1e-12 and entering < leaving:
            sign[entering] = -direction
            x[entering] = flip if direction > 0 else 0.0
        else:
            to_upper = not falls[pos]
            x[leaving] = up_full[leaving] if to_upper else 0.0
            sign[leaving] = -1.0 if to_upper else 1.0
            sign[entering] = 0.0
            basis[pos] = entering

    raise LpStallError(max_iters, float(c_full @ x))
