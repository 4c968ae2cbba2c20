"""Time-indexed relaxation rows, a dense simplex over the [0, 1] box, and its certificate.

The relaxation has start-slot indicators x(i, t), one per item i and feasible
start slot t in {1, ..., s_i} with s_i = budget - worst cost of i, in the box
[0, 1]. Its row set is fixed by the instance and outer constraint:

  * per item: sum_t x(i, t) <= 1
  * per outer inequality (a, b): sum_i a_i * sum_t x(i, t) <= b
  * per time t in {1..budget}: sum_i E[min(cost_i, t)] * sum_{t' <= t} x(i, t') <= 2t

:func:`build_slot_program` keeps one column per item, its latest slot
(i, s_i), by this dominance lemma. All columns of an item have the same
objective coefficient, the same item-cap and outer coefficients and the same
[0, 1] box, and a later slot's column is entrywise no larger in the time rows
(it enters the prefix sums of fewer times). Moving an item's whole mass to
s_i therefore keeps every row feasible and leaves the objective unchanged, so
the program over the latest-slot columns has the same optimum, and its
optimum is an optimal point of the full relaxation. Dropping the dominated
columns cuts an n = 40, budget = 30 program from about 850 columns to 40.

It then keeps only the rows that can bind inside the box. With one column per
item, an item-cap row is the column's box bound again, and a row whose largest
value on the box, sum_j max(a_j, 0), is at most its bound holds at every
point of the box. Dropping both changes no feasible point: the rows of an
n = 40, budget = 30 program go from 71 to about 13, and most desk programs
keep one row or none. The outer and time rows over one column per item, at
any given slot, come from one builder, :func:`slot_rows`: the program calls it
at the latest slots, and :func:`greedy.certify_solution` at a solution's own
slots, where it checks every row of the full relaxation.

Every column lies in the same box [0, 1], so the simplex and its certificate
take no bounds: a variable's upper bound is 1 for a column and none for a
slack. No program is unbounded, and one without rows is solved by setting
each column with a positive objective coefficient to 1.

All row coefficients are nonnegative and x = 0 is feasible, so every solve
starts from the slack basis and needs no phase 1. The entering variable is
the one with the largest reduced cost (Dantzig's rule), except right after a
degenerate step, one of length at most 1e-12, where the least improving index
enters (Bland's rule) until a step moves again; the leaving choice is always
the least index. This terminates: a nondegenerate step raises the objective,
so no basis recurs across one, and a cycle within a run of degenerate steps
would, from its first repeated basis on, be a cycle of Bland's rule, which
has none. On the solve-large programs it takes about a third of Bland's
pivots alone (a median of 19.5 against 63.5 on 24 cold solves).

Reusing an earlier answer is the continuous greedy's job: it keeps an answer
while :func:`certify_optimal` accepts it under the new objective, and
otherwise solves afresh.

Each pivot works on an explicit inverse ``Binv`` of the basis matrix (the
revised simplex). It starts as the identity on the slack basis. A basis
change updates it in place by one rank-1 (eta) update, a bound flip leaves
it unchanged, and every ``REFACTOR`` basis changes it is rebuilt from the
basis columns, which sheds the rounding the updates accumulate. The duals
are y = c_B Binv and the entering column is w = Binv a. Pricing is one
matrix-vector product: the reduced costs c - A^T y of every column, times a
sign vector (+1 for a nonbasic variable at its lower bound, -1 at its upper
bound, 0 for a basic one). The entering
variable is the one whose signed reduced cost is largest, every value within
1e-12 of the largest tying and the least index among them entering; after a
degenerate step it is the least index whose signed reduced cost exceeds
``PIVOT_TOL``. Either way the solve stops when no signed reduced cost exceeds
``PIVOT_TOL``, unless those reduced costs still add up to more than half the
duality gap :func:`certify_optimal` allows (many columns just under
``PIVOT_TOL``, or one at it); then the largest positive one enters, so that
every stop the certificate would refuse is pivoted past.
The ratio test runs over the m basic values, a list of Python floats, and
one ``tolist`` of w: a value that falls bounds the step at itself over
|w_r|, a column that rises to its upper bound 1 at its room over |w_r|, in
the floating-point operations of the same test on arrays. Every step within
1e-12 of the shortest one ties, and the least variable index among the tied
ones leaves; a bound flip of the entering variable counts as the entering
variable's index. A nonbasic variable sits at the bound its sign names, and
the duals, reduced costs, w, the eta row and the (m, m) eta update fill
buffers: a pivot allocates no array, and the vertex is assembled when the
solve stops.

This is the pivot sequence of pricing one column at a time with two fresh
dense solves per pivot, up to rounding: a near-tie can fall the other way,
and vertices agree to about 1e-12 of their largest entry rather than bit for
bit.
:func:`solve_lp` therefore checks every answer, rows and box as well as
optimality by LP duality, with :func:`certify_optimal`.

:func:`certify_optimal` also takes a stack of objectives over one vertex and
basis, the continuous greedy's remaining steps along one direction. It
inverts the basis once and runs the same checks for every objective, each
with the bits a one-objective call gives it, and names the first objective
that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import OuterConstraint, polytope_inequalities
from .errors import LpCertificateError, LpStallError
from .model import Instance

ROW_TOL = 1e-9
PIVOT_TOL = 1e-9
CERT_TOL = 1e-9
# basis changes between two rebuilds of the basis inverse from the basis itself
REFACTOR = 64


@dataclass(frozen=True)
class SlotProgram:
    """Maximization LP over start-slot variables with 0 <= x <= 1 bounds."""

    variables: tuple[tuple[int, int], ...]  # (item, slot), slot 1-based
    row_labels: tuple[tuple, ...]
    row_coeffs: np.ndarray  # (rows, vars)
    row_bounds: np.ndarray  # (rows,)


@dataclass(frozen=True)
class LpSolution:
    """A simplex answer: the vertex, its objective, the pivots taken and the final basis.

    ``basis`` holds the basic indices, structural columns first and then one
    slack per row (index nv + row): the basis :func:`certify_optimal` takes,
    for this objective or, while the rows, right-hand side and box stay the
    same, for a later one.
    """

    values: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray


def slot_rows(instance: Instance, ineqs, items, slots):
    """The outer and time rows over one column per item: column j is ``items[j]`` at ``slots[j]``.

    ``ineqs`` are the outer inequalities (a, b) of
    :func:`constraints.polytope_inequalities`. Returns the row labels, the
    (rows, columns) coefficients and the bounds: outer row r is ``a`` on the
    items against b, and time row t in 1..budget is each item's truncated cost
    at t (``instance.truncated_costs``) where its slot is at most t, else 0,
    against 2t.
    """
    times = np.arange(1, instance.budget + 1)
    outer_rows = np.array([a[items] for a, _ in ineqs]).reshape(len(ineqs), len(items))
    time_rows = np.where(slots <= times[:, None], instance.truncated_costs[items].T, 0.0)
    labels = [("outer", r) for r in range(len(ineqs))] + [("time", int(t)) for t in times]
    bounds = np.concatenate([[float(b) for _, b in ineqs], 2.0 * times])
    return labels, np.vstack([outer_rows, time_rows]), bounds


def build_slot_program(instance: Instance, outer: OuterConstraint) -> SlotProgram:
    """Materialize the relaxation rows that can bind over each scheduled item's latest slot.

    The program has one column (i, s_i) per item i with s_i = budget - worst
    cost of i >= 1; the earlier slot columns, which the latest one dominates,
    are left out. Of the outer and time rows (:func:`slot_rows`) it keeps
    those whose largest value on the [0, 1] box, ``sum_j max(a_j, 0)``,
    exceeds their bound, and it has no item-cap rows, which repeat the box
    (see the module docstring). Items whose worst-state cost leaves no
    feasible start slot get no variables.
    """
    instance.require_valid()
    ineqs = polytope_inequalities(outer)
    slots = instance.slot_counts
    scheduled = np.flatnonzero(slots > 0)
    labels, rows, bounds = slot_rows(instance, ineqs, scheduled, slots[scheduled])
    binds = np.flatnonzero(np.maximum(rows, 0.0).sum(axis=1) > bounds)
    return SlotProgram(
        variables=tuple(zip(scheduled.tolist(), slots[scheduled].tolist())),
        row_labels=tuple(labels[r] for r in binds),
        row_coeffs=rows[binds],
        row_bounds=bounds[binds],
    )


def program_dump(program: SlotProgram, objective) -> str:
    """Plain-text dump, one constraint row per line, items named by 1-based ids.

    A ``max:`` line leads with the objective's nonzero terms unless ``objective`` is None.
    """
    names = [f"x({i + 1},{t})" for i, t in program.variables]
    lines = []
    if objective is not None:
        terms = " + ".join(
            f"{c:g}*{nm}" for c, nm in zip(objective, names) if c != 0
        )
        lines.append(f"max: {terms or '0'}")
    for label, row, bound in zip(program.row_labels, program.row_coeffs, program.row_bounds):
        terms = " + ".join(f"{c:g}*{nm}" for c, nm in zip(row, names) if c != 0)
        lines.append(f"{label}: {terms or '0'} <= {bound:g}")
    lines.append("bounds: 0 <= x <= 1")
    return "\n".join(lines) + "\n"


def solve_lp(program: SlotProgram, objective) -> LpSolution:
    """Maximize the objective over the program rows and [0, 1] box, certified by duality.

    The simplex starts from the slack basis (:func:`simplex_max`). Raises
    :class:`LpCertificateError` (an :class:`LpStallError`) naming the row or
    column at fault if the answer fails :func:`certify_optimal`.
    """
    obj = np.asarray(objective, dtype=float)
    nv = len(program.variables)
    if obj.shape != (nv,):
        raise ValueError(f"objective must have {nv} coefficients")
    A, b = program.row_coeffs, program.row_bounds
    sol = simplex_max(obj, A, b)
    certify_optimal(obj, A, b, sol.values, sol.basis,
                    variables=program.variables, row_labels=program.row_labels)
    return sol


def certify_optimal(obj, A, b, x, basis, variables=None, row_labels=None):
    """Certify that ``x`` maximizes obj.x over A x <= b, 0 <= x <= 1; return the duality gap.

    ``basis`` holds the basic indices of a simplex basis, structural columns
    first and then one slack per row (index nv + row): one integer index per
    row, each in 0..nv + m - 1. The duals y come from the inverse of that
    basis, which need not be the one the simplex stopped on. Any y >= 0, with
    reduced costs d = obj - A^T y, gives the upper bound
    ``b.y + sum_j max(d_j, 0)`` on every feasible point, so no error in the
    simplex arithmetic, and no choice of basis, can make a wrong ``x`` pass.
    Checks, in order: the rows (within ``ROW_TOL``) and the box, the basis
    (its shape, integer indices in range, not singular), the dual signs
    (``y >= -CERT_TOL``) and the gap (``<= CERT_TOL * max(1, |obj.x|)``).
    A NaN fails every check.

    ``obj`` may also be a (K, nv) stack of objectives over the same program,
    vertex and basis, such as the continuous greedy's remaining steps along
    one direction. Each gets the same checks in the same order, and the same
    bits as a one-objective call: its duals, reduced costs, value and gap
    are products of its own (``np.matmul`` over a leading axis), never one
    matrix product over the stack, whose rounding could depend on the other
    objectives. A stack returns its K gaps.

    Raises :class:`LpCertificateError` naming the row or column at fault and
    the size of the violation there: the most violated one, or for the gap
    the row or column of its largest complementary-slackness term. For a
    stack the error is the first failing objective's, in stack order, and
    its ``index`` is that objective's position; the rows, box and basis do
    not depend on the objective and fail at index 0. ``variables`` and
    ``row_labels`` name columns and rows; indices are used without them.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    objs = np.asarray(obj, dtype=float)
    stack = objs.ndim == 2
    objs = objs if stack else objs[None]
    x = np.asarray(x, dtype=float)
    basis = np.asarray(basis)
    m, nv = len(b), objs.shape[1]
    # one product per objective (np.matmul over a leading axis), so that an
    # objective's bits do not depend on the others in the stack
    values = np.matmul(objs[:, None], x)[:, 0]
    row = (lambda r: row_labels[r]) if row_labels is not None else (lambda r: f"row {r}")
    col = (lambda j: variables[j]) if variables is not None else (lambda j: f"column {j}")

    def check(name, excess, at, limit, k=0):
        """Fail at the largest entry of ``excess`` unless it is at most ``limit``;
        argmax puts a NaN first, and NaN is never at most anything."""
        if excess.size:
            j = int(excess.argmax())
            if not excess[j] <= limit:
                raise LpCertificateError(name, at(j), float(excess[j]), float(values[k]), k)

    slack = b - A @ x
    # the excess arrays are built only for a vertex that fails; NaN fails here too
    if not slack.min(initial=0.0) >= -ROW_TOL:
        check("row", -slack, row, ROW_TOL)
    if not (x.min(initial=0.0) >= -ROW_TOL and (x - 1.0).max(initial=0.0) <= ROW_TOL):
        check("bound", np.maximum(-x, x - 1.0), col, ROW_TOL)

    def bad_basis(fault):
        return LpCertificateError("basis", fault, np.nan, float(values[0]))

    if basis.shape != (m,):
        raise bad_basis(f"a basis of shape {basis.shape} for {m} rows")
    duals = np.zeros((len(objs), m))
    if m:
        if basis.dtype.kind not in "iu":
            raise bad_basis(f"non-integer basic indices {basis.tolist()}")
        if basis.min() < 0 or basis.max() >= nv + m:
            raise bad_basis(f"basic indices {basis.tolist()} outside 0..{nv + m - 1}")
        # the basis columns as rows, gathered from [A^T; I], and their inverse;
        # row k of the duals solves y B = c_B for objective k
        try:
            inverse = np.linalg.inv(np.concatenate((A.T, np.eye(m))).take(basis, axis=0))
        except np.linalg.LinAlgError:
            raise bad_basis("a singular basis") from None
        c_basis = np.concatenate((objs, np.zeros((len(objs), m))), axis=1).take(basis, axis=1)
        duals = np.matmul(inverse, c_basis[:, :, None])[:, :, 0]
    y = np.maximum(duals, 0.0)
    d = objs - np.matmul(A.T, y[:, :, None])[:, :, 0]
    gaps = np.matmul(y[:, None], b)[:, 0] + np.maximum(d, 0.0).sum(axis=1) - values
    # the objectives that pass every check; NaN fails every comparison
    ok = duals.min(axis=1, initial=np.inf) >= -CERT_TOL
    ok &= gaps <= CERT_TOL * np.maximum(1.0, np.abs(values))
    if not ok.all():
        k = int(ok.argmin())
        check("dual sign", -duals[k], row, CERT_TOL, k)
        # the same gap term by term: y.(b - A x) + sum_j (max(d_j, 0) - d_j x_j)
        rows = y[k] * slack
        cols = np.maximum(d[k], 0.0) - d[k] * x
        if rows.max(initial=-np.inf) >= cols.max(initial=-np.inf):
            at = row(int(rows.argmax()))
        else:
            at = col(int(cols.argmax()))
        raise LpCertificateError("duality gap", at, float(gaps[k]), float(values[k]), k)
    return gaps if stack else float(gaps[0])


def simplex_max(obj, A, b, max_iters: int = 20000) -> LpSolution:
    """Bounded-variable primal simplex for max c.x, A x <= b, 0 <= x <= 1.

    Requires b >= 0, so that x = 0 on the slack basis, where every solve
    starts, is feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    obj = np.asarray(obj, dtype=float)
    m, nv = len(b), len(obj)
    if m == 0:
        x = np.where(obj > 0, 1.0, 0.0)
        return LpSolution(x, float(obj @ x), 0, np.zeros(0, dtype=np.int64))
    if b.min() < -ROW_TOL:
        raise ValueError("right-hand side must be nonnegative (x=0 feasible)")
    b = np.maximum(b, 0.0)

    total = nv + m
    A_fullT = np.concatenate((A.T, np.eye(m)))  # one contiguous row per variable
    c_full = np.concatenate((obj, np.zeros(m)))
    up = [1.0] * nv + [math.inf] * m  # the slacks have no upper bound
    # the basis and its variables' values and objective coefficients, row by row;
    # a nonbasic variable sits at 0 or at its upper bound, as its sign says
    basis = list(range(nv, total))
    xb = b.tolist()
    c_basis = np.zeros(m)
    # +1 nonbasic at its lower bound, -1 nonbasic at its upper bound, 0 basic
    sign = np.ones(total)
    sign[nv:] = 0.0
    Binv = np.eye(m)  # inverse of the slack basis
    # buffers for the duals, the signed reduced costs, the entering column, the eta
    # row and the eta update
    y, signed, w, pivot = np.empty(m), np.empty(total), np.empty(m), np.empty(m)
    eta = np.empty((m, m))
    eligible = np.empty(total, dtype=bool)
    changes = 0
    degenerate = False  # was the last step degenerate: then Bland's rule prices

    def vertex():
        x = np.where(sign < 0, up, 0.0)
        x[basis] = xb
        return x

    for it in range(1, max_iters + 1):
        np.matmul(c_basis, Binv, out=y)
        # each variable's reduced cost along its free direction
        np.matmul(A_fullT, y, out=signed)
        np.subtract(c_full, signed, out=signed)
        signed *= sign
        if degenerate:  # Bland: the least index that improves
            np.greater(signed, PIVOT_TOL, out=eligible)
        else:  # Dantzig: the largest, ties within 1e-12 to the least index
            np.greater_equal(signed, signed.max() - 1e-12, out=eligible)
        entering = int(eligible.argmax())
        if not signed[entering] > PIVOT_TOL:
            # every variable prices within PIVOT_TOL, yet those reduced costs can add
            # up to more duality gap than certify_optimal allows; then the largest
            # positive one enters. The gap is the certificate's own, held to half its
            # allowance so that the certificate's fresh duals, which differ from
            # these by rounding, still pass.
            x = vertex()
            value = float(c_full @ x)
            yp = np.maximum(y, 0.0)
            gap = b @ yp + np.maximum(obj - A_fullT[:nv] @ yp, 0.0).sum() - value
            entering = int(signed.argmax())
            if gap <= 0.5 * CERT_TOL * max(1.0, abs(value)) or signed[entering] <= 0:
                return LpSolution(x[:nv], value, it - 1, np.array(basis, dtype=np.int64))
        direction = 1 if sign[entering] > 0 else -1

        np.matmul(Binv, A_fullT[entering], out=w)
        ws = w.tolist()
        # moving the entering variable by direction*step changes basic value r by
        # -direction*step*w[r]; it bounds the step where it falls to 0 or rises to a
        # finite upper bound
        ratios = [math.inf] * m
        for r, wr in enumerate(ws):
            fall = direction * wr
            if fall > PIVOT_TOL:
                ratios[r] = xb[r] / fall
            elif fall < -PIVOT_TOL and up[basis[r]] < math.inf:
                ratios[r] = (up[basis[r]] - xb[r]) / -fall
        flip = up[entering]  # the entering variable's own bound, inf if none
        step = min(min(ratios), flip)
        if step == math.inf:
            raise LpStallError(it, float(c_full @ vertex()))
        step = max(step, 0.0)
        degenerate = step <= 1e-12
        # ties within 1e-12 go to the least variable index, a flip counting as the entering one
        tie = step + 1e-12
        pos, leaving = -1, total
        for r, ratio in enumerate(ratios):
            if ratio <= tie and basis[r] < leaving:
                pos, leaving = r, basis[r]

        move = direction * step
        entered = (0.0 if direction > 0 else up[entering]) + move
        for r, wr in enumerate(ws):
            xb[r] -= move * wr

        if flip <= tie and entering < leaving:
            sign[entering] = -direction
            continue
        sign[leaving] = 1.0 if direction * ws[pos] > PIVOT_TOL else -1.0
        sign[entering] = 0.0
        basis[pos] = entering
        xb[pos] = entered
        c_basis[pos] = c_full[entering]
        changes += 1
        if changes % REFACTOR == 0:
            try:
                Binv = np.linalg.inv(A_fullT[basis]).T
            except np.linalg.LinAlgError:
                raise LpStallError(it, float(c_full @ vertex())) from None
        else:
            # eta update, Binv -= outer(w, pivot) in place: the entering column
            # becomes the unit vector at pos
            np.divide(Binv[pos], w[pos], out=pivot)
            Binv -= np.multiply.outer(w, pivot, out=eta)
            Binv[pos] = pivot

    raise LpStallError(max_iters, float(c_full @ vertex()))
