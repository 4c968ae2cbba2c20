"""Measured continuous greedy over the time-indexed relaxation.

Starting from x = 0, the solver repeatedly takes each item's expected marginal
gain under the current marginals, maximizes the resulting linear objective over
the (unscaled) relaxation rows, and advances x by step l/T along the optimal
vertex. The gains are exact wherever the utility can give them at no more
cost than ``grad_samples`` draws (``expected_gains``: closed forms for the
modular and coverage families, an enumeration of the joint levels for the
concave-over-modular family while those number at most ``grad_samples``)
and are estimated from ``grad_samples`` seeded draws otherwise. After T steps
the accumulated solution satisfies every outer row at scale l and every time
row at scale l (the directions are feasible for the unscaled rows and the
steps sum to l), which is exactly what :func:`certify_solution` checks.

Each step's objective gives every start slot of an item the same coefficient,
the item's gain, so the LP is solved over one column per item, its latest
start slot, and over the rows that can bind inside the box
(:func:`lp.build_slot_program`). Every column of an item has the same
objective, item-cap and outer coefficients and box, and the latest slot's
column is entrywise no larger in the time rows; moving an item's mass to that
slot keeps every row feasible at the same objective, and the dropped rows hold
everywhere in the box, so each step's vertex is an optimal direction of the
full time-indexed program and the accumulated solution carries the full
program's guarantee. Its entries hold one slot per item, the rule every
:class:`SlotSolution` keeps: the rounding visits an item at that slot. A
solution is its entries, each item's marginal its one entry's value, and
:func:`check_solution_shape` is the one check that it fits an instance;
:func:`certify_solution` builds the rows at its slots with the program's own
row builder, :func:`lp.slot_rows`.

The LP rows, right-hand side and box are the same at every step and only the
objective changes, so the previous step's answer, a vertex and its basis,
is still feasible, and it stays optimal while it passes the LP certificate
under the new gains. This is the only place an earlier answer is reused:
whenever there is one, the greedy rides it. The remaining steps' marginals
x, x + d, x + 2d, ... along its direction d are known in advance, built by
repeated addition (a cumulative sum), which gives the bits of stepping one
at a time. One gain call gives all their objectives
(:func:`estimate_marginal_gains` on the stack) and one stacked certificate
(:func:`lp.certify_optimal`) accepts the leading rows that the answer is
still optimal for; only the first failing row calls :func:`lp.solve_lp`,
whose simplex starts from the slack basis. The gains and the certificate
give each row of a stack the bits of a one-row call, so the solution is the
step-by-step greedy's bit for bit. Where some row's gains must be sampled,
the gain call gives the leading rows whose gains are exact and the answer
rides only those; where the first row's must be sampled, only its gains are
drawn, from the stream ("step", k), and the certificate is a one-row stack.
Each step asks for its gains once either way, and every step's answer is
certified by LP duality.
Items without a start slot get no variables; with no variables at all the
greedy estimates no gains and solves no LP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constraints import OuterConstraint, polytope_inequalities
from .errors import InvalidInputError, LpCertificateError, as_int, json_number
from .extensions import check_marginals
from .lp import build_slot_program, certify_optimal, slot_rows, solve_lp
from .model import Instance, sample_realization_batch
# map_blocks stays a module name: bench/tracing.py counts calls through it
from .parallel import map_blocks, mean_se, run_blocks  # noqa: F401
from .seeds import stream_entropy

MARGINAL_TOL = 1e-9
CERT_TOL = 1e-7
# LP values at or below this are float dust on basic variables that are 0 in
# exact arithmetic; they are dropped from solutions
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class SlotSolution:
    """Fractional start-slot solution: one entry (item, slot, value) per item it schedules.

    Construction checks that every entry's item lies in 0..n-1 and that no
    item has two entries, raising :class:`InvalidInputError` (a
    ``ValueError``) that names the 1-based item. Whether the entries fit an
    instance is :func:`check_solution_shape`'s question.
    """

    n: int
    budget: int
    entries: tuple[tuple[int, int, float], ...]
    stop_scale: float
    steps: int
    grad_samples: int
    seed: int

    def __post_init__(self):
        seen = set()
        for i, _, _ in self.entries:
            if not 0 <= i < self.n:
                raise InvalidInputError(f"solution item {i + 1} is outside 1..{self.n}")
            if i in seen:
                raise InvalidInputError(
                    f"item {i + 1} has more than one slot entry; a solution holds one per item"
                )
            seen.add(i)

    @cached_property
    def marginals(self) -> np.ndarray:
        """The (n,) item marginals: each item's one entry's value, 0 for an item without one."""
        out = np.zeros(self.n)
        for i, _, v in self.entries:
            out[i] = v
        return out

    @cached_property
    def support(self) -> np.ndarray:
        """Items with positive marginal, by index: the columns of every rounding block."""
        return np.flatnonzero(self.marginals > 0)

    @cached_property
    def slots(self) -> np.ndarray:
        """The (n_s,) start slots of the support columns: each item's one entry's slot."""
        slot_of = {i: t for i, t, _ in self.entries}
        return np.array([slot_of[i] for i in self.support.tolist()], dtype=np.int64)

    @cached_property
    def scan_order(self) -> np.ndarray:
        """The support columns by (slot, index): the order the gate scan visits them in."""
        return np.argsort(self.slots, kind="stable")

    @cached_property
    def precedence(self) -> np.ndarray:
        """Read-only (n_s, n_s) float matrix M[j, i] = [slots[j] <= slots[i]] of the
        schedule map."""
        out = (self.slots[:, None] <= self.slots).astype(float)
        out.flags.writeable = False
        return out


def check_solution_shape(instance: Instance, sol: SlotSolution):
    """Check that ``sol`` fits ``instance``, raising ``ValueError`` that names the 1-based item.

    The solution must have the instance's n and budget, each entry's slot
    must lie in 1..s_i, its item's slot count, and each value must lie in
    [0, 1] to within ``MARGINAL_TOL``, the one value tolerance (NaN fails).
    """
    if sol.n != instance.n or sol.budget != instance.budget:
        raise ValueError("solution does not match the instance dimensions")
    slots = instance.slot_counts
    for i, t, v in sol.entries:
        if not 1 <= t <= int(slots[i]):
            raise ValueError(f"item {i + 1} has slot {t}, out of slot range 1..{int(slots[i])}")
        if not -MARGINAL_TOL <= v <= 1 + MARGINAL_TOL:
            raise ValueError(f"item {i + 1} has marginal {v!r}; marginals must lie in [0, 1]")


@dataclass(frozen=True)
class CertificationReport:
    scale: float
    rows: tuple[tuple[str, float, float, bool], ...]  # (label, lhs, bound, ok)
    passed: bool

    def failures(self) -> list[tuple[str, float, float, bool]]:
        return [r for r in self.rows if not r[3]]

    def to_json(self) -> str:
        doc = {
            "scale": self.scale,
            "passed": self.passed,
            "rows": [
                {"row": label, "lhs": lhs, "bound": bound, "ok": ok}
                for label, lhs, bound, ok in self.rows
            ],
        }
        return json.dumps(doc) + "\n"


def _sampled_gains(instance: Instance, f, x, samples: int, seed: int):
    """The gains and their standard errors from ``samples`` draws in seeded blocks.

    Each block draws a base set and a realization, and ``f.gains_batch`` gives
    every item's gain on every row. Block b draws from
    ``seeds.block_rng(seed, "gain", b)`` (:func:`parallel.run_blocks`), so the
    estimate is a deterministic function of (inputs, seed). The stream moved
    when the blocks left ``seeds.derive_rng``, whose three streams did not.
    """

    def block(rng, start, size):
        coins = rng.random((size, instance.n)) < x
        states = sample_realization_batch(instance, rng, size)
        base = np.where(coins, states, 0)
        # row i holds item i's gains in contiguous memory, so each row sum adds in
        # the same order as a sum over that item's own gain vector
        gains = np.ascontiguousarray(f.gains_batch(base, states, coins).T)
        sums = gains.sum(axis=1)
        return size, sums, np.multiply(gains, gains, out=gains).sum(axis=1)

    return mean_se(*run_blocks("gain", seed, samples, block))


def estimate_marginal_gains(
    instance: Instance, f, marginals, samples: int, seed: int, stream: tuple | None = None
):
    """Per-item expected gain of adding the item to a random set drawn from the marginals.

    Returns (gains, standard errors), each an (n,) array. Where
    ``f.expected_gains`` gives the exact gains at no more cost than
    ``samples`` draws, they come with standard errors 0, whatever the seed;
    otherwise they are sampled (:func:`_sampled_gains`). ``samples`` must be
    positive either way. A ``stream`` (label, index) draws the samples from
    ``seeds.stream_entropy(seed, label, index)`` instead of ``seed``; it is
    derived only when the gains are sampled.

    ``marginals`` may also be a (K, n) stack. Both results are then (J, n)
    stacks over the leading J rows whose gains are exact, as
    ``f.expected_gains`` gives them; if the first row's must be sampled, they
    hold it alone, sampled as a one-row call at ``marginals[0]``. Either way
    each row has a one-row call's bits, and ``f.expected_gains`` is called
    once. The marginals must pass :func:`extensions.check_marginals`, which
    raises ``ValueError`` for a wrong shape or an entry outside [0, 1] or NaN.
    """
    if samples < 1:
        raise ValueError(f"need at least one gradient sample, got {samples}")
    x = check_marginals(instance, marginals)
    exact = f.expected_gains(instance.prob_matrix, x, samples)
    if exact is not None:
        return exact, np.zeros(exact.shape)
    if stream is not None:
        seed = stream_entropy(seed, *stream)
    if x.ndim == 2:
        gains, ses = _sampled_gains(instance, f, x[0], samples, seed)
        return gains[None], ses[None]
    return _sampled_gains(instance, f, x, samples, seed)


def solution_entries(variables, x):
    """Entries (item, slot, value) of the values above ENTRY_TOL."""
    return tuple((int(i), int(t), float(v)) for (i, t), v in zip(variables, x) if v > ENTRY_TOL)


def run_continuous_greedy(
    instance: Instance,
    f,
    outer: OuterConstraint,
    stop_scale: float,
    steps: int = 50,
    grad_samples: int = 10**4,
    seed: int = 0,
    history: list | None = None,
) -> SlotSolution:
    """Solve the relaxation up to stopping scale ``stop_scale`` in ``steps`` steps."""
    if not 0 < stop_scale <= 1:
        raise ValueError("stop scale must lie in (0, 1]")
    if steps < 1:
        raise ValueError("need at least one step")
    if grad_samples < 1:
        raise ValueError(f"need at least one gradient sample, got {grad_samples}")
    program = build_slot_program(instance, outer)
    nv = len(program.variables)
    delta = stop_scale / steps
    items = np.array([i for i, _ in program.variables], dtype=np.int64)
    x = np.zeros(nv)
    answer = None

    def marginals_of(values):
        out = np.zeros(np.shape(values)[:-1] + (instance.n,))
        out[..., items] = values  # one column per item
        return out

    k = 0
    if not nv:  # nothing to schedule: no gains, no LP, and x stays 0
        k = steps
        if history is not None:
            history.extend(np.zeros(instance.n) for _ in range(steps))
    while k < steps:
        # row j is x after j more steps along the last answer, by repeated addition:
        # the bits of x = x + delta * answer.values taken step by step. The first
        # step has no answer to ride
        if answer is None:
            path = x[None]
        else:
            path = np.empty((steps - k + 1, nv))
            path[0] = x
            path[1:] = delta * answer.values
            np.add.accumulate(path, axis=0, out=path)  # np.cumsum without its wrapper
        # every answer holds the box to within lp.ROW_TOL, and its float dust is
        # clipped here: estimate_marginal_gains rejects marginals further out
        rows = marginals_of(path[: steps - k])
        np.minimum(np.maximum(rows, 0.0, out=rows), 1.0, out=rows)
        stream = ("step", k)
        gains, _ = estimate_marginal_gains(instance, f, rows, grad_samples, seed, stream=stream)
        objectives = gains[:, items]
        # the answer rides over the leading rows it is certified for, a lone row
        # included; the first failing row is solved afresh
        taken = 0
        if answer is not None:
            try:
                certify_optimal(objectives, program.row_coeffs, program.row_bounds,
                                answer.values, answer.basis)
                taken = len(objectives)
            except LpCertificateError as failed:
                taken = failed.index
        # steps k .. k + taken - 1 keep the answer
        if history is not None:
            history.extend(marginals_of(path[1 : taken + 1]))
        x = path[taken]
        k += taken
        if taken < len(objectives):
            answer = solve_lp(program, objectives[taken])
            x = x + delta * answer.values
            k += 1
            if history is not None:
                history.append(marginals_of(x))

    marginals = marginals_of(x)
    # float dust above 1 is renormalized away; anything larger is a solver bug
    for i in np.nonzero(marginals > 1.0)[0]:
        if marginals[i] > 1.0 + MARGINAL_TOL:
            raise AssertionError(f"marginal of item {i} exceeds 1: {marginals[i]!r}")
        x[items == i] /= marginals[i]
        marginals[i] = 1.0

    return SlotSolution(
        n=instance.n,
        budget=instance.budget,
        entries=solution_entries(program.variables, x),
        stop_scale=stop_scale,
        steps=steps,
        grad_samples=grad_samples,
        seed=seed,
    )


def certify_solution(
    instance: Instance, outer: OuterConstraint, sol: SlotSolution, scale: float
) -> CertificationReport:
    """Check every solution invariant at the given scale, with CERT_TOL slack.

    The first row, ``entries-in-range``, is :func:`check_solution_shape`; a
    solution that fails it does not fit the instance, and the report holds
    that row alone. That row already holds each item's one value, its mass,
    to at most 1 + ``MARGINAL_TOL`` at any scale, so there is no per-item
    cap row. Outer rows must hold at scale * bound and time rows at
    scale * 2t, built by :func:`lp.slot_rows` over the solution's own items
    and slots. Report-only: never raises for a failing row.

    Each row's lhs sums its coefficient times the item's value over the
    items in increasing order, one at a time, so a time row equals a
    slot-by-slot accumulation in item order bit for bit.
    """
    try:
        check_solution_shape(instance, sol)
    except ValueError:
        return CertificationReport(scale=scale, rows=(("entries-in-range", 0.0, 1.0, False),),
                                   passed=False)
    rows: list[tuple[str, float, float, bool]] = [("entries-in-range", 1.0, 1.0, True)]
    labels, coeffs, bounds = slot_rows(instance, polytope_inequalities(outer), sol.support,
                                       sol.slots)
    # one C-contiguous row per item: the sum along axis 0 adds the items in order
    terms = np.ascontiguousarray(coeffs.T) * sol.marginals[sol.support, None]
    for (kind, r), lhs, bound in zip(labels, terms.sum(axis=0).tolist(), bounds.tolist()):
        bound *= scale
        label = f"outer[{r}]" if kind == "outer" else f"time[{r}]"
        rows.append((label, lhs, bound, bool(lhs <= bound + CERT_TOL)))

    passed = all(r[3] for r in rows)
    return CertificationReport(scale=scale, rows=tuple(rows), passed=passed)


def solution_to_json(sol: SlotSolution) -> str:
    doc = {
        "meta": {
            "l": sol.stop_scale,
            "T": sol.steps,
            "seed": sol.seed,
            "grad_samples": sol.grad_samples,
            "n": sol.n,
            "budget": sol.budget,
        },
        "x": [
            {"i": i + 1, "t": t, "value": v}
            for i, t, v in sorted(sol.entries)
        ],
    }
    return json.dumps(doc) + "\n"


def solution_from_json(text: str) -> SlotSolution:
    """Parse a solution document; integer fields must be integral, never truncated.

    Raises :class:`InvalidInputError` naming the field for a non-integral
    count, seed, item or slot, a non-numeric scale or value, a slot below 1
    or a value outside [0, 1] (NaN included), and naming the item for one
    outside 1..n or listed twice (:class:`SlotSolution`). Whether a slot
    lies within its item's slot count depends on the instance:
    :func:`check_solution_shape` checks it.
    """
    doc = json.loads(text)
    meta = doc["meta"]
    n = as_int(meta["n"], "meta.n")
    entries = []
    for j, e in enumerate(doc["x"]):
        i = as_int(e["i"], f"x[{j}].i")
        t = as_int(e["t"], f"x[{j}].t")
        if t < 1:
            raise InvalidInputError(f"x[{j}].t must be at least 1, got {t}")
        v = float(json_number(e["value"], f"x[{j}].value"))
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"x[{j}].value must lie in [0, 1], got {v!r}")
        entries.append((i - 1, t, v))
    return SlotSolution(
        n=n,
        budget=as_int(meta["budget"], "meta.budget"),
        entries=tuple(entries),
        stop_scale=float(json_number(meta["l"], "meta.l")),
        steps=as_int(meta["T"], "meta.T"),
        grad_samples=as_int(meta.get("grad_samples", 0), "meta.grad_samples"),
        seed=as_int(meta["seed"], "meta.seed"),
    )


def save_solution(sol: SlotSolution, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(sol))


def load_solution(path) -> SlotSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return solution_from_json(fh.read())
