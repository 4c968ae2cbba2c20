"""Measured continuous greedy over the time-indexed relaxation.

Starting from x = 0, the solver repeatedly estimates each item's expected
marginal gain under the current marginals, maximizes the resulting linear
objective over the (unscaled) relaxation rows, and advances x by step l/T
along the optimal vertex. After T steps the accumulated solution satisfies
every outer row at scale l and every time row at scale l (the directions are
feasible for the unscaled rows and the steps sum to l), which is exactly what
:func:`certify_solution` checks.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constraints import OuterConstraint, polytope_inequalities
from .lp import build_slot_program, solve_lp
from .model import Instance, expected_truncated_cost, sample_realization_batch
from .parallel import combine_mean_se, map_blocks, split_blocks
from .seeds import derive_rng, stream_entropy

MARGINAL_TOL = 1e-9
CERT_TOL = 1e-7
# LP values at or below this are float dust on basic variables that are 0 in
# exact arithmetic; they are dropped from solutions
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class SlotSolution:
    """Fractional start-slot solution: entries (item, slot, value) plus marginals."""

    n: int
    budget: int
    entries: tuple[tuple[int, int, float], ...]
    marginals: np.ndarray
    stop_scale: float
    steps: int
    grad_samples: int
    seed: int

    @cached_property
    def slot_lists(self) -> tuple:
        """Per item: (slots tuple, values tuple) over its nonzero entries."""
        per_item: list[tuple[list[int], list[float]]] = [([], []) for _ in range(self.n)]
        for i, t, v in self.entries:
            per_item[i][0].append(t)
            per_item[i][1].append(v)
        return tuple((tuple(ts), tuple(vs)) for ts, vs in per_item)

    @cached_property
    def slot_cum(self) -> tuple:
        """Per item: cumulative slot probabilities (normalized by the marginal)."""
        out = []
        for i in range(self.n):
            ts, vs = self.slot_lists[i]
            total = self.marginals[i]
            if not ts or total <= 0:
                out.append(np.zeros(0))
            else:
                out.append(np.cumsum(np.asarray(vs) / total))
        return tuple(out)

    def slot_at(self, item: int, u: float) -> int:
        """Inverse-CDF start slot of ``item`` at the uniform ``u``: slot t has probability value/marginal."""
        ts, _ = self.slot_lists[item]
        if not ts:
            raise ValueError(f"item {item} has no slot mass")
        pos = int(np.searchsorted(self.slot_cum[item], u, side="right"))
        return ts[min(pos, len(ts) - 1)]

    def sample_slot(self, item: int, rng: np.random.Generator) -> int:
        """Draw a start slot for ``item`` with probability value/marginal."""
        return self.slot_at(item, rng.random())

    def sample_slots(self, u, mask) -> np.ndarray:
        """:meth:`slot_at` on a block: column i of the (R, n) uniforms ``u`` draws item i's slots.

        Items with no slot mass get slot 0; an entry of the (R, n) ``mask`` set
        on such an item raises, as :meth:`slot_at` does.
        """
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=np.int64)
        for i, (ts, _) in enumerate(self.slot_lists):
            if not ts:
                if np.any(mask[:, i]):
                    raise ValueError(f"item {i} has no slot mass")
                continue
            pos = np.searchsorted(self.slot_cum[i], u[:, i], side="right")
            out[:, i] = np.asarray(ts)[np.minimum(pos, len(ts) - 1)]
        return out


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
        return json.dumps(doc, indent=2) + "\n"


def _gain_block(instance, f, x, seed, block):
    b, size = block
    rng = derive_rng(seed, "gain", b)
    coins = rng.random((size, instance.n)) < x
    states = sample_realization_batch(instance, rng, size)
    base = np.where(coins, states, 0)
    sums = np.zeros(instance.n)
    sumsqs = np.zeros(instance.n)
    for i in range(instance.n):
        with_i = base.copy()
        with_i[:, i] = states[:, i]
        without_i = base.copy()
        without_i[:, i] = 0
        gains = np.asarray(f.value_batch(with_i), dtype=float) - np.asarray(
            f.value_batch(without_i), dtype=float
        )
        sums[i] = gains.sum()
        sumsqs[i] = (gains * gains).sum()
    return size, sums, sumsqs


def estimate_marginal_gains(
    instance: Instance, f, marginals, samples: int, seed: int, workers: int = 1
):
    """Per-item expected gain of adding the item to a random set drawn from the marginals.

    Returns (gains, standard errors), each an (n,) array. The estimate is a
    deterministic function of (inputs, seed, workerCount).
    """
    x = np.clip(np.asarray(marginals, dtype=float), 0.0, 1.0)
    fn = functools.partial(_gain_block, instance, f, x, seed)
    return combine_mean_se(map_blocks(fn, split_blocks(samples), workers))


def solution_entries(variables, x, n: int):
    """Entries (item, slot, value) of the values above ENTRY_TOL, and the marginals they sum to."""
    entries = tuple(
        (int(i), int(t), float(v)) for (i, t), v in zip(variables, x) if v > ENTRY_TOL
    )
    marginals = np.zeros(n)
    for i, _, v in entries:
        marginals[i] += v
    return entries, marginals


def run_continuous_greedy(
    instance: Instance,
    f,
    outer: OuterConstraint,
    stop_scale: float,
    steps: int = 50,
    grad_samples: int = 10**4,
    seed: int = 0,
    workers: int = 1,
    history: list | None = None,
) -> SlotSolution:
    """Solve the relaxation up to stopping scale ``stop_scale`` in ``steps`` steps."""
    if not 0 < stop_scale <= 1:
        raise ValueError("stop scale must lie in (0, 1]")
    if steps < 1:
        raise ValueError("need at least one step")
    program = build_slot_program(instance, outer)
    nv = len(program.variables)
    delta = stop_scale / steps
    x = np.zeros(nv)
    item_of_var = np.array([i for i, _ in program.variables], dtype=np.int64)

    for k in range(steps):
        marginals = np.zeros(instance.n)
        np.add.at(marginals, item_of_var, x)
        gains, _ = estimate_marginal_gains(
            instance, f, marginals, grad_samples, stream_entropy(seed, "step", k), workers
        )
        objective = gains[item_of_var] if nv else np.zeros(0)
        direction = solve_lp(program, objective).values if nv else np.zeros(0)
        x = x + delta * direction
        if history is not None:
            snap = np.zeros(instance.n)
            np.add.at(snap, item_of_var, x)
            history.append(snap)

    marginals = np.zeros(instance.n)
    np.add.at(marginals, item_of_var, x)
    # float dust above 1 is renormalized away; anything larger is a solver bug
    for i in np.nonzero(marginals > 1.0)[0]:
        if marginals[i] > 1.0 + MARGINAL_TOL:
            raise AssertionError(f"marginal of item {i} exceeds 1: {marginals[i]!r}")
        x[item_of_var == i] /= marginals[i]
        marginals[i] = 1.0

    entries, marginals = solution_entries(program.variables, x, instance.n)
    return SlotSolution(
        n=instance.n,
        budget=instance.budget,
        entries=entries,
        marginals=marginals,
        stop_scale=stop_scale,
        steps=steps,
        grad_samples=grad_samples,
        seed=seed,
    )


def certify_solution(
    instance: Instance, outer: OuterConstraint, sol: SlotSolution, scale: float
) -> CertificationReport:
    """Check every solution invariant at the given scale, with CERT_TOL slack.

    Outer rows must hold at scale * bound, time rows at scale * 2t; per-item
    mass stays capped at 1 regardless of scale. Report-only: never raises for
    a failing row.
    """
    rows: list[tuple[str, float, float, bool]] = []
    slots = instance.slot_counts
    sums = np.zeros(instance.n)
    ok_entries = True
    for i, t, v in sol.entries:
        sums[i] += v
        if not (0 <= i < instance.n) or not (1 <= t <= int(slots[i])) or not (
            -MARGINAL_TOL <= v <= 1 + MARGINAL_TOL
        ):
            ok_entries = False
    rows.append(("entries-in-range", float(ok_entries), 1.0, ok_entries))

    drift = float(np.max(np.abs(sums - sol.marginals))) if instance.n else 0.0
    rows.append(("marginal-consistency", drift, MARGINAL_TOL, bool(drift <= MARGINAL_TOL)))

    for i in range(instance.n):
        lhs = float(sums[i])
        rows.append((f"item-cap[{i + 1}]", lhs, 1.0, bool(lhs <= 1.0 + CERT_TOL)))

    for r, (a, b) in enumerate(polytope_inequalities(outer)):
        lhs = float(a @ sums)
        bound = scale * float(b)
        rows.append((f"outer[{r}]", lhs, bound, bool(lhs <= bound + CERT_TOL)))

    prefix = np.zeros(instance.n)
    by_time: dict[int, list[tuple[int, float]]] = {}
    for i, t, v in sol.entries:
        by_time.setdefault(t, []).append((i, v))
    for t in range(1, instance.budget + 1):
        for i, v in by_time.get(t, []):
            prefix[i] += v
        lhs = sum(
            expected_truncated_cost(instance.items[i], t) * prefix[i]
            for i in range(instance.n)
            if prefix[i] > 0
        )
        bound = scale * 2.0 * t
        rows.append((f"time[{t}]", float(lhs), bound, bool(lhs <= bound + CERT_TOL)))

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
    return json.dumps(doc, indent=2) + "\n"


def solution_from_json(text: str) -> SlotSolution:
    doc = json.loads(text)
    meta = doc["meta"]
    n = int(meta["n"])
    entries = tuple(
        (int(e["i"]) - 1, int(e["t"]), float(e["value"])) for e in doc["x"]
    )
    marginals = np.zeros(n)
    for i, _, v in entries:
        marginals[i] += v
    return SlotSolution(
        n=n,
        budget=int(meta["budget"]),
        entries=entries,
        marginals=marginals,
        stop_scale=float(meta["l"]),
        steps=int(meta["T"]),
        grad_samples=int(meta.get("grad_samples", 0)),
        seed=int(meta["seed"]),
    )


def save_solution(sol: SlotSolution, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_json(sol))


def load_solution(path) -> SlotSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return solution_from_json(fh.read())
