"""Benchmark workloads: seeded instance families and the size of every phase.

Every workload runs the same four-phase pass (solve, simulate, keep rates,
ratio), so every end-to-end metric exists on every workload. What differs is
the instance family and the phase sizes, chosen so that a different layer
dominates each workload's time; ``README.md`` gives the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stochsubmax import constraints, generators
from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage
from stochsubmax.model import Instance, ItemModel, save_instance

# SeedSequence tags, so that the families of one workload seed draw independent streams
FAMILY_TAG = 1
DESK_TAG = 2

# Fixed ratio settings for the desk instances (the oracle guard allows n <= 5, B <= 3)
RATIO_STEPS = 25
RATIO_GRAD_SAMPLES = 1500
# The ratio set of every workload is the first DESK_COUNT desk instances
DESK_COUNT = 20
DESK_FAMILIES = ("modular", "concave", "coverage")
DESK_KINDS = ("cardinality", "partition")


def _probs(rng: np.random.Generator, B: int) -> tuple[float, ...]:
    p = rng.uniform(0.1, 1.0, size=B)
    p = p / p.sum()
    return tuple(float(x) for x in p)


def _costs(rng: np.random.Generator, B: int, top: int) -> tuple[int, ...]:
    return tuple(sorted(int(c) for c in rng.integers(1, top + 1, size=B)))


def _weights(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(w) for w in np.round(rng.uniform(0.5, 2.0, size=n), 3))


def lp_bound_instance(rng: np.random.Generator) -> Instance:
    """n=40, B=3, budget=30, at most 10 items, sqrt concave-over-modular utility.

    Worst costs up to 11 leave about 21 start slots per item: about 850
    variables over 71 rows, so one Bland solve takes hundreds of pivots.
    Bland solve times have a heavy tail across instances, and it grows with
    the program: the interquartile range of one-step solve times over 30
    instances is 0.29 of their median at budget 30 but 0.65 at budget 60.
    Many smaller programs therefore give a far steadier median solve time
    per second spent than a few larger ones.
    """
    n, B = 40, 3
    return Instance(
        n=n,
        B=B,
        budget=30,
        items=tuple(ItemModel(_probs(rng, B), _costs(rng, B, 11)) for _ in range(n)),
        outer=constraints.cardinality(n, 10),
        utility=ConcaveOverModular(weights=_weights(rng, n), curve="sqrt"),
    )


def gradient_bound_instance(rng: np.random.Generator) -> Instance:
    """n=30, B=3, budget=12, 4-block partition, threshold coverage over 64 elements.

    Worst costs of 2 give every item 10 slots: a 300 x 46 program that solves
    in a few pivots, while each gradient sample evaluates the coverage utility
    2n times.
    """
    n, B, m = 30, 3, 64
    blocks = [list(range(b, n, 4)) for b in range(4)]
    return Instance(
        n=n,
        B=B,
        budget=12,
        items=tuple(ItemModel(_probs(rng, B), _costs(rng, B, 2)) for _ in range(n)),
        outer=constraints.partition(n, blocks, [2] * 4),
        utility=ThresholdCoverage(
            rates=tuple(int(r) for r in rng.integers(1, 22, size=n)),
            element_weights=tuple(float(w) for w in np.round(rng.uniform(0.2, 1.5, size=m), 3)),
        ),
    )


def desk_instance(sub: int, index: int) -> Instance:
    """Desk draw ``sub`` (a ``generators.random_instance`` seed) for desk slot ``index``.

    An oracle-sized instance: n<=5, B<=3, budget<=10, all schedulable,
    outer constraint ``DESK_KINDS[index % 2]`` and utility family
    ``DESK_FAMILIES[index % 3]``.
    """
    return generators.random_instance(
        sub,
        n_max=5,
        B_max=3,
        budget_max=10,
        kinds=(DESK_KINDS[index % 2],),
        families=(DESK_FAMILIES[index % 3],),
        all_schedulable=True,
    )


def desk_draws(seed: int, count: int) -> list[int]:
    """The draw of each of the first ``count`` desk slots.

    Draws are stratified so that every seed's desk set has the same mix:
    slot ``index`` takes the first draw with n = 1 + index % 5,
    B = 1 + (index // 5) % 3 and budget = 2 + 4 * index % 9. Cost per
    instance grows steeply with n, B and budget, and utility scales differ by
    family; an unstratified set of 20 varies by about 15% in total work and
    by about 30% in mean utility from seed to seed. The search rejects about
    135 draws per slot, a seed-dependent amount of the benchmark's own work,
    so it runs before set-up is timed.
    """
    draws = []
    for index in range(count):
        want = (1 + index % 5, 1 + (index // 5) % 3, 2 + 4 * index % 9)
        for attempt in range(10_000):
            entropy = np.random.SeedSequence([seed, DESK_TAG, index, attempt])
            sub = int(entropy.generate_state(1)[0])
            instance = desk_instance(sub, index)
            if (instance.n, instance.B, instance.budget) == want:
                draws.append(sub)
                break
        else:
            raise RuntimeError(f"no desk draw with (n, B, budget) = {want}")
    return draws


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``family`` builds the solve set; ``None`` means the solve set is made of
    desk instances too. Each simulate and keep op runs ``repeats`` times per
    pass, spread over it, so that its median time rests on enough moments of
    the run even when the solve set is small.
    """

    name: str
    family: Callable[[np.random.Generator], Instance] | None
    count: int
    steps: int
    grad_samples: int
    sim_runs: int
    keep_trials: int
    ratio_runs: int
    repeats: int = 1
    check_lp: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-large",
            family=lp_bound_instance,
            count=24,
            steps=1,
            grad_samples=500,
            sim_runs=700,
            keep_trials=70,
            ratio_runs=500,
            check_lp=True,
        ),
        Workload(
            name="solve-gradient",
            family=gradient_bound_instance,
            count=8,
            steps=2,
            grad_samples=20000,
            sim_runs=700,
            keep_trials=80,
            ratio_runs=500,
            repeats=3,
        ),
        Workload(
            name="desk-ratio",
            family=None,
            count=60,
            steps=RATIO_STEPS,
            grad_samples=RATIO_GRAD_SAMPLES,
            sim_runs=500,
            keep_trials=250,
            ratio_runs=5000,
        ),
    )
}


def desk_slots(workload: Workload) -> int:
    """Number of desk instances the workload writes."""
    return workload.count if workload.family is None else DESK_COUNT


def generate(
    workload: Workload, seed: int, draws: list[int], dest: Path
) -> tuple[list[Path], list[Path]]:
    """Write the workload's instance files under ``dest``; return (solve set, ratio set).

    ``draws`` are the workload's ``desk_draws``. The ratio set is the first
    ``DESK_COUNT`` desk instances. Without a family, the solve set is every
    desk instance.
    """
    dest.mkdir(parents=True, exist_ok=True)
    desk = []
    for j, sub in enumerate(draws):
        path = dest / f"desk-{j:02d}.json"
        save_instance(desk_instance(sub, j), path)
        desk.append(path)
    if workload.family is None:
        return desk, desk[:DESK_COUNT]
    solve = []
    for j in range(workload.count):
        rng = np.random.default_rng([seed, FAMILY_TAG, j])
        path = dest / f"{workload.name}-{j:02d}.json"
        save_instance(workload.family(rng), path)
        solve.append(path)
    return solve, desk
