"""In-memory tracing from the benchmark's own files; no program file changes.

While installed, the tracer rebinds public names that the calling modules
import (``greedy.solve_lp``, ``rounding.is_independent``, ...) to wrappers and
restores them on exit. Utility oracles and CRS objects are wrapped in counting
proxies. Coarse calls become spans ``[name, start, end, parent, run]`` kept in
memory; high-frequency calls (utility evaluations, independence checks, CRS
resolutions) only add to counters and busy time, so tracing stays cheap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from stochsubmax import greedy, lattice, oracle, policy, rounding
from stochsubmax.lattice import UtilityOracle

perf = time.perf_counter


class Tracer:
    """Spans, counters and busy time of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()  # seconds
        self._stack: list[int] = []
        self._runs = 0

    @contextmanager
    def span(self, name: str):
        """A span; a top-level span starts a new run id that its children share."""
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._runs += 1
            run = self._runs
        else:
            run = self.spans[parent][4]
        record = [name, perf(), None, parent, run]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = perf()
            self._stack.pop()

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def counted(self, fn, key):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _selected(self, name: str, root: str | None) -> list[int]:
        """Indices of ``name`` spans, only those under a top-level ``root`` span if given."""
        roots: list[str] = []
        for s in self.spans:  # a parent always precedes its children
            roots.append(s[0] if s[3] < 0 else roots[s[3]])
        return [
            idx for idx, s in enumerate(self.spans)
            if s[0] == name and (root is None or roots[idx] == root)
        ]

    def durations(self, name: str, root: str | None = None) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self._selected(name, root)]

    def self_times(self, name: str, root: str | None = None) -> list[float]:
        """Duration of each ``name`` span minus its direct children's durations."""
        children = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        return [
            self.spans[i][2] - self.spans[i][1] - children[i]
            for i in self._selected(name, root)
        ]


class CountingOracle(UtilityOracle):
    """Utility oracle proxy counting ``value`` calls and ``value_batch`` rows."""

    def __init__(self, inner: UtilityOracle, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.family = inner.family

    @property
    def n(self) -> int:
        return self.inner.n

    def params(self) -> dict:
        return self.inner.params()

    def value(self, u) -> float:
        start = perf()
        out = self.inner.value(u)
        self.tracer.busy["lattice"] += perf() - start
        self.tracer.counts["lattice.value_calls"] += 1
        return out

    def value_batch(self, states):
        start = perf()
        out = self.inner.value_batch(states)
        self.tracer.busy["lattice"] += perf() - start
        self.tracer.counts["lattice.value_batch_rows"] += len(states)
        return out


class CountingCrs:
    """CRS proxy counting resolutions, sampled items and kept items."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _tally(self, members, kept):
        self.tracer.counts["rounding.sampled"] += len(members)
        self.tracer.counts["rounding.kept"] += len(kept)
        return kept

    def keep(self, outer, members, priorities):
        return self._tally(members, self.inner.keep(outer, members, priorities))

    def resolve(self, outer, members, rng):
        return self._tally(members, self.inner.resolve(outer, members, rng))


def _lp_after(tracer):
    def after(result, args, kwargs):
        tracer.counts["lp.pivots"] += result.iterations

    return after


def _trials_after(tracer, key_of):
    def after(result, args, kwargs):
        key = key_of(args, kwargs)
        tracer.counts[key + ".trials"] += kwargs["trials"]

    return after


def _state_keep_name(args, kwargs):
    return "rounding.state_keep." + (args[0] if args else kwargs["mapping"])


def _blocks_counter(tracer, fn):
    @functools.wraps(fn)
    def counting(fn_, blocks, workers=1):
        tracer.counts["parallel.blocks"] += len(blocks)
        return fn(fn_, blocks, workers)

    return counting


def _patches(tracer: Tracer):
    """(module, name, replacement) for every rebinding the tracer installs."""
    t = tracer
    make_utility = lattice.make_utility
    balanced_crs = rounding.BalancedCrs
    out = [
        (greedy, "run_continuous_greedy", t.wrap(greedy.run_continuous_greedy, "greedy.run")),
        (greedy, "certify_solution", t.wrap(greedy.certify_solution, "greedy.certify")),
        (greedy, "estimate_marginal_gains", t.wrap(greedy.estimate_marginal_gains, "greedy.gain")),
        (greedy, "solve_lp", t.wrap(greedy.solve_lp, "lp.solve", _lp_after(t))),
        (greedy, "build_slot_program", t.wrap(greedy.build_slot_program, "lp.build")),
        (oracle, "optimal_policy_value", t.wrap(oracle.optimal_policy_value, "oracle")),
        (policy, "simulate_batch", t.wrap(policy.simulate_batch, "policy.simulate")),
        (
            rounding,
            "estimate_set_keep_rate",
            t.wrap(
                rounding.estimate_set_keep_rate,
                "rounding.set_keep",
                _trials_after(t, lambda a, k: "rounding.set_keep"),
            ),
        ),
        (
            rounding,
            "estimate_state_keep_rates",
            t.wrap(
                rounding.estimate_state_keep_rates,
                _state_keep_name,
                _trials_after(t, _state_keep_name),
            ),
        ),
        (lattice, "make_utility", lambda *a, **k: CountingOracle(make_utility(*a, **k), t)),
        (rounding, "BalancedCrs", lambda *a, **k: CountingCrs(balanced_crs(*a, **k), t)),
    ]
    for module in (rounding, policy, oracle):
        counted = t.counted(module.is_independent, "constraints.is_independent_calls")
        out.append((module, "is_independent", counted))
    for module in (greedy, policy, rounding):
        out.append((module, "map_blocks", _blocks_counter(t, module.map_blocks)))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the duration of the block, then restore them."""
    patches = _patches(tracer)
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def tail_percentile(values: list[float]) -> tuple[float, str]:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return statistics.quantiles(values, n=100, method="inclusive")[p - 1], f"p{p}"
    return statistics.median(values), "p50"

