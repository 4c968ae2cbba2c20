"""Built-in utility families on integer-lattice state vectors, and exhaustive checkers.

A state vector assigns each item an integer level in {0, ..., B}; level 0 means
"not selected". Utilities map state vectors to nonnegative reals and are expected
to be monotone and to have diminishing returns along coordinates (checked
exhaustively at desk scale by :func:`check_monotone` and
:func:`check_lattice_submodular`).

A rounding block holds only the states of the solution's support items.
``value_batch_at(states, columns)`` evaluates such a block, every other item
at 0: the three families in closed form on those columns (the weights or
rates of ``columns``, built once per oracle as read-only arrays), and any
other utility by ``value_batch`` on the block scattered to width n
(:func:`scatter_columns`, which every module that needs width n calls).

The continuous greedy needs every item's expected marginal gain at the current
marginals. ``WeightedModular`` and ``ThresholdCoverage`` compute it exactly
in closed form (``expected_gains``). ``ConcaveOverModular`` has none; it
computes the gains exactly by enumerating the items' joint levels wherever
those number no more than the samples an estimate would draw, and otherwise
they are estimated from sampled blocks through ``gains_batch``.

``expected_gains`` also takes a (K, n) stack of marginals, the greedy's
remaining steps along one direction, and gives each row the same bits as a
one-row call: the modular gains broadcast, the coverage closed form runs
over a leading axis, and the concave enumeration shares its atoms and their
level gains, which do not depend on the marginals, across the rows whose
levels of positive probability agree; only the atom masses differ, and each
row takes one matrix-vector product with them. The enumeration gives the
leading rows whose atoms number at most the samples, and None where the
first row's do not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, InvalidInputError, as_ints, cached_array, required
from .parallel import BLOCK_SIZE

ENUM_GUARD = 10**6
# row length from which _sums_without adds whole rows in a loop rather than
# accumulating along the strided item axis
_LOOP_ROWS = 128
# most atom masses ConcaveOverModular.expected_gains gathers at once for a stack
_STACK_VALUES = 2**20

# value_batch_at's columns for a block of all n items
_ALL_COLUMNS = slice(None)

FAMILY_MODULAR = "weighted-modular"
FAMILY_CONCAVE = "concave-over-modular"
FAMILY_COVERAGE = "weighted-coverage-by-threshold"


def _is_number(value) -> bool:
    """True for an int or float, Python or numpy, and False for a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_weights(values, name: str):
    """Reject the first entry that is not a finite nonnegative number, naming it ``name[j]``."""
    for j, w in enumerate(values):
        # NaN fails every comparison, so the chained test also rejects it
        if not (_is_number(w) and 0 <= w < math.inf):
            raise InvalidInputError(f"{name}[{j}] must be a finite nonnegative number, got {w!r}")


def scatter_columns(block, support, n: int) -> np.ndarray:
    """The (R, n) array holding the (R, n_s) ``block`` in the ``support`` columns, 0 elsewhere."""
    block = np.asarray(block)
    out = np.zeros((len(block), n), dtype=block.dtype)
    out[:, support] = block
    return out


def _weighted_columns(weights, states) -> np.ndarray:
    """The (n, R) C-contiguous array ``weights[i] * states[r, i]``."""
    out = np.empty(np.shape(states)[::-1])
    out[:] = np.asarray(states).T
    out *= weights[:, None]
    return out


def _sums_without(share) -> np.ndarray:
    """Each row's sum over every item but i, from the (n, R) ``share`` of
    :func:`_weighted_columns`: the exclusive prefix plus the exclusive suffix,
    so no sum is ever subtracted from a larger one. Both run from 0.0 and add
    one item's row at a time, in item order and in reverse. Short rows take
    two cumulative sums (``np.add.accumulate``) along axis 0, whatever n;
    from ``_LOOP_ROWS`` values on, a loop adds whole contiguous rows instead,
    2n calls that beat the strided cumulative sum there. Both make the same
    additions in the same order, so the sums agree bit for bit."""
    n, rows = share.shape
    if rows < _LOOP_ROWS:
        without = np.zeros((n, rows))
        without[1:] = share[:-1]
        np.add.accumulate(without, axis=0, out=without)
        suffix = np.zeros((n, rows))
        suffix[:-1] = share[1:]
        backward = suffix[::-1]
        np.add.accumulate(backward, axis=0, out=backward)
        # suffix[n - 1] is 0.0, and a prefix from 0.0 is never -0.0, so the last row keeps its bits
        without += suffix
        return without
    without = np.empty(share.shape)
    without[:1] = 0.0
    for i in range(1, n):
        np.add(without[i - 1], share[i - 1], out=without[i])
    suffix = np.zeros(rows)
    for i in range(n - 2, -1, -1):
        suffix += share[i + 1]
        without[i] += suffix
    return without


class UtilityOracle:
    """Deterministic nonnegative utility on state vectors.

    Subclasses are immutable after construction. ``value_batch`` evaluates a
    (N, n) array of state vectors row by row, within 2 n eps f(row) of
    ``value`` (eps = 2^-52): a matrix product may add a weighted sum's n
    nonnegative terms in another order than ``value``'s dot product, and in
    another for another number of rows; ``sqrt`` and ``min(., theta)`` keep
    that relative gap. ``ThresholdCoverage`` agrees exactly.

    ``value_batch_at(states, columns)`` evaluates a block that holds only
    some items' states: row r of the (R, m) ``states`` gives items
    ``columns`` (increasing ids) their levels, and every other item is at 0.
    The default scatters the block to width n and calls ``value_batch``, so
    a subclass that defines only ``value_batch`` keeps its bits. The
    built-in families evaluate the block at its own width, within the same
    2 n eps f(row) of ``value_batch`` on the scattered rows, and
    ``ThresholdCoverage`` exactly; their ``value_batch`` is
    ``value_batch_at`` on all n columns.

    ``gains_batch(base, top, on)`` returns every item's marginal gain on every
    row: the (R, n) array ``f(base with i at top[:, i]) - f(base with i at 0)``.
    ``base`` holds ``top`` where the (R, n) mask ``on`` is set and 0 elsewhere.
    The result is the transpose of a new C-contiguous (n, R) array, so item
    i's gains ``out.T[i]`` lie in contiguous memory. Only the sampled gains
    call it, for a family whose ``expected_gains`` returns None.
    ``ConcaveOverModular``, the one built-in family that can, overrides it
    with a closed form in O(R n) that evaluates the two linear sums of each
    gain without the n + 1 sweep, in another order than ``value_batch``.
    Each sum adds at most n nonnegative terms, none of them larger than the
    row's total at ``top``, T_r = sum_j w_j top[r, j], so on row r they agree
    with the two-evaluation gains ``f(with i) - f(without i)`` to within
    4 (n + 1) eps g(T_r) (eps = 2^-52).
    """

    family: str = ""

    def value(self, u) -> float:
        raise NotImplementedError

    def expected_gains(self, probs, x, samples: int):
        """Every item's exact expected marginal gain at marginals ``x``, or None.

        Item i's gain is ``E[f(S with i at its state) - f(S with i at 0)]``:
        the random set S holds each other item j with probability ``x[j]``,
        at a state drawn from row j of the (n, B) state probabilities
        ``probs``, and item i's own state is drawn from row i. This is the
        gradient that ``greedy.estimate_marginal_gains`` estimates, from
        ``samples`` draws where this returns None. Families that can compute
        it exactly at no more cost than those draws return it as an (n,)
        array; the default returns None, "no exact form", and the gains are
        then sampled.

        ``x`` may also be a (K, n) stack of marginals. The result is then a
        (J, n) array, J <= K, whose row k has the same bits as a one-row call
        at ``x[k]``: the leading rows up to the first whose gains would cost
        more than ``samples`` draws, or None if that is the first row.
        """
        return None

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_batch_at(self, states, columns) -> np.ndarray:
        """``value_batch`` on the (R, m) ``states`` of items ``columns``, every other item at 0."""
        return self.value_batch(scatter_columns(states, columns, self.n))

    def gains_batch(self, base, top, on) -> np.ndarray:
        """Every item's gain on every row from n + 1 ``value_batch`` calls.

        One of the two vectors of each gain is the base row itself, so ``f(base)``
        is evaluated once and each item adds one evaluation of the base with
        its column flipped: to 0 where ``on``, to ``top`` elsewhere.
        """
        base = np.asarray(base)
        on = np.asarray(on, dtype=bool)
        at_base = np.asarray(self.value_batch(base), dtype=float)
        flipped = base.copy()
        out = np.empty((base.shape[1], base.shape[0]))
        for i in range(base.shape[1]):
            flipped[:, i] = np.where(on[:, i], 0, top[:, i])
            at_flip = np.asarray(self.value_batch(flipped), dtype=float)
            np.subtract(at_base, at_flip, out=out[i], where=on[:, i])
            np.subtract(at_flip, at_base, out=out[i], where=~on[:, i])
            flipped[:, i] = base[:, i]
        return out.T

    @property
    def n(self) -> int:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class WeightedModular(UtilityOracle):
    """f(u) = sum_i weights[i] * u[i], weights >= 0."""

    weights: tuple[float, ...]
    family = FAMILY_MODULAR

    def __post_init__(self):
        _check_weights(self.weights, "weights")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_array
    def _weights(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    def value(self, u) -> float:
        return float(np.dot(np.asarray(u, dtype=float), self._weights))

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        return self.value_batch_at(states, _ALL_COLUMNS)

    def value_batch_at(self, states, columns) -> np.ndarray:
        return np.asarray(states, dtype=float) @ self._weights[columns]

    def expected_gains(self, probs, x, samples: int) -> np.ndarray:
        """``weights[i] * E[state of i]``, whatever the other items do.

        So only the shape of ``x`` is used: a stack of K marginals gets K
        copies of the same row. ``samples`` is unused too: the closed form
        costs O(n B) at any size.
        """
        probs = np.asarray(probs, dtype=float)
        levels = np.arange(1, probs.shape[1] + 1, dtype=float)
        gains = self._weights * (probs @ levels)
        return np.tile(gains, np.shape(x)[:-1] + (1,))

    def params(self) -> dict:
        return {"weights": list(self.weights)}


@dataclass(frozen=True)
class ConcaveOverModular(UtilityOracle):
    """f(u) = g(sum_i weights[i] * u[i]) with g concave nondecreasing, g(0)=0.

    ``curve`` selects g: "cap" gives g(x) = min(x, theta), "sqrt" gives
    g(x) = sqrt(x).
    """

    weights: tuple[float, ...]
    curve: str = "sqrt"
    theta: float | None = None
    family = FAMILY_CONCAVE

    def __post_init__(self):
        _check_weights(self.weights, "weights")
        if self.curve not in ("cap", "sqrt"):
            raise InvalidInputError(f"curve must be 'cap' or 'sqrt', got {self.curve!r}")
        if self.theta is None and self.curve == "sqrt":
            return
        # NaN fails the comparison, so it is rejected too
        if not (_is_number(self.theta) and self.theta >= 0):
            raise InvalidInputError(
                f"theta must be a number >= 0 (curve 'cap' requires it), got {self.theta!r}"
            )

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_array
    def _weights(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    def _g(self, x):
        if self.curve == "cap":
            return np.minimum(x, self.theta)
        return np.sqrt(x)

    def value(self, u) -> float:
        return float(self._g(np.dot(np.asarray(u, dtype=float), self._weights)))

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        return self.value_batch_at(states, _ALL_COLUMNS)

    def value_batch_at(self, states, columns) -> np.ndarray:
        return self._g(np.asarray(states, dtype=float) @ self._weights[columns])

    def gains_batch(self, base, top, on) -> np.ndarray:
        """Closed form in O(R n): item i gains ``g(without + own) - g(without)``,
        where ``without`` is the base row's weighted sum over the other items
        (:func:`_sums_without`) and ``own`` is ``weights[i] * top[:, i]``."""
        without = _sums_without(_weighted_columns(self._weights, base))
        with_i = _weighted_columns(self._weights, top)
        with_i += without
        gains = self._g(with_i)
        gains -= self._g(without)
        return gains.T

    def expected_gains(self, probs, x, samples: int):
        """Exact gains by enumerating the joint levels, or None if they outnumber ``samples``.

        Item j is at level 0 with probability ``1 - x[j]`` and at level s with
        probability ``x[j] probs[j, s - 1]``; only levels of positive
        probability are enumerated, so there are ``prod_j c_j`` joint levels
        (atoms), c_j being item j's count. If that exceeds ``samples``, the
        draws an estimate would take, this returns None and the gains are
        sampled. Otherwise, on each atom, item i's weighted sum over the other
        items comes from exclusive prefix and suffix sums
        (:func:`_sums_without`), and item i gains
        ``sum_s probs[i, s - 1] (g(without + weights[i] s) - g(without))``,
        averaged over the atoms with their probabilities. Atoms run in blocks
        of at most ``BLOCK_SIZE``, last item fastest, reduced in block order.
        Each gain is a probability-weighted sum of nonnegative differences of
        g at nonnegative sums, as in :meth:`gains_batch`.

        In a (K, n) stack, rows whose levels of positive probability agree
        share the atoms and their level gains, which do not depend on ``x``;
        each row multiplies them by its own atom masses, one matrix-vector
        product per block, as a one-row call does. The stack returns the gains
        of its leading rows up to the first whose atoms outnumber ``samples``,
        and None if that is the first row.
        """
        probs = np.asarray(probs, dtype=float)
        x = np.asarray(x, dtype=float)
        rows = x if x.ndim == 2 else x[None]
        n, B = probs.shape
        level_probs = np.empty((len(rows), n, B + 1))
        level_probs[:, :, 0] = 1.0 - rows
        np.multiply(rows[:, :, None], probs, out=level_probs[:, :, 1:])
        positive = level_probs > 0
        counts = positive.sum(axis=2)
        # a float product: a count past 2^53 rounds, but stays far above any samples
        over = counts.prod(axis=1, dtype=float) > samples
        if over.any():
            cut = over.argmax()
            if cut == 0:
                return None
            rows, level_probs, positive, counts = (
                rows[:cut], level_probs[:cut], positive[:cut], counts[:cut])
        gains = np.empty((len(rows), n))
        left = np.ones(len(rows), dtype=bool)
        while left.any():
            first = left.argmax()
            members = np.flatnonzero(left & (positive == positive[first]).all(axis=(1, 2)))
            left[members] = False
            gains[members] = self._enumerate(
                probs, positive[first], counts[first].tolist(), level_probs[members]
            )
        return gains if x.ndim == 2 else gains[0]

    def _enumerate(self, probs, pattern, counts, level_probs) -> np.ndarray:
        """The gains of the rows sharing ``pattern``, from their (K, n, B + 1) level
        probabilities."""
        n, B = probs.shape
        out = np.zeros((len(level_probs), n))
        count = math.prod(counts)
        # digit d of item j stands for its d-th level of positive probability:
        # flat entry j (B + 1) + d of these tables holds its weighted level and,
        # per row, its probability
        levels = np.argsort(~pattern, axis=1, kind="stable")
        weights = self._weights[:, None]
        shares = (weights * levels).ravel()
        masses = np.take_along_axis(level_probs, levels[None], axis=2).reshape(len(out), -1)
        offsets = np.arange(0, n * (B + 1), B + 1)[:, None]
        # (B, n, 1): item i's own weighted level s and its probability, s = 1..B
        own = weights * np.arange(1, B + 1)[:, None, None]
        chance = probs.T[:, :, None]
        for lo in range(0, count, BLOCK_SIZE):
            # (n, R) digits of atoms lo, lo + 1, ..., the last item's turning fastest
            flat = np.stack(np.unravel_index(np.arange(lo, min(lo + BLOCK_SIZE, count)), counts))
            flat += offsets
            without = _sums_without(shares.take(flat))
            level_gains = self._g(without + own)
            level_gains -= self._g(without)
            level_gains *= chance
            level_sums = level_gains.sum(axis=0)
            # rows in chunks of at most _STACK_VALUES gathered masses; np.matmul
            # over the leading axis takes one matrix-vector product per row. take
            # keeps each row's masses contiguous, as in a one-row call, so that
            # its product runs the same BLAS kernel
            chunk = max(1, _STACK_VALUES // flat.size)
            for r in range(0, len(out), chunk):
                mass = masses[r : r + chunk].take(flat, axis=1).prod(axis=1)
                out[r : r + chunk] += np.matmul(level_sums, mass[:, :, None])[:, :, 0]
        return out

    def params(self) -> dict:
        out = {"weights": list(self.weights), "curve": self.curve}
        if self.theta is not None:
            out["theta"] = self.theta
        return out


@dataclass(frozen=True)
class ThresholdCoverage(UtilityOracle):
    """Prefix coverage of a weighted ground list.

    Item i at level s covers the first ``rates[i] * s`` ground elements; the
    utility is the total weight of all covered elements (the union of the
    per-item prefixes, i.e. the longest one).
    """

    rates: tuple[int, ...]
    element_weights: tuple[float, ...]
    family = FAMILY_COVERAGE

    def __post_init__(self):
        # integral floats such as 2.0 load as 2, so the rates can index the prefix table
        rates = tuple(as_ints(self.rates, "rates"))
        if any(r < 0 for r in rates):
            raise InvalidInputError(f"rates must be nonnegative, got {self.rates!r}")
        object.__setattr__(self, "rates", rates)
        _check_weights(self.element_weights, "element_weights")

    @property
    def n(self) -> int:
        return len(self.rates)

    @cached_array
    def _prefix(self) -> np.ndarray:
        """Covered weight by prefix length: entry l is the weight of the first l elements."""
        w = np.asarray(self.element_weights, dtype=float)
        return np.concatenate([[0.0], np.cumsum(w)])

    @cached_array
    def _rates(self) -> np.ndarray:
        return np.array(self.rates, dtype=np.int64)

    def _lengths(self, states, rates) -> np.ndarray:
        lengths = np.asarray(states) * rates
        return np.minimum(lengths, len(self.element_weights), out=lengths)

    def value(self, u) -> float:
        return float(self._prefix[int(self._lengths(u, self._rates).max(initial=0))])

    def value_batch(self, states: np.ndarray) -> np.ndarray:
        return self.value_batch_at(states, _ALL_COLUMNS)

    def value_batch_at(self, states, columns) -> np.ndarray:
        """The prefix at each row's longest length; a row of no columns covers nothing."""
        return self._prefix[self._lengths(states, self._rates[columns]).max(axis=1, initial=0)]

    def expected_gains(self, probs, x, samples: int) -> np.ndarray:
        """Closed form in O(n (m + B)) over the m ground elements, with no draws.

        Without item i the random set covers the longest of the other items'
        prefixes, M. Item j contributes its length L_j with probability
        ``x[j]`` and 0 otherwise, so P(M <= l) is the product over j != i of
        ``F_j(l) = (1 - x[j]) + x[j] P(L_j <= l)``, built from exclusive
        prefix and suffix products: no factor is divided out, so ``x[j] = 1``
        and zero factors are safe. Item i at length a gains the weights of
        elements M + 1..a, hence
        ``sum_s probs[i, s] sum_{l < a_is} w[l] P(M <= l)``, with ``w[l]`` the
        weight of element l + 1 and ``a_is = min(rates[i] s, m)``: one
        cumulative sum along l per item. Every term of every sum and product
        is nonnegative, so no sum is subtracted from another. ``samples`` is
        unused.

        A (K, n) stack of marginals runs the same steps over a leading axis:
        the products and sums run along the same axes in the same order, so
        each row has a one-row call's bits.
        """
        probs = np.asarray(probs, dtype=float)
        x = np.asarray(x, dtype=float)
        rows = (x if x.ndim == 2 else x[None])[:, :, None]
        n, B = probs.shape
        m = len(self.element_weights)
        lengths = np.minimum(np.outer(self._rates, np.arange(1, B + 1)), m)
        mass = np.zeros((n, m + 1))
        np.add.at(mass, (np.repeat(np.arange(n), B), lengths.ravel()), probs.ravel())
        factors = (1.0 - rows) + rows * np.cumsum(mass, axis=1)[:, :m]
        ones = np.ones((len(rows), 1, m))
        below = np.cumprod(np.concatenate([ones, factors[:, :-1]], axis=1), axis=1)
        above = np.cumprod(np.concatenate([ones, factors[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        covered = np.zeros((len(rows), n, m + 1))
        np.cumsum(below * above * np.asarray(self.element_weights, dtype=float), axis=2,
                  out=covered[:, :, 1:])
        at = np.take_along_axis(covered, lengths[None], axis=2)
        return (probs * at).sum(axis=2).reshape(x.shape)

    def params(self) -> dict:
        return {"rates": list(self.rates), "element_weights": list(self.element_weights)}


def make_utility(descriptor: dict, n: int) -> UtilityOracle:
    """Build a utility oracle from its serialized {family, params} descriptor.

    A value of the wrong kind raises ``InvalidInputError`` naming its field,
    as in the rest of an instance document: ``utility.family``, or the
    family's own message with the ``utility.params.`` prefix
    (``utility.params.weights[0]``, ``utility.params.theta``), and the
    per-item list with both counts when it is not over ``n`` items. A
    descriptor or ``params`` that is not an object is rejected by name too,
    and a missing list raises ``MissingFieldError`` naming it
    (``utility.params.weights``).
    """
    if not isinstance(descriptor, dict):
        raise InvalidInputError(f"utility must be an object, got {descriptor!r}")
    family = descriptor.get("family")
    families = (FAMILY_MODULAR, FAMILY_CONCAVE, FAMILY_COVERAGE)
    if family not in families:
        raise InvalidInputError(
            f"utility.family must be one of {', '.join(map(repr, families))}, got {family!r}"
        )
    params = descriptor.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInputError(f"utility.params must be an object, got {params!r}")

    def listed(key):
        return tuple(required(params, key, f"utility.params.{key}"))

    try:
        if family == FAMILY_MODULAR:
            f = WeightedModular(weights=listed("weights"))
        elif family == FAMILY_CONCAVE:
            f = ConcaveOverModular(
                weights=listed("weights"),
                curve=params.get("curve", "sqrt"),
                theta=params.get("theta"),
            )
        else:
            f = ThresholdCoverage(
                rates=listed("rates"),
                element_weights=listed("element_weights"),
            )
    except InvalidInputError as exc:
        raise InvalidInputError(f"utility.params.{exc}") from None
    if f.n != n:
        key = "rates" if family == FAMILY_COVERAGE else "weights"
        raise InvalidInputError(f"utility.params.{key} is over {f.n} items, instance has {n}")
    return f


def utility_descriptor(f: UtilityOracle) -> dict:
    return {"family": f.family, "params": f.params()}


def _guard(n: int, max_level: int):
    if (max_level + 1) ** n > ENUM_GUARD:
        raise EnumerationLimitError(
            f"(B+1)^n = {(max_level + 1) ** n} exceeds the enumeration guard {ENUM_GUARD}"
        )


def _grid(n: int, max_level: int):
    return itertools.product(range(max_level + 1), repeat=n)


def check_monotone(f: UtilityOracle, n: int, max_level: int):
    """Exhaustively verify f(u) <= f(v) for all comparable u <= v.

    Returns (True, None) or (False, (u, v)) with the first violating pair in
    lexicographic (u, v) order. Refuses when (B+1)^n exceeds the guard.
    """
    _guard(n, max_level)
    values = {u: f.value(np.array(u)) for u in _grid(n, max_level)}
    for u in _grid(n, max_level):
        fu = values[u]
        for v in _grid(n, max_level):
            if all(a <= b for a, b in zip(u, v)) and fu > values[v] + 1e-9:
                return False, (np.array(u), np.array(v))
    return True, None


def check_lattice_submodular(f: UtilityOracle, n: int, max_level: int):
    """Exhaustively verify diminishing returns along coordinates.

    Checks f(u v s*1_i) - f(u) >= f(v v s*1_i) - f(v) for every comparable pair
    u <= v, level s, and coordinate i, with 1e-9 slack for float round-off.
    Returns (True, None) or (False, (u, v, s, i)) with the first violation in
    lexicographic (u, v, s, i) order.
    """
    _guard(n, max_level)
    values = {u: f.value(np.array(u)) for u in _grid(n, max_level)}

    def bumped(u, i, s):
        w = list(u)
        w[i] = max(w[i], s)
        return tuple(w)

    for u in _grid(n, max_level):
        for v in _grid(n, max_level):
            if not all(a <= b for a, b in zip(u, v)):
                continue
            for s in range(max_level + 1):
                for i in range(n):
                    gain_u = values[bumped(u, i, s)] - values[u]
                    gain_v = values[bumped(v, i, s)] - values[v]
                    if gain_u < gain_v - 1e-9:
                        return False, (np.array(u), np.array(v), s, i)
    return True, None
