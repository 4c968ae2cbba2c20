"""Downward-closed outer constraints over item sets.

Three kinds are supported: ``cardinality`` (at most k items), ``partition``
(per-block capacities), and ``explicit`` (the downward closure of a listed
family of maximal sets). The first two come with an exact linear-inequality
description of their convex hull; the explicit kind is oracle-only and answers
fractional membership questions by solving a small convex-combination LP at
desk scale.

Item ids are 0-based in memory. JSON descriptors use 1-based ids. The
constructors take ids, bounds and capacities as integral values (3, 3.0 or a
numpy integer) and raise ``InvalidInputError`` naming the argument for any
other value, such as 1.7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import (EnumerationLimitError, InvalidInputError, NoCompactPolytopeError, as_int,
                     as_ints)

MEMBERSHIP_TOL = 1e-9
HULL_GUARD_N = 10


@dataclass(frozen=True)
class OuterConstraint:
    kind: str
    n: int
    k: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    caps: tuple[int, ...] | None = None
    maximal: tuple[frozenset, ...] | None = None

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (A, b), A >= 0, such that the hull is {x in [0, 1]^n : A x <= b}.

        One row per cardinality bound or partition block. Built on first use;
        raises ``NoCompactPolytopeError`` for explicit families and
        ``InvalidInputError`` for a partition that :func:`validate_outer` rejects.
        """
        if self.kind == "cardinality":
            a, b = np.ones((1, self.n)), np.array([float(self.k)])
        elif self.kind == "partition":
            if faults := validate_outer(self, self.n):
                raise InvalidInputError("; ".join(faults))
            a = np.zeros((len(self.blocks), self.n))
            for r, block in enumerate(self.blocks):
                a[r, list(block)] = 1.0
            b = np.array(self.caps, dtype=float)
        elif self.kind == "explicit":
            raise NoCompactPolytopeError(
                "explicit families are oracle-only and have no compact polytope"
            )
        else:
            raise ValueError(f"unknown outer constraint kind {self.kind!r}")
        a.flags.writeable = b.flags.writeable = False
        return a, b


def cardinality(n: int, k: int) -> OuterConstraint:
    return OuterConstraint(kind="cardinality", n=n, k=as_int(k, "k"))


def partition(n: int, blocks, caps) -> OuterConstraint:
    return OuterConstraint(
        kind="partition",
        n=n,
        blocks=tuple(tuple(sorted(as_ints(b, f"blocks[{r}]"))) for r, b in enumerate(blocks)),
        caps=tuple(as_ints(caps, "caps")),
    )


def explicit(n: int, maximal) -> OuterConstraint:
    return OuterConstraint(
        kind="explicit",
        n=n,
        maximal=tuple(frozenset(as_ints(m, f"maximal[{r}]")) for r, m in enumerate(maximal)),
    )


def validate_outer(outer: OuterConstraint, n: int) -> list[str]:
    out: list[str] = []
    if outer.n != n:
        out.append(f"outer constraint is over {outer.n} items, instance has {n}")
        return out
    if outer.kind == "cardinality":
        if outer.k is None or outer.k < 0:
            out.append("cardinality bound must be a nonnegative integer")
    elif outer.kind == "partition":
        if outer.blocks is None or outer.caps is None:
            out.append("partition constraint needs blocks and caps")
            return out
        if len(outer.blocks) != len(outer.caps):
            out.append("partition blocks and caps differ in length")
        if any(c < 0 for c in outer.caps):
            out.append("partition capacities must be nonnegative")
        if sorted(i for b in outer.blocks for i in b) != list(range(n)):
            fault = _partition_fault(outer.blocks, n)
            out.append(f"partition blocks must partition the item set: {fault}")
    elif outer.kind == "explicit":
        if not outer.maximal:
            out.append("explicit family needs at least one maximal set")
            return out
        for r, m in enumerate(outer.maximal):
            unknown = sorted(i for i in m if not 0 <= i < n)
            if unknown:
                out.append(f"explicit family references an unknown item: "
                           f"maximal[{r}] holds item {unknown[0] + 1}, outside 1..{n}")
                break
    else:
        out.append(f"unknown outer constraint kind {outer.kind!r}")
    return out


def _partition_fault(blocks, n: int) -> str:
    """Where ``blocks`` fail to partition 0..n - 1: the first id, in block order,
    outside the item set or seen before, else the least item in no block.

    Items are named by their 1-based ids, as instance files give them, and
    blocks by their position.
    """
    home: dict[int, int] = {}
    for r, block in enumerate(blocks):
        for i in block:
            if not 0 <= i < n:
                return f"blocks[{r}] holds item {i + 1}, outside 1..{n}"
            if i in home:
                twice = home[i] == r
                return f"item {i + 1} is in " + (
                    f"blocks[{r}] twice" if twice else f"blocks[{home[i]}] and blocks[{r}]")
            home[i] = r
    return f"item {min(set(range(n)) - home.keys()) + 1} is in no block"


def is_independent(outer: OuterConstraint, items) -> bool:
    """Membership oracle: is this item set allowed by the family?"""
    s = set(items)
    if outer.kind == "cardinality":
        return len(s) <= outer.k
    if outer.kind == "partition":
        return all(len(s.intersection(b)) <= c for b, c in zip(outer.blocks, outer.caps))
    if outer.kind == "explicit":
        return any(s.issubset(m) for m in outer.maximal)
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


def independent_rows(outer: OuterConstraint, mask, columns=slice(None)) -> np.ndarray:
    """Membership oracle over a block: is row r of the boolean ``mask`` allowed?

    Column c of ``mask`` is item ``columns[c]`` (every item, in order, by
    default); items without a column are not in any row's set. Cardinality
    and partition count every row against the hull's columns
    (:attr:`OuterConstraint.hull`) at once; explicit families ask
    :func:`is_independent` row by row.
    """
    mask = np.asarray(mask, dtype=bool)
    if outer.kind == "explicit":
        items = np.arange(outer.n)[columns]
        return np.array([is_independent(outer, items[row]) for row in mask], dtype=bool)
    a, bounds = outer.hull
    return np.all(a[:, columns] @ mask.T <= bounds[:, None], axis=0)


def polytope_inequalities(outer: OuterConstraint) -> list[tuple[np.ndarray, float]]:
    """The rows (a, b) of :attr:`OuterConstraint.hull`: with 0 <= x <= 1, the
    inequalities a.x <= b describe the hull exactly."""
    a, bounds = outer.hull
    return list(zip(a, bounds.tolist()))


def feasible_sets(outer: OuterConstraint) -> list[frozenset]:
    """All member sets of an explicit family (the downward closure of its maximal sets)."""
    if outer.kind != "explicit":
        raise ValueError("feasible_sets is for explicit families")
    if outer.n > HULL_GUARD_N:
        raise EnumerationLimitError(
            f"explicit-family enumeration is limited to n <= {HULL_GUARD_N}"
        )
    sets: set[frozenset] = set()
    for m in outer.maximal:
        elems = sorted(m)
        for r in range(len(elems) + 1):
            sets.update(frozenset(c) for c in itertools.combinations(elems, r))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def in_scaled_polytope(outer: OuterConstraint, x, scale: float) -> bool:
    """Is the fractional vector x inside scale * conv{indicator vectors of the family}?"""
    x = np.asarray(x, dtype=float)
    if x.shape != (outer.n,):
        raise ValueError(f"expected a vector of length {outer.n}")
    # NaN fails both comparisons; an empty vector reads as 0
    if not (x.min(initial=0.0) >= -MEMBERSHIP_TOL and x.max(initial=0.0) <= 1 + MEMBERSHIP_TOL):
        return False
    if outer.kind in ("cardinality", "partition"):
        a, b = outer.hull
        return bool(np.all(a @ x <= scale * b + MEMBERSHIP_TOL))
    if outer.kind == "explicit":
        if np.allclose(x, 0.0, atol=MEMBERSHIP_TOL):
            return True
        if scale <= 0:
            return False
        verts = feasible_sets(outer)
        # feasibility LP: a convex combination of vertex indicators equals x/scale
        vmat = np.zeros((outer.n + 1, len(verts)))
        for j, s in enumerate(verts):
            vmat[sorted(s), j] = 1.0
        vmat[outer.n, :] = 1.0
        rhs = np.concatenate([x / scale, [1.0]])
        res = linprog(
            c=np.zeros(len(verts)),
            A_eq=vmat,
            b_eq=rhs,
            bounds=(0, None),
            method="highs",
        )
        return bool(res.success)
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


def outer_to_json(outer: OuterConstraint) -> dict:
    if outer.kind == "cardinality":
        return {"kind": "cardinality", "k": outer.k}
    if outer.kind == "partition":
        return {
            "kind": "partition",
            "blocks": [[i + 1 for i in b] for b in outer.blocks],
            "caps": list(outer.caps),
        }
    if outer.kind == "explicit":
        return {
            "kind": "explicit",
            "maximal": [sorted(i + 1 for i in m) for m in outer.maximal],
        }
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


def outer_from_json(doc: dict, n: int) -> OuterConstraint:
    """Parse an outer descriptor over ``n`` items; raises ``InvalidInputError`` naming
    the field for a non-integral entry, an item id outside 1..n or an unknown kind."""
    kind = doc.get("kind")
    if kind == "cardinality":
        return cardinality(n, as_int(doc["k"], "outer.k"))

    def ids(key):
        out = []
        for r, group in enumerate(doc[key]):
            # one type and range sweep; a group that fails is read id by id
            if set(map(type, group)) <= {int} and min(group, default=1) >= 1 and max(
                    group, default=n) <= n:
                out.append([i - 1 for i in group])
                continue
            out.append([])
            for j, value in enumerate(group):
                field = f"outer.{key}[{r}][{j}]"
                i = as_int(value, field)
                if not 1 <= i <= n:
                    raise InvalidInputError(f"{field} must lie in 1..{n}, got {i}")
                out[-1].append(i - 1)
        return out

    if kind == "partition":
        blocks = ids("blocks")
        caps = [as_int(c, f"outer.caps[{r}]") for r, c in enumerate(doc["caps"])]
        return partition(n, blocks, caps)
    if kind == "explicit":
        return explicit(n, ids("maximal"))
    raise InvalidInputError(
        f"outer.kind must be cardinality, partition or explicit, got {kind!r}"
    )
