"""Downward-closed outer constraints over item sets.

Two kinds are supported: ``cardinality`` (at most k items) and ``partition``
(per-block capacities). Both are matroids, and both come with an exact
linear-inequality description of their convex hull (Edmonds, 1970): one row
per bound or block, which the slot LP, the rounding and the policy all read.

Item ids are 0-based in memory. JSON descriptors use 1-based ids. The
constructors take ids, bounds and capacities as integral values (3, 3.0 or a
numpy integer) and raise ``InvalidInputError`` naming the argument for any
other value, such as 1.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, as_int, as_ints, required

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class OuterConstraint:
    kind: str
    n: int
    k: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    caps: tuple[int, ...] | None = None

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (A, b), A >= 0, such that the hull is {x in [0, 1]^n : A x <= b}.

        One row per cardinality bound or partition block. Built on first use;
        raises ``InvalidInputError`` for a constraint that :func:`validate_outer`
        rejects, such as a negative bound or cap.
        """
        if faults := validate_outer(self, self.n):
            raise InvalidInputError("; ".join(faults))
        if self.kind == "cardinality":
            a, b = np.ones((1, self.n)), np.array([float(self.k)])
        else:
            a = np.zeros((len(self.blocks), self.n))
            for r, block in enumerate(self.blocks):
                a[r, list(block)] = 1.0
            b = np.array(self.caps, dtype=float)
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
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


def independent_rows(outer: OuterConstraint, mask, columns=slice(None)) -> np.ndarray:
    """Membership oracle over a block: is row r of the boolean ``mask`` allowed?

    Column c of ``mask`` is item ``columns[c]`` (every item, in order, by
    default); items without a column are not in any row's set. Every row is
    counted against the hull's columns (:attr:`OuterConstraint.hull`) at once.
    """
    mask = np.asarray(mask, dtype=bool)
    a, bounds = outer.hull
    return np.all(a[:, columns] @ mask.T <= bounds[:, None], axis=0)


def polytope_inequalities(outer: OuterConstraint) -> list[tuple[np.ndarray, float]]:
    """The rows (a, b) of :attr:`OuterConstraint.hull`: with 0 <= x <= 1, the
    inequalities a.x <= b describe the hull exactly."""
    a, bounds = outer.hull
    return list(zip(a, bounds.tolist()))


def in_scaled_polytope(outer: OuterConstraint, x, scale: float) -> bool:
    """Is the fractional vector x inside scale * conv{indicator vectors of the family}?"""
    x = np.asarray(x, dtype=float)
    if x.shape != (outer.n,):
        raise ValueError(f"expected a vector of length {outer.n}")
    # NaN fails both comparisons; an empty vector reads as 0
    if not (x.min(initial=0.0) >= -MEMBERSHIP_TOL and x.max(initial=0.0) <= 1 + MEMBERSHIP_TOL):
        return False
    a, b = outer.hull
    return bool(np.all(a @ x <= scale * b + MEMBERSHIP_TOL))


def outer_to_json(outer: OuterConstraint) -> dict:
    if outer.kind == "cardinality":
        return {"kind": "cardinality", "k": outer.k}
    if outer.kind == "partition":
        return {
            "kind": "partition",
            "blocks": [[i + 1 for i in b] for b in outer.blocks],
            "caps": list(outer.caps),
        }
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


def outer_from_json(doc: dict, n: int) -> OuterConstraint:
    """Parse an outer descriptor over ``n`` items; raises ``InvalidInputError`` naming
    the field for a descriptor that is not an object, a non-integral entry, an item
    id outside 1..n or an unknown kind, and ``MissingFieldError`` naming a missing
    one (``outer.caps``)."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"outer must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "cardinality":
        return cardinality(n, as_int(required(doc, "k", "outer.k"), "outer.k"))

    def ids(key):
        out = []
        for r, group in enumerate(required(doc, key, f"outer.{key}")):
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
        caps = [as_int(c, f"outer.caps[{r}]")
                for r, c in enumerate(required(doc, "caps", "outer.caps"))]
        return partition(n, blocks, caps)
    raise InvalidInputError(f"outer.kind must be cardinality or partition, got {kind!r}")
