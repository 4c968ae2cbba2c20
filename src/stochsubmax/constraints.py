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

import numpy as np
from scipy.optimize import linprog

from .errors import EnumerationLimitError, NoCompactPolytopeError, as_int

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


def _ints(values, field: str) -> list[int]:
    """``values`` as ints; entry j is named ``field[j]`` in the error."""
    return [as_int(v, f"{field}[{j}]") for j, v in enumerate(values)]


def cardinality(n: int, k: int) -> OuterConstraint:
    return OuterConstraint(kind="cardinality", n=n, k=as_int(k, "k"))


def partition(n: int, blocks, caps) -> OuterConstraint:
    return OuterConstraint(
        kind="partition",
        n=n,
        blocks=tuple(tuple(sorted(_ints(b, f"blocks[{r}]"))) for r, b in enumerate(blocks)),
        caps=tuple(_ints(caps, "caps")),
    )


def explicit(n: int, maximal) -> OuterConstraint:
    return OuterConstraint(
        kind="explicit",
        n=n,
        maximal=tuple(frozenset(_ints(m, f"maximal[{r}]")) for r, m in enumerate(maximal)),
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
        seen: list[int] = [i for b in outer.blocks for i in b]
        if sorted(seen) != list(range(n)):
            out.append("partition blocks must partition the item set")
    elif outer.kind == "explicit":
        if not outer.maximal:
            out.append("explicit family needs at least one maximal set")
            return out
        for m in outer.maximal:
            if any(i < 0 or i >= n for i in m):
                out.append("explicit family references an unknown item")
                break
    else:
        out.append(f"unknown outer constraint kind {outer.kind!r}")
    return out


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


def independent_rows(outer: OuterConstraint, mask) -> np.ndarray:
    """Membership oracle over a block: is row r of the (R, n) boolean ``mask`` allowed?

    Cardinality and partition count every row against the hull inequalities at
    once; explicit families ask :func:`is_independent` row by row.
    """
    mask = np.asarray(mask, dtype=bool)
    if outer.kind == "explicit":
        return np.array([is_independent(outer, np.flatnonzero(row)) for row in mask], dtype=bool)
    rows = polytope_inequalities(outer)
    a = np.array([coeffs for coeffs, _ in rows]).reshape(len(rows), outer.n)
    bounds = np.array([bound for _, bound in rows])
    return np.all(mask @ a.T <= bounds, axis=1)


def polytope_inequalities(outer: OuterConstraint) -> list[tuple[np.ndarray, float]]:
    """Inequalities a.x <= b (a >= 0) that, with 0 <= x <= 1, describe the hull exactly."""
    if outer.kind == "cardinality":
        return [(np.ones(outer.n), float(outer.k))]
    if outer.kind == "partition":
        rows = []
        for block, cap in zip(outer.blocks, outer.caps):
            a = np.zeros(outer.n)
            a[list(block)] = 1.0
            rows.append((a, float(cap)))
        return rows
    if outer.kind == "explicit":
        raise NoCompactPolytopeError(
            "explicit families are oracle-only and have no compact polytope"
        )
    raise ValueError(f"unknown outer constraint kind {outer.kind!r}")


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
    if np.any(x < -MEMBERSHIP_TOL) or np.any(x > 1 + MEMBERSHIP_TOL):
        return False
    if outer.kind in ("cardinality", "partition"):
        return all(
            float(a @ x) <= scale * b + MEMBERSHIP_TOL
            for a, b in polytope_inequalities(outer)
        )
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
    kind = doc.get("kind")
    if kind == "cardinality":
        return cardinality(n, as_int(doc["k"], "outer.k"))
    if kind == "partition":
        blocks = [
            [as_int(i, f"outer.blocks[{r}][{j}]") - 1 for j, i in enumerate(b)]
            for r, b in enumerate(doc["blocks"])
        ]
        caps = [as_int(c, f"outer.caps[{r}]") for r, c in enumerate(doc["caps"])]
        return partition(n, blocks, caps)
    if kind == "explicit":
        maximal = [
            [as_int(i, f"outer.maximal[{r}][{j}]") - 1 for j, i in enumerate(m)]
            for r, m in enumerate(doc["maximal"])
        ]
        return explicit(n, maximal)
    raise ValueError(f"unknown outer constraint kind {kind!r}")
