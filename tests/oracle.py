"""Reference implementations the table kernels are tested against.

Ring arithmetic here works element by element on coordinate tuples, summing
products from the exact structure tensor `ring.tensor` in Python integers;
`FiniteRing.tables` must agree with it entry for entry.  `elements` lists the
coordinate tuples in lexicographic order, the order `tables.coords` must
have; `mask` and `members` translate between sets of tuples and the bool
masks the library takes and returns.  The Frattini
subgroup here is the intersection of the maximal subgroups, read off the full
subgroup lattice; `groups.frattini` computes G'G^p instead.  Associativity
here compares (xy)z with x(yz) on all n^3 triples; `FiniteGroup` runs Light's
test on a generating set instead.
"""

from __future__ import annotations

import itertools

import numpy as np

from adjrings.groups import Subgroup, enumerate_subgroups, full_subgroup


def zero(ring):
    return (0,) * ring.dim


def elements(ring) -> list:
    """Every element as a coordinate tuple, in lexicographic order."""
    return list(itertools.product(*(range(m) for m in ring.moduli)))


def reduce(ring, x):
    """A coordinate tuple reduced mod the moduli."""
    return tuple(c % m for c, m in zip(x, ring.moduli))


def mask(ring, elems) -> np.ndarray:
    """Bool mask of a collection of coordinate tuples (reduced first)."""
    out = np.zeros(ring.order, dtype=bool)
    out[[index(ring, reduce(ring, x)) for x in elems]] = True
    return out


def members(ring, mask) -> set:
    """The coordinate tuples a bool mask marks."""
    return {element(ring, int(i)) for i in np.flatnonzero(mask)}


def index(ring, x) -> int:
    """Position of a reduced coordinate tuple in lexicographic element order."""
    idx = 0
    for c, m in zip(x, ring.moduli):
        idx = idx * m + c
    return idx


def element(ring, idx: int):
    coords = []
    for m in reversed(ring.moduli):
        coords.append(idx % m)
        idx //= m
    return tuple(reversed(coords))


def add(ring, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, ring.moduli))


def mul(ring, x, y):
    """x y = sum over i, j of x_i y_j (e_i e_j), with e_i e_j = tensor[i][j]."""
    T = ring.tensor.tolist()
    acc = [0] * ring.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(T[i][j]):
                acc[k] += xi * yj * c
    return tuple(a % m for a, m in zip(acc, ring.moduli))


def circle(ring, x, y):
    """x o y = x + y + xy."""
    return add(ring, add(ring, x, y), mul(ring, x, y))


def frattini_via_maximals(G) -> Subgroup:
    """Intersection of maximal subgroups, from the full subgroup lattice."""
    subs = [s for s in enumerate_subgroups(G) if s.order < G.n]
    if not subs:
        return full_subgroup(G)
    maximal = [h for h in subs
               if not any(set(h.elems) < set(k.elems) for k in subs if k.order > h.order)]
    common = set(maximal[0].elems)
    for h in maximal[1:]:
        common &= set(h.elems)
    return Subgroup(G, tuple(sorted(common)))


def is_associative(table) -> bool:
    """(xy)z == x(yz) for every triple, as two n^3 lookups."""
    tab = np.asarray(table)
    return bool((tab[tab, :] == tab[:, tab]).all())
