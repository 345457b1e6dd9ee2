"""Finite groups as Cayley tables, with the p-group toolbox.

Everything operates on element indices into an order <= 729 multiplication
table.  Construction validates the table (identity, Latin square, and
associativity by Light's test on a set reaching every element), so downstream
code can trust indexing blindly.  Builders compute whole tables by array
formulas on coordinate grids, index arithmetic on factor tables, or the one
composition-table kernel `_compose_table`, which also composes image rows.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .abelian import prime_power
from .errors import (
    BoundError,
    BudgetError,
    InvalidArgumentError,
    InvalidElementError,
    InvalidStructureError,
)

MAX_ORDER = 729
# The one block budget of every vectorized kernel in the package, read in this
# module alone, through `blocks` everywhere but the index-p counts' product
# width: one array of a block holds at most this many entries (or one item,
# where an item is wider).
CHUNK_ENTRIES = 1 << 16


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidArgumentError(f"group order {n} is below 1")
    if n > MAX_ORDER:
        raise BoundError(f"group order {n} exceeds the supported maximum {MAX_ORDER}")


def _index_table(table, dtype) -> np.ndarray:
    """An integer table as a `dtype` array.  A float or bool table, or an entry
    `dtype` cannot hold, is refused rather than truncated or wrapped."""
    tab = np.asarray(table)
    cast = tab.astype(dtype, copy=False) if tab.dtype.kind in "iu" or not tab.size else None
    if cast is None or (cast != tab).any():
        raise InvalidStructureError(f"table entries must be {np.dtype(dtype)}, got {tab.dtype}")
    return cast


def memo(obj, key, build):
    """`obj._cache[key]`, from `build()` on a miss: the one memo of every
    derived value, from a group's inverse table or a ring's index tables to
    an adjoint group, a subgroup lattice, Der and End rows, Aut(G) or a
    profile.

    A result is stored only once `build()` returns, that is after the caps
    and budgets it checks, so a refused build leaves nothing and runs again on
    the next call; argument gates run before the call.  What is stored lives
    until `release_memo` drops it, which the verify runner does once the
    batch moves on to another corpus entry.
    """
    if key not in obj._cache:
        obj._cache[key] = build()
    return obj._cache[key]


def release_memo(obj) -> None:
    """Drop everything `obj` has memoized; each value is rebuilt on next use."""
    obj._cache.clear()


class memoized:
    """`build(obj)` kept by `memo` under the key `build.__name__`, read as an
    attribute when `build` is a method (`G.inverses`) and called as a
    one-object function otherwise (`aut_group(G)`)."""

    def __init__(self, build):
        functools.update_wrapper(self, build)

    def __call__(self, obj):
        return memo(obj, self.__name__, lambda: self.__wrapped__(obj))

    def __get__(self, obj, _owner=None):
        return self if obj is None else self(obj)


def blocks(count: int, width: int):
    """Lazy slices of range(count), in order, of at most max(1, CHUNK_ENTRIES
    // width) items each: the one block budget of every chunked kernel, an
    item being `width` entries wide.  Nothing is listed, so `count` may be
    any int64."""
    step = max(1, CHUNK_ENTRIES // width)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _right_search(table: np.ndarray, start: np.ndarray, cols=()) -> tuple[list[int], list]:
    """Walk breadth-first by right products x s from the members of the bool
    mask `start`, s running over `cols`; whenever the walk stalls short of
    every element, the least element not yet reached joins `cols`.

    Returns the columns and each element's first arrival (y, x, slot), y =
    x cols[slot], in the order reached.  Only the columns are read: nothing
    presumes associativity.  In a group, from a normal subgroup N, what is
    reached is the subgroup N<cols>, so each join at least doubles it; one
    that does not is refused as not associative (so at most log2(n) joins).
    """
    seen = start.tolist()
    reached = np.flatnonzero(start).tolist()
    cols = [int(s) for s in cols]
    images = [table[:, s].tolist() for s in cols]  # images[k][x] = x cols[k]
    arrivals: list[tuple[int, int, int]] = []
    fresh, old, least = 0, 0, 0  # reached[:old] take only the columns from slot `fresh`
    while True:
        every = list(enumerate(images))
        new = every[fresh:]
        for k, x in enumerate(reached):  # grows while it is read
            for slot, col in new if k < old else every:
                if not seen[col[x]]:
                    seen[col[x]] = True
                    reached.append(col[x])
                    arrivals.append((col[x], x, slot))
        if len(reached) < 2 * old:
            raise InvalidStructureError("multiplication is not associative")
        if len(reached) == len(seen):
            return cols, arrivals
        least = seen.index(False, least)
        cols.append(least)
        images.append(table[:, least].tolist())
        fresh, old = len(cols) - 1, len(reached)


class FiniteGroup:
    """A finite group of order <= 729 given by its multiplication table.

    Associativity is Light's test (Clifford and Preston, The Algebraic Theory
    of Semigroups I, 1961, sec. 1.2): the elements a with (xa)y = x(ay) for
    all x, y are closed under products, so checking every x, y against each
    a in a set S that generates the table as a magma proves the whole table
    associative, in |S| n^2 lookups; S is the columns of `_right_search` from
    the identity.  Derived tables (`inverses`, `element_orders`, `conj_table`,
    `comm_table`) and the objects module functions build are all kept by
    `memo` in `_cache`.
    """

    def __init__(self, table, identity: int = 0, name: str = "G"):
        tab = _index_table(table, np.int32)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or not tab.size:
            raise InvalidStructureError("multiplication table must be square and non-empty")
        n = tab.shape[0]
        _check_order(n)
        if tab.min() < 0 or tab.max() >= n:
            raise InvalidStructureError("table entries must be element indices")
        if not 0 <= identity < n:
            raise InvalidElementError(f"identity index {identity} out of range")
        if not (tab[identity] == np.arange(n)).all() or not (tab[:, identity] == np.arange(n)).all():
            raise InvalidStructureError("identity row/column is not the identity map")
        srt = np.sort(tab, axis=1)
        if not (srt == np.arange(n)).all() or not (np.sort(tab, axis=0).T == np.arange(n)).all():
            raise InvalidStructureError("table is not a Latin square")
        S = np.array(_right_search(tab, np.arange(n) == identity)[0], dtype=np.intp)
        for x in (tab[b] for b in blocks(n, n * len(S) or 1)):  # rows x: (xs)y = x(sy)
            if not (tab[x[:, S]] == x[:, tab[S]]).all():
                raise InvalidStructureError("multiplication is not associative")
        tab.flags.writeable = False
        self.table = tab
        self.n = n
        self.identity = identity
        self.name = name
        self._cache: dict = {}

    # -- basics ----------------------------------------------------------------

    @memoized
    def inverses(self) -> np.ndarray:
        return np.argmax(self.table == self.identity, axis=1).astype(np.int32)

    @memoized
    def element_orders(self) -> np.ndarray:
        n = self.n
        orders = np.zeros(n, dtype=np.int64)
        acc = np.arange(n)
        k = 1
        while (orders == 0).any():
            done = (acc == self.identity) & (orders == 0)
            orders[done] = k
            acc = self.table[acc, np.arange(n)]
            k += 1
        return orders

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders))

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @memoized
    def conj_table(self) -> np.ndarray:
        """conj_table[g, x] = g x g^-1."""
        t = self.table  # t[g, x] = g*x
        return t[t, self.inverses[:, None]]

    @memoized
    def comm_table(self) -> np.ndarray:
        """comm_table[x, g] = x^-1 g^-1 x g."""
        t, inv = self.table, self.inverses
        return t[t[inv[:, None], inv[None, :]], t]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.n})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elems: tuple[int, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elems)

    @memoized
    def mask(self) -> np.ndarray:
        """Read-only bool mask of the members among the parent's elements."""
        mask = np.zeros(self.parent.n, dtype=bool)
        mask[list(self.elems)] = True
        mask.flags.writeable = False
        return mask

    def as_group(self) -> FiniteGroup:
        """The subgroup as its own Cayley table, element i being `elems[i]`;
        kept in the parent's memo."""
        G = self.parent

        def build() -> FiniteGroup:
            arr = np.array(self.elems)
            reindex = np.full(G.n, -1, dtype=np.int32)
            reindex[arr] = np.arange(len(arr))
            return FiniteGroup(reindex[G.table[np.ix_(arr, arr)]],
                               identity=int(reindex[G.identity]), name=f"{G.name}_sub{len(arr)}")
        return memo(G, ("as_group", self.elems), build)


def join(seen: np.ndarray, gens: list[int], new, step) -> np.ndarray:
    """The one closure kernel: grow the bool mask `seen`, closed under right
    products by `gens`, in place until it is closed under `new` as well, and
    append `new` to `gens`.  Round one multiplies every member by `new`
    alone, each later round the last round's arrivals by every generator, so
    no (member, generator) pair is multiplied twice.  `step(xs, cols)` yields
    the positions of the products x c, one `blocks` slice of xs at a time."""
    cols = np.asarray(new, dtype=np.intp)
    gens.extend(cols.tolist())
    fresh = np.flatnonzero(seen)
    while fresh.size and cols.size:
        before = seen.copy()
        for hits in step(fresh, cols):
            seen[hits] = True
        fresh = np.flatnonzero(seen ^ before)
        cols = cols if cols.size == len(gens) else np.array(gens, dtype=np.intp)
    return seen


def _table_step(table: np.ndarray):
    """`join`'s step on a Cayley table: the entries of rows xs, columns cols."""
    return lambda xs, cols: (table[xs[b, None], cols] for b in blocks(xs.size, cols.size))


def closed_mask(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Grow a bool mask in place to what its members generate: one `join` of
    them, from the mask.  In a finite group that is a subgroup."""
    return join(mask, [], np.flatnonzero(mask), _table_step(table))


def closure(G: FiniteGroup, seed) -> Subgroup:
    """Subgroup generated by the elements of `seed`: `closed_mask` on G's table."""
    seed = np.fromiter(seed, dtype=np.int64)
    bad = seed[(seed < 0) | (seed >= G.n)]  # numpy would wrap a negative index
    if bad.size:
        raise InvalidElementError(f"element {bad.min()} out of range")
    mask = np.arange(G.n) == G.identity
    mask[seed] = True
    return Subgroup(G, tuple(np.flatnonzero(closed_mask(G.table, mask)).tolist()))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.n)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def center(G: FiniteGroup) -> Subgroup:
    mask = (G.table == G.table.T).all(axis=1)
    return Subgroup(G, tuple(int(i) for i in np.flatnonzero(mask)))


def power_commutator(G: FiniteGroup, A: Subgroup, B: Subgroup, k: int = 0) -> Subgroup:
    """<a^k, [a, b] : a in A, b in B>; k = 0 gives [A, B].

    The one kernel behind [A, B], Phi(G) = G'G^p, each lower p-central step
    P_{i+1} = P_i^p [P_i, G], Phi(H) inside a parent and gamma_2(G) G^(p^kappa).
    The seed mask, read off the power map and commutator table, holds 1 = 1^k.
    """
    arr = np.array(A.elems)
    mask = np.zeros(G.n, dtype=bool)
    mask[power_map(G, k)[arr]] = True
    mask[G.comm_table[np.ix_(arr, np.array(B.elems))]] = True
    return Subgroup(G, tuple(np.flatnonzero(closed_mask(G.table, mask)).tolist()))


def commutator(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    return power_commutator(G, A, B)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    return commutator(G, full_subgroup(G), full_subgroup(G))


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G = gamma_1 >= gamma_2 >= ... down to stabilization."""
    series = [full_subgroup(G)]
    while True:
        nxt = commutator(G, series[-1], full_subgroup(G))
        if nxt.elems == series[-1].elems:
            break
        series.append(nxt)
    return series


def upper_central_series(G: FiniteGroup) -> list[Subgroup]:
    """1 = Z_0 <= Z_1 <= ... up to stabilization."""
    series = [trivial_subgroup(G)]
    while True:
        mask = series[-1].mask[G.comm_table].all(axis=1)
        nxt = Subgroup(G, tuple(int(i) for i in np.flatnonzero(mask)))
        if nxt.elems == series[-1].elems:
            break
        series.append(nxt)
    return series


def nilpotency_class(G: FiniteGroup) -> int | None:
    series = lower_central_series(G)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def _powers(one, base, k: int, mul):
    """one * base^k by square and multiply, `mul` being the elementwise product."""
    while k:
        if k & 1:
            one = mul(one, base)
        base = mul(base, base)
        k >>= 1
    return one


def power_map(G: FiniteGroup, k: int) -> np.ndarray:
    """x -> x^k for every element, by `_powers` on the table."""
    return _powers(np.full(G.n, G.identity, dtype=np.int32), np.arange(G.n, dtype=np.int32),
                   k, lambda a, b: G.table[a, b])


def prime_of(G: FiniteGroup) -> int | None:
    """p when |G| is a nontrivial p-power, else None."""
    pk = prime_power(G.n)
    return pk[0] if pk else None


def kappa(p: int) -> int:
    """The paper's kappa: 2 for p = 2, else 1, so that Omega_kappa is the
    small-order layer (elements killed by p, or by 4 when p = 2)."""
    return 2 if p == 2 else 1


def p_group_prime(G: FiniteGroup, what: str) -> int:
    """The one gate of every p-group notion: p for a p-group, and 2 for the
    trivial group, a p-group for every p (`to_finite_ring` gives its ring p = 2);
    any other group raises InvalidArgumentError("<what> needs a p-group")."""
    p = 2 if G.n == 1 else prime_of(G)
    if p is None:
        raise InvalidArgumentError(f"{what} needs a p-group")
    return p


def agemo(G: FiniteGroup, n: int) -> Subgroup:
    """Subgroup generated by p^n-th powers (G must be a p-group)."""
    if n < 0:
        raise InvalidArgumentError("omega index must be >= 0")
    p = p_group_prime(G, "agemo")
    return closure(G, np.unique(power_map(G, p**n)))


def omega_set(G: FiniteGroup, n: int) -> tuple[int, ...]:
    """Elements of order dividing p^n, as a sorted index tuple."""
    if n < 0:
        raise InvalidArgumentError("omega index must be >= 0")
    q = p_group_prime(G, "omega") ** n
    return tuple(int(i) for i in np.flatnonzero(q % G.element_orders == 0))


def omega_subgroup(G: FiniteGroup, n: int) -> Subgroup:
    return closure(G, omega_set(G, n))


def lower_p_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G = P_1 >= P_2 >= ... with P_{i+1} = P_i^p [P_i, G], down to 1.

    The second term is asserted to be the Frattini subgroup.
    """
    p = p_group_prime(G, "the p-central series")
    series = [full_subgroup(G)]
    while series[-1].order > 1:
        cur = series[-1]
        nxt = power_commutator(G, cur, full_subgroup(G), p)
        if nxt.elems == cur.elems:
            raise InvalidStructureError("p-central series stalled; group not a p-group?")
        series.append(nxt)
    if len(series) > 1 and series[1].elems != frattini(G).elems:
        raise InvalidStructureError("second p-central term differs from the Frattini subgroup")
    return series


def frattini(G: FiniteGroup) -> Subgroup:
    """Frattini subgroup of a p-group: G'G^p (Burnside's basis theorem)."""
    p = p_group_prime(G, "frattini")
    return memo(G, "frattini", lambda: power_commutator(G, full_subgroup(G), full_subgroup(G), p))


@memoized
def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """A generating set, kept in G's memo: the columns `_right_search` joins
    from Phi(G) for a p-group, else from 1.  Phi(G) is normal, so each join
    is the least element outside <Phi(G), gens so far>: a p-group gets its
    least-first Burnside basis, d(G) elements; others need not be minimal."""
    start = frattini(G).mask if prime_of(G) else np.arange(G.n) == G.identity
    return tuple(_right_search(G.table, start)[0])


def min_generators(G: FiniteGroup) -> int:
    """d(G) of a p-group, via the Frattini quotient index; InvalidArgumentError
    on any other nontrivial group."""
    return subgroup_min_generators(G, full_subgroup(G))


def enumerate_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup exactly once, ascending through prime-index extensions.

    Each subgroup H is grown to <H, g> for g normalizing H with g^q in H (q
    prime), which reaches all subgroups of a solvable group; the run fails
    loudly if the lattice does not reach G itself.  The lattice may hold as
    many elements, summed over its subgroups, as one table at the order cap:
    the search stops with BudgetError once the subgroups found pass that.
    """
    return memo(G, "subgroups", lambda: _ascend_subgroups(G))


def _ascend_subgroups(G: FiniteGroup) -> list[Subgroup]:
    t = G.table
    conj = G.conj_table
    primes = [q for q in range(2, G.n + 1) if G.n % q == 0 and prime_power(q) == (q, 1)]
    pow_maps = {q: power_map(G, q) for q in primes}
    trivial = (G.identity,)
    gens_of: dict[tuple, list[int]] = {trivial: []}
    frontier = [trivial]
    found = {trivial}
    entries = 1
    while frontier:
        nxt = []
        for helems in frontier:
            arr = np.array(helems)
            hbool = np.zeros(G.n, dtype=bool)
            hbool[arr] = True
            gens = gens_of[helems]
            norm = hbool[conj[:, gens]].all(axis=1)
            for q in primes:
                if len(helems) * q > G.n or G.n % (len(helems) * q):
                    continue
                cands = np.flatnonzero(norm & ~hbool & hbool[pow_maps[q]])
                powers = [np.full(cands.size, G.identity)]
                for _ in range(q - 1):
                    powers.append(t[powers[-1], cands])
                # column c holds h g^k for h in H, k < q: <H, g> for g = cands[c]
                grown = t[arr[:, None, None], np.stack(powers)].reshape(len(arr) * q, -1)
                for g, key in zip(cands.tolist(), map(tuple, np.sort(grown, axis=0).T.tolist())):
                    if key not in found:
                        entries += len(key)
                        if entries > MAX_ORDER ** 2:
                            raise BudgetError(f"subgroup lattice exceeds {MAX_ORDER ** 2} entries")
                        found.add(key)
                        gens_of[key] = gens + [g]
                        nxt.append(key)
        frontier = nxt
    if tuple(range(G.n)) not in found and G.n > 1:
        raise BoundError("subgroup ascent did not reach the whole group (non-solvable?)")
    return [Subgroup(G, k) for k in sorted(found, key=lambda k: (len(k), k))]


def log_exact(p: int, value: int) -> int:
    """k with p**k == value; raises if value is not a power of p."""
    k = 0
    v = int(value)
    while v > 1:
        if v % p:
            raise InvalidStructureError(f"{value} is not a power of {p}")
        v //= p
        k += 1
    return k


def rank(G: FiniteGroup) -> int:
    """Max of d(H) over the subgroups of a p-group (0 for the trivial group).

    An abelian G has rank log_p |Omega_1(G)|, read from one power map; only a
    non-abelian G lists its subgroup lattice, through `widest_subgroup`.
    """
    p = p_group_prime(G, "rank")
    if G.is_abelian():
        return log_exact(p, np.count_nonzero(power_map(G, p) == G.identity))
    return widest_subgroup(G)[0]


def sylow_rank(G: FiniteGroup, p: int) -> tuple[int, int]:
    """Order and rank of the Sylow p-subgroup S that `sylow_subgroup` finds.

    An abelian S has rank log_p |S meet Omega_1|, read in G's own table; only
    a non-abelian S is tabled, and its rank taken by `rank`.
    """
    S = sylow_subgroup(G, p)
    block = G.table[np.ix_(S.elems, S.elems)]
    if (block == block.T).all():
        return S.order, log_exact(p, np.count_nonzero(S.mask & (power_map(G, p) == G.identity)))
    return S.order, rank(S.as_group())


def widest_subgroup(G: FiniteGroup) -> tuple[int, Subgroup]:
    """The largest d(H) over the subgroups H of a p-group, and the first H in
    lattice order with it; d(H) comes from `lattice_min_generators`."""
    p_group_prime(G, "rank")
    subs = enumerate_subgroups(G)

    def build() -> tuple[int, Subgroup]:
        ds = lattice_min_generators(G)
        first = int(np.argmax(ds))
        return int(ds[first]), subs[first]
    return memo(G, "widest", build)


def lattice_min_generators(G: FiniteGroup) -> np.ndarray:
    """d(H) for each member H of `enumerate_subgroups(G)`, G a p-group.

    By Burnside's basis theorem H/Phi(H) is elementary abelian of rank d(H),
    so H has exactly c = (p^d - 1)/(p - 1) subgroups of index p, and
    d = log_p((p - 1) c + 1).  The lattice lists each subgroup once, so c(H)
    counts the members K one order level below with |K meet H| = |K|: one
    integer product of the two levels' masks, in `blocks`.  A count not of
    that form raises InvalidStructureError.
    """
    p = p_group_prime(G, "rank")
    subs = enumerate_subgroups(G)
    orders = np.array([H.order for H in subs])
    edges = [0, *(np.flatnonzero(np.diff(orders)) + 1).tolist(), len(subs)]
    levels = {int(orders[lo]): slice(lo, hi) for lo, hi in zip(edges, edges[1:])}

    def masks(hs: list[Subgroup]) -> np.ndarray:
        out = np.zeros((len(hs), G.n), dtype=np.int32)
        np.put_along_axis(out, np.array([H.elems for H in hs]), 1, axis=1)
        return out

    # a block of mask rows (rows x n) and a product block (rows x rows) both
    # stay within the block budget, or hold one row
    width = max(G.n, math.isqrt(CHUNK_ENTRIES))
    counts = np.zeros(len(subs), dtype=np.int64)
    for order, level in levels.items():
        if order == 1:
            continue
        upper, lower = subs[level], subs[levels[order // p]]
        for s in blocks(len(upper), width):
            rows = masks(upper[s])
            for t in blocks(len(lower), width):
                meets = rows @ masks(lower[t]).T
                counts[level][s] += np.count_nonzero(meets == order // p, axis=1)
    return np.array([log_exact(p, (p - 1) * c + 1) for c in counts.tolist()], dtype=np.int64)


def subgroup_min_generators(G: FiniteGroup, H: Subgroup) -> int:
    """d(H) of a p-subgroup H, from Phi(H) = H'H^p inside the parent table;
    InvalidArgumentError when |H| is not a prime power."""
    if H.order == 1:
        return 0
    pk = prime_power(H.order)
    if pk is None:
        raise InvalidArgumentError(f"d(H) needs a p-subgroup, got order {H.order}")
    phi = power_commutator(G, H, H, pk[0])
    return prime_power(H.order // phi.order)[1]


def sylow_ascent(m: int, identity: int, p: int, p_power, conj, step) -> np.ndarray:
    """Bool mask of a Sylow p-subgroup of a group of m members, by
    first-found normalizer ascent from the identity.

    `p_power(k)` marks the members x with x^k = 1, `conj(g)` gives the
    position of x^-1 g x for each member x, and `step` is `join`'s.  Each
    step joins the least p-element outside H = <gens> that conjugates every
    generator into H, which in a finite group is to normalize H; a
    generator's conjugates are computed when a later step first reads them.
    Every caller builds the Sylow table, so an order past MAX_ORDER is
    refused first.
    """
    if prime_power(p) != (p, 1):
        raise InvalidArgumentError(f"{p} is not prime")
    target = 1
    while m % (target * p) == 0:
        target *= p
    _check_order(target)
    p_elements = p_power(target)
    current = np.zeros(m, dtype=bool)
    current[identity] = True
    gens: list[int] = []
    conjugates = []  # conjugates[k] = conj(gens[k])
    while current.sum() < target:
        if gens:
            conjugates.append(conj(gens[-1]))
        cand = p_elements & ~current & np.all([current[c] for c in conjugates], axis=0)
        if not cand.any():
            raise InvalidStructureError("sylow ascent stalled")
        join(current, gens, [int(cand.argmax())], step)
    return current


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup by `sylow_ascent` on the Cayley table."""
    mask = sylow_ascent(G.n, G.identity, p, lambda k: power_map(G, k) == G.identity,
                        lambda g: G.conj_table[G.inverses, g], _table_step(G.table))
    return Subgroup(G, tuple(np.flatnonzero(mask).tolist()))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return bool(H.mask[G.conj_table[:, list(H.elems)]].all())


def is_abelian_normal(G: FiniteGroup, H: Subgroup) -> bool:
    block = G.table[np.ix_(H.elems, H.elems)]
    return bool((block == block.T).all()) and is_normal(G, H)


@memoized
def abelian_normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All abelian normal subgroups, ascending by (order, elements)."""
    return [H for H in enumerate_subgroups(G) if is_abelian_normal(G, H)]


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup; cosets sorted by least representative.

    Returns (Q, proj) with proj[x] the coset index of element x.
    """
    if not is_normal(G, N):
        raise InvalidArgumentError("quotient needs a normal subgroup")
    rep = G.table[:, np.array(N.elems)].min(axis=1)  # least element of each coset xN
    reps, proj = np.unique(rep, return_inverse=True)
    qtab = proj[G.table[np.ix_(reps, reps)]]
    q = FiniteGroup(qtab, identity=int(proj[G.identity]), name=f"{G.name}/N{N.order}")
    return q, [int(x) for x in proj]


def is_p_central(G: FiniteGroup) -> bool:
    """Omega_1 (Omega_2 when p = 2) lies in the center."""
    p = p_group_prime(G, "p-centrality")
    return bool((omega_subgroup(G, kappa(p)).mask <= center(G).mask).all())


def power_commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """gamma_2(G) G^p, with fourth powers in place of p-th powers when p = 2."""
    p = p_group_prime(G, "the power-commutator subgroup")
    return power_commutator(G, full_subgroup(G), full_subgroup(G), p ** kappa(p))


def central_target(G: FiniteGroup) -> Subgroup:
    """Center meet commutator-power subgroup: the canonical central target."""
    both = center(G).mask & power_commutator_subgroup(G).mask
    return Subgroup(G, tuple(np.flatnonzero(both).tolist()))


def subgroup_exponent(G: FiniteGroup, H: Subgroup) -> int:
    return int(np.lcm.reduce(G.element_orders[list(H.elems)]))


# -- builders ---------------------------------------------------------------------


class _RowIndex:
    """Vectorized exact-row lookup into a fixed matrix of distinct image rows."""

    def __init__(self, M: np.ndarray):
        Mc = np.ascontiguousarray(M)
        self._dtype = Mc.dtype
        self.width = Mc.shape[1]
        # a view of the rows, searched through `order`: no sorted copy is kept
        self._void = Mc.view((np.void, Mc.dtype.itemsize * Mc.shape[1])).ravel()
        self.order = np.argsort(self._void)
        ranked = self._void[self.order]
        if (ranked[1:] == ranked[:-1]).any():
            raise InvalidStructureError("duplicate image rows")

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of each row plus a found mask; index is junk where not found."""
        rc = np.ascontiguousarray(rows.astype(self._dtype, copy=False))
        rv = rc.view((np.void, rc.dtype.itemsize * rc.shape[1])).ravel()
        pos = np.minimum(np.searchsorted(self._void, rv, sorter=self.order), len(self.order) - 1)
        idx = self.order[pos]
        return idx, self._void[idx] == rv

    def require(self, rows: np.ndarray, what: str) -> np.ndarray:
        idx, ok = self.find(rows)
        if not ok.all():
            raise InvalidStructureError(f"{what}: row not in the enumerated set")
        return idx


def _row_table(m: int, index: _RowIndex, block, what: str) -> np.ndarray:
    """m x m table whose row i holds the index positions of block(rows)[i],
    looked up in row `blocks` of m image rows each."""
    width = index.width
    tab = np.empty((m, m), dtype=np.int32)
    for b in blocks(m, m * width):
        rows = block(np.arange(b.start, b.stop))
        tab[b] = index.require(rows.reshape(-1, width), what).reshape(-1, m)
    return tab


def _compose_table(M: np.ndarray, index: _RowIndex, what: str) -> np.ndarray:
    """Composition table of the rows of M: tab[i, j] is the position of
    M[j][M[i]] (member i, then member j).  Raises when a composite is not a row."""
    return _row_table(M.shape[0], index, lambda rows: M[:, M[rows]].swapaxes(0, 1), what)


def _coordinate_group(radices, product, name: str) -> FiniteGroup:
    """The group on the mixed-radix grid of coordinate tuples, in lexicographic
    order, with the all-zero tuple as its identity (index 0).  `product(a, b)`
    maps the coordinate arrays of every pair at once (a[k] an n x 1 column,
    b[k] a 1 x n row) to the product's coordinates, reduced mod the radices
    here."""
    n = math.prod(radices)
    _check_order(n)
    coords = np.indices(radices).reshape(len(radices), n)
    pairs = product(coords[:, :, None], coords[:, None, :])
    return FiniteGroup(np.ravel_multi_index(tuple(pairs), radices, mode="wrap"), name=name)


def cyclic_group(n: int) -> FiniteGroup:
    return _coordinate_group((n,), lambda a, b: (a[0] + b[0],), f"c{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """G x H with (g, h) at index g |H| + h."""
    n = G.n * H.n
    _check_order(n)
    tab = G.table[:, None, :, None] * H.n + H.table[None, :, None, :]
    return FiniteGroup(tab.reshape(n, n), identity=G.identity * H.n + H.identity,
                       name=name or f"{G.name}x{H.name}")


def dihedral_group(order: int) -> FiniteGroup:
    if order < 4 or order % 2:
        raise InvalidArgumentError("dihedral groups here have even order >= 4")
    return semidirect_cyclic(order // 2, 2, order // 2 - 1, name=f"d{order}")


def dicyclic_group(order: int) -> FiniteGroup:
    """Dicyclic group of order 4k (quaternion when k is a 2-power): (i, e) is
    x^i y^e with x of order 2k, y^2 = x^k and y x y^-1 = x^-1."""
    if order % 4:
        raise InvalidArgumentError("dicyclic groups have order 4k")
    k = order // 4
    return _coordinate_group(
        (2 * k, 2), lambda a, b: (a[0] + b[0] * (1 - 2 * a[1]) + k * (a[1] & b[1]), a[1] + b[1]),
        f"q{order}")


def semidirect_cyclic(n: int, m: int, r: int, name: str | None = None) -> FiniteGroup:
    """Z_n x| Z_m where the Z_m generator acts as x -> x^r."""
    for order in (n * m, n, m):  # two negative factors have a positive product
        _check_order(order)
    if pow(r, m, n) != 1 % n or math.gcd(r, n) != 1:
        raise InvalidArgumentError("action must have order dividing m")
    twist = np.array([pow(r, j, n) for j in range(m)])
    return _coordinate_group((n, m), lambda a, b: (a[0] + b[0] * twist[a[1]], a[1] + b[1]),
                             name or f"c{n}sc{m}r{r}")


def semidihedral_group(order: int) -> FiniteGroup:
    if order < 16 or order & (order - 1):
        raise InvalidArgumentError("semidihedral groups here have 2-power order >= 16")
    return semidirect_cyclic(order // 2, 2, order // 4 - 1, name=f"sd{order}")


def modular_group(order: int) -> FiniteGroup:
    """The modular (Iwasawa) group of order p^k: k >= 3 for odd p, k >= 4 for
    p = 2 (the construction at order 8 gives D_8).  The order cap runs before
    the trial division that finds p."""
    _check_order(order)
    pk = prime_power(order)
    if pk is None or pk[1] < (4 if pk[0] == 2 else 3):
        raise InvalidArgumentError("modular groups need order p^k with k >= 3, "
                                   "and k >= 4 when p = 2")
    p, k = pk
    return semidirect_cyclic(order // p, p, 1 + order // (p * p), name=f"m{order}")


def heisenberg_group(p: int) -> FiniteGroup:
    """Extraspecial group of order p^3 and exponent p (p odd)."""
    _check_order(p**3)
    if prime_power(p) != (p, 1) or p == 2:
        raise InvalidArgumentError("needs an odd prime")
    return _coordinate_group(
        (p, p, p), lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1]),
        f"es_p3_{p}")


def pauli_group() -> FiniteGroup:
    """Central product of Z_4 and D_8 (the order-16 Pauli group)."""
    return _coordinate_group(
        (4, 2, 2), lambda a, b: (a[0] + b[0] + 2 * a[2] * b[1], a[1] + b[1], a[2] + b[2]),
        "pauli16")


def c22_semidirect_c4() -> FiniteGroup:
    """(Z_2 x Z_2) x| Z_4 with the generator swapping the factors."""
    return _coordinate_group(
        (2, 2, 4), lambda a, b: (a[0] + np.where(a[2] % 2, b[1], b[0]),
                                 a[1] + np.where(a[2] % 2, b[0], b[1]), a[2] + b[2]),
        "c22sc4")


def from_permutations(perms, name: str = "permgroup") -> FiniteGroup:
    """Group generated by permutations (tuples of images); product acts
    left-then-right, and the elements are in lexicographic order."""
    degree = len(perms[0])
    ident = tuple(range(degree))
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise InvalidStructureError(f"{p} is not a permutation of 0..{degree - 1}")
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                b = tuple(g[a[i]] for i in range(degree))
                if b not in elems:
                    if len(elems) >= MAX_ORDER:
                        raise BoundError("permutation closure exceeded the order cap")
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    # one extra fixed point keeps the rows non-empty when the degree is 0
    M = np.array([p + (degree,) for p in sorted(elems)], dtype=np.int32)
    return FiniteGroup(_compose_table(M, _RowIndex(M), "permutation composition"), name=name)


def alternating4() -> FiniteGroup:
    return from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="a4")


def _json_int(value, what: str) -> int:
    """A JSON integer; integral floats pass, booleans and anything else raise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidStructureError(f"{what} must be an integer, got {value!r}")


def _json_list(value, what: str, length: int | None = None) -> list:
    """A JSON list, of exactly `length` items when that is given."""
    if not isinstance(value, list):
        raise InvalidStructureError(f"{what} must be a list, got {value!r}")
    if length is not None and len(value) != length:
        raise InvalidStructureError(f"{what} has {len(value)} items, expected {length}")
    return value


def _json_ints(value, what: str, length: int) -> list[int]:
    return [_json_int(x, f"{what} entry {k}") for k, x in enumerate(_json_list(value, what, length))]


def group_from_json(obj: dict, name: str | None = None) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise InvalidStructureError(f"group JSON must be an object, got {obj!r}")
    if "table" in obj:
        if "order" not in obj or "identity" not in obj:
            raise InvalidStructureError("a group table needs its order and identity")
        order = _json_int(obj["order"], "order")
        table = [_json_ints(row, f"table row {i}", order)
                 for i, row in enumerate(_json_list(obj["table"], "table", order))]
        return FiniteGroup(table, identity=_json_int(obj["identity"], "identity"),
                           name=name or "file_group")
    if "perm_gens" in obj:
        degree = _json_int(obj.get("degree", 0), "degree")
        gens = [tuple(_json_ints(g, f"perm_gens[{k}]", degree))
                for k, g in enumerate(_json_list(obj["perm_gens"], "perm_gens"))]
        if not gens:
            raise InvalidStructureError("perm_gens needs at least one permutation")
        return from_permutations(gens, name=name or "perm_group")
    raise InvalidStructureError("group JSON needs either a table or perm_gens")


def load_group(path: str | Path) -> FiniteGroup:
    path = Path(path)
    return group_from_json(json.loads(path.read_text()), name=path.stem)


_SPECIAL_BUILDERS = {
    "a4": alternating4,
    "pauli16": pauli_group,
    "c22sc4": c22_semidirect_c4,
    "es27": lambda: heisenberg_group(3),
    "c4sc4": lambda: semidirect_cyclic(4, 4, 3, name="c4sc4"),
}
_NUMBERED_BUILDERS = {"es_p3_": heisenberg_group, "sd": semidihedral_group, "c": cyclic_group,
                      "d": dihedral_group, "q": dicyclic_group, "m": modular_group}


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a builtin group name like c12, c4xc2, d8, q8, sd16, m27, es27."""
    if "x" in name:
        parts = name.split("x")
        if "" in parts:
            raise InvalidArgumentError(f"unknown group name {name!r}")
        g = builtin_group(parts[0])
        for part in parts[1:]:
            g = direct_product(g, builtin_group(part))
        g.name = name
        return g
    if name in _SPECIAL_BUILDERS:
        return _SPECIAL_BUILDERS[name]()
    # ASCII digits: int() alone also takes "1_0", "+4", " 4" and other scripts' digits; a
    # minus sign passes, so that the order check refuses "c-3" as below 1
    numbered = re.fullmatch(f"({'|'.join(_NUMBERED_BUILDERS)})(-?[0-9]+)", name)
    if numbered is None:
        raise InvalidArgumentError(f"unknown group name {name!r}")
    return _NUMBERED_BUILDERS[numbered[1]](int(numbered[2]))
