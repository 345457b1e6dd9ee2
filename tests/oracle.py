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
test on a generating set instead.  The group builders here fill a Cayley
table with one Python product per pair of listed elements (`group_from_mult`);
the library's builders compute each table as one array formula instead.  The
Sylow subgroup here (`sylow_by_closure`) tests every element against every
member of the current subgroup and rebuilds the subgroup by `closure_by_bfs`
at each step, with p-elements read from the element orders;
`groups.sylow_ascent` reads only the generators' conjugates and `join`s each
new generator to one mask.  The subgroup closure here (`closure_by_bfs`)
multiplies each reached element by each generator in Python; the one closure
kernel `groups.join`, behind `closure`, `power_commutator`,
`rings.additive_closure`, the Sylow ascents and `_monoid_generators`,
multiplies each member by each generator once, in blocks, straight into a
mask; `JoinLedger` wraps it and checks that it does.  The monoid generating
set here (`monoid_generators_by_reach`) multiplies everything reached by
every generator again after each join; `morphisms._monoid_generators` `join`s
each new generator instead.  The generator-image search here
(`image_rows_by_grid`) builds every candidate with `itertools.product` and
fills them all at once; `morphisms._image_rows` decodes and fills them in
bounded blocks, keeping only survivors.  The conjugacy classes here
(`conjugacy_classes`) take g x g^-1 by two Python table lookups per pair;
`morphisms.aut_group` counts each class by its least member, read off
`FiniteGroup.conj_table`.  The Burnside basis here (`burnside_basis`) walks
the elements in order and rebuilds the generated subgroup as a Python set by
`closure_by_bfs` for each new generator; `groups.generating_set` takes the
columns that one `groups._right_search` walk from Phi(G) joins instead.  The
fill plan here (`bfs_plan`) is a level-by-level queue of right products over
the test columns; `morphisms._bfs_plan` takes the arrivals of that same walk
from the identity instead.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from adjrings import groups, morphisms
from adjrings.abelian import prime_power
from adjrings.errors import (
    BudgetError,
    InvalidArgumentError,
    InvalidElementError,
    InvalidStructureError,
)
from adjrings.groups import (
    FiniteGroup,
    Subgroup,
    enumerate_subgroups,
    frattini,
    full_subgroup,
    trivial_subgroup,
)


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


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Each class {g x g^-1 : g in G}, listed by its least member."""
    t, inv = G.table.tolist(), G.inverses.tolist()
    seen: set = set()
    out = []
    for x in range(G.n):
        if x not in seen:
            cls = sorted({t[t[g][x]][inv[g]] for g in range(G.n)})
            seen.update(cls)
            out.append(tuple(cls))
    return out


def is_associative(table) -> bool:
    """(xy)z == x(yz) for every triple, as two n^3 lookups."""
    tab = np.asarray(table)
    return bool((tab[tab, :] == tab[:, tab]).all())


def closure_by_bfs(G: FiniteGroup, seed) -> Subgroup:
    """Subgroup generated by `seed` (right-multiplication reachability)."""
    gens = sorted(set(int(s) for s in seed))
    for s in gens:
        if not 0 <= s < G.n:
            raise InvalidElementError(f"element {s} out of range")
    elems = {G.identity}
    frontier = [G.identity]
    t = G.table
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(t[x, g])
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(G, tuple(sorted(elems)))


def burnside_basis(G: FiniteGroup) -> list[int]:
    """Least-first basis of G/Phi(G) for a p-group G, Phi(G) from `frattini`."""
    covered = set(frattini(G).elems)
    base = list(covered)
    gens: list[int] = []
    for x in range(G.n):
        if len(covered) == G.n:
            break
        if x not in covered:
            gens.append(x)
            covered = set(closure_by_bfs(G, base + gens).elems)
    return gens


def bfs_plan(G: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """Fill order (element, parent, test-column slot) covering G from the
    test columns, queue by queue of right products."""
    gens = morphisms._test_columns(G)
    seen = {G.identity}
    plan = []
    queue = [G.identity]
    t = G.table
    while queue:
        nxt = []
        for x in queue:
            for gi, g in enumerate(gens):
                y = int(t[x, g])
                if y not in seen:
                    seen.add(y)
                    plan.append((y, x, gi))
                    nxt.append(y)
        queue = nxt
    if len(seen) != G.n:
        raise InvalidStructureError("generators do not generate the group")
    return tuple(plan)


def sylow_by_closure(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup by deterministic first-found normalizer ascent."""
    if prime_power(p) != (p, 1):
        raise InvalidArgumentError(f"{p} is not prime")
    target = 1
    n = G.n
    while n % p == 0:
        target *= p
        n //= p
    cur = trivial_subgroup(G)
    p_power = target % G.element_orders == 0  # an order divides |G|: p-power iff it divides target
    while cur.order < target:
        norm = cur.mask[G.conj_table[:, list(cur.elems)]].all(axis=1)
        cand = np.flatnonzero(norm & ~cur.mask & p_power)
        if len(cand) == 0:
            raise InvalidStructureError("sylow ascent stalled")
        g = int(cand[0])
        cur = closure_by_bfs(G, list(cur.elems) + [g])
    return cur


def monoid_generators_by_reach(M: np.ndarray, index, identity_idx: int) -> list[int]:
    """Greedy generating set of the composition monoid over the image rows of
    M, largest image first; after each join everything reached is multiplied
    by every generator again, frontier by frontier, until nothing new
    appears."""
    m = M.shape[0]
    reached = np.arange(m) == identity_idx
    gens: list[int] = []
    for g in np.lexsort((np.arange(m), -morphisms._image_sizes(M))).tolist():
        if reached[g]:
            continue
        gens.append(g)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            frontier = np.unique(np.concatenate(
                [index.require(M[h][M[frontier]], "monoid closure") for h in gens]))
            frontier = frontier[~reached[frontier]]
            reached[frontier] = True
    return gens


class JoinLedger:
    """A wrapper of `groups.join` that checks the kernel's work: within the
    joins of one mask (one closure, or a whole ascent) no (member, generator)
    pair is multiplied twice, each block of products holds at most
    CHUNK_ENTRIES entries at `width` entries a product (or one member's
    products), and the blocks cover every product asked for.  `masks` maps
    each mask's id to the mask and the members each generator multiplied."""

    def __init__(self, width: int = 1):
        self.width = width
        self.masks: dict = {}
        self.products = 0

    def wrap(self, kernel):
        def join(seen, gens, new, step):
            done = self.masks.setdefault(id(seen), (seen, {}))[1]  # keeps `seen`, so ids stay unique

            def ledger_step(xs, cols):
                for c in cols.tolist():
                    row = done.setdefault(c, np.zeros(seen.size, dtype=bool))
                    assert not row[xs].any(), f"generator {c} multiplied a member twice"
                    row[xs] = True
                widest = max(1, groups.CHUNK_ENTRIES // (cols.size * self.width)) * cols.size
                total = 0
                for hits in step(xs, cols):
                    assert hits.size <= widest, f"a block of {hits.size} products"
                    total += hits.size
                    yield hits
                assert total == xs.size * cols.size, "the blocks skip products"
                self.products += total
            return kernel(seen, gens, new, ledger_step)
        return join


# -- the generator-image search in one shot ----------------------------------------


def candidate_grid(choices, n: int, what: str) -> np.ndarray:
    """Every choice of one value per list, as int32 rows in lexicographic
    order, once the n image entries each row will fill pass the batch budget
    (one empty row when there are no lists, as for the trivial group)."""
    count = math.prod(map(len, choices))
    if count * n > morphisms.BATCH_BUDGET:
        raise BudgetError(f"{what} exceeds the batch budget")
    return np.array(list(itertools.product(*choices)), dtype=np.int32).reshape(count, len(choices))


def image_rows_by_grid(G: FiniteGroup, choices, act: np.ndarray, what: str) -> np.ndarray:
    """The generator-image search with every candidate built and filled at
    once from `candidate_grid`, then filtered by `morphisms._law_rows`."""
    C = candidate_grid(choices, G.n, what)
    U = np.zeros((C.shape[0], G.n), dtype=np.int32)
    U[:, G.identity] = G.identity
    for elem, parent, k in morphisms._bfs_plan(G):
        U[:, elem] = G.table[act[k][U[:, parent]], C[:, k]]
    return U[morphisms._law_rows(G, act, U)]


# -- groups from one Python product per pair ---------------------------------------


def group_from_mult(elements, mult, name: str) -> FiniteGroup:
    """Cayley table from explicit elements and a multiplication callable; the
    identity is the first element whose row and column are the identity map."""
    pos = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    tab = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            tab[i, j] = pos[mult(a, b)]
    identity = next(i for i in range(n)
                    if (tab[i] == np.arange(n)).all() and (tab[:, i] == np.arange(n)).all())
    return FiniteGroup(tab, identity=identity, name=name)


def cyclic_group(n: int) -> FiniteGroup:
    return group_from_mult(list(range(n)), lambda a, b: (a + b) % n, f"c{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str) -> FiniteGroup:
    elems = list(itertools.product(range(G.n), range(H.n)))
    return group_from_mult(
        elems, lambda a, b: (int(G.table[a[0], b[0]]), int(H.table[a[1], b[1]])), name)


def dicyclic_group(order: int) -> FiniteGroup:
    k = order // 4
    m = 2 * k

    def mult(a, b):
        i, e = a
        l, f = b
        base = (i + (l if e == 0 else -l)) % m
        if e and f:
            base = (base + k) % m
        return (base, (e + f) % 2)

    return group_from_mult(list(itertools.product(range(m), range(2))), mult, f"q{order}")


def semidirect_cyclic(n: int, m: int, r: int, name: str) -> FiniteGroup:
    def mult(a, b):
        i, j = a
        l, f = b
        return ((i + l * pow(r, j, n)) % n, (j + f) % m)

    return group_from_mult(list(itertools.product(range(n), range(m))), mult, name)


def heisenberg_group(p: int) -> FiniteGroup:
    def mult(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[0] * b[1]) % p)

    return group_from_mult(list(itertools.product(range(p), repeat=3)), mult, f"es_p3_{p}")


def pauli_group() -> FiniteGroup:
    def mult(a, b):
        k, x, z = a
        l, c, d = b
        return ((k + l + 2 * z * c) % 4, (x + c) % 2, (z + d) % 2)

    return group_from_mult(list(itertools.product(range(4), range(2), range(2))), mult, "pauli16")


def c22_semidirect_c4() -> FiniteGroup:
    def mult(a, b):
        (x, y), j = a
        (z, w), l = b
        if j % 2:
            z, w = w, z
        return (((x + z) % 2, (y + w) % 2), (j + l) % 4)

    elems = [((x, y), j) for x in range(2) for y in range(2) for j in range(4)]
    return group_from_mult(elems, mult, "c22sc4")


def from_permutations(perms, name: str) -> FiniteGroup:
    """Every product of the generators, sorted; a then b is i -> b[a[i]]."""
    elems = {tuple(range(len(perms[0])))}
    frontier = list(elems)
    while frontier:
        frontier = [tuple(g[i] for i in a) for a in frontier for g in perms]
        frontier = [b for b in set(frontier) if b not in elems]
        elems.update(frontier)
    return group_from_mult(sorted(elems), lambda a, b: tuple(b[i] for i in a), name)


def builtin_group(name: str) -> FiniteGroup:
    """The builtin names of `groups.builtin_group`, each from its per-pair product."""
    if "x" in name:
        g = builtin_group(name.split("x")[0])
        for part in name.split("x")[1:]:
            g = direct_product(g, builtin_group(part), name)
        return g
    special = {
        "a4": lambda: from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], "a4"),
        "pauli16": pauli_group,
        "c22sc4": c22_semidirect_c4,
        "es27": lambda: heisenberg_group(3),
        "c4sc4": lambda: semidirect_cyclic(4, 4, 3, "c4sc4"),
    }
    if name in special:
        return special[name]()
    if name.startswith("es_p3_"):
        return heisenberg_group(int(name[6:]))
    prefix, order = name.rstrip("0123456789"), int(name.lstrip("abcdefghijklmnopqrstuvwxyz"))
    p = next((q for q in range(2, order + 1) if order % q == 0), 1)
    return {
        "c": lambda: cyclic_group(order),
        "d": lambda: semidirect_cyclic(order // 2, 2, order // 2 - 1, name),
        "q": lambda: dicyclic_group(order),
        "sd": lambda: semidirect_cyclic(order // 2, 2, order // 4 - 1, name),
        "m": lambda: semidirect_cyclic(order // p, p, 1 + order // (p * p), name),
    }[prefix]()
