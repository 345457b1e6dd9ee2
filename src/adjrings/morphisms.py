"""Homomorphisms, derivations, their rings, and automorphism machinery.

Derivations into an abelian normal subgroup N follow the twisted product rule
d(xy) = d(x)^y d(y).  They form a ring under pointwise addition and
composition multiplication (d1 d2)(x) = d2(d1(x)), and the map u -> d_u with
d_u(x) = x^{-1} u(x) matches the coset-preserving endomorphism monoid with
that ring's circle monoid.  A homomorphism follows the same rule under the
trivial action, so Hom, Der, End_N and Aut sets all come from one
generator-image search, `_image_rows`.  Everything here verifies those laws
rather than assuming them, on every pair (x, g) with g in a generating set of
G, which covers every pair (x, y) by induction on the length of y (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, sec. 2).

Composition is written left-to-right throughout: (u * v)(x) = v(u(x)).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import (
    BoundError,
    BudgetError,
    InvalidArgumentError,
    InvalidStructureError,
)
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    Subgroup,
    blocks,
    center,
    generating_set,
    is_abelian_normal,
    is_normal,
    join,
    kappa,
    memo,
    memoized,
    omega_subgroup,
    p_group_prime,
    sylow_ascent,
    _compose_table,
    _powers,
    _right_search,
    _row_table,
    _RowIndex,
)
from .report import CheckReport, verdict
from .rings import FiniteRing, to_finite_ring

BATCH_BUDGET = 1 << 26  # image entries one generator-image search may fill
PAIRS_CAP = 1024
_PAIR_BROKEN = "pair ({},{}) breaks the correspondence"


def _image_sizes(M: np.ndarray) -> np.ndarray:
    """How many distinct values each row of M holds (its values in range(n),
    n its width, so n marks a permutation), marked in row `blocks`."""
    m, n = M.shape
    sizes = np.empty(m, dtype=np.int64)
    for b in blocks(m, n):
        hit = np.zeros((b.stop - b.start, n), dtype=bool)
        np.put_along_axis(hit, M[b], True, axis=1)
        sizes[b] = np.count_nonzero(hit, axis=1)
    return sizes


def _inverse_rows(M: np.ndarray) -> np.ndarray:
    """The inverse of each permutation row of M, in M's dtype, filled in row
    `blocks` with no wider copy."""
    inv = np.empty_like(M)
    one = np.arange(M.shape[1], dtype=M.dtype)
    for b in blocks(M.shape[0], M.shape[1]):
        np.put_along_axis(inv[b], M[b], np.broadcast_to(one, M[b].shape), axis=1)
    return inv


def coset_offsets(G: FiniteGroup, rows) -> np.ndarray:
    """Row u -> the map x^{-1} u(x), one row per image row u of G."""
    return G.table[G.inverses[None, :], np.asarray(rows, dtype=np.int32)]


def _then_rows(M: np.ndarray, index: _RowIndex, what: str):
    """`join`'s step over the image rows of M: the positions of x then c, for
    x in xs and c in cols, composed and looked up one `blocks` slice of xs
    at a time."""
    return lambda xs, cols: (index.require(M[cols][:, M[xs[b]]].reshape(-1, M.shape[1]), what)
                             for b in blocks(xs.size, cols.size * M.shape[1]))


def _test_columns(G: FiniteGroup) -> np.ndarray:
    """A generating set S of G ([1] if G = 1).  If f(xg) = f(x)f(g), or d(xg) =
    d(x)^g d(g), for every x and g in S, then so for every y in place of g, by
    induction on y's length as a word in S (x = 1 gives f(1) = d(1) = 1).  So
    derivations that agree on S agree everywhere."""
    return np.array(generating_set(G) or [G.identity])


def _trivial_action(G: FiniteGroup) -> np.ndarray:
    """One identity row per test column: under it the law is the homomorphism rule."""
    return np.broadcast_to(np.arange(G.n), (_test_columns(G).size, G.n))


def _law_rows(G: FiniteGroup, act: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Mask of the rows u of U with u(xs) = act_s(u(x)) u(s) for every x in G
    and s in S = _test_columns(G), act_s being row s of `act`; checked in
    row `blocks`."""
    S = _test_columns(G)
    slot = np.arange(S.size)
    ok = np.ones(U.shape[0], dtype=bool)
    for b in blocks(U.shape[0], G.n * S.size):
        u = U[b]
        acted = G.table[act[slot, u[:, :, None]], u[:, None, S]]
        ok[b] = (u[:, G.table[:, S]] == acted).all(axis=(1, 2))
    return ok


@memoized
def _bfs_plan(G: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """Fill order (element, parent, test-column slot) covering G from the
    test columns, kept in G's memo: the arrivals of `_right_search` from the
    identity over them, refused if a column had to join."""
    S = _test_columns(G)
    cols, plan = _right_search(G.table, np.arange(G.n) == G.identity, S)
    if len(cols) > S.size:
        raise InvalidStructureError("generators do not generate the group")
    return tuple(plan)


def _image_rows(G: FiniteGroup, choices, act: np.ndarray, what: str) -> np.ndarray:
    """The one generator-image search: every map u with u(s) in choices[k] for
    the k-th test column s that follows u(xs) = act_s(u(x)) u(s).

    Each candidate is extended from its test-column values along a spanning
    tree by that rule, then kept if the rule holds on every x and s.  Under
    the trivial action the rows are homomorphisms; under conjugation,
    act_s(v) = s^{-1} v s, they are derivations.

    The candidates x |G| image entries they would fill must pass BATCH_BUDGET
    before any is built.  Candidates are then decoded from their lexicographic
    positions by mixed radix over the choice lengths, in `blocks` of |G|
    entries a candidate; each block is filled and filtered, and its survivors
    are appended to one result array grown in place, so the rows come out in
    lexicographic order of their choices and no second copy of them is made.
    """
    lengths = [len(c) for c in choices]
    count = math.prod(lengths)
    if count * G.n > BATCH_BUDGET:
        raise BudgetError(f"{what} exceeds the batch budget")
    values = [np.asarray(c, dtype=np.int32) for c in choices]
    plan = _bfs_plan(G)
    out = np.empty((0, G.n), dtype=np.int32)
    for b in blocks(count, G.n):
        digits = np.unravel_index(np.arange(b.start, b.stop), lengths)
        U = np.empty((digits[0].size, G.n), dtype=np.int32)
        U[:, G.identity] = G.identity
        for elem, parent, k in plan:
            U[:, elem] = G.table[act[k][U[:, parent]], values[k][digits[k]]]
        U = U[_law_rows(G, act, U)]
        end = out.shape[0]
        out.resize((end + U.shape[0], G.n), refcheck=False)  # no view of `out` is alive
        out[end:] = U
    return out


def _validate_coset_target(G: FiniteGroup, N: Subgroup) -> None:
    if N.parent is not G:
        raise InvalidArgumentError("target subgroup must live in the same group")
    if not is_normal(G, N):
        raise InvalidArgumentError("target subgroup must be normal")


def _validate_module(G: FiniteGroup, N: Subgroup) -> None:
    """One normality test passes a module; a refused one is tested again to
    name the failure."""
    if N.parent is G and is_abelian_normal(G, N):
        return
    _validate_coset_target(G, N)
    raise InvalidArgumentError("module subgroup must be abelian")


def _is_central(G: FiniteGroup, N: Subgroup) -> bool:
    return bool((N.mask <= center(G).mask).all())


def _der_matrix(G: FiniteGroup, N: Subgroup) -> np.ndarray:
    """All derivations G -> N as read-only image rows, kept in G's memo
    under `("der", N.elems)` once they pass the fixed batch budget.

    Candidates are generator values in N, searched under conjugation.  For a
    central N the action is trivial, so these rows are exactly Hom(G, N).
    """
    _validate_module(G, N)

    def build() -> np.ndarray:
        S = _test_columns(G)
        U = _image_rows(G, [sorted(N.elems)] * S.size, G.conj_table[G.inverses[S]],
                        "derivation search space")
        # values on generators in a normal N keep every value in N; assert anyway
        if not N.mask[U].all():
            raise InvalidStructureError("derivation escaped its module")
        U.setflags(write=False)
        return U
    return memo(G, ("der", N.elems), build)


def _endo_matrix(G: FiniteGroup, N: Subgroup) -> np.ndarray:
    """All endomorphisms u with x^{-1}u(x) in N as read-only image rows,
    enumerated from coset images and kept in G's memo under
    `("endo", N.elems)` once they pass the fixed batch budget.

    The search is shared with the derivations but its inputs are not:
    candidates are generator images inside their N-cosets, searched under the
    trivial action.  Callers validate N before reading the memo.
    """
    def build() -> np.ndarray:
        narr = np.array(sorted(N.elems))
        cosets = [sorted(int(v) for v in G.table[g, narr]) for g in _test_columns(G)]
        U = _image_rows(G, cosets, _trivial_action(G), "endomorphism search space")
        # coset condition propagates from generators to all elements; assert anyway
        if not N.mask[coset_offsets(G, U)].all():
            raise InvalidStructureError("endomorphism escaped its cosets")
        U.setflags(write=False)
        return U
    return memo(G, ("endo", N.elems), build)


# -- table rings ------------------------------------------------------------------


def _rows_to_ring_tables(G: FiniteGroup, M: np.ndarray,
                         name: str) -> tuple[FiniteRing, np.ndarray]:
    """Ring of image rows under pointwise addition and composition, with the
    rows reordered to the ring's element order."""
    m = M.shape[0]
    if m > MAX_ORDER:
        raise BoundError(f"{name} has {m} members; table rings cap at {MAX_ORDER}")
    index = _RowIndex(M)
    add = _row_table(m, index, lambda rows: G.table[M[rows, None], M], name)
    mul = _compose_table(M, index, name)
    zero = int(index.require(np.full((1, G.n), G.identity, dtype=M.dtype), name)[0])
    ring, at = to_finite_ring(add, mul, zero, name=name)
    rows = np.empty_like(M)
    rows[at] = M
    return ring, rows


def hom_ring(G: FiniteGroup, S: Subgroup) -> tuple[FiniteRing, np.ndarray]:
    """Ring of homomorphisms into a central subgroup S, and their image rows.

    On a central S the twisted rule is the homomorphism rule, so Hom(G, S) is
    Der(G, S) and the rows are the memoized derivation rows.
    """
    if not _is_central(G, S):
        raise InvalidArgumentError("homomorphism ring needs a central target")
    M = _der_matrix(G, S)
    return _rows_to_ring_tables(G, M, name=f"hom({G.name},S{S.order})")


def der_ring(G: FiniteGroup, N: Subgroup) -> tuple[FiniteRing, np.ndarray]:
    """Ring of derivations into an abelian normal subgroup N, and their image rows."""
    M = _der_matrix(G, N)
    return _rows_to_ring_tables(G, M, name=f"der({G.name},N{N.order})")


def der_subring_trivial_on_omega(G: FiniteGroup, N: Subgroup) -> tuple[FiniteRing, np.ndarray]:
    """Subring of derivations vanishing on the bottom layer of N, and their rows.

    The layer is Omega_1(N) for odd primes, Omega_2(N) for p = 2; for a
    trivial module the subring is the zero ring.  A module from another
    group, or one that is not a p-group, is refused before the derivation
    search, and `_der_matrix` refuses one that is not abelian normal.
    """
    if N.parent is not G:
        _validate_coset_target(G, N)  # refuses N as living in another group
    layer = kappa(p_group_prime(N.as_group(), "the module"))
    M = _der_matrix(G, N)
    omega_ids = [N.elems[x] for x in omega_subgroup(N.as_group(), layer).elems]
    sel = M[(M[:, omega_ids] == G.identity).all(axis=1)]
    return _rows_to_ring_tables(G, sel, name=f"der0({G.name},N{N.order})")


# -- automorphisms -------------------------------------------------------------


def aut_n(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Aut_N(G): bijective members of End_N(G), as a group under composition,
    and the read-only image rows of its members in lexicographic order, row i
    being group element i."""
    _validate_coset_target(G, N)
    M = _endo_matrix(G, N)
    return AutomorphismGroup(G, M[_image_sizes(M) == G.n]).as_group()


class AutomorphismGroup:
    """A group of automorphisms of G (all of Aut(G), or Aut_N(G)) held
    member-wise: lexsorted image rows and one row index.

    The full Cayley table is never materialized unless as_group() is called,
    so groups with tens of thousands of automorphisms stay workable.  Sylow
    subgroups, by `sylow_ascent` on the rows read in `blocks`, are kept by
    `memo`, in an object that itself lives in its group's memo.
    """

    def __init__(self, G: FiniteGroup, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix[np.lexsort(matrix.T[::-1])])
        matrix.flags.writeable = False
        self.group = G
        self.matrix = matrix
        self._index = _RowIndex(matrix)
        ident = np.arange(G.n, dtype=matrix.dtype)[None, :]
        self.identity_index = int(self._index.require(ident, "identity automorphism")[0])
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def as_group(self) -> tuple[FiniteGroup, np.ndarray]:
        """The members as a Cayley table, and the read-only member matrix."""
        m = self.order
        if m > MAX_ORDER:
            raise BoundError(f"automorphism group of order {m} exceeds the table cap {MAX_ORDER}")
        tab = _compose_table(self.matrix, self._index, "automorphism composition")
        grp = FiniteGroup(tab, identity=self.identity_index, name=f"aut({self.group.name})")
        return grp, self.matrix

    def sylow(self, p: int) -> tuple[FiniteGroup, list[int]]:
        """A Sylow p-subgroup by `sylow_ascent` over the members, as its own
        Cayley table plus the member indices, sorted ascending."""
        return memo(self, ("sylow", p), lambda: self._ascend_sylow(p))

    def _ascend_sylow(self, p: int) -> tuple[FiniteGroup, list[int]]:
        M, index = self.matrix, self._index
        one = np.arange(M.shape[1], dtype=M.dtype)
        parts = list(blocks(self.order, M.shape[1]))
        take = lambda u, v: np.take_along_axis(v, u, axis=1)
        inverse = cache(lambda: _inverse_rows(M))  # built on first use
        ids = np.flatnonzero(sylow_ascent(
            self.order, self.identity_index, p,
            lambda k: np.concatenate([
                (_powers(np.broadcast_to(one, M[b].shape), M[b], k, take) == one).all(axis=1)
                for b in parts]),
            lambda g: np.concatenate([
                index.require(take(M[g][inverse()[b]], M[b]), "automorphism conjugation")
                for b in parts]),
            _then_rows(M, index, "automorphism closure"))).tolist()
        sub = M[ids]
        tab = _compose_table(sub, _RowIndex(sub), "sylow composition")
        grp = FiniteGroup(tab, identity=ids.index(self.identity_index),
                          name=f"sylow{p}(aut({self.group.name}))")
        return grp, ids


@memoized
def aut_group(G: FiniteGroup) -> AutomorphismGroup:
    """Full automorphism group by generator-image backtracking, built once per
    group and kept in G's memo.  Like the Der and End_N searches, it is bounded
    by BATCH_BUDGET alone.

    Candidate images are pruned to elements sharing the generator's order and
    conjugacy class size, each element's class being counted by its least
    conjugate; every surviving assignment is verified as a full homomorphism
    and kept only if bijective.
    """
    least = G.conj_table.min(axis=0)
    class_size = np.bincount(least, minlength=G.n)[least]
    orders = G.element_orders
    cand_lists = [np.flatnonzero((orders == orders[g]) & (class_size == class_size[g])).tolist()
                  for g in _test_columns(G)]
    M = _image_rows(G, cand_lists, _trivial_action(G), "automorphism candidate space")
    M = M[_image_sizes(M) == G.n]  # rebound: the unfiltered rows are freed before the sort
    return AutomorphismGroup(G, M)


# -- the correspondence check ------------------------------------------------------


def _monoid_generators(M: np.ndarray, index: _RowIndex, identity_idx: int) -> list[int]:
    """Greedy generating set of the composition monoid over image rows: each
    candidate not yet reached is `join`ed to the reached mask.

    Candidates are taken largest image first: products never enlarge the
    image, so starting from the bijections keeps the generating set small.
    """
    m = M.shape[0]
    reached = np.arange(m) == identity_idx
    gens: list[int] = []
    step = _then_rows(M, index, "monoid closure")
    for g in np.lexsort((np.arange(m), -_image_sizes(M))).tolist():
        if not reached[g]:
            join(reached, gens, [g], step)
    return gens


def _pair_kernel(G: FiniteGroup, ends: np.ndarray, DU: np.ndarray, cols):
    """sides(i, j): both sides of the correspondence on x in cols, one row per
    pair of broadcast member indices (i, j): x^{-1}(u_i then u_j)(x) and
    (d_i o d_j)(x) = d_i(x) d_j(x) d_j(d_i(x)), d_k being row k of DU."""
    m, n, t = ends.shape[0], G.n, G.table.ravel()
    eT, dT, eS, dS = (M.T.copy().ravel() for M in (ends, DU, ends[:, cols], DU[:, cols]))

    def sides(i, j):  # computed with the cols axis first, returned last
        s = np.arange(len(cols)).reshape((-1,) + (1,) * max(np.ndim(i), np.ndim(j)))
        y, a = eS[s * m + i], dS[s * m + i]  # u_i(x), d_i(x)
        left = t[G.inverses[cols].reshape(s.shape) * n + eT[y * m + j]]
        circ = t[t[a * n + dS[s * m + j]] * n + dT[a * m + j]]
        return np.moveaxis(left, 0, -1), np.moveaxis(circ, 0, -1)
    return sides


def _all_pairs(G: FiniteGroup, sides, m: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch and left-zero masks of all m x m pairs, in row `blocks` of
    m x width pair entries."""
    bad, zero, every = np.zeros((m, m), bool), np.zeros((m, m), bool), np.arange(m)
    for b in blocks(m, m * width):
        left, circ = sides(every[b, None], every)
        bad[b] = (left != circ).any(axis=-1)
        zero[b] = (circ == G.identity).all(axis=-1)
    return bad, zero


def check_laue(G: FiniteGroup, N: Subgroup) -> CheckReport:
    """Verify that u -> x^{-1}u(x) matches End_N(G) with the derivation ring's
    circle monoid, restricting to Aut_N(G) on the invertible side.

    Both sides are enumerated independently.  Small monoids are compared on
    every composition pair; past `PAIRS_CAP` members the comparison runs on a
    monoid generating set against all members (both orientations), which
    extends to all pairs by induction on word length once the ring laws and
    structural associativity of composition are verified; nothing in that
    induction needs the module to be central.

    Every row compared is a derivation G -> N (x^{-1}W(x) for an endomorphism
    W; d_i o d_j as N is abelian and d(n^y) = d(n)^y), so comparisons and zero
    tests read only the generator columns S of _test_columns: m^2 |S| entries,
    compared in row blocks, as flat takes on j-contiguous (transposed) tables.
    """
    ders = _der_matrix(G, N)
    ends = _endo_matrix(G, N)
    computed: dict = {"der_count": int(ders.shape[0]), "end_count": int(ends.shape[0]),
                      "module_order": N.order, "central": _is_central(G, N)}
    witness = _laue_witness(G, N, ders, ends, computed)
    return verdict(computed, "monoid-isomorphism", witness)


def _laue_witness(G: FiniteGroup, N: Subgroup, ders: np.ndarray, ends: np.ndarray,
                  computed: dict) -> str | None:
    """The first law of check_laue's correspondence that breaks, or None;
    each part that holds is recorded in `computed`."""
    if ders.shape[0] != ends.shape[0]:
        return "side counts differ"
    m = ders.shape[0]
    der_index = _RowIndex(ders)
    DU = coset_offsets(G, ends)  # row k = derivation of endomorphism k
    mapped, found = der_index.find(DU)
    if not found.all():
        k = int(np.flatnonzero(~found)[0])
        return f"endomorphism {k} maps outside the derivation set"
    if np.unique(mapped).size != m:
        return "correspondence is not injective"
    computed["bijection"] = True

    _, zfound = der_index.find(np.full((1, G.n), G.identity, dtype=ders.dtype))
    if not zfound[0]:
        return "zero derivation missing"
    end_index = _RowIndex(ends)
    ident_idx = int(end_index.require(
        np.arange(G.n, dtype=ends.dtype)[None, :], "identity endomorphism")[0])
    bijective = np.flatnonzero(_image_sizes(ends) == G.n)
    computed["aut_count"] = int(bijective.size)

    S, every = _test_columns(G), np.arange(m)
    sides = _pair_kernel(G, ends, DU, S)
    if m <= PAIRS_CAP:
        computed["pairs_mode"] = "all-pairs"
        bad, left_zero = _all_pairs(G, sides, m, S.size)
        if bad.any():
            return _PAIR_BROKEN.format(*divmod(int(bad.argmax()), m))
        quasi = np.flatnonzero((left_zero & left_zero.T).any(axis=1))
        if not np.array_equal(quasi, bijective):
            return "invertible sides do not match"
        computed["restriction"] = "exhaustive"
    else:
        computed["pairs_mode"] = "generators"
        gens = _monoid_generators(ends, end_index, ident_idx)
        computed["monoid_generators"] = len(gens)
        for y in gens:  # both orientations: y then every v, every v then y
            for i, j in ((y, every), (every, y)):
                bad = np.flatnonzero(np.not_equal(*sides(i, j)).any(axis=1))
                if bad.size:
                    return _PAIR_BROKEN.format(*((y, bad[0]) if j is every else (bad[0], y)))
        if bijective.size:
            jidx = np.empty_like(bijective)
            for b in blocks(bijective.size, G.n):  # the inverse rows, a block at a time
                jidx[b], found = end_index.find(_inverse_rows(ends[bijective[b]]))
                if not found.all():
                    return f"automorphism {int(bijective[b][found.argmin()])} lacks an inverse member"
            one, other = sides(bijective, jidx)[1], sides(jidx, bijective)[1]
            bad = np.flatnonzero(((one != G.identity) | (other != G.identity)).any(axis=1))
            if bad.size:
                return f"automorphism {int(bijective[bad[0]])} has no circle inverse"
        computed["restriction"] = "constructive"

    # ring-law witness: each derivation restricts to a homomorphism on N
    ngrp, narr = N.as_group(), list(N.elems)
    pos = np.zeros(G.n, dtype=np.int32)
    pos[narr] = np.arange(N.order)  # position in N of each element of N
    additive = _law_rows(ngrp, _trivial_action(ngrp), pos[ders[:, narr]])
    if not additive.all():
        bad = int(np.flatnonzero(~additive)[0])
        return f"derivation {bad} is not additive on the module"
    computed["module_restriction_additive"] = True
    return None
