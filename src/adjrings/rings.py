"""Finite p-rings presented by structure constants.

A ring lives on an additive group Z_{p^e1} + ... + Z_{p^ed}, and
multiplication is determined by the d*d basis products.  An element is its
index into the tables `FiniteRing.tables`, in lexicographic coordinate order,
and a subset of R is a bool mask of shape (|R|,); coordinates are read only to
print an element.  The circle operation x o y = x + y + xy and its
quasi-inverses give the adjoint monoid; the group of quasi-invertible elements
is built in adjoint.py.  `to_finite_ring` rebases any pair of addition and
multiplication tables, quotient tables among them, on structure constants.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .abelian import prime_power, table_decomposition
from .errors import (
    BoundError,
    BudgetError,
    HypothesisError,
    InvalidArgumentError,
    InvalidStructureError,
)
from .groups import (MAX_ORDER, _index_table, _json_int, _json_list, _powers, blocks,
                     closed_mask, kappa, memoized)

ENUM_BUDGET = 2**23  # partial tensors one enumeration of a type with d <= 3 may build


class RingTables(NamedTuple):
    """Read-only index tables over a ring's lexicographic element order.

    Index 0 is the zero element.  `coords[i]` is the coordinate vector of
    element i; `add[i, j]`, `mul[i, j]` and `neg[i]` are element indices, and
    `basis[k]` is the index of the k-th basis element, so an element's index
    is its coordinates dotted with `basis`.
    """

    coords: np.ndarray
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    basis: np.ndarray

    def circle(self, a, b):
        """Indices of x o y = x + y + xy, elementwise over index arrays."""
        return self.add[self.add[a, b], self.mul[a, b]]

    def circle_power(self, xs, k: int):
        """k-fold circle powers (k >= 0) of the indices xs, by `_powers`."""
        return _powers(np.zeros_like(xs), xs, k, self.circle)

    def quasi_inverses(self, xs, found):
        """Circle inverse of each index in xs, -1 where there is none.

        Row r of `found` marks the two-sided circle inverses of xs[r].  Raises
        when a row marks several, and when x is nilpotent and the alternating
        series -x + x^2 - x^3 + ... disagrees with its inverse.
        """
        count = found.sum(axis=1)
        for i in xs[count > 1][:1]:
            x = tuple(self.coords[i].tolist())
            raise InvalidStructureError(f"{x} has multiple quasi-inverses")
        inverse = np.where(count == 1, found.argmax(axis=1), -1)
        acc = np.zeros_like(xs)
        term = xs
        # a nilpotent x has x^(L+1) = 0 when |R| = p^L, and L < |R|.bit_length()
        for k in range(len(self.add).bit_length()):
            acc = self.add[acc, self.neg[term] if k % 2 == 0 else term]
            term = self.mul[term, xs]
        for i in xs[(term == 0) & (count == 1) & (acc != inverse)][:1]:
            x = tuple(self.coords[i].tolist())
            raise InvalidStructureError(f"quasi-inverse series disagrees at {x}")
        return inverse


def _is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def _integer(value, what: str) -> int:
    """A Python or numpy integer as an int; booleans and anything else raise."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidStructureError(f"{what} must be an integer, got {value!r}")


def _additive_type(p, exps) -> tuple[int, tuple[int, ...]]:
    """A prime p and additive exponents (each >= 1) as ints; anything else
    raises, and so does an order p^(sum exps) that may pass 128 bits, before
    it is powered."""
    p = _integer(p, "p")
    if not _is_prime(p):
        raise InvalidStructureError(f"p = {p} is not prime")
    exps = tuple(_integer(e, "additive exponent") for e in exps)
    if any(e < 1 for e in exps):
        raise InvalidStructureError("additive exponents must be >= 1")
    if p.bit_length() * sum(exps) > 128:
        raise BoundError(f"|R| = {p}^{sum(exps)} may pass 128 bits")
    return p, exps


class FiniteRing:
    """Structure-constant ring on a direct sum of cyclic p-groups.

    `mul[i][j]` is the coordinate vector of the product of basis elements i, j,
    kept reduced as the exact (d, d, d) integer array `tensor` (dtype object).
    Construction, or `enumerate_rings` for a whole block at once, verifies
    well-definedness and associativity on every basis triple (`_checked_tensors`),
    which trilinearity extends to the whole ring.  Element arithmetic is read
    off the index tables `tables`, built on first use up to MAX_ORDER elements.
    The tables and the objects module functions build are all kept by
    `groups.memo` in `_cache`.
    """

    def __init__(self, p: int, exps, mul, name: str | None = None):
        p, exps = _additive_type(p, exps)
        d = len(exps)
        tensor = np.array(mul, dtype=object)
        if tensor.shape != (d,) * 3 and (d or tensor.size):
            raise InvalidStructureError("multiplication tensor must be d x d x d")
        tensor = np.frompyfunc(_integer, 2, 1)(tensor.reshape((d,) * 3), "coefficient")
        self._adopt(p, exps, _checked_tensors(p, exps, tensor[None])[0], name)

    def _adopt(self, p: int, exps: tuple[int, ...], tensor: np.ndarray, name: str | None):
        """Take on a reduced tensor that `_checked_tensors` has passed; returns self."""
        self.p = p
        self.exps = exps
        self.dim = len(exps)
        self.moduli = tuple(p**e for e in exps)
        self.order = math.prod(self.moduli)
        self.name = name or f"ring_p{p}_" + "_".join(map(str, exps))
        self.tensor = tensor.astype(object, copy=False)
        self.tensor.flags.writeable = False
        self._cache: dict = {}
        return self

    # -- index tables ---------------------------------------------------------

    @memoized
    def tables(self) -> RingTables:
        """Index tables of +, * and negation, built on first use."""
        if self.order > MAX_ORDER:
            raise BoundError(f"ring tables capped at {MAX_ORDER} elements")
        moduli, tensor = np.array(self.moduli, dtype=np.int64), self.tensor.astype(np.int64)
        weights = np.array([math.prod(self.moduli[k + 1:]) for k in range(self.dim)], dtype=np.int64)
        coords = np.indices(self.moduli, dtype=np.int64).reshape(self.dim, self.order).T
        add = np.zeros((self.order, self.order), dtype=np.int32)
        mul = np.zeros_like(add)
        for k in range(self.dim):  # one (|R|, |R|) term per coordinate
            c, m, w = coords[:, k], moduli[k], weights[k]
            add += (c[:, None] + c) % m * w
            # coordinate k of x y = sum_{a,b} x_a y_b T[a, b] is x T[:, :, k] y^T
            mul += coords @ tensor[:, :, k] @ coords.T % m * w
        neg = (-coords % moduli @ weights).astype(np.int32)
        out = RingTables(coords, add, mul, neg, weights)
        for arr in out:
            arr.flags.writeable = False
        return out

    # -- structural predicates -------------------------------------------------

    def _small_order_kills(self, side: int) -> bool:
        return not (self.tensor % _slot_steps(self.p, self.exps, side)).any()

    def is_left_p_nil(self) -> bool:
        """Every x with px = 0 (4x = 0 when p = 2) satisfies xR = 0."""
        return self._small_order_kills(0)

    def is_right_p_nil(self) -> bool:
        return self._small_order_kills(1)

    def additive_exponent_log(self) -> int:
        """m with exp(R,+) = p^m."""
        return max(self.exps, default=0)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, order={self.order})"


# -- subsets ----------------------------------------------------------------------


def _subset(ring: FiniteRing, mask) -> np.ndarray:
    """A subset of R, which must be a bool mask of shape (|R|,)."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (ring.order,):
        raise InvalidArgumentError(f"a subset of {ring.name} must be a bool mask of shape "
                                   f"({ring.order},), got {mask.dtype} of shape {mask.shape}")
    return mask


def _is_ideal(ring: FiniteRing, mask: np.ndarray) -> bool:
    """Whether a subgroup mask is closed under products with R on both sides."""
    mul, basis = ring.tables.mul, ring.tables.basis
    members = np.flatnonzero(mask)
    return bool(mask[mul[np.ix_(members, basis)]].all()
                and mask[mul[np.ix_(basis, members)]].all())


def additive_closure(ring: FiniteRing, gens) -> np.ndarray:
    """Mask of the subgroup of (R,+) a mask generates: `closed_mask` on `add`."""
    return closed_mask(ring.tables.add, _subset(ring, gens) | (np.arange(ring.order) == 0))


def omega_additive(ring: FiniteRing, n: int) -> np.ndarray:
    """Mask of the elements killed by p^n, the additive omega-n subgroup:
    coordinate k is a multiple of p^max(0, e_k - n)."""
    if n < 0:
        raise InvalidArgumentError("omega index must be >= 0")
    steps = np.array([ring.p ** max(0, e - n) for e in ring.exps], dtype=np.int64)
    return (ring.tables.coords % steps == 0).all(axis=1)


@memoized
def ring_power_chain(ring: FiniteRing) -> list[np.ndarray]:
    """[R^1, R^2, ...] down to stabilization, as read-only masks, kept in the
    ring's memo."""
    mul, basis = ring.tables.mul, ring.tables.basis
    chain = [np.ones(ring.order, dtype=bool)]
    while True:
        products = np.zeros(ring.order, dtype=bool)
        products[mul[np.ix_(chain[-1], basis)]] = True
        nxt = additive_closure(ring, products)
        if (nxt == chain[-1]).all():
            break
        chain.append(nxt)
    for mask in chain:
        mask.flags.writeable = False
    return chain


def nilpotency_class_ring(ring: FiniteRing) -> int | None:
    """Least n with R^(n+1) = 0, or None if the power chain stalls above 0."""
    chain = ring_power_chain(ring)
    if chain[-1].sum() != 1:
        return None
    return len(chain) - 1


def _annihilator(ring: FiniteRing, targets, side: int) -> np.ndarray:
    """{x : x t = 0} (side 0) or {x : t x = 0} (side 1) for all t in the
    target mask, verified to be an additive subgroup."""
    mul = ring.tables.mul
    targets = _subset(ring, targets)
    mask = (mul[:, targets] == 0).all(axis=1) if side == 0 else (mul[targets] == 0).all(axis=0)
    if not (additive_closure(ring, mask) == mask).all():
        raise InvalidStructureError("annihilator failed subgroup closure")
    return mask


def left_annihilator(ring: FiniteRing, targets) -> np.ndarray:
    """Mask of {x : x t = 0 for all masked t}, verified to be an additive subgroup."""
    return _annihilator(ring, targets, 0)


def right_annihilator(ring: FiniteRing, targets) -> np.ndarray:
    """Mask of {x : t x = 0 for all masked t}, verified to be an additive subgroup."""
    return _annihilator(ring, targets, 1)


def ideal_u(ring: FiniteRing, omega_for_two: int = 1) -> np.ndarray:
    """Mask of the right annihilator of R meeting the additive omega-1 subgroup.

    For p = 2 the omega index is adjustable (1 or 2); the two readings can
    produce different ideals and verification reports both.  Requires a left
    p-nil ring and asserts the result is a nontrivial two-sided ideal when
    R is not the zero ring.
    """
    if omega_for_two not in (1, 2):
        raise InvalidArgumentError("omega variant must be 1 or 2")
    if not ring.is_left_p_nil():
        raise HypothesisError("ideal_u needs a left p-nil ring")
    n = omega_for_two if ring.p == 2 else 1
    u = right_annihilator(ring, np.ones(ring.order, dtype=bool)) & omega_additive(ring, n)
    if not _is_ideal(ring, u):
        raise InvalidStructureError("ideal_u is not two-sided")
    if ring.order > 1 and u.sum() == 1:
        raise InvalidStructureError("ideal_u came out trivial on a nonzero ring")
    return u


def quotient_ring(ring: FiniteRing, ideal) -> tuple[FiniteRing, np.ndarray]:
    """Quotient by a two-sided ideal given as a mask, rebased by to_finite_ring.

    Each coset is represented by its least element, as in `quotient_group`.
    Returns (Q, at) with at[x] the index in Q of the coset of x, so the mask
    of at == 0 is the ideal.  Q's p comes from to_finite_ring, so the order-1
    quotient R/R takes p = 2, as trivial hom and der rings do.
    """
    ideal = _subset(ring, ideal)
    if not (additive_closure(ring, ideal) == ideal).all():
        raise InvalidArgumentError("ideal is not an additive subgroup")
    if not _is_ideal(ring, ideal):
        raise InvalidArgumentError("subgroup is not a two-sided ideal")
    t = ring.tables
    rep = t.add[:, ideal].min(axis=1)  # least element of each coset x + I
    reps, coset = np.unique(rep, return_inverse=True)
    grid = np.ix_(reps, reps)
    q, at = to_finite_ring(coset[t.add[grid]], coset[t.mul[grid]], 0,
                           name=f"{ring.name}/I{int(ideal.sum())}")
    return q, at[coset]


def to_finite_ring(add, mul, zero: int, name: str = "T") -> tuple[FiniteRing, np.ndarray]:
    """Structure-constant ring isomorphic to the ring given by index tables.

    Returns (R, at) where at[i] is the index in R of table element i.  The
    witness proves every ring axiom for the tables: at is a bijection onto R
    that fixes zero and carries `add` and `mul` to R's tables on every pair,
    so the tables are an isomorphic copy of the validated ring R.
    """
    add = _index_table(add, np.int64)
    mul = _index_table(mul, np.int64)
    m = len(add) if add.ndim else 0
    every = np.arange(m)
    if not m or add.shape != (m, m) or mul.shape != (m, m):
        raise InvalidStructureError("tables must be square, non-empty and same-sized")
    if min(add.min(), mul.min()) < 0 or max(add.max(), mul.max()) >= m:
        raise InvalidStructureError("table entries out of range")
    # a zero row and column and Latin columns keep the decomposition finite: each
    # multiples loop is an orbit of a column permutation, so it returns to zero
    if not (0 <= zero < m and (add[zero] == every).all() and (add[:, zero] == every).all()):
        raise InvalidStructureError(f"element {zero} is not an additive zero")
    if not (np.sort(add, axis=0) == every[:, None]).all():
        raise InvalidStructureError("addition table is not a Latin square")
    factors, basis, coords = table_decomposition(add.tolist(), zero)
    pks = [prime_power(f) for f in factors]
    if any(pk is None for pk in pks) or len({pk[0] for pk in pks}) > 1:
        raise InvalidStructureError("additive group is not a p-group")
    tensor = [[list(coords[int(mul[a, b])]) for b in basis] for a in basis]
    ring = FiniteRing(pks[0][0] if pks else 2, [pk[1] for pk in pks], tensor,
                      name=f"{name}_sc")
    at = np.array([coords[i] for i in range(m)], np.int64).reshape(m, ring.dim) @ ring.tables.basis
    if ring.order != m or np.unique(at).size != m:
        raise InvalidStructureError("witness map is not a bijection")
    if at[zero] != 0:
        raise InvalidStructureError("witness map moves zero")
    grid = np.ix_(at, at)
    if not (ring.tables.add[grid] == at[add]).all():
        raise InvalidStructureError("witness map breaks addition")
    if not (ring.tables.mul[grid] == at[mul]).all():
        raise InvalidStructureError("witness map breaks multiplication")
    return ring, at


# -- tensor laws and enumeration ----------------------------------------------------


@functools.lru_cache(maxsize=256)
def _slot_steps(p: int, exps: tuple[int, ...], side: int | None = None) -> np.ndarray:
    """Read-only exact (d, d, d) integers: slot (i, j, k) of a tensor must be a
    multiple of p^max(0, e_k - m[i, j]) for p^m[i, j] to kill it.  Side None
    takes m[i, j] = min(e_i, e_j): well-definedness.  Side 0 (1) takes
    m[i, j] = max(0, e_s - kappa(p)) with s = i (j): the p^m e_s generate the
    small-order layer, so these steps are left (right) p-nil.  Any other side is refused.
    """
    if side not in (None, 0, 1):
        raise InvalidArgumentError(f"side must be 0 (left) or 1 (right), got {side!r}")
    e = np.array(exps, dtype=np.int64)
    if side is None:
        m = np.minimum.outer(e, e)
    else:
        layer = np.maximum(0, e - kappa(p))
        m = layer[:, None] if side == 0 else layer[None, :]
    steps = p ** np.maximum(0, e - m[:, :, None]).astype(object)
    steps.flags.writeable = False
    return steps


def _associative_mask(arr: np.ndarray, moduli: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Which tensors of a batch (n, d, d, d) are associative mod `moduli` on the
    basis triples (i, j, k) marked in the (d, d, d) bool array `triples`.

    The batch is int64 in `enumerate_rings`, which refuses a type whose sums
    can pass int64, and exact integers (dtype object) from `FiniteRing`.

    With T one tensor, (e_i e_j) e_k = sum_l T[i,j,l] T[l,k] is the (d*d, d)
    matrix of rows T[i,j] times the (d, d*d) matrix of planes T[l], and
    e_i (e_j e_k) = sum_l T[j,k,l] T[i,l] is the same rows times the plane
    T[i], broadcast over i.  Both come out in [b, i, j, k, m] layout.
    """
    n, d = arr.shape[:2]
    lhs = np.matmul(arr.reshape(n, d * d, d), arr.reshape(n, d, d * d)).reshape(n, d, d, d, d)
    rhs = np.matmul(arr.reshape(n, 1, d * d, d), arr).reshape(n, d, d, d, d)
    return ((lhs - rhs)[:, triples] % moduli == 0).all(axis=(1, 2))


def _checked_tensors(p: int, exps: tuple[int, ...], batch: np.ndarray) -> np.ndarray:
    """The batch (n, d, d, d) reduced mod the moduli, in its dtype, once each tensor
    is well-defined and associative on every basis triple; the first bad one raises."""
    moduli = np.array([p**e for e in exps], dtype=batch.dtype)
    batch = batch % moduli
    steps = _slot_steps(p, exps).astype(batch.dtype, copy=False)
    ill = batch % steps != 0
    bad = ill.any(axis=(1, 2, 3)) | ~_associative_mask(batch, moduli, np.ones(steps.shape, bool))
    for b in np.flatnonzero(bad)[:1].tolist():
        for i, j, k in np.argwhere(ill[b])[:1].tolist():
            raise InvalidStructureError(f"ill-defined product: entry ({i},{j},{k}) = "
                                        f"{batch[b, i, j, k]} is not a multiple of {steps[i, j, k]}")
        raise InvalidStructureError("associativity fails on a basis triple")
    return batch


def enumerate_rings(p: int, exps, sides=()):
    """Yield every associative structure tensor on the given additive type whose
    slots are also multiples of the `_slot_steps` of each side in `sides`: (0,)
    gives the left p-nil rings, (1,) the right and (0, 1) the two-sided ones.

    Rings come in lexicographic tensor order, named by their exact mixed-radix
    index among the well-defined candidates, whatever `sides` is.  The planes
    T[i][j] are assigned in lexicographic order, depth first (a stack of one
    generator per plane), in `blocks` of partial tensors (later planes zero)
    d^4 entries wide, as `_associative_mask` holds d^4 entries per tensor in
    each intermediate.  BudgetError ends the run once more than ENUM_BUDGET of
    them, scaled by (3/d)^4 past d = 3, are built.  Triple (i, j, k) reads the
    planes (i, j), (j, k), (l, k) and (i, l) for every l, so plane (i, d-1) or
    (d-1, k), whichever is later, decides it.  Each block drops the tensors
    failing the triples its plane decides, so only survivors are extended
    (backtrack pruning: Holt, Eick and O'Brien 2005, 4.6).
    """
    # the int64 guards first, so a type past them gets their message, not _additive_type's
    p, exps = _integer(p, "p"), tuple(_integer(e, "additive exponent") for e in exps)
    if p >= 2 and all(e >= 1 for e in exps):
        if p.bit_length() * sum(exps) > 128:  # then |R| > 2^64: refused unpowered
            raise BudgetError(f"planes of up to |R| = {p}^{sum(exps)} values exceed int64")
        moduli, limit = [p**e for e in exps], np.iinfo(np.int64).max
        if math.prod(moduli) > limit:  # a plane holds at most |R| values
            raise BudgetError(f"planes of up to |R| = {math.prod(moduli)} values exceed int64")
        if exps and len(exps) * (max(moduli) - 1) ** 2 > limit:
            raise BudgetError(f"associativity sums of {len(exps)} x {max(moduli) - 1}^2 exceed int64")
    p, exps = _additive_type(p, exps)
    d = len(exps)
    # slot (i, j, k) walks the multiples of walk[i, j, k]; names count in the steps
    steps = _slot_steps(p, exps).astype(np.int64)
    walk = functools.reduce(np.maximum, [_slot_steps(p, exps, s) for s in sides], steps)
    walk = walk.astype(np.int64)
    if d == 0:
        yield FiniteRing(p, (), [], name=f"enum_p{p}_0d")
        return

    mod_arr = np.array([p**e for e in exps], dtype=np.int64)
    radices = mod_arr // walk
    i, _, k = np.indices((d, d, d))
    last = np.maximum(i * d + d - 1, (d - 1) * d + k)  # the plane deciding each triple
    cap = ENUM_BUDGET * 3**4 // max(d, 3) ** 4
    built = 0

    def extend(level, frontier):
        # plane (a, b): frontier rows times plane values, both in order, stay lexicographic
        nonlocal built
        a, b = divmod(level, d)
        size = int(radices[a, b].prod())
        decided = last == level
        for r in blocks(len(frontier), d**4 * size):
            head = frontier[r]
            for v in blocks(size, d**4):
                digits = np.unravel_index(np.arange(v.start, v.stop), radices[a, b])
                block = np.repeat(head, len(digits[0]), axis=0)
                built += len(block)
                if built > cap:
                    raise BudgetError(f"enumeration built over {cap} partial tensors")
                block[:, a, b] = np.tile(np.stack(digits, axis=1) * walk[a, b], (len(head), 1))
                if decided.any():
                    block = block[_associative_mask(block, mod_arr, decided)]
                yield block

    prefix = f"enum_p{p}_e{'.'.join(map(str, exps))}_"
    weights = np.cumprod([1, *(mod_arr // steps).ravel()[:0:-1].tolist()], dtype=object)[::-1]
    stack = [extend(0, np.zeros((1, d, d, d), dtype=np.int64))]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        elif len(stack) < d * d:
            stack.append(extend(len(stack), block))  # an empty block ends there
        else:
            names = (block // steps).reshape(-1, d**3).astype(object) @ weights
            for name, tensor in zip(names, _checked_tensors(p, exps, block)):
                yield FiniteRing.__new__(FiniteRing)._adopt(p, exps, tensor, f"{prefix}{name:06d}")


# -- serialization ------------------------------------------------------------------


def ring_to_json(ring: FiniteRing) -> dict:
    return {
        "p": ring.p,
        "exps": list(ring.exps),
        "mul": ring.tensor.tolist(),
    }


def ring_from_json(obj: dict, name: str | None = None) -> FiniteRing:
    try:
        p, exps, mul = obj["p"], obj["exps"], obj["mul"]
    except (KeyError, TypeError) as exc:
        raise InvalidStructureError(f"ring JSON missing or malformed field: {exc}") from exc
    p = _json_int(p, "p")
    exps = [_json_int(e, "exps entry") for e in _json_list(exps, "exps")]
    d = len(exps)
    tensor = [
        [
            [_json_int(c, f"mul coefficient ({i},{j},{k})")
             for k, c in enumerate(_json_list(entry, f"mul entry ({i},{j})", d))]
            for j, entry in enumerate(_json_list(plane, f"mul plane {i}", d))
        ]
        for i, plane in enumerate(_json_list(mul, "mul tensor", d))
    ]
    return FiniteRing(p, exps, tensor, name=name)


def load_ring(path: str | Path) -> FiniteRing:
    path = Path(path)
    obj = json.loads(path.read_text())
    return ring_from_json(obj, name=path.stem)


@functools.lru_cache(maxsize=256)
def _json_template(p: int, exps: tuple[int, ...]) -> str:
    """`save_ring`'s text for a type: its zero ring's JSON, a %s hole per coefficient."""
    holes = np.full((len(exps),) * 3, "%s", dtype=object).tolist()
    text = json.dumps({**ring_to_json(zero_ring(p, exps)), "mul": holes}, sort_keys=True, indent=1)
    return text.replace('"%s"', "%s") + "\n"


def save_ring(ring: FiniteRing, path: str | Path) -> None:
    Path(path).write_text(_json_template(ring.p, ring.exps) % tuple(ring.tensor.ravel().tolist()))


# -- stock rings ------------------------------------------------------------------


def zero_ring(p: int, exps) -> FiniteRing:
    d = len(exps)
    tensor = [[[0] * d for _ in range(d)] for _ in range(d)]
    return FiniteRing(p, exps, tensor, name=f"zero_p{p}_" + "_".join(map(str, exps)))


def unital_ring(n: int) -> FiniteRing:
    """Z/nZ with identity; n must be a prime power."""
    pk = prime_power(n)
    if pk is None:
        raise InvalidArgumentError(f"{n} is not a prime power")
    p, k = pk
    return FiniteRing(p, [k], [[[1]]], name=f"z{n}")


def multiples_ring(a: int, n: int) -> FiniteRing:
    """The subring aZ/nZ of Z/nZ, with n = p^k and a = p^j (1 <= j < k)."""
    pk = prime_power(n)
    if pk is None:
        raise InvalidArgumentError(f"{n} is not a prime power")
    p, k = pk
    pj = prime_power(a)
    if pj is None or pj[0] != p or not 1 <= pj[1] < k:
        raise InvalidArgumentError(f"{a} must be a proper p-power divisor of {n}")
    j = pj[1]
    # generator a has additive order n/a; a*a = a*(a) in that basis
    return FiniteRing(p, [k - j], [[[a % (n // a)]]], name=f"{a}z{n}")
