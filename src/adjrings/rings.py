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
from functools import cached_property
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
from .groups import CHUNK_ENTRIES, MAX_ORDER, _json_int, _json_list, _powers, closed_mask, memo

ENUM_BUDGET = 100_000_000


class RingTables(NamedTuple):
    """Read-only index tables over a ring's lexicographic element order.

    Index 0 is the zero element.  `coords[i]` is the coordinate vector of
    element i; `add[i, j]`, `mul[i, j]` and `neg[i]` are element indices.
    """

    coords: np.ndarray
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray

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
    """A prime p and additive exponents (each >= 1) as ints; anything else raises."""
    p = _integer(p, "p")
    if not _is_prime(p):
        raise InvalidStructureError(f"p = {p} is not prime")
    exps = tuple(_integer(e, "additive exponent") for e in exps)
    if any(e < 1 for e in exps):
        raise InvalidStructureError("additive exponents must be >= 1")
    return p, exps


class FiniteRing:
    """Structure-constant ring on a direct sum of cyclic p-groups.

    `mul[i][j]` is the coordinate vector of the product of basis elements i, j,
    kept reduced as the exact (d, d, d) integer array `tensor` (dtype object).
    Construction verifies well-definedness (`_slot_steps`) and associativity
    on every basis triple (`_associative_mask`), which trilinearity extends to
    the whole ring.  Element arithmetic is read off the index tables `tables`,
    built on first use for rings of at most MAX_ORDER elements (groups.py).
    Attributes are `cached_property`s, and objects built by module functions
    are kept by `groups.memo`.
    """

    def __init__(self, p: int, exps, mul, name: str | None = None):
        p, exps = _additive_type(p, exps)
        self.p = p
        self.exps = exps
        self.dim = d = len(exps)
        self.moduli = tuple(p**e for e in exps)
        self.order = math.prod(self.moduli)
        self.name = name or f"ring_p{p}_" + "_".join(map(str, exps))
        tensor = np.array(mul, dtype=object)
        if tensor.shape != (d,) * 3 and (d or tensor.size):
            raise InvalidStructureError("multiplication tensor must be d x d x d")
        tensor = np.frompyfunc(_integer, 2, 1)(tensor.reshape((d,) * 3), "coefficient")
        self.tensor = tensor % np.array(self.moduli, dtype=object)
        self.tensor.flags.writeable = False
        self._validate()
        self._cache: dict = {}

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        T, steps = self.tensor, _slot_steps(self.p, self.exps)
        ill = T % steps != 0
        if ill.any():
            i, j, k = np.argwhere(ill)[0].tolist()
            raise InvalidStructureError(f"ill-defined product: entry ({i},{j},{k}) = "
                                        f"{T[i, j, k]} is not a multiple of {steps[i, j, k]}")
        every = np.ones(T.shape, dtype=bool)
        if not _associative_mask(T[None], np.array(self.moduli, dtype=object), every)[0]:
            raise InvalidStructureError("associativity fails on a basis triple")

    # -- index tables ---------------------------------------------------------

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(moduli, basis element indices, structure tensor) as int64 arrays;
        an element's index is its coordinates dotted with the basis indices."""
        if self.order > MAX_ORDER:
            raise BoundError(f"ring tables capped at {MAX_ORDER} elements")
        weights = [math.prod(self.moduli[k + 1:]) for k in range(self.dim)]
        return (np.array(self.moduli, dtype=np.int64), np.array(weights, dtype=np.int64),
                self.tensor.astype(np.int64))

    @cached_property
    def tables(self) -> RingTables:
        """Index tables of +, * and negation, built on first use."""
        moduli, weights, tensor = self._arrays
        coords = np.indices(self.moduli, dtype=np.int64).reshape(self.dim, self.order).T
        add = np.zeros((self.order, self.order), dtype=np.int32)
        mul = np.zeros_like(add)
        for k in range(self.dim):  # one (|R|, |R|) term per coordinate
            c, m, w = coords[:, k], moduli[k], weights[k]
            add += (c[:, None] + c) % m * w
            # coordinate k of x y = sum_{a,b} x_a y_b T[a, b] is x T[:, :, k] y^T
            mul += coords @ tensor[:, :, k] @ coords.T % m * w
        neg = (-coords % moduli @ weights).astype(np.int32)
        out = RingTables(coords, add, mul, neg)
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
    mul = ring.tables.mul
    members = np.flatnonzero(mask)
    basis = ring._arrays[1]
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


def ring_power_chain(ring: FiniteRing) -> list[np.ndarray]:
    """[R^1, R^2, ...] down to stabilization, as read-only masks, kept in the
    ring's memo."""
    def build() -> list[np.ndarray]:
        mul = ring.tables.mul
        basis = ring._arrays[1]
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
    return memo(ring, "power_chain", build)


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
    add = np.asarray(add, dtype=np.int64)
    mul = np.asarray(mul, dtype=np.int64)
    m = add.shape[0]
    every = np.arange(m)
    if add.shape != (m, m) or mul.shape != (m, m):
        raise InvalidStructureError("tables must be square and same-sized")
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
    at = np.array([coords[i] for i in range(m)], np.int64).reshape(m, ring.dim) @ ring._arrays[1]
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
    m[i, j] = max(0, e_s - kappa) with s = i (j), kappa = 2 if p = 2 else 1: the
    p^m e_s generate the small-order layer, so these steps are left (right) p-nil.
    """
    e = np.array(exps, dtype=np.int64)
    if side is None:
        m = np.minimum.outer(e, e)
    else:
        layer = np.maximum(0, e - (2 if p == 2 else 1))
        m = layer[:, None] if side == 0 else layer[None, :]
    steps = p ** np.maximum(0, e - m[:, :, None]).astype(object)
    steps.flags.writeable = False
    return steps


def _associative_mask(arr: np.ndarray, moduli: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Which tensors of a batch (n, d, d, d) are associative mod `moduli` on the
    basis triples (i, j, k) marked in the (d, d, d) bool array `triples`.

    The batch is int64 in `enumerate_rings`, whose budget keeps the products
    in range, and exact integers (dtype object) in `FiniteRing._validate`.

    With T one tensor, (e_i e_j) e_k = sum_l T[i,j,l] T[l,k] is the (d*d, d)
    matrix of rows T[i,j] times the (d, d*d) matrix of planes T[l], and
    e_i (e_j e_k) = sum_l T[j,k,l] T[i,l] is the same rows times the plane
    T[i], broadcast over i.  Both come out in [b, i, j, k, m] layout.
    """
    n, d = arr.shape[:2]
    lhs = np.matmul(arr.reshape(n, d * d, d), arr.reshape(n, d, d * d)).reshape(n, d, d, d, d)
    rhs = np.matmul(arr.reshape(n, 1, d * d, d), arr).reshape(n, d, d, d, d)
    return ((lhs - rhs)[:, triples] % moduli == 0).all(axis=(1, 2))


def enumerate_rings(p: int, exps, budget: int = ENUM_BUDGET):
    """Yield every associative structure tensor on the given additive type.

    Rings come in lexicographic tensor order, named by their mixed-radix index
    among the well-defined candidates, whose raw count |R|^(d^2) must stay
    within `budget`.  The planes T[i][j] are assigned in lexicographic order,
    depth first, in blocks of at most CHUNK_ENTRIES // d^4 partial tensors
    (later planes zero): `_associative_mask` holds d^4 entries per tensor in
    each of its intermediates.  Triple (i, j, k) reads the planes (i, j),
    (j, k), (l, k) and (i, l) for every l, so plane (i, d-1) or (d-1, k),
    whichever is later, decides it.  Each block drops the tensors failing the
    triples its plane decides, so only survivors are extended, and a block
    with no survivor ends there (backtrack pruning: Holt, Eick and O'Brien
    2005, 4.6).
    """
    p, exps = _additive_type(p, exps)
    d = len(exps)
    moduli = [p**e for e in exps]
    total = math.prod(moduli) ** (d * d)
    if total > budget:
        raise BudgetError(f"{total} candidate tensors exceed the budget of {budget}")
    if d == 0:
        yield FiniteRing(p, (), [], name=f"enum_p{p}_0d")
        return

    # slot (i, j, k) holds the well-defined multiples of its step below p^e_k
    steps = _slot_steps(p, exps).astype(np.int64)
    mod_arr = np.array(moduli, dtype=np.int64)
    radices = mod_arr // steps
    i, _, k = np.indices((d, d, d))
    last = np.maximum(i * d + d - 1, (d - 1) * d + k)  # the plane deciding each triple
    chunk = max(1, CHUNK_ENTRIES // d**4)

    def extend(level, frontier):
        # plane (a, b): frontier rows times plane values, both in order, stay lexicographic
        a, b = divmod(level, d)
        size = int(radices[a, b].prod())
        rows, span = max(1, chunk // size), min(size, chunk)
        decided = last == level
        for r in range(0, len(frontier), rows):
            head = frontier[r:r + rows]
            for v in range(0, size, span):
                digits = np.unravel_index(np.arange(v, min(v + span, size)), radices[a, b])
                block = np.repeat(head, len(digits[0]), axis=0)
                block[:, a, b] = np.tile(np.stack(digits, axis=1) * steps[a, b], (len(head), 1))
                if decided.any():
                    block = block[_associative_mask(block, mod_arr, decided)]
                if not len(block):
                    continue
                if level + 1 < d * d:
                    yield from extend(level + 1, block)
                else:
                    yield block

    prefix = f"enum_p{p}_e{'.'.join(map(str, exps))}_"
    for block in extend(0, np.zeros((1, d, d, d), dtype=np.int64)):
        digits = (block // steps).reshape(len(block), -1).T
        names = np.ravel_multi_index(tuple(digits), radices.ravel().tolist())
        for name, tensor in zip(names.tolist(), block):
            yield FiniteRing(p, exps, tensor.tolist(), name=f"{prefix}{name:06d}")


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


def save_ring(ring: FiniteRing, path: str | Path) -> None:
    Path(path).write_text(json.dumps(ring_to_json(ring), sort_keys=True, indent=1) + "\n")


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
