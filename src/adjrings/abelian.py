"""Integer normal forms and canonical decompositions of finite abelian groups.

The consumer is `rings.to_finite_ring`, which rebases opaque addition tables:
those of homomorphism and derivation rings, and the coset tables of quotient
rings.  A table is presented by its own spanning search, one relation per
generator, and reduced to a Smith normal form over Z, so the invariant
factors come out canonical and deterministic, and the projection onto them
gives every element's coordinates.
"""

from __future__ import annotations

import math

from .errors import InvalidStructureError


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k and k >= 1, or None."""
    if n < 2:
        return None
    p = None
    m = n
    for q in range(2, n + 1):
        if q * q > m:
            p = m if p is None else p
            break
        if m % q == 0:
            p = q
            break
    if p is None:
        return None
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def smith_normal_form(rows: list[list[int]], cols: int):
    """Diagonalize the lattice spanned by `rows` inside Z^cols.

    Returns (diag, v) where u @ A @ v is diagonal for some unimodular u and
    diag[i] divides diag[i+1].  Only the column transform is tracked; callers
    never need u.
    """
    m = [list(r) for r in rows]
    n = len(m)
    for r in m:
        if len(r) != cols:
            raise InvalidStructureError("ragged relation matrix")
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def add_row(src, dst, c):
        md, ms = m[dst], m[src]
        for k in range(cols):
            md[k] += c * ms[k]

    def swap_cols(i, j):
        for row in m + v:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, c):
        for row in m + v:
            row[dst] += c * row[src]

    def negate_col(i):
        for row in m + v:
            row[i] = -row[i]

    rank = min(n, cols)
    t = 0
    while t < rank:
        # locate a nonzero pivot of minimal magnitude in the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, cols):
                a = m[i][j]
                if a != 0 and (best is None or abs(a) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(bi, t)
        if bj != t:
            swap_cols(bj, t)
        if m[t][t] < 0:
            negate_col(t)
        dirty = False
        for i in range(t + 1, n):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block, else fold the offender in
        piv = m[t][t]
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, cols):
                if m[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    diag = [m[i][i] if i < n else 0 for i in range(cols)]
    return diag, v


def quotient_decomposition(moduli: list[int], gen_rows: list[list[int]]):
    """Canonical form of (Z_m1 x ... x Z_md) / <gen_rows>.

    Returns (factors, project): nontrivial invariant factors in descending
    order, and project(vec) mapping an ambient vector to quotient coordinates.
    """
    d = len(moduli)
    rows = [list(r) for r in gen_rows]
    for i, q in enumerate(moduli):
        rows.append([q if j == i else 0 for j in range(d)])
    diag, v = smith_normal_form(rows, d)
    if any(x == 0 for x in diag):
        raise InvalidStructureError("quotient of a finite group came out infinite")
    kept = [i for i in range(d) if diag[i] > 1]
    kept.reverse()  # SNF ascends by divisibility; we want descending exponents
    factors = [diag[i] for i in kept]

    vt = [[v[i][j] for i in range(d)] for j in range(d)]  # columns of v

    def project(vec) -> tuple[int, ...]:
        return tuple(
            sum(vec[i] * vt[j][i] for i in range(d)) % diag[j] for j in kept
        )

    return factors, project


def table_decomposition(table, identity: int):
    """Invariant-factor basis of an abelian group given by its Cayley table.

    Returns (factors, basis, coords): descending nontrivial invariant factors,
    one table index per factor, and a dict mapping every element index to its
    coordinate tuple relative to the basis.  Each element x outside the span
    so far joins it with the least q such that q x = s lies in the span; the
    relations q e_x - s present the group.
    """
    n = len(table)
    span = {identity: ()}  # element -> its multiples of the generators so far
    relations: list[list[int]] = []
    for x in range(n):
        if len(span) == n:
            break
        if x in span:
            continue
        acc, q = table[x][x], 2
        while acc not in span:
            acc, q = table[acc][x], q + 1
        relations = [r + [0] for r in relations] + [[-c for c in span[acc]] + [q]]
        grown = {}
        for s, c in span.items():
            for j in range(q):
                grown[s] = c + (j,)
                s = table[s][x]
        span = grown
    if len(span) != n:
        raise InvalidStructureError("spanning set failed to close; table not a group?")
    factors, project = quotient_decomposition([n] * len(relations), relations)
    coords = {x: project(c) for x, c in span.items()}
    inverse = {c: x for x, c in coords.items()}
    if len(inverse) != n or math.prod(factors) != n:
        raise InvalidStructureError("coordinate map is not a bijection")
    basis = [inverse[tuple(int(i == k) for i in range(len(factors)))]
             for k in range(len(factors))]
    return factors, basis, coords
