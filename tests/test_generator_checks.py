"""The law filter and the Laue comparisons read only the columns of a
generating set of G.  Each is checked here against the full-pair comparison
it replaces, kept below as the oracle: the law filter under the trivial action
against the homomorphism rule, and under conjugation against the twisted rule.

Besides rows from the spanning-tree fill, the batches hold rows perturbed on a
whole left coset rH of each proper subgroup H.  Such a row still obeys the
rule for every g in H, so it is rejected only through a generator outside H:
a test set that misses a generator accepts it.
"""

import numpy as np
import pytest

from adjrings import morphisms
from adjrings.groups import (
    abelian_normal_subgroups,
    builtin_group,
    center,
    enumerate_subgroups,
)
from adjrings.morphisms import (
    _der_matrix,
    _endo_matrix,
    _image_rows,
    _law_rows,
    _pair_kernel,
    _test_columns,
    _trivial_action,
)

# builtin groups have identity 0, so element 0 is never a perturbation
GROUPS = ["c4", "c2xc2", "d6", "c4xc2", "d8", "q8", "c3xc3", "a4", "d8xc2", "m27"]


def hom_rows_oracle(src_table: np.ndarray, dst_table: np.ndarray, U: np.ndarray) -> np.ndarray:
    """u(xy) = u(x)u(y) on every pair (x, y)."""
    return (U[:, src_table] == dst_table[U[:, :, None], U[:, None, :]]).all(axis=(1, 2))


def cocycle_rows_oracle(G, U: np.ndarray) -> np.ndarray:
    """d(xy) = d(x)^y d(y) on every pair (x, y)."""
    cti = G.conj_table[G.inverses]  # cti[y, v] = y^{-1} v y
    yidx = np.arange(G.n)[None, None, :]
    rhs = G.table[cti[yidx, U[:, :, None]], U[:, None, :]]
    return (U[:, G.table] == rhs).all(axis=(1, 2))


def conjugation(G) -> np.ndarray:
    """The derivation action: row k maps v to s^{-1} v s, s the k-th test column."""
    return G.conj_table[G.inverses[_test_columns(G)]]


def filled_rows(G, values, act, monkeypatch) -> np.ndarray:
    """Every row the search fills from test-column values in `values` under
    `act`, with its law filter switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(morphisms, "_law_rows", lambda G, act, U: np.ones(len(U), dtype=bool))
        return _image_rows(G, [values] * _test_columns(G).size, act, "test batch")


def assert_law_filter_matches_oracles(G, U):
    np.testing.assert_array_equal(_law_rows(G, _trivial_action(G), U),
                                  hom_rows_oracle(G.table, G.table, U))
    np.testing.assert_array_equal(_law_rows(G, conjugation(G), U), cocycle_rows_oracle(G, U))


def left_cosets(G):
    """(H.elems, rH) for every proper subgroup H and one coset rH other than H,
    with rH listed in the order of H.elems."""
    for H in enumerate_subgroups(G):
        if H.order < G.n:
            r = min(set(range(G.n)) - set(H.elems))
            yield np.array(H.elems), G.table[r, list(H.elems)]


def hom_batch(G, rng, monkeypatch):
    U = filled_rows(G, range(G.n), _trivial_action(G), monkeypatch)
    homs = U[hom_rows_oracle(G.table, G.table, U)][:12]
    shifted = []
    for _, coset in left_cosets(G):
        V = homs.copy()
        V[:, coset] = G.table[rng.integers(1, G.n), V[:, coset]]  # c u(x), c != 1
        shifted.append(V)
    return U, np.concatenate(shifted)


def cocycle_batch(G, N, rng, monkeypatch):
    U = filled_rows(G, N.elems, conjugation(G), monkeypatch)
    ders = U[cocycle_rows_oracle(G, U)][:12]
    cti = G.conj_table[G.inverses]
    shifted = []
    for hs, coset in left_cosets(G):
        c = N.elems[rng.integers(1, N.order)]  # c != 1
        V = ders.copy()
        V[:, coset] = G.table[V[:, coset], cti[hs, c]]  # d(rh) c^h
        shifted.append(V)
    return U, np.concatenate(shifted)


def modules(G):
    """The largest abelian normal subgroup and, if there is one, the largest
    non-central one."""
    mods = [N for N in abelian_normal_subgroups(G) if N.order > 1]
    z = set(center(G).elems)
    noncentral = [N for N in mods if not set(N.elems) <= z]
    return [mods[-1]] + [N for N in noncentral[-1:] if N is not mods[-1]]


@pytest.mark.parametrize("name", GROUPS)
def test_hom_verifier_matches_full_pair_oracle(name, monkeypatch):
    G = builtin_group(name)
    rng = np.random.default_rng(7)
    filled, shifted = hom_batch(G, rng, monkeypatch)
    noise = rng.integers(0, G.n, size=(50, G.n)).astype(np.int32)
    for U in (filled, shifted, noise):
        assert_law_filter_matches_oracles(G, U)
    assert hom_rows_oracle(G.table, G.table, filled).any()
    assert not hom_rows_oracle(G.table, G.table, shifted).all()


def test_hom_verifier_on_trivial_source():
    """The trivial group is tested on the column [1], which forces u(1) = 1;
    its one map passes under either action and is the one row searched."""
    G = builtin_group("c1")
    assert _test_columns(G).tolist() == [G.identity]
    one = np.array([[G.identity]], dtype=np.int32)
    for act in (_trivial_action(G), conjugation(G)):
        assert act.shape == (1, 1)
        assert _law_rows(G, act, one).tolist() == [True]
        assert_law_filter_matches_oracles(G, one)
        np.testing.assert_array_equal(_image_rows(G, [[G.identity]], act, "test"), one)


@pytest.mark.parametrize("name", GROUPS)
def test_cocycle_verifier_matches_full_pair_oracle(name, monkeypatch):
    G = builtin_group(name)
    rng = np.random.default_rng(11)
    for N in modules(G):
        filled, shifted = cocycle_batch(G, N, rng, monkeypatch)
        noise = rng.choice(np.array(N.elems), size=(50, G.n)).astype(np.int32)
        for U in (filled, shifted, noise):
            assert_law_filter_matches_oracles(G, U)
        assert cocycle_rows_oracle(G, filled).any()
        assert not cocycle_rows_oracle(G, shifted).all()


@pytest.mark.parametrize("name", ["c4xc2", "d8", "q8", "d8xc2", "c3xc3", "m27"])
def test_laue_generator_columns_match_full_comparison(name):
    """Every (i, j) mismatch and every zero test of check_laue, read on the
    generator columns, equals the comparison on all of G.  Pairing the
    endomorphisms with a rotated derivation list keeps both sides derivations
    and makes most pairs mismatch."""
    G = builtin_group(name)
    t, inv = G.table, G.inverses
    S = _test_columns(G)
    for N in modules(G):
        ends = _endo_matrix(G, N)
        assert ends.shape[0] == _der_matrix(G, N).shape[0] <= 256
        m = ends.shape[0]
        members = np.arange(m)
        for shift in (0, 1):
            DU = np.roll(t[inv[None, :], ends], shift, axis=0)
            sides = _pair_kernel(G, ends, DU, S)
            mismatches = 0
            for i in range(m):
                W = ends[:, ends[i]]                      # row j: i then j
                full_left = t[inv[None, :], W]
                a = DU[i]
                full_circ = t[t[a[None, :], DU], DU[:, a]]  # row j: d_i o d_j
                left, circ = sides(i, members)
                full_bad = (full_left != full_circ).any(axis=1)
                np.testing.assert_array_equal((left != circ).any(axis=1), full_bad)
                np.testing.assert_array_equal((circ == G.identity).all(axis=1),
                                              (full_circ == G.identity).all(axis=1))
                mismatches += int(full_bad.sum())
                # the mirrored orientation: row v is (v then i)
                left, circ = sides(members, i)
                full_left = t[inv[None, :], ends[i][ends]]
                full_circ = t[t[DU, DU[i][None, :]], DU[i][DU]]
                np.testing.assert_array_equal((left != circ).any(axis=1),
                                              (full_left != full_circ).any(axis=1))
            assert (mismatches == 0) == (shift == 0 or m == 1)
