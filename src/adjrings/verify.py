"""One check per structural claim about p-rings, adjoint groups, and
coset-trivial automorphisms.

Every check computes both sides of its claim independently on the given
instance and emits a CheckReport; the derived objects several checks share
come from the instance's memo.  Hypothesis failures yield skipped verdicts,
never silent passes; claim failures carry a witness.  Probes are observational
companions: they record how far a sharper bound holds without ever failing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .adjoint import adjoint_group, omega_circle_set
from .errors import BoundError, InvalidArgumentError, InvalidStructureError
from .groups import (
    SUBGROUP_BOUND,
    FiniteGroup,
    Subgroup,
    center,
    central_target,
    closure,
    enumerate_subgroups,
    frattini,
    is_abelian_normal,
    is_p_central,
    lower_central_series,
    lower_p_central_series,
    min_generators,
    nilpotency_class,
    omega_subgroup,
    power_commutator_subgroup,
    prime_of,
    quotient_group,
    rank,
    subgroup,
    subgroup_exponent,
    subgroup_min_generators,
    sylow_subgroup,
    upper_central_series,
    widest_subgroup,
)
from .morphisms import (
    AUT_ORDER_BOUND,
    aut_group,
    aut_n,
    der_subring_trivial_on_omega,
    hom_ring,
)
from .report import CheckReport
from .rings import (
    FiniteRing,
    ideal_u,
    nilpotency_class_ring,
    omega_additive,
    quotient_ring,
)


def _log_exact(p: int, value: int) -> int:
    """k with p**k == value; raises if value is not a power of p."""
    k = 0
    v = int(value)
    while v > 1:
        if v % p:
            raise InvalidStructureError(f"{value} is not a power of {p}")
        v //= p
        k += 1
    return k


# -- profiles ---------------------------------------------------------------------


@dataclass(frozen=True)
class RingProfile:
    order: int
    p: int
    m: int
    d_plus: int
    left_p_nil: bool
    right_p_nil: bool
    nil_class: int | None


def ring_profile(R: FiniteRing) -> RingProfile:
    if "profile" not in R._cache:
        R._cache["profile"] = RingProfile(
            order=R.order,
            p=R.p,
            m=R.additive_exponent_log(),
            d_plus=R.dim,
            left_p_nil=R.is_left_p_nil(),
            right_p_nil=R.is_right_p_nil(),
            nil_class=nilpotency_class_ring(R),
        )
    return R._cache["profile"]


def _section_exponent_log(upper: Subgroup, lower: Subgroup, p: int) -> int:
    """log_p of the exponent of upper/lower (lower normal in upper)."""
    H, lift = upper.as_group()
    pos = {x: i for i, x in enumerate(lift)}
    inner = subgroup(H, [pos[x] for x in lower.elems])
    Q, _ = quotient_group(H, inner)
    return _log_exact(p, Q.exponent())


@dataclass(frozen=True)
class GroupProfile:
    order: int
    p: int
    c: int
    r: int
    s: int
    t: int
    d: int
    d_prime: int
    r1: int
    s1: int

    def consistent(self) -> bool:
        return (self.t == min(self.r, self.s)
                and self.r1 <= self.r * self.c
                and self.s1 <= self.s * self.c)


def group_profile(G: FiniteGroup) -> GroupProfile:
    """Invariants of a nontrivial finite p-group, kept in `G._cache["profile"]`."""
    if "profile" in G._cache:
        return G._cache["profile"]
    p = prime_of(G)
    if p is None:
        raise InvalidStructureError("group profiles require a nontrivial p-group")
    lower = lower_central_series(G)
    if lower[-1].order != 1:
        raise InvalidStructureError("group is not nilpotent")
    c = len(lower) - 1
    Q, _ = quotient_group(G, lower[1] if len(lower) > 1 else lower[0])
    r = _log_exact(p, Q.exponent())
    s = _log_exact(p, subgroup_exponent(G, center(G)))
    upper = upper_central_series(G)
    r1 = sum(_section_exponent_log(lower[i], lower[i + 1], p)
             for i in range(len(lower) - 1))
    s1 = sum(_section_exponent_log(upper[i + 1], upper[i], p)
             for i in range(len(upper) - 1))
    pgrp, _ = power_commutator_subgroup(G).as_group()
    G._cache["profile"] = GroupProfile(
        order=G.n, p=p, c=c, r=r, s=s, t=min(r, s),
        d=min_generators(G), d_prime=rank(pgrp), r1=r1, s1=s1,
    )
    return G._cache["profile"]


def _skip(check: str, instance: str, reason: str) -> CheckReport:
    return CheckReport(check=check, instance=instance, hypothesis_met=False,
                       computed={}, bound=reason, verdict="skipped")


def _ring_instance(R: FiniteRing, instance: str | None) -> str:
    return instance or f"ring:{R.name}"


def _group_instance(G: FiniteGroup, instance: str | None) -> str:
    return instance or f"group:{G.name}"


# -- ring-side checks --------------------------------------------------------------


def check_omega_correspondence(R: FiniteRing, instance: str | None = None) -> CheckReport:
    """Circle-torsion layers equal additive ones, and each is a subgroup."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return _skip("omega-correspondence", name, "not left or right p-nil")
    A = adjoint_group(R)
    gidx = A.index_of
    computed: dict = {"m": prof.m, "layers": {}}
    top = max(prof.m, 1)
    for n in range(1, top + 1):
        circle = omega_circle_set(R, n)
        additive = omega_additive(R, n)
        if circle != additive:
            sample = next(iter(set(circle) ^ set(additive)))
            return CheckReport(
                check="omega-correspondence", instance=name, hypothesis_met=True,
                computed=computed, bound=f"layers agree for n <= {top}",
                verdict="fail", witness=f"n={n}, element {list(sample)}")
        missing = [x for x in circle if x not in gidx]
        if missing:
            return CheckReport(
                check="omega-correspondence", instance=name, hypothesis_met=True,
                computed=computed, bound=f"layers agree for n <= {top}",
                verdict="fail",
                witness=f"n={n}, element {list(missing[0])} not quasi-invertible")
        grown = closure(A.group, [gidx[x] for x in circle])
        closed = tuple(sorted(A.members[i] for i in grown.elems)) == circle
        computed["layers"][str(n)] = {
            "size": len(circle), "subgroup_closed": bool(closed)}
        if not closed:
            return CheckReport(
                check="omega-correspondence", instance=name, hypothesis_met=True,
                computed=computed, bound=f"layers agree for n <= {top}",
                verdict="fail", witness=f"n={n}, set is not a subgroup")
    return CheckReport(check="omega-correspondence", instance=name,
                       hypothesis_met=True, computed=computed,
                       bound=f"layers agree for n <= {top}", verdict="pass")


def check_p_central_adjoint(R: FiniteRing, instance: str | None = None) -> CheckReport:
    """The adjoint group of a p-nil ring keeps its bottom torsion layer central."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not (prof.left_p_nil and prof.right_p_nil):
        return _skip("p-central-adjoint", name, "not p-nil on both sides")
    A = adjoint_group(R)
    kappa = 2 if R.p == 2 else 1
    computed = {"adjoint_order": A.order, "kappa": kappa}
    if A.group.n > 1 and prime_of(A.group) != R.p:
        return CheckReport(check="p-central-adjoint", instance=name,
                           hypothesis_met=True, computed=computed,
                           bound=f"omega_{kappa} central", verdict="fail",
                           witness="adjoint group is not a p-group")
    ok = is_p_central(A.group)
    return CheckReport(check="p-central-adjoint", instance=name,
                       hypothesis_met=True, computed=computed,
                       bound=f"omega_{kappa} central",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else "small-order layer escapes the center")


def check_nilpotency_bound(R: FiniteRing, instance: str | None = None) -> CheckReport:
    """Multiplication and the circle group are nilpotent of class at most m."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return _skip("nilpotency-bound", name, "not left or right p-nil")
    m = prof.m
    bound = f"class <= m = {m}"
    computed: dict = {"m": m, "ring_class": prof.nil_class}
    if prof.nil_class is None or prof.nil_class > m:
        return CheckReport(check="nilpotency-bound", instance=name,
                           hypothesis_met=True, computed=computed, bound=bound,
                           verdict="fail", witness="ring power chain exceeds m")
    gclass = nilpotency_class(adjoint_group(R).group)
    computed["group_class"] = gclass
    if gclass is None or gclass > m:
        return CheckReport(check="nilpotency-bound", instance=name,
                           hypothesis_met=True, computed=computed, bound=bound,
                           verdict="fail", witness="adjoint group class exceeds m")
    return CheckReport(check="nilpotency-bound", instance=name,
                       hypothesis_met=True, computed=computed, bound=bound,
                       verdict="pass")


def probe_two_nil_improvement(R: FiniteRing, instance: str | None = None) -> CheckReport:
    """Observe whether class <= m//2 + 1 also holds at p = 2; never fails."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if R.p != 2 or not (prof.left_p_nil or prof.right_p_nil):
        return _skip("nilpotency-probe", name, "probe applies to p-nil 2-rings")
    sharper = prof.m // 2 + 1
    gclass = nilpotency_class(adjoint_group(R).group)
    computed = {
        "m": prof.m, "sharper_bound": sharper,
        "ring_class": prof.nil_class, "group_class": gclass,
        "ring_within": prof.nil_class is not None and prof.nil_class <= sharper,
        "group_within": gclass is not None and gclass <= sharper,
    }
    return CheckReport(check="nilpotency-probe", instance=name, hypothesis_met=True,
                       computed=computed, bound=f"observed against {sharper}",
                       verdict="pass")


def check_quotient_p_nil(R: FiniteRing, n: int,
                         instance: str | None = None) -> CheckReport:
    """Factoring by the n-th additive torsion layer preserves whichever
    one-sided p-nil properties the ring has."""
    if n < 1:
        raise InvalidArgumentError("torsion layer index must be >= 1")
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return _skip("quotient-p-nil", name, "not left or right p-nil")
    Q, _ = quotient_ring(R, omega_additive(R, n))
    computed: dict = {"n": n, "quotient_order": Q.order}
    witness = None
    if prof.left_p_nil:
        computed["left"] = Q.is_left_p_nil()
        if not computed["left"]:
            witness = f"n={n}, quotient lost left p-nil"
    if prof.right_p_nil:
        computed["right"] = Q.is_right_p_nil()
        if not computed["right"]:
            witness = f"n={n}, quotient lost right p-nil"
    return CheckReport(check="quotient-p-nil", instance=name, hypothesis_met=True,
                       computed=computed, bound="quotient keeps one-sided p-nil",
                       verdict="pass" if witness is None else "fail",
                       witness=witness)


def check_annihilator_ideal(R: FiniteRing, omega_for_two: int = 1,
                            instance: str | None = None) -> CheckReport:
    """The annihilator meet the bottom torsion layer is a nontrivial ideal
    with a left p-nil quotient; both omega readings are computed side by side."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not prof.left_p_nil or R.order == 1:
        return _skip("annihilator-ideal", name, "needs a nonzero left p-nil ring")
    settings = (1, 2) if R.p == 2 else (1,)
    results = {}
    for w in settings:
        try:
            u = ideal_u(R, omega_for_two=w)
            Q, _ = quotient_ring(R, u)
            results[str(w)] = {
                "ideal_order": len(u),
                "nontrivial": len(u) > 1,
                "quotient_left_p_nil": Q.is_left_p_nil(),
            }
        except InvalidStructureError as exc:
            results[str(w)] = {"error": str(exc), "nontrivial": False,
                               "quotient_left_p_nil": False}
    if R.p != 2:
        results["2"] = results["1"]
    selected = results[str(omega_for_two)]
    diverge = results["1"] != results["2"]
    computed = {"settings": results, "selected_omega": omega_for_two,
                "settings_diverge": diverge}
    ok = selected.get("nontrivial") and selected.get("quotient_left_p_nil")
    return CheckReport(check="annihilator-ideal", instance=name,
                       hypothesis_met=True, computed=computed,
                       bound="nontrivial ideal, left p-nil quotient",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else f"omega={omega_for_two}: {selected}")


def check_adjoint_rank(R: FiniteRing, instance: str | None = None,
                       subgroup_bound: int = SUBGROUP_BOUND) -> CheckReport:
    """Rank of the circle group equals the additive generator count, twice over."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return _skip("adjoint-rank", name, "not left or right p-nil")
    A = adjoint_group(R)
    computed: dict = {"d_plus": prof.d_plus, "adjoint_order": A.order}
    if A.group.n > 1 and prime_of(A.group) != R.p:
        return CheckReport(check="adjoint-rank", instance=name, hypothesis_met=True,
                           computed=computed, bound="rank = d(R+)", verdict="fail",
                           witness="adjoint group is not a p-group")
    rk = rank(A.group, bound=subgroup_bound)
    d_om = subgroup_min_generators(A.group, omega_subgroup(A.group, 1))
    computed.update({"rank": rk, "d_omega1": d_om})
    ok = rk == prof.d_plus == d_om
    return CheckReport(check="adjoint-rank", instance=name, hypothesis_met=True,
                       computed=computed, bound="rank = d(R+) = d(omega_1)",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else
                       f"rank {rk}, d+ {prof.d_plus}, d(omega1) {d_om}")


def check_sylow_rank(R: FiniteRing, instance: str | None = None,
                     subgroup_bound: int = SUBGROUP_BOUND) -> CheckReport:
    """Sylow p-rank of the circle group against the additive generator count."""
    name = _ring_instance(R, instance)
    prof = ring_profile(R)
    A = adjoint_group(R)
    alpha = 3 if R.p == 2 else 2
    syl = sylow_subgroup(A.group, R.p)
    sgrp, _ = syl.as_group()
    rk = rank(sgrp, bound=subgroup_bound)
    bound_val = alpha * prof.d_plus
    computed = {"d_plus": prof.d_plus, "alpha": alpha,
                "sylow_order": syl.order, "sylow_rank": rk,
                "p_nil": prof.left_p_nil and prof.right_p_nil}
    ok = rk <= bound_val
    return CheckReport(check="sylow-rank", instance=name, hypothesis_met=True,
                       computed=computed, bound=f"rank <= {alpha}*d = {bound_val}",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else f"sylow rank {rk} > {bound_val}")


# -- group-side checks -------------------------------------------------------------


def _coset_offsets(G: FiniteGroup, members) -> np.ndarray:
    """Row u -> the map x^{-1} u(x), one row per automorphism image row."""
    M = np.asarray(members, dtype=np.int32)
    return G.table[np.broadcast_to(G.inverses, M.shape), M]


def check_central_aut(G: FiniteGroup, instance: str | None = None,
                      subgroup_bound: int = SUBGROUP_BOUND) -> CheckReport:
    """Five facets of the automorphisms trivial on cosets of S = Z meet P:
    the hom ring is right p-nil, torsion layers line up three ways, and the
    exponent, class, and rank obey the t and d(G)d(S) bounds."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None:
        return _skip("central-aut", name, "not a nontrivial p-group")
    prof = group_profile(G)
    S = central_target(G)
    grp, members = aut_n(G, S)
    computed: dict = {"profile": asdict(prof), "s_order": S.order,
                      "aut_order": grp.n, "degenerate": S.order == 1,
                      "parts": {}}
    bound = f"exp <= {p}^{prof.t}, class <= {prof.t}, rank = d*d(S)"

    def fail(part, witness):
        return CheckReport(check="central-aut", instance=name, hypothesis_met=True,
                           computed=computed, bound=bound, verdict="fail",
                           witness=f"{part}: {witness}")

    ring, _ = hom_ring(G, S)
    computed["parts"]["hom_ring_right_p_nil"] = ring.is_right_p_nil()
    if not computed["parts"]["hom_ring_right_p_nil"]:
        return fail("hom_ring_right_p_nil", "hom ring is not right p-nil")

    if grp.n > 1 and prime_of(grp) != p:
        computed["parts"]["torsion_layers"] = False
        return fail("torsion_layers", "aut group is not a p-group")
    orders = grp.element_orders
    sgrp, lift = S.as_group()
    offsets = _coset_offsets(G, members)
    e_aut = _log_exact(p, grp.exponent())
    e_s = _log_exact(p, subgroup_exponent(G, S)) if S.order > 1 else 0
    for n in range(1, max(e_aut, e_s, 1) + 1):
        q = p ** n
        brace = frozenset(int(i) for i in np.flatnonzero(q % orders == 0))
        gen_sub = frozenset(omega_subgroup(grp, n).elems)
        in_omega = np.zeros(G.n, dtype=bool)
        in_omega[[lift[x] for x in omega_subgroup(sgrp, n).elems]] = True
        restricted = frozenset(np.flatnonzero(in_omega[offsets].all(axis=1)).tolist())
        if not (brace == gen_sub == restricted):
            computed["parts"]["torsion_layers"] = False
            return fail("torsion_layers",
                        f"n={n}: sizes {len(brace)}/{len(gen_sub)}/{len(restricted)}")
    computed["parts"]["torsion_layers"] = True

    expo = grp.exponent()
    computed["parts"]["exponent"] = {"value": expo, "bound": p ** prof.t}
    if expo > p ** prof.t:
        return fail("exponent", f"{expo} > {p}^{prof.t}")

    cls = nilpotency_class(grp)
    computed["parts"]["class"] = {"value": cls, "bound": prof.t}
    if cls is None or cls > prof.t:
        return fail("class", f"{cls} > {prof.t}")

    rk = rank(grp, bound=subgroup_bound)
    expected = prof.d * subgroup_min_generators(G, S)
    computed["parts"]["rank"] = {"value": rk, "expected": expected}
    if rk != expected:
        return fail("rank", f"rank {rk} != {expected}")

    return CheckReport(check="central-aut", instance=name, hypothesis_met=True,
                       computed=computed, bound=bound, verdict="pass")


def check_central_aut_class(G: FiniteGroup, instance: str | None = None) -> CheckReport:
    """When the center hides inside the Frattini subgroup, center-coset
    automorphisms have class at most t."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None:
        return _skip("central-aut-class", name, "not a nontrivial p-group")
    Z = center(G)
    if not set(Z.elems) <= set(frattini(G).elems):
        return _skip("central-aut-class", name, "center not inside Frattini")
    prof = group_profile(G)
    grp, _ = aut_n(G, Z)
    cls = nilpotency_class(grp)
    computed = {"aut_order": grp.n, "class": cls, "t": prof.t}
    ok = cls is not None and cls <= prof.t
    return CheckReport(check="central-aut-class", instance=name, hypothesis_met=True,
                       computed=computed, bound=f"class <= t = {prof.t}",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else f"class {cls} > {prof.t}")


def check_aut_center_exponent(G: FiniteGroup, instance: str | None = None) -> CheckReport:
    """The center of the power-commutator-coset automorphism group has
    exponent at most p^t."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None:
        return _skip("aut-center-exponent", name, "not a nontrivial p-group")
    prof = group_profile(G)
    grp, _ = aut_n(G, power_commutator_subgroup(G))
    expz = subgroup_exponent(grp, center(grp))
    computed = {"aut_order": grp.n, "center_exponent": expz, "t": prof.t}
    ok = expz <= p ** prof.t
    return CheckReport(check="aut-center-exponent", instance=name,
                       hypothesis_met=True, computed=computed,
                       bound=f"exp(center) <= {p}^{prof.t}",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else f"exponent {expz} > {p ** prof.t}")


def probe_sylow_center(G: FiniteGroup, instance: str | None = None,
                       aut_bound: int = AUT_ORDER_BOUND) -> CheckReport:
    """Observe, for odd p, whether the center of a Sylow p-subgroup of the
    full automorphism group moves elements only within Frattini cosets."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None or p == 2:
        return _skip("sylow-center-probe", name, "probe applies to odd p-groups")
    try:
        auts = aut_group(G, bound=aut_bound)
    except BoundError as exc:
        return _skip("sylow-center-probe", name, str(exc))
    syl, ids = auts.sylow(p)
    zc = center(syl)
    rows = np.array([auts.member(ids[j]) for j in zc.elems], dtype=np.int32)
    offsets = _coset_offsets(G, rows)
    inside = np.isin(offsets, list(frattini(G).elems)).all(axis=1)
    computed = {"sylow_order": syl.n, "center_order": zc.order,
                "violations": int((~inside).sum())}
    return CheckReport(check="sylow-center-probe", instance=name,
                       hypothesis_met=True, computed=computed,
                       bound="observed against Frattini cosets", verdict="pass")


def check_frattini_aut_class(G: FiniteGroup, instance: str | None = None) -> CheckReport:
    """Frattini-coset automorphisms: class bounds via layered exponent sums,
    plus literal stability on the lower p-central series."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None:
        return _skip("frattini-aut-class", name, "not a nontrivial p-group")
    prof = group_profile(G)
    grp, members = aut_n(G, frattini(G))
    cls = nilpotency_class(grp)
    bound1 = min(prof.r1, prof.s1) - 1
    bound2 = prof.t * prof.c - 1
    computed = {"aut_order": grp.n, "class": cls,
                "series_bound": bound1, "tc_bound": bound2,
                "r1": prof.r1, "s1": prof.s1}
    bound = f"class <= {bound1} <= {bound2}"
    if cls is None or cls > bound1:
        return CheckReport(check="frattini-aut-class", instance=name,
                           hypothesis_met=True, computed=computed, bound=bound,
                           verdict="fail", witness=f"class {cls} > {bound1}")
    if bound1 > bound2:
        return CheckReport(check="frattini-aut-class", instance=name,
                           hypothesis_met=True, computed=computed, bound=bound,
                           verdict="fail",
                           witness=f"series bound {bound1} > tc-1 = {bound2}")
    series = lower_p_central_series(G)
    offsets = _coset_offsets(G, members)
    for i in range(len(series) - 1):
        nxt = np.zeros(G.n, dtype=bool)
        nxt[list(series[i + 1].elems)] = True
        if not nxt[offsets[:, list(series[i].elems)]].all():
            computed["stable"] = False
            return CheckReport(check="frattini-aut-class", instance=name,
                               hypothesis_met=True, computed=computed, bound=bound,
                               verdict="fail",
                               witness=f"action moves layer {i + 1} off its successor")
    computed["stable"] = True
    return CheckReport(check="frattini-aut-class", instance=name, hypothesis_met=True,
                       computed=computed, bound=bound, verdict="pass")


def check_aut_exponent(G: FiniteGroup, instance: str | None = None,
                       aut_bound: int = AUT_ORDER_BOUND) -> CheckReport:
    """Exponent of the power-commutator-coset automorphism group, and of a
    Sylow p-subgroup of the full automorphism group."""
    name = _group_instance(G, instance)
    p = prime_of(G)
    if p is None:
        return _skip("aut-exponent", name, "not a nontrivial p-group")
    prof = group_profile(G)
    try:
        auts = aut_group(G, bound=aut_bound)
    except BoundError as exc:
        return _skip("aut-exponent", name, str(exc))
    base = prof.t * prof.t * prof.c - prof.t
    extra = prof.d - 1 if p > 2 else 2 * prof.d - 1
    grp, _ = aut_n(G, power_commutator_subgroup(G))
    expo = grp.exponent()
    syl, _ = auts.sylow(p)
    sylexp = syl.exponent()
    computed = {"profile": asdict(prof), "aut_order": auts.order,
                "coset_exponent": expo, "sylow_order": syl.n,
                "sylow_exponent": sylexp,
                "coset_bound": p ** base, "sylow_bound": p ** (base + extra)}
    bound = f"exp <= {p}^{base}; sylow exp <= {p}^{base + extra}"
    if expo > p ** base:
        return CheckReport(check="aut-exponent", instance=name, hypothesis_met=True,
                           computed=computed, bound=bound, verdict="fail",
                           witness=f"coset exponent {expo} > {p}^{base}")
    if sylexp > p ** (base + extra):
        return CheckReport(check="aut-exponent", instance=name, hypothesis_met=True,
                           computed=computed, bound=bound, verdict="fail",
                           witness=f"sylow exponent {sylexp} > {p}^{base + extra}")
    return CheckReport(check="aut-exponent", instance=name, hypothesis_met=True,
                       computed=computed, bound=bound, verdict="pass")


def _sylow_generator_sweep(check: str, G: FiniteGroup, name: str, bound_val: int,
                           computed: dict, aut_bound: int,
                           subgroup_bound: int) -> CheckReport:
    """Shared tail of the generator-bound checks: materialize one Sylow
    p-subgroup of the full automorphism group and bound d(H) over its subgroups."""
    p = prime_of(G)
    try:
        auts = aut_group(G, bound=aut_bound)
        syl, _ = auts.sylow(p)
        worst, worst_sub = widest_subgroup(syl, bound=subgroup_bound)
    except BoundError as exc:
        return _skip(check, name, str(exc))
    computed.update({"aut_order": auts.order, "sylow_order": syl.n,
                     "subgroups": len(enumerate_subgroups(syl, bound=subgroup_bound)),
                     "max_d": worst, "bound": bound_val})
    ok = worst <= bound_val
    return CheckReport(check=check, instance=name, hypothesis_met=True,
                       computed=computed, bound=f"d(H) <= {bound_val}",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else
                       f"subgroup of order {worst_sub.order} needs {worst} generators")


def check_aut_gen_bound_abelian(G: FiniteGroup, instance: str | None = None,
                                aut_bound: int = AUT_ORDER_BOUND,
                                subgroup_bound: int = SUBGROUP_BOUND) -> CheckReport:
    """Generator bound for p-subgroups of the automorphism group of an
    abelian p-group, from its rank and its power subgroup's rank."""
    name = _group_instance(G, instance)
    if not G.is_abelian():
        return _skip("aut-gen-bound-abelian", name, "group is not abelian")
    if G.n == 1:
        return CheckReport(check="aut-gen-bound-abelian", instance=name,
                           hypothesis_met=True, computed={"d": 0, "bound": 0},
                           bound="d(H) <= 0", verdict="pass")
    p = prime_of(G)
    if p is None:
        return _skip("aut-gen-bound-abelian", name, "not a p-group")
    d = rank(G)
    pgrp, _ = power_commutator_subgroup(G).as_group()
    d_prime = rank(pgrp)
    if p > 2:
        bound_val = d * d_prime + (d * d) // 4
    else:
        bound_val = d * d_prime + (3 * d * d - d) // 2
    computed = {"d": d, "d_prime": d_prime, "p": p}
    return _sylow_generator_sweep("aut-gen-bound-abelian", G, name, bound_val,
                                  computed, aut_bound, subgroup_bound)


def check_aut_gen_bound(G: FiniteGroup, instance: str | None = None,
                        aut_bound: int = AUT_ORDER_BOUND,
                        subgroup_bound: int = SUBGROUP_BOUND) -> CheckReport:
    """Rank-only generator bound for p-subgroups of any p-group's
    automorphism group."""
    name = _group_instance(G, instance)
    if G.n == 1:
        return CheckReport(check="aut-gen-bound", instance=name,
                           hypothesis_met=True, computed={"k": 0, "bound": 0},
                           bound="d(H) <= 0", verdict="pass")
    p = prime_of(G)
    if p is None:
        return _skip("aut-gen-bound", name, "not a nontrivial p-group")
    k = rank(G)
    if p > 2:
        bound_val = (9 * k * k) // 4
    else:
        bound_val = (7 * k * k - k) // 2
    computed = {"k": k, "p": p}
    return _sylow_generator_sweep("aut-gen-bound", G, name, bound_val,
                                  computed, aut_bound, subgroup_bound)


def check_der_subring_p_nil(G: FiniteGroup, N: Subgroup,
                            instance: str | None = None) -> CheckReport:
    """Derivations vanishing on the module's bottom torsion layer form a
    left p-nil ring once rebased on structure constants."""
    name = instance or f"group:{G.name}/N{len(N.elems)}"
    if prime_of(G) is None:
        return _skip("der-subring-p-nil", name, "not a nontrivial p-group")
    if not is_abelian_normal(G, N):
        return _skip("der-subring-p-nil", name, "module not abelian normal")
    ring, _ = der_subring_trivial_on_omega(G, N)
    computed = {"module_order": N.order, "subring_order": ring.order}
    ok = ring.is_left_p_nil()
    return CheckReport(check="der-subring-p-nil", instance=name, hypothesis_met=True,
                       computed=computed, bound="left p-nil",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else "subring is not left p-nil")


def check_profile_consistency(G: FiniteGroup, instance: str | None = None) -> CheckReport:
    """Layered exponent sums stay within class times exponent logs."""
    name = _group_instance(G, instance)
    if prime_of(G) is None:
        return _skip("profile-consistency", name, "not a nontrivial p-group")
    prof = group_profile(G)
    ok = prof.consistent()
    return CheckReport(check="profile-consistency", instance=name,
                       hypothesis_met=True, computed=asdict(prof),
                       bound="r1 <= r*c, s1 <= s*c",
                       verdict="pass" if ok else "fail",
                       witness=None if ok else "profile inequality violated")
