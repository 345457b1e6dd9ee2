"""One check per structural claim about p-rings, adjoint groups, and
coset-trivial automorphisms, and the registry that names them.

Every check computes both sides of its claim independently on the given
instance and returns an unnamed CheckReport; the derived objects several
checks share come from the instance's memo.  One rule gives every verdict: a
check whose instance meets its hypotheses fails exactly when it names a
witness, and `report.verdict` / `report.skipped` build every line.
Hypothesis failures yield skipped verdicts, never silent passes.  Probes are
observational companions: they record how far a sharper bound holds without
ever failing.

`CHECKS` at the end of the module is the only place that names a check: it
maps each name to its kind, its task parameters (a module check's are labels,
read by `_module_by_label`) and its runner.  `cli.run_check` runs an entry,
turns a search that hits its bound or budget into a skip, and stamps the check
and instance names on the line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .adjoint import adjoint_group, omega_circle_set
from .errors import AlgebraError, InvalidArgumentError, InvalidStructureError
from .groups import (
    FiniteGroup,
    Subgroup,
    abelian_normal_subgroups,
    center,
    central_target,
    commutator_subgroup,
    enumerate_subgroups,
    frattini,
    is_abelian_normal,
    is_p_central,
    log_exact,
    lower_central_series,
    lower_p_central_series,
    memo,
    min_generators,
    nilpotency_class,
    omega_subgroup,
    power_commutator_subgroup,
    power_map,
    prime_of,
    rank,
    subgroup_exponent,
    subgroup_min_generators,
    sylow_rank,
    upper_central_series,
    widest_subgroup,
)
from .morphisms import (
    aut_group,
    aut_n,
    check_laue,
    coset_offsets,
    der_subring_trivial_on_omega,
    hom_ring,
)
from .report import CheckReport, skipped, verdict
from .rings import (
    FiniteRing,
    ideal_u,
    nilpotency_class_ring,
    omega_additive,
    quotient_ring,
)


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
    """Invariants of a finite p-ring, kept in R's memo."""
    return memo(R, "profile", lambda: RingProfile(
        order=R.order,
        p=R.p,
        m=R.additive_exponent_log(),
        d_plus=R.dim,
        left_p_nil=R.is_left_p_nil(),
        right_p_nil=R.is_right_p_nil(),
        nil_class=nilpotency_class_ring(R),
    ))


def _section_exponent_log(upper: Subgroup, lower: Subgroup, p: int) -> int:
    """log_p of the exponent of upper/lower (lower normal in upper, inside a
    p-group): the least k with x^(p^k) in lower for every x in upper."""
    G = upper.parent
    p_power = power_map(G, p)
    x, k = np.array(upper.elems), 0
    while not lower.mask[x].all():
        x, k = p_power[x], k + 1
    return k


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
    """Invariants of a nontrivial finite p-group, kept in G's memo."""
    return memo(G, "profile", lambda: _profile_of(G))


def _profile_of(G: FiniteGroup) -> GroupProfile:
    p = prime_of(G)
    if p is None:
        raise InvalidStructureError("group profiles require a nontrivial p-group")
    lower = lower_central_series(G)
    if lower[-1].order != 1:
        raise InvalidStructureError("group is not nilpotent")
    c = len(lower) - 1
    upper = upper_central_series(G)
    # r and s are the first terms: the sections G/gamma_2 and Z/1
    r_logs = [_section_exponent_log(lower[i], lower[i + 1], p) for i in range(c)]
    s_logs = [_section_exponent_log(upper[i + 1], upper[i], p)
              for i in range(len(upper) - 1)]
    r, s = r_logs[0], s_logs[0]
    pgrp = power_commutator_subgroup(G).as_group()
    return GroupProfile(
        order=G.n, p=p, c=c, r=r, s=s, t=min(r, s),
        d=min_generators(G), d_prime=rank(pgrp), r1=sum(r_logs), s1=sum(s_logs),
    )


# -- ring-side checks --------------------------------------------------------------


def check_omega_correspondence(R: FiniteRing) -> CheckReport:
    """Circle-torsion layers equal additive ones, and each is a subgroup."""
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return skipped("not left or right p-nil")
    A = adjoint_group(R)
    coords = R.tables.coords
    computed: dict = {"m": prof.m, "layers": {}}
    top = max(prof.m, 1)
    bound = f"layers agree for n <= {top}"
    for n in range(1, top + 1):
        circle = omega_circle_set(R, n)
        differ = np.flatnonzero(circle != omega_additive(R, n))
        if differ.size:
            return verdict(computed, bound, f"n={n}, element {coords[differ[0]].tolist()}")
        outside = np.flatnonzero(circle & (A.position < 0))
        if outside.size:
            return verdict(computed, bound,
                           f"n={n}, element {coords[outside[0]].tolist()} not quasi-invertible")
        # a finite set holding 0 and closed under o is a subgroup
        members = np.flatnonzero(circle)
        size = len(members)
        closed = bool(circle[R.tables.circle(members[:, None], members)].all())
        computed["layers"][str(n)] = {"size": size, "subgroup_closed": closed}
        if not closed:
            return verdict(computed, bound, f"n={n}, set is not a subgroup")
    return verdict(computed, bound)


def check_p_central_adjoint(R: FiniteRing) -> CheckReport:
    """The adjoint group of a p-nil ring keeps its bottom torsion layer central."""
    prof = ring_profile(R)
    if not (prof.left_p_nil and prof.right_p_nil):
        return skipped("not p-nil on both sides")
    A = adjoint_group(R)
    kappa = 2 if R.p == 2 else 1
    computed = {"adjoint_order": A.order, "kappa": kappa}
    witness = None
    if A.group.n > 1 and prime_of(A.group) != R.p:
        witness = "adjoint group is not a p-group"
    elif not is_p_central(A.group):
        witness = "small-order layer escapes the center"
    return verdict(computed, f"omega_{kappa} central", witness)


def check_nilpotency_bound(R: FiniteRing) -> CheckReport:
    """Multiplication and the circle group are nilpotent of class at most m."""
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return skipped("not left or right p-nil")
    m = prof.m
    bound = f"class <= m = {m}"
    computed: dict = {"m": m, "ring_class": prof.nil_class}
    if prof.nil_class is None or prof.nil_class > m:
        return verdict(computed, bound, "ring power chain exceeds m")
    gclass = nilpotency_class(adjoint_group(R).group)
    computed["group_class"] = gclass
    return verdict(computed, bound,
                   "adjoint group class exceeds m" if gclass is None or gclass > m else None)


def probe_two_nil_improvement(R: FiniteRing) -> CheckReport:
    """Observe whether class <= m//2 + 1 also holds at p = 2; never fails."""
    prof = ring_profile(R)
    if R.p != 2 or not (prof.left_p_nil or prof.right_p_nil):
        return skipped("probe applies to p-nil 2-rings")
    sharper = prof.m // 2 + 1
    gclass = nilpotency_class(adjoint_group(R).group)
    computed = {
        "m": prof.m, "sharper_bound": sharper,
        "ring_class": prof.nil_class, "group_class": gclass,
        "ring_within": prof.nil_class is not None and prof.nil_class <= sharper,
        "group_within": gclass is not None and gclass <= sharper,
    }
    return verdict(computed, f"observed against {sharper}")


def check_quotient_p_nil(R: FiniteRing, n: int) -> CheckReport:
    """Factoring by the n-th additive torsion layer preserves whichever
    one-sided p-nil properties the ring has."""
    if n < 1:
        raise InvalidArgumentError("torsion layer index must be >= 1")
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return skipped("not left or right p-nil")
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
    return verdict(computed, "quotient keeps one-sided p-nil", witness)


def check_annihilator_ideal(R: FiniteRing) -> CheckReport:
    """The annihilator meet the bottom torsion layer is a nontrivial ideal
    with a left p-nil quotient; at p = 2 both readings of that layer, omega_1
    and omega_2, are computed side by side, and omega_1 decides."""
    prof = ring_profile(R)
    if not prof.left_p_nil or R.order == 1:
        return skipped("needs a nonzero left p-nil ring")
    settings = (1, 2) if R.p == 2 else (1,)
    results = {}
    for w in settings:
        try:
            u = ideal_u(R, omega_for_two=w)
            Q, _ = quotient_ring(R, u)
            size = int(u.sum())
            results[str(w)] = {
                "ideal_order": size,
                "nontrivial": size > 1,
                "quotient_left_p_nil": Q.is_left_p_nil(),
            }
        except InvalidStructureError as exc:
            results[str(w)] = {"error": str(exc), "nontrivial": False,
                               "quotient_left_p_nil": False}
    if R.p != 2:
        results["2"] = results["1"]
    selected = results["1"]
    computed = {"settings": results, "selected_omega": 1,
                "settings_diverge": selected != results["2"]}
    ok = selected["nontrivial"] and selected["quotient_left_p_nil"]
    return verdict(computed, "nontrivial ideal, left p-nil quotient",
                   None if ok else f"omega=1: {selected}")


def check_adjoint_rank(R: FiniteRing) -> CheckReport:
    """Rank of the circle group equals the additive generator count, twice over."""
    prof = ring_profile(R)
    if not (prof.left_p_nil or prof.right_p_nil):
        return skipped("not left or right p-nil")
    A = adjoint_group(R)
    computed: dict = {"d_plus": prof.d_plus, "adjoint_order": A.order}
    if A.group.n > 1 and prime_of(A.group) != R.p:
        return verdict(computed, "rank = d(R+)", "adjoint group is not a p-group")
    rk = rank(A.group)
    d_om = subgroup_min_generators(A.group, omega_subgroup(A.group, 1))
    computed.update({"rank": rk, "d_omega1": d_om})
    return verdict(computed, "rank = d(R+) = d(omega_1)",
                   None if rk == prof.d_plus == d_om else
                   f"rank {rk}, d+ {prof.d_plus}, d(omega1) {d_om}")


def check_sylow_rank(R: FiniteRing) -> CheckReport:
    """Sylow p-rank of the circle group against the additive generator count."""
    prof = ring_profile(R)
    A = adjoint_group(R)
    alpha = 3 if R.p == 2 else 2
    order, rk = sylow_rank(A.group, R.p)
    bound_val = alpha * prof.d_plus
    computed = {"d_plus": prof.d_plus, "alpha": alpha,
                "sylow_order": order, "sylow_rank": rk,
                "p_nil": prof.left_p_nil and prof.right_p_nil}
    return verdict(computed, f"rank <= {alpha}*d = {bound_val}",
                   None if rk <= bound_val else f"sylow rank {rk} > {bound_val}")


# -- group-side checks -------------------------------------------------------------


def check_central_aut(G: FiniteGroup) -> CheckReport:
    """Five facets of the automorphisms trivial on cosets of S = Z meet P:
    the hom ring is right p-nil, torsion layers line up three ways, and the
    exponent, class, and rank obey the t and d(G)d(S) bounds."""
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
    prof = group_profile(G)
    S = central_target(G)
    grp, members = aut_n(G, S)
    computed: dict = {"profile": asdict(prof), "s_order": S.order,
                      "aut_order": grp.n, "degenerate": S.order == 1,
                      "parts": {}}
    bound = f"exp <= {p}^{prof.t}, class <= {prof.t}, rank = d*d(S)"

    ring, _ = hom_ring(G, S)
    computed["parts"]["hom_ring_right_p_nil"] = ring.is_right_p_nil()
    if not computed["parts"]["hom_ring_right_p_nil"]:
        return verdict(computed, bound, "hom_ring_right_p_nil: hom ring is not right p-nil")

    if grp.n > 1 and prime_of(grp) != p:
        computed["parts"]["torsion_layers"] = False
        return verdict(computed, bound, "torsion_layers: aut group is not a p-group")
    orders = grp.element_orders
    offsets = coset_offsets(G, members)
    e_aut = log_exact(p, grp.exponent())
    e_s = log_exact(p, subgroup_exponent(G, S))
    for n in range(1, max(e_aut, e_s, 1) + 1):
        q = p ** n
        brace = q % orders == 0
        gen_sub = omega_subgroup(grp, n).mask
        # S is central, so its elements of order dividing q are Omega_n(S)
        restricted = (S.mask & (q % G.element_orders == 0))[offsets].all(axis=1)
        if not ((brace == gen_sub).all() and (gen_sub == restricted).all()):
            computed["parts"]["torsion_layers"] = False
            return verdict(computed, bound, f"torsion_layers: n={n}: "
                           f"sizes {brace.sum()}/{gen_sub.sum()}/{restricted.sum()}")
    computed["parts"]["torsion_layers"] = True

    expo = grp.exponent()
    computed["parts"]["exponent"] = {"value": expo, "bound": p ** prof.t}
    if expo > p ** prof.t:
        return verdict(computed, bound, f"exponent: {expo} > {p}^{prof.t}")

    cls = nilpotency_class(grp)
    computed["parts"]["class"] = {"value": cls, "bound": prof.t}
    if cls is None or cls > prof.t:
        return verdict(computed, bound, f"class: {cls} > {prof.t}")

    rk = rank(grp)
    expected = prof.d * subgroup_min_generators(G, S)
    computed["parts"]["rank"] = {"value": rk, "expected": expected}
    return verdict(computed, bound,
                   None if rk == expected else f"rank: rank {rk} != {expected}")


def check_central_aut_class(G: FiniteGroup) -> CheckReport:
    """When the center hides inside the Frattini subgroup, center-coset
    automorphisms have class at most t."""
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
    Z = center(G)
    if not (Z.mask <= frattini(G).mask).all():
        return skipped("center not inside Frattini")
    prof = group_profile(G)
    grp, _ = aut_n(G, Z)
    cls = nilpotency_class(grp)
    computed = {"aut_order": grp.n, "class": cls, "t": prof.t}
    return verdict(computed, f"class <= t = {prof.t}",
                   None if cls is not None and cls <= prof.t else f"class {cls} > {prof.t}")


def check_aut_center_exponent(G: FiniteGroup) -> CheckReport:
    """The center of the power-commutator-coset automorphism group has
    exponent at most p^t."""
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
    prof = group_profile(G)
    grp, _ = aut_n(G, power_commutator_subgroup(G))
    expz = subgroup_exponent(grp, center(grp))
    computed = {"aut_order": grp.n, "center_exponent": expz, "t": prof.t}
    return verdict(computed, f"exp(center) <= {p}^{prof.t}",
                   None if expz <= p ** prof.t else f"exponent {expz} > {p ** prof.t}")


def probe_sylow_center(G: FiniteGroup) -> CheckReport:
    """Observe, for odd p, whether the center of a Sylow p-subgroup of the
    full automorphism group moves elements only within Frattini cosets."""
    p = prime_of(G)
    if p is None or p == 2:
        return skipped("probe applies to odd p-groups")
    auts = aut_group(G)
    syl, ids = auts.sylow(p)
    zc = center(syl)
    offsets = coset_offsets(G, auts.matrix[np.asarray(ids)[list(zc.elems)]])
    inside = frattini(G).mask[offsets].all(axis=1)
    computed = {"sylow_order": syl.n, "center_order": zc.order,
                "violations": int((~inside).sum())}
    return verdict(computed, "observed against Frattini cosets")


def check_frattini_aut_class(G: FiniteGroup) -> CheckReport:
    """Frattini-coset automorphisms: class bounds via layered exponent sums,
    plus literal stability on the lower p-central series."""
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
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
        return verdict(computed, bound, f"class {cls} > {bound1}")
    if bound1 > bound2:
        return verdict(computed, bound, f"series bound {bound1} > tc-1 = {bound2}")
    series = lower_p_central_series(G)
    offsets = coset_offsets(G, members)
    witness = None
    for i in range(len(series) - 1):
        if not series[i + 1].mask[offsets[:, list(series[i].elems)]].all():
            witness = f"action moves layer {i + 1} off its successor"
            break
    computed["stable"] = witness is None
    return verdict(computed, bound, witness)


def check_aut_exponent(G: FiniteGroup) -> CheckReport:
    """Exponent of the power-commutator-coset automorphism group, and of a
    Sylow p-subgroup of the full automorphism group."""
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
    prof = group_profile(G)
    auts = aut_group(G)
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
    witness = None
    if expo > p ** base:
        witness = f"coset exponent {expo} > {p}^{base}"
    elif sylexp > p ** (base + extra):
        witness = f"sylow exponent {sylexp} > {p}^{base + extra}"
    return verdict(computed, f"exp <= {p}^{base}; sylow exp <= {p}^{base + extra}", witness)


def _sylow_generator_sweep(G: FiniteGroup, bound_val: int, computed: dict) -> CheckReport:
    """Shared tail of the generator-bound checks: materialize one Sylow
    p-subgroup of the full automorphism group and bound d(H) over its subgroups."""
    auts = aut_group(G)
    syl, _ = auts.sylow(prime_of(G))
    worst, worst_sub = widest_subgroup(syl)
    computed.update({"aut_order": auts.order, "sylow_order": syl.n,
                     "subgroups": len(enumerate_subgroups(syl)),
                     "max_d": worst, "bound": bound_val})
    return verdict(computed, f"d(H) <= {bound_val}",
                   None if worst <= bound_val else
                   f"subgroup of order {worst_sub.order} needs {worst} generators")


def check_aut_gen_bound_abelian(G: FiniteGroup) -> CheckReport:
    """Generator bound for p-subgroups of the automorphism group of an
    abelian p-group, from its rank and its power subgroup's rank."""
    if not G.is_abelian():
        return skipped("group is not abelian")
    if G.n == 1:
        return verdict({"d": 0, "bound": 0}, "d(H) <= 0")
    p = prime_of(G)
    if p is None:
        return skipped("not a p-group")
    d = rank(G)
    d_prime = rank(power_commutator_subgroup(G).as_group())
    if p > 2:
        bound_val = d * d_prime + (d * d) // 4
    else:
        bound_val = d * d_prime + (3 * d * d - d) // 2
    computed = {"d": d, "d_prime": d_prime, "p": p}
    return _sylow_generator_sweep(G, bound_val, computed)


def check_aut_gen_bound(G: FiniteGroup) -> CheckReport:
    """Rank-only generator bound for p-subgroups of any p-group's
    automorphism group."""
    if G.n == 1:
        return verdict({"k": 0, "bound": 0}, "d(H) <= 0")
    p = prime_of(G)
    if p is None:
        return skipped("not a nontrivial p-group")
    k = rank(G)
    if p > 2:
        bound_val = (9 * k * k) // 4
    else:
        bound_val = (7 * k * k - k) // 2
    computed = {"k": k, "p": p}
    return _sylow_generator_sweep(G, bound_val, computed)


def check_der_subring_p_nil(G: FiniteGroup, N: Subgroup) -> CheckReport:
    """Derivations vanishing on the module's bottom torsion layer form a
    left p-nil ring once rebased on structure constants."""
    if prime_of(G) is None:
        return skipped("not a nontrivial p-group")
    if not is_abelian_normal(G, N):
        return skipped("module not abelian normal")
    ring, _ = der_subring_trivial_on_omega(G, N)
    computed = {"module_order": N.order, "subring_order": ring.order}
    return verdict(computed, "left p-nil",
                   None if ring.is_left_p_nil() else "subring is not left p-nil")


def check_profile_consistency(G: FiniteGroup) -> CheckReport:
    """Layered exponent sums stay within class times exponent logs."""
    if prime_of(G) is None:
        return skipped("not a nontrivial p-group")
    prof = group_profile(G)
    return verdict(asdict(prof), "r1 <= r*c, s1 <= s*c",
                   None if prof.consistent() else "profile inequality violated")


# -- registry ----------------------------------------------------------------------

# groups small enough to sweep every abelian normal subgroup as a module
MODULE_SWEEP_CAP = 16

_NAMED_MODULES = {
    "center": center,
    "commutator": commutator_subgroup,
    "frattini": frattini,
    "power-commutator": power_commutator_subgroup,
    "central-target": central_target,
    "omega1": lambda G: omega_subgroup(G, 1),
}


def _once(_obj) -> list:
    return [None]


def _levels(R: FiniteRing) -> range:
    """Torsion levels 1..m for exp(R,+) = p^m, at least level 1."""
    return range(1, max(R.additive_exponent_log(), 1) + 1)


def _module_sweep(G: FiniteGroup) -> list[str]:
    """One label anNNN per abelian normal subgroup, in lattice order."""
    return [f"an{i:03d}" for i in range(len(abelian_normal_subgroups(G)))]


def _module_labels(G: FiniteGroup) -> list[str]:
    """Named modules, plus every abelian normal subgroup of a small group;
    none for groups that are not nontrivial p-groups."""
    if prime_of(G) is None:
        return []
    labels = list(_NAMED_MODULES)
    if G.n <= MODULE_SWEEP_CAP:
        labels += _module_sweep(G)
    return labels


def _module_by_label(G: FiniteGroup, label: str) -> Subgroup:
    """The module a label of `_module_labels` names; AlgebraError for any other."""
    if label in _NAMED_MODULES:
        return _NAMED_MODULES[label](G)
    if label.startswith("an"):
        modules = dict(zip(_module_sweep(G), abelian_normal_subgroups(G)))
        if label in modules:
            return modules[label]
    raise AlgebraError(f"unknown module label {label!r}")


@dataclass(frozen=True)
class Check:
    kind: str  # "ring" | "group"
    params: Callable  # object -> task parameters, one report line each
    run: Callable  # (object, parameter) -> CheckReport


# Each runner looks its check function up by name at call time, so a wrapper
# installed on this module's namespace sees every call.
CHECKS: dict[str, Check] = {
    "omega-correspondence": Check("ring", _once, lambda R, _: check_omega_correspondence(R)),
    "p-central-adjoint": Check("ring", _once, lambda R, _: check_p_central_adjoint(R)),
    "nilpotency-bound": Check("ring", _once, lambda R, _: check_nilpotency_bound(R)),
    "nilpotency-probe": Check("ring", _once, lambda R, _: probe_two_nil_improvement(R)),
    "quotient-p-nil": Check("ring", _levels, lambda R, n: check_quotient_p_nil(R, n)),
    "annihilator-ideal": Check("ring", _once, lambda R, _: check_annihilator_ideal(R)),
    "adjoint-rank": Check("ring", _once, lambda R, _: check_adjoint_rank(R)),
    "sylow-rank": Check("ring", _once, lambda R, _: check_sylow_rank(R)),
    "profile-consistency": Check("group", _once, lambda G, _: check_profile_consistency(G)),
    "laue": Check("group", _module_sweep,
                  lambda G, label: check_laue(G, _module_by_label(G, label))),
    "central-aut": Check("group", _once, lambda G, _: check_central_aut(G)),
    "central-aut-class": Check("group", _once, lambda G, _: check_central_aut_class(G)),
    "aut-center-exponent": Check("group", _once, lambda G, _: check_aut_center_exponent(G)),
    "sylow-center-probe": Check("group", _once, lambda G, _: probe_sylow_center(G)),
    "frattini-aut-class": Check("group", _once, lambda G, _: check_frattini_aut_class(G)),
    "aut-exponent": Check("group", _once, lambda G, _: check_aut_exponent(G)),
    "aut-gen-bound-abelian": Check("group", _once, lambda G, _: check_aut_gen_bound_abelian(G)),
    "aut-gen-bound": Check("group", _once, lambda G, _: check_aut_gen_bound(G)),
    "der-subring-p-nil": Check("group", _module_labels,
                               lambda G, label: check_der_subring_p_nil(
                                   G, _module_by_label(G, label))),
}
ALL_CHECKS = tuple(CHECKS)
