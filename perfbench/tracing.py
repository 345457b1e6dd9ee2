"""Layer spans taken from outside the library.

`Tracer.install()` replaces the library's public per-instance functions with
timing wrappers wherever they are looked up: in every `adjrings` module
namespace that holds the function, and on the class for methods.  Each call
becomes a span with its parent; spans stay in memory and are summed into
self times (duration minus the wrapped calls inside) after the run.

Per-element calls (`FiniteRing.add/mul/circle/index`, `FiniteGroup.mult`,
quasi-inverses, circle powers) are never wrapped: they run millions of times.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

CHECKS = (
    "omega-correspondence", "p-central-adjoint", "nilpotency-bound",
    "nilpotency-probe", "quotient-p-nil", "annihilator-ideal", "adjoint-rank",
    "sylow-rank", "profile-consistency", "laue", "central-aut",
    "central-aut-class", "aut-center-exponent", "sylow-center-probe",
    "frattini-aut-class", "aut-exponent", "aut-gen-bound-abelian",
    "aut-gen-bound", "der-subring-p-nil",
)


def _candidates(p, exps, *args, **kwargs):
    order = 1
    for e in exps:
        order *= p ** int(e)
    return {"rings.candidates": order ** (len(exps) ** 2)}


def _adjoint_products(self, ring, *args, **kwargs):
    return {"adjoint.products": ring.order ** 2}


def _subgroup_cache(G, *args, **kwargs):
    return {"groups.subgroups_cache_hits": int("subgroups" in G._cache)}


# (defining module, function, span name, hook counting work before the call)
FUNCTIONS = (
    ("rings", "enumerate_rings", "rings.enumerate", _candidates),
    ("rings", "save_ring", "rings.save", None),
    ("rings", "omega_additive", "rings.ops", None),
    ("rings", "ring_power_chain", "rings.ops", None),
    ("rings", "nilpotency_class_ring", "rings.ops", None),
    ("rings", "left_annihilator", "rings.ops", None),
    ("rings", "right_annihilator", "rings.ops", None),
    ("rings", "ideal_u", "rings.ops", None),
    ("rings", "quotient_ring", "rings.ops", None),
    ("adjoint", "omega_circle_set", "adjoint.omega_circle", None),
    ("groups", "enumerate_subgroups", "groups.subgroups", _subgroup_cache),
    ("groups", "lower_central_series", "groups.series", None),
    ("groups", "upper_central_series", "groups.series", None),
    ("groups", "lower_p_central_series", "groups.series", None),
    ("groups", "nilpotency_class", "groups.series", None),
    ("groups", "quotient_group", "groups.quotient", None),
    ("morphisms", "check_laue", "morphisms.laue", None),
    ("morphisms", "hom_ring", "morphisms.homder", None),
    ("morphisms", "der_ring", "morphisms.homder", None),
    ("morphisms", "der_subring_trivial_on_omega", "morphisms.homder", None),
    ("morphisms", "to_finite_ring", "morphisms.to_ring", None),
    ("morphisms", "aut_group", "morphisms.aut", None),
    ("morphisms", "aut_n", "morphisms.aut", None),
    ("abelian", "smith_normal_form", "abelian.snf", None),
    ("abelian", "table_decomposition", "abelian.snf", None),
    ("abelian", "quotient_decomposition", "abelian.snf", None),
    ("cli", "default_corpus", "cli.corpus", None),
    ("cli", "build_tasks", "cli.build_tasks", None),
    ("cli", "run_verification", "cli.verify", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_check", lambda entry, check, *a, **k: f"verify.{check}", None),
)

# (defining module, class, method, span name, hook)
METHODS = (
    ("rings", "FiniteRing", "is_left_p_nil", "rings.ops", None),
    ("rings", "FiniteRing", "is_right_p_nil", "rings.ops", None),
    ("adjoint", "AdjointGroup", "__init__", "adjoint.build", _adjoint_products),
    ("morphisms", "AutomorphismGroup", "sylow", "morphisms.aut", None),
    ("morphisms", "AutomorphismGroup", "as_group", "morphisms.aut", None),
    ("report", "CheckReport", "to_json_line", "report.serialize", None),
)

MODULES = ("abelian", "groups", "rings", "adjoint", "morphisms", "report",
           "verify", "cli")


class Tracer:
    def __init__(self):
        # closed spans: (name, parent name or None, start, duration, self time)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, start, time in children]

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((frame[0], parent and parent[0], frame[1], duration,
                           duration - frame[2]))

    def wrap(self, fn, span, hook=None):
        tracer = self
        from adjrings.errors import BoundError

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if hook:
                    tracer.counts.update(hook(*args, **kwargs))
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counts[span + ".yielded"] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                tracer.counts.update(hook(*args, **kwargs))
            frame = tracer._enter(span if isinstance(span, str) else span(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            except BoundError:
                tracer.counts[frame[0] + ".bound_error"] += 1
                raise
            finally:
                tracer._exit(frame)
        return traced

    def install(self) -> None:
        import importlib

        mods = [importlib.import_module(f"adjrings.{m}") for m in MODULES]
        mods.append(importlib.import_module("adjrings"))
        for home, name, span, hook in FUNCTIONS:
            original = getattr(importlib.import_module(f"adjrings.{home}"), name)
            wrapped = self.wrap(original, span, hook)
            for mod in mods:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)
        for home, cls_name, name, span, hook in METHODS:
            cls = getattr(importlib.import_module(f"adjrings.{home}"), cls_name)
            setattr(cls, name, self.wrap(getattr(cls, name), span, hook))

    def summary(self, run_start: float, wall_s: float, rings: int) -> dict:
        """Per-layer metrics over all spans; coverage over the run phase only.

        Span metrics ending in `_s` are self times, except the inclusive
        `verify.<check>.s`, the `*.max_s` worst calls and `cli.corpus_s`.
        """
        self_s: Counter = Counter()
        calls: Counter = Counter()
        longest: Counter = Counter()
        inclusive: Counter = Counter()
        tasks = []
        named_in_run = 0.0
        for name, _parent, start, duration, own in self.spans:
            self_s[name] += own
            calls[name] += 1
            inclusive[name] += duration
            longest[name] = max(longest[name], duration)
            if name.startswith("verify."):
                tasks.append(duration)
            elif start >= run_start and not name.startswith("cli."):
                named_in_run += own
        c = self.counts
        out = {
            "rings.enumerate_s": self_s["rings.enumerate"],
            "rings.candidates": c["rings.candidates"],
            "rings.associative": c["rings.enumerate.yielded"],
            "rings.assoc_ratio": (c["rings.enumerate.yielded"] / c["rings.candidates"]
                                  if c["rings.candidates"] else 0.0),
            "rings.save_s": self_s["rings.save"],
            "rings.saved": calls["rings.save"],
            "rings.ops_s": self_s["rings.ops"],
            "rings.ops_calls": calls["rings.ops"],
            "adjoint.build_s": self_s["adjoint.build"],
            "adjoint.builds": calls["adjoint.build"],
            "adjoint.builds_per_ring": calls["adjoint.build"] / rings if rings else 0.0,
            "adjoint.products": c["adjoint.products"],
            "adjoint.omega_circle_s": self_s["adjoint.omega_circle"],
            "groups.subgroups_s": self_s["groups.subgroups"],
            "groups.subgroups_calls": calls["groups.subgroups"],
            "groups.subgroups_cache_hits": c["groups.subgroups_cache_hits"],
            "groups.series_s": self_s["groups.series"],
            "groups.quotient_s": self_s["groups.quotient"],
            "morphisms.laue_s": self_s["morphisms.laue"],
            "morphisms.laue_calls": calls["morphisms.laue"],
            "morphisms.laue_max_s": longest["morphisms.laue"],
            "morphisms.homder_s": self_s["morphisms.homder"],
            "morphisms.homder_calls": calls["morphisms.homder"],
            "morphisms.to_ring_s": self_s["morphisms.to_ring"],
            "morphisms.aut_s": self_s["morphisms.aut"],
            "morphisms.aut_calls": calls["morphisms.aut"],
            "morphisms.aut_capped": c["morphisms.aut.bound_error"],
            "abelian.snf_s": self_s["abelian.snf"],
            "abelian.snf_calls": calls["abelian.snf"],
        }
        for check in CHECKS:
            out[f"verify.{check}.s"] = inclusive[f"verify.{check}"]
            out[f"verify.{check}.max_s"] = longest[f"verify.{check}"]
        tasks.sort()
        out["verify.task_p99_ms"] = (
            1000 * tasks[min(len(tasks) - 1, int(0.99 * len(tasks)))] if tasks else 0.0)
        out["verify.task_samples"] = len(tasks)
        out["report.serialize_s"] = self_s["report.serialize"]
        out["cli.corpus_s"] = inclusive["cli.corpus"]
        out["trace_coverage_frac"] = named_in_run / wall_s
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
        return {"metrics": out, "top_self_s": top, "spans": len(self.spans)}
