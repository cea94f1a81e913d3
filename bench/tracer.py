"""Outside-in span tracing of the xmodkit layers.

The tracer replaces each public function named in ``LAYERS`` with a
wrapper, in every loaded ``xmodkit`` module namespace that binds it (and
in module-level dicts that hold it, such as the io loader table), so a
call from one layer into another is caught wherever it is made. Each
call records a span: metric, function, start, end, parent span and job
id. Spans stay in memory until ``dump``.

``rollup`` turns the spans of one pass into the per-layer metrics: self
time per metric (duration minus the child spans it contains) and the
computed counters, which come from arguments and return values at span
boundaries only, so they repeat exactly for the same inputs.

``terms.eval_term`` is deliberately not wrapped: it runs millions of
times per job, and its time shows inside ``structures.verify_s``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

# module -> {function: metric prefix}
LAYERS = {
    "structures": {
        "verify_structure": "structures.verify",
        "make_structure": "structures.build",
        "subobject": "structures.build",
    },
    "morphisms": {
        "morphism_report": "morphisms.check",
        "enumerate_morphisms": "morphisms.enum",
        "find_isomorphism": "morphisms.iso",
    },
    "actions": {
        "check_derived_action": "actions.check",
        "semidirect_product": "actions.sdp",
        "conjugation_action": "actions.build",
        "action_from_section": "actions.build",
        "trivial_action": "actions.build",
    },
    "xmod": {
        "verify_xmod": "xmod.verify",
        "verify_xmod_morphism": "xmod.verify",
        "enumerate_slice_morphisms": "xmod.search",
        "enumerate_xmod_morphisms": "xmod.search",
        "find_xmod_isomorphism": "xmod.search",
        "verify_universal_cone": "xmod.cone",
        "slice_terminal": "xmod.build",
        "slice_initial": "xmod.build",
        "slice_product": "xmod.build",
        "slice_pullback": "xmod.build",
        "xmod_equalizer": "xmod.build",
        "xmod_fiber_product": "xmod.build",
        "inclusion_xmod": "xmod.build",
        "induced_xmod": "xmod.build",
        "compose_xmod": "xmod.build",
    },
    "limits": {
        "direct_product": "limits.build",
        "fiber_product": "limits.build",
        "equalizer": "limits.build",
    },
    "cat1": {
        "verify_cat1": "cat1.verify",
        "verify_cat1_morphism": "cat1.verify",
        "xmod_to_cat1": "cat1.translate",
        "cat1_to_xmod": "cat1.translate",
        "enumerate_cat1_morphisms": "cat1.search",
        "find_cat1_isomorphism": "cat1.search",
    },
    "pullbacks": {
        "pullback_xmod": "pullbacks.build",
        "pullback_cat1": "pullbacks.build",
        "xmod_pullback_mediator": "pullbacks.build",
        "xmod_pullback_mediators": "pullbacks.build",
        "cat1_pullback_mediator": "pullbacks.build",
        "cat1_pullback_mediators": "pullbacks.build",
        "preimage_xmod": "pullbacks.build",
        "pullback_xmod_morphism": "pullbacks.build",
        "square_commutes": "pullbacks.square",
    },
    "io": {
        **{
            f"{verb}_{kind}": "io.parse"
            for verb in ("parse", "load")
            for kind in ("structure", "morphism", "action", "xmod", "xmodmorphism", "cat1")
        },
        "load_any": "io.parse",
        **{
            f"{verb}_{kind}": "io.serialize"
            for verb in ("serialize", "save")
            for kind in ("structure", "morphism", "action", "xmod", "xmodmorphism", "cat1")
        },
    },
}

# Every per-layer metric the traced run prints, with its unit.
METRICS = {
    "structures.verify_s": "s",
    "structures.verify_calls": "count",
    "structures.assignments": "count",
    "structures.massign_per_s": "Massign/s",
    "structures.build_s": "s",
    "structures.build_entries": "count",
    "morphisms.check_s": "s",
    "morphisms.enum_s": "s",
    "morphisms.enum_calls": "count",
    "morphisms.enum_found": "count",
    "morphisms.iso_s": "s",
    "actions.check_s": "s",
    "actions.sdp_s": "s",
    "actions.build_s": "s",
    "xmod.verify_s": "s",
    "xmod.search_s": "s",
    "xmod.pair_yield": "ratio",
    "xmod.cone_s": "s",
    "xmod.cone_triples": "count",
    "xmod.build_s": "s",
    "limits.build_s": "s",
    "limits.build_entries": "count",
    "cat1.verify_s": "s",
    "cat1.translate_s": "s",
    "cat1.search_s": "s",
    "cat1.pair_yield": "ratio",
    "cat1.iso_candidates": "count",
    "pullbacks.build_s": "s",
    "pullbacks.square_s": "s",
    "io.parse_s": "s",
    "io.parse_mb_per_s": "MB/s",
    "io.serialize_s": "s",
    "io.serialize_mb_per_s": "MB/s",
    "cli.startup_ms": "ms",
    "cli.inproc_ms": "ms",
    "trace.overhead_s": "s",
}

# Counters that must repeat exactly for one seed.
COUNTERS = (
    "structures.verify_calls",
    "structures.assignments",
    "structures.build_entries",
    "morphisms.enum_calls",
    "morphisms.enum_found",
    "xmod.pair_yield",
    "xmod.cone_triples",
    "limits.build_entries",
    "cat1.pair_yield",
    "cat1.iso_candidates",
)

# Child searches verify_universal_cone makes per tester, by cone kind
# (into the legs' codomains, then into the candidate).
_CONE_GROUP = {"terminal": 1, "initial": 1, "product": 3, "pullback": 3, "equalizer": 2}


def _entries(s) -> int:
    """Table entries of a structure: add and star tables, neg and unary tables."""
    n = len(s.elements)
    return n * n * (1 + len(s.star)) + n * (1 + len(s.omega))


@dataclass
class Span:
    id: int
    parent: int | None
    metric: str
    func: str
    job: int | None
    start: float
    end: float = 0.0
    # a number read at the span boundary: assignments, entries, bytes,
    # result length, found flag; see Tracer._measure
    size: float = 0.0
    note: str = ""
    children: list = field(default_factory=list)


class Tracer:
    """Wraps the layer functions of one loaded xmodkit package."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None
        # while False the wrappers only pass calls through
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        self._structure_laws = modules.structures.structure_laws

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        package = [
            mod for name, mod in list(sys.modules.items())
            if name == "xmodkit" or name.startswith("xmodkit.")
        ]
        for modname, funcs in LAYERS.items():
            home = getattr(self.modules, modname)
            for fname, metric in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap(original, metric)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dval in list(value.items()):
                                if dval is original:
                                    self._patches.append((value, dkey, original))
                                    value[dkey] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, fn, metric: str):
        fname = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(
                len(self.spans), parent.id if parent else None, metric, fname, self.job,
                time.perf_counter(),
            )
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            self._measure(span, args, kwargs, result)
            return result

        return wrapper

    def _measure(self, span: Span, args, kwargs, result) -> None:
        f = span.func
        if f == "verify_structure":
            s = args[0]
            if s.zero is not None:
                core_only = kwargs.get("core_only", args[1] if len(args) > 1 else False)
                n = len(s.elements)
                span.size = sum(
                    n ** len(law.variables())
                    for law in self._structure_laws(s.profile, core_only)
                )
        elif f == "make_structure":
            span.size = _entries(result)
        elif span.metric == "limits.build":
            span.size = _entries(result.induced if f == "equalizer" else result[0])
        elif f.startswith("enumerate_"):
            span.size = len(result)
        elif f.startswith("find_"):
            span.size = 0 if result is None else 1
        elif f.startswith("parse_"):
            span.size = len(args[0].encode("utf-8"))
        elif f.startswith("serialize_"):
            span.size = len(result.encode("utf-8"))
        elif f == "verify_universal_cone":
            span.note = args[0] if args else kwargs["kind"]

    # -- output -----------------------------------------------------------

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(passes: list[list[Span]], path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(passes):
                for s in spans:
                    fh.write(json.dumps({
                        "pass": k, "id": s.id, "parent": s.parent, "metric": s.metric,
                        "func": s.func, "job": s.job, "start": s.start, "end": s.end,
                        "size": s.size,
                    }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rollup(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and computed counters for one pass's spans."""
    self_s: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - sum(c.end - c.start for c in s.children)
        self_s[s.metric] = self_s.get(s.metric, 0.0) + own

    def total(func_pred) -> float:
        return sum(s.size for s in spans if func_pred(s))

    def count(func_pred) -> int:
        return sum(1 for s in spans if func_pred(s))

    def child_product(s: Span) -> int:
        return math.prod(int(c.size) for c in s.children if c.func == "enumerate_morphisms")

    xm_enum = [
        s for s in spans if s.func in ("enumerate_slice_morphisms", "enumerate_xmod_morphisms")
    ]
    c1_enum = [s for s in spans if s.func == "enumerate_cat1_morphisms"]
    c1_iso = [s for s in spans if s.func == "find_cat1_isomorphism"]

    triples = 0
    for s in spans:
        if s.func != "verify_universal_cone":
            continue
        k = _CONE_GROUP.get(s.note, 1)
        sizes = [int(c.size) for c in s.children if c.metric == "xmod.search"]
        triples += sum(math.prod(sizes[g:g + k]) for g in range(0, len(sizes) - k + 1, k))

    t = lambda m: self_s.get(m, 0.0)  # noqa: E731
    assignments = total(lambda s: s.func == "verify_structure")
    parse_bytes = total(lambda s: s.func.startswith("parse_"))
    ser_bytes = total(lambda s: s.func.startswith("serialize_"))
    return {
        "structures.verify_s": t("structures.verify"),
        "structures.verify_calls": count(lambda s: s.func == "verify_structure"),
        "structures.assignments": int(assignments),
        "structures.massign_per_s": _ratio(assignments / 1e6, t("structures.verify")),
        "structures.build_s": t("structures.build"),
        "structures.build_entries": int(total(lambda s: s.func == "make_structure")),
        "morphisms.check_s": t("morphisms.check"),
        "morphisms.enum_s": t("morphisms.enum"),
        "morphisms.enum_calls": count(lambda s: s.func == "enumerate_morphisms"),
        "morphisms.enum_found": int(total(lambda s: s.func == "enumerate_morphisms")),
        "morphisms.iso_s": t("morphisms.iso"),
        "actions.check_s": t("actions.check"),
        "actions.sdp_s": t("actions.sdp"),
        "actions.build_s": t("actions.build"),
        "xmod.verify_s": t("xmod.verify"),
        "xmod.search_s": t("xmod.search"),
        "xmod.pair_yield": _ratio(
            sum(s.size for s in xm_enum), sum(child_product(s) for s in xm_enum)
        ),
        "xmod.cone_s": t("xmod.cone"),
        "xmod.cone_triples": triples,
        "xmod.build_s": t("xmod.build"),
        "limits.build_s": t("limits.build"),
        "limits.build_entries": int(total(lambda s: s.metric == "limits.build")),
        "cat1.verify_s": t("cat1.verify"),
        "cat1.translate_s": t("cat1.translate"),
        "cat1.search_s": t("cat1.search"),
        "cat1.pair_yield": _ratio(
            sum(s.size for s in c1_enum), sum(child_product(s) for s in c1_enum)
        ),
        "cat1.iso_candidates": _ratio(
            sum(c.size for s in c1_iso for c in s.children if c.func == "enumerate_cat1_morphisms"),
            sum(s.size for s in c1_iso),
        ),
        "pullbacks.build_s": t("pullbacks.build"),
        "pullbacks.square_s": t("pullbacks.square"),
        "io.parse_s": t("io.parse"),
        "io.parse_mb_per_s": _ratio(parse_bytes / 1e6, t("io.parse")),
        "io.serialize_s": t("io.serialize"),
        "io.serialize_mb_per_s": _ratio(ser_bytes / 1e6, t("io.serialize")),
    }
