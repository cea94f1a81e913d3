"""Seeded corpus of single-entry perturbations and their rendered reports.

Every case changes one table or map entry of a zoo object to another
valid id and renders the report of the matching verifier, so the corpus
pins FAIL lines, witnesses and details of all eight report functions
(``verify_structure``, ``morphism_report``, ``ideal_report``,
``check_derived_action``, ``verify_xmod``, ``verify_xmod_morphism``,
``verify_cat1``, ``verify_cat1_morphism``) plus the
``IncompatibleActionError`` messages and witnesses of ``compose_xmod``.
``tests/data/fail_reports.txt`` holds the output; regenerate it with

    PYTHONPATH=src python tests/fail_corpus.py > tests/data/fail_reports.txt

only when a report format is meant to change.
"""

from __future__ import annotations

import itertools
import random
import sys

from xmodkit.actions import check_derived_action, conjugation_action, make_action
from xmodkit.cat1 import Cat1Morphism, Cat1Object, enumerate_cat1_morphisms, verify_cat1
from xmodkit.cat1 import verify_cat1_morphism, xmod_to_cat1
from xmodkit.errors import ClosureError, IncompatibleActionError
from xmodkit.morphisms import enumerate_morphisms, ideal_report, identity_morphism
from xmodkit.morphisms import morphism_report
from xmodkit.profiles import make_profile
from xmodkit.structures import Morphism, make_structure, subobject, verify_structure
from xmodkit.xmod import (
    CrossedModule,
    XModMorphism,
    compose_xmod,
    enumerate_xmod_morphisms,
    slice_terminal,
    verify_xmod,
    verify_xmod_morphism,
    xmod_identity,
)
from xmodkit.zoo import (
    make_cyclic,
    make_dialgebra,
    make_leibniz2,
    make_lie2,
    make_standard_cat1s,
    make_standard_xmods,
    make_symmetric3,
    make_truncated_poly,
)

SEED = 1805
PER_OBJECT = 6


def frobenius_f2x():
    """F2[x]/(x^2) with squaring as a D-kind unary (additive and multiplicative)."""
    f2x = make_truncated_poly(2)
    profile = make_profile("frob-f2", [("mul", "mul")], [("fr", "D")], [])
    fr = tuple(f2x.star["mul"][i][i] for i in range(f2x.n))
    mul = f2x.star["mul"]
    return make_structure("frob2", profile, f2x.elements, f2x.add, f2x.neg, {"mul": mul}, {"fr": fr})


def zoo_structures():
    return [
        make_cyclic(2),
        make_cyclic(4),
        make_symmetric3(),
        make_truncated_poly(2),
        make_truncated_poly(3),
        make_lie2(3),
        make_leibniz2(2),
        make_dialgebra(2),
        frobenius_f2x(),
    ]


def _bump(rng, old, n):
    return rng.choice([v for v in range(n) if v != old])


def _edit1(table, rng, n):
    """Copy of a one-row table with one entry moved to another id."""
    k = rng.randrange(len(table))
    out = list(table)
    out[k] = _bump(rng, out[k], n)
    return tuple(out), f"[{k}]"


def _edit2(table, rng, n):
    """Copy of a two-dimensional table with one entry moved to another id."""
    i, j = rng.randrange(len(table)), rng.randrange(len(table[0]))
    rows = [list(r) for r in table]
    rows[i][j] = _bump(rng, rows[i][j], n)
    return tuple(tuple(r) for r in rows), f"[{i}][{j}]"


def perturb_structure(s, rng):
    ops = ["add", "neg"] + list(s.star) + list(s.omega)
    op = rng.choice(ops)
    add, neg, star, omega = s.add, s.neg, dict(s.star), dict(s.omega)
    if op == "add":
        add, at = _edit2(add, rng, s.n)
    elif op == "neg":
        neg, at = _edit1(neg, rng, s.n)
    elif op in star:
        star[op], at = _edit2(star[op], rng, s.n)
    else:
        omega[op], at = _edit1(omega[op], rng, s.n)
    return f"{op}{at}", make_structure(s.name, s.profile, s.elements, add, neg, star, omega)


def perturb_action(act, rng):
    a = act.acted
    op = rng.choice(["dot"] + list(act.star_act))
    dot, star = act.dot, dict(act.star_act)
    if op == "dot":
        dot, at = _edit2(dot, rng, a.n)
    else:
        star[op], at = _edit2(star[op], rng, a.n)
    return f"{op}{at}", make_action(act.name, act.actor, a, dot, star)


def perturb_map(m, rng):
    images, at = _edit1(m.map, rng, m.cod.n)
    return at, Morphism(m.name, m.dom, m.cod, images)


def structure_cases(rng):
    for s in zoo_structures():
        yield f"structure {s.name} as given", verify_structure(s).render()
        for _ in range(PER_OBJECT):
            what, bad = perturb_structure(s, rng)
            yield f"structure {s.name} {what}", verify_structure(bad).render()


def morphism_cases(rng):
    structures = zoo_structures()
    for a, b in itertools.product(structures, repeat=2):
        if a.profile.name != b.profile.name or a.n * b.n > 36:
            continue
        homs = enumerate_morphisms(a, b)
        for f in rng.sample(homs, min(2, len(homs))):
            what, bad = perturb_map(f, rng)
            yield f"morphism {f.name} map{what}", morphism_report(bad).render()


def ideal_cases(rng):
    for s in zoo_structures():
        subs = []
        for k in range(1, s.n + 1):
            for idx in itertools.combinations(range(s.n), k):
                try:
                    subs.append(subobject(s, idx))
                except ClosureError:
                    pass
        for sub in subs:
            yield f"ideal {s.name} {sub.elements}", ideal_report(sub).render()
        # an ideal of a parent whose star table was moved at one entry
        for _ in range(2):
            if not s.star:
                break
            sub = rng.choice(subs)
            what, bad = perturb_structure(s, rng)
            try:
                moved = subobject(bad, sub.elements)
            except ClosureError as exc:
                yield f"ideal {s.name} {what} {sub.elements}", f"ClosureError {exc}"
                continue
            yield f"ideal {s.name} {what} {sub.elements}", ideal_report(moved).render()


def zoo_actions():
    zoo = make_standard_xmods()
    acts = [xm.action for xm in zoo.values()]
    acts += [conjugation_action(s) for s in zoo_structures()]
    return acts


def action_cases(rng):
    for act in zoo_actions():
        if act.acted.n < 2:
            continue
        yield f"action {act.name} as given", check_derived_action(act).render()
        for _ in range(PER_OBJECT):
            what, bad = perturb_action(act, rng)
            yield f"action {act.name} {what}", check_derived_action(bad).render()


def xmod_cases(rng):
    zoo = make_standard_xmods()
    for xm in zoo.values():
        if xm.c1.n < 2:
            continue
        yield f"xmod {xm.name} as given", verify_xmod(xm).render()
        for _ in range(PER_OBJECT // 2):
            what, bnd = perturb_map(xm.boundary, rng)
            bad = CrossedModule(xm.name, bnd, xm.action)
            yield f"xmod {xm.name} boundary{what}", verify_xmod(bad).render()
            what, act = perturb_action(xm.action, rng)
            bad = CrossedModule(xm.name, xm.boundary, act)
            yield f"xmod {xm.name} action {what}", verify_xmod(bad).render()


def xmod_morphism_cases(rng):
    zoo = list(make_standard_xmods().values())
    maps = [xmod_identity(xm) for xm in zoo]
    for d, c in itertools.product(zoo, repeat=2):
        if d is c or d.c0.profile.name != c.c0.profile.name:
            continue
        if max(d.c1.n, d.c0.n) > 6:
            continue
        found = enumerate_xmod_morphisms(d, c)
        maps += rng.sample(found, min(1, len(found)))
    for m in maps:
        options = [w for w in ("top", "bottom") if getattr(m, w).cod.n > 1]
        for _ in range(2 if options else 0):
            which = rng.choice(options)
            what, moved = perturb_map(getattr(m, which), rng)
            top, bot = (moved, m.bottom) if which == "top" else (m.top, moved)
            bad = XModMorphism(m.name, m.dom, m.cod, top, bot)
            yield f"xmod morphism {m.name} {which}{what}", verify_xmod_morphism(bad).render()


def zoo_cat1s():
    # the conjugation module on s3 gives the one nonabelian big carrier
    return [*make_standard_cat1s().values(), xmod_to_cat1(make_standard_xmods()["xm_conj_s3"])]


def cat1_cases(rng):
    for c in zoo_cat1s() + [xmod_to_cat1(slice_terminal(make_symmetric3()))]:
        yield f"cat1 {c.name} as given", verify_cat1(c).render()
        both_tgt = Cat1Object(c.name, c.embed, c.tgt, c.tgt)
        yield f"cat1 {c.name} src := tgt", verify_cat1(both_tgt).render()
        for _ in range(PER_OBJECT):
            which = rng.choice(["src", "tgt", "embed"])
            what, moved = perturb_map(getattr(c, which), rng)
            legs = {"embed": c.embed, "src": c.src, "tgt": c.tgt, which: moved}
            bad = Cat1Object(c.name, legs["embed"], legs["src"], legs["tgt"])
            yield f"cat1 {c.name} {which}{what}", verify_cat1(bad).render()


def cat1_morphism_cases(rng):
    cats = zoo_cat1s()
    maps = [
        Cat1Morphism(f"id_{c.name}", c, c, identity_morphism(c.big), identity_morphism(c.base))
        for c in cats
    ]
    for d, c in itertools.product(cats, repeat=2):
        if d is not c and d.big.profile.name == c.big.profile.name and d.big.n <= 12:
            found = enumerate_cat1_morphisms(d, c)
            maps += rng.sample(found, min(1, len(found)))
    for m in maps:
        options = [w for w in ("big_map", "base_map") if getattr(m, w).cod.n > 1]
        for _ in range(2 if options else 0):
            which = rng.choice(options)
            what, moved = perturb_map(getattr(m, which), rng)
            big, base = (moved, m.base_map) if which == "big_map" else (m.big_map, moved)
            bad = Cat1Morphism(m.name, m.dom, m.cod, big, base)
            yield f"cat1 morphism {m.name} {which}{what}", verify_cat1_morphism(bad).render()


def compose_cases(rng):
    for xm in make_standard_xmods().values():
        if xm.c1.n < 2:
            continue
        lower = slice_terminal(xm.c0)
        for _ in range(PER_OBJECT):
            what, act = perturb_action(xm.action, rng)
            try:
                out = compose_xmod(xm, lower, act)
            except IncompatibleActionError as exc:
                text = f"IncompatibleActionError {exc}\nwitness {exc.witness}"
            else:
                text = f"composed {out.name}"
            yield f"compose {xm.name} base action {what}", text


SECTIONS = (
    structure_cases,
    morphism_cases,
    ideal_cases,
    action_cases,
    xmod_cases,
    xmod_morphism_cases,
    cat1_cases,
    cat1_morphism_cases,
    compose_cases,
)


def render_corpus() -> str:
    out = []
    for k, section in enumerate(SECTIONS):
        rng = random.Random(SEED * 100 + k)
        for title, text in section(rng):
            out.append(f"## {title}\n{text}\n")
    return "".join(out)


if __name__ == "__main__":
    sys.stdout.write(render_corpus())
