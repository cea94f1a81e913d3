"""The four benchmark workloads: seeded job lists with known answers.

A job is one user-visible certification or construction. ``run`` is the
timed call into xmodkit; ``check`` compares its result against an answer
the benchmark knows independently and returns a problem description, or
None when the answer is right. ``spec`` records the seeded parameters of
the job's inputs; the digest of all specs identifies the job list, so the
same seed must give the same digest.

Every call into the package goes through a module attribute at call time
(``m.structures.verify_structure``), so the tracer's wrappers see it.
Inputs are built during set-up; building them is part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import io as _io
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

@dataclass
class Job:
    name: str
    spec: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    jobs: list[Job]
    # called before every pass, outside the timed region
    prepare: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None
    child_processes: bool = False

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(f"{job.name}|{job.spec}\n".encode())
        return h.hexdigest()


def _ok(rep) -> str | None:
    return None if rep.ok else "expected PASS:\n" + rep.render()


def _relabel(m, s, perm, name=None):
    """Isomorphic copy of s whose index k is s's index perm[k]."""
    n = len(perm)
    inv = [0] * n
    for k, old in enumerate(perm):
        inv[old] = k

    def t2(t):
        return [[inv[t[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]

    def t1(t):
        return [inv[t[perm[a]]] for a in range(n)]

    copy = m.structures.make_structure(
        name or s.name, s.profile, [s.elements[p] for p in perm], t2(s.add), t1(s.neg),
        {k: t2(v) for k, v in s.star.items()}, {k: t1(v) for k, v in s.omega.items()},
    )
    return copy, inv


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# law_scan: exhaustive law evaluation, PASS and known FAIL


def _perturb_add(m, s, rng):
    """One add entry off the zero row and column changed: no longer a Latin square."""
    n, z = len(s.elements), s.zero
    i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if z not in (i, j)])
    v = rng.choice([x for x in range(n) if x != s.add[i][j]])
    rows = [list(r) for r in s.add]
    rows[i][j] = v
    spec = f"add[{i}][{j}]={v}"
    return m.structures.make_structure(
        f"{s.name}_add_{i}_{j}_{v}", s.profile, s.elements, rows, s.neg, s.star, s.omega
    ), spec


def _perturb_neg(m, s, rng):
    """One neg entry off zero changed: x + neg(x) = 0 fails at x."""
    n, z = len(s.elements), s.zero
    i = rng.choice([i for i in range(n) if i != z])
    v = rng.choice([x for x in range(n) if x != s.neg[i]])
    neg = list(s.neg)
    neg[i] = v
    return m.structures.make_structure(
        f"{s.name}_neg_{i}_{v}", s.profile, s.elements, s.add, neg, s.star, s.omega
    ), f"neg[{i}]={v}"


def _perturb_dot(m, act, rng):
    """One dot entry at a nonzero acted element changed: b.(x+y) = b.x + b.y fails."""
    a, b = act.acted, act.actor
    j = rng.randrange(b.n)
    x = rng.choice([x for x in range(a.n) if x != a.zero])
    v = rng.choice([y for y in range(a.n) if y != act.dot[j][x]])
    dot = [list(r) for r in act.dot]
    dot[j][x] = v
    return m.actions.make_action(
        f"{act.name}_dot_{j}_{x}_{v}", b, a, dot, act.star_act
    ), f"dot[{j}][{x}]={v}"


def _witnesses_recheck(m, s):
    def check(rep):
        if rep.ok:
            return "expected FAIL, got PASS"
        for item in rep.failures():
            if m.structures.evaluate_law(s, item.law, item.witness) is not False:
                return f"witness {item.witness} for {item.law} re-evaluates clean"
        return None

    return check


def _expect_fail(rep):
    return None if not rep.ok else "expected FAIL, got PASS"


def law_scan(m, seed: int, root: Path) -> Plan:
    rng = random.Random(seed)
    Z, S, A, X, C = m.zoo, m.structures, m.actions, m.xmod, m.cat1
    jobs: list[Job] = []

    def relabeled(s):
        perm = _shuffled(rng, s.n)
        copy, inv = _relabel(m, s, perm)
        return copy, inv, f"perm={perm}"

    ladder = [
        Z.make_cyclic(12), Z.make_cyclic(16), Z.make_cyclic(24), Z.make_cyclic(36),
        Z.make_cyclic(48), Z.make_truncated_poly(2, 4), Z.make_truncated_poly(2, 5),
        Z.make_truncated_poly(3, 3), Z.make_truncated_poly(5), Z.make_lie2(5),
        Z.make_leibniz2(3), Z.make_symmetric3(),
    ]
    # z16 under fifteen more labellings and z36 under four: blocks of PASS
    # jobs whose cost does not depend on the seed, at the median and the
    # 90th percentile job, so that job_p50_ms and job_p90_ms do not either
    for base in ladder + [Z.make_cyclic(16)] * 15 + [Z.make_cyclic(36)] * 4:
        s, _, spec = relabeled(base)
        jobs.append(Job(f"verify_structure {s.name}", spec,
                        lambda s=s: S.verify_structure(s), _ok))

    # (base, ideal as indices of the unrelabelled base or None for the
    # terminal module, check the module?, verify its cat1 translation?)
    z4, z8, z12, z16, z24 = (Z.make_cyclic(k) for k in (4, 8, 12, 16, 24))
    s3, f2x, f2x4, leib3 = (
        Z.make_symmetric3(), Z.make_truncated_poly(2), Z.make_truncated_poly(2, 4),
        Z.make_leibniz2(3),
    )
    modules = [
        (z4, None, False, True), (z8, None, True, False), (z12, None, True, False),
        (z16, None, True, False), (s3, None, True, True), (f2x, None, True, True),
        (leib3, None, True, False), (f2x4, None, True, False),
        (z8, (0, 4), False, True), (z12, (0, 3, 6, 9), True, True),
        (z16, (0, 4, 8, 12), True, True), (z24, (0, 12), True, False),
        (s3, (0, 1, 2), True, True), (leib3, (0, 3, 6), True, False),
    ]
    terminal_actions = {}
    for base, ideal, check_xm, translate in modules:
        s, inv, spec = relabeled(base)
        if ideal is None:
            xm = X.slice_terminal(s)
            terminal_actions[base.name] = xm.action
        else:
            xm = X.inclusion_xmod(s, tuple(inv[i] for i in ideal))
            spec += f" ideal={ideal}"
        if check_xm:
            jobs.append(Job(f"check_derived_action {xm.name}", spec,
                            lambda xm=xm: A.check_derived_action(xm.action), _ok))
            jobs.append(Job(f"verify_xmod {xm.name}", spec,
                            lambda xm=xm: X.verify_xmod(xm), _ok))
        if translate:
            c = C.xmod_to_cat1(xm)
            jobs.append(Job(f"verify_cat1 {c.name} big={c.big.n}", spec,
                            lambda c=c: C.verify_cat1(c), _ok))

    for base, count, how in (
        (f2x4, 8, "add"), (leib3, 2, "add"), (z8, 6, "add"), (s3, 6, "add"),
        (f2x4, 4, "neg"),
    ):
        for _ in range(count):
            s, _, spec = relabeled(base)
            bad, what = (_perturb_add if how == "add" else _perturb_neg)(m, s, rng)
            jobs.append(Job(f"verify_structure {bad.name}", f"{spec} {what}",
                            lambda bad=bad: S.verify_structure(bad), _witnesses_recheck(m, bad)))
    for key, count in (("z12", 2), ("s3", 2), ("f2x", 2)):
        for _ in range(count):
            bad, what = _perturb_dot(m, terminal_actions[key], rng)
            jobs.append(Job(f"check_derived_action {bad.name}", what,
                            lambda bad=bad: A.check_derived_action(bad), _expect_fail))
    rng.shuffle(jobs)
    return Plan(jobs)


# ---------------------------------------------------------------------------
# search_sweep: morphism and isomorphism search


def _zoo_structures(Z):
    return (
        Z.make_cyclic(2), Z.make_cyclic(3), Z.make_cyclic(4), Z.make_symmetric3(),
        Z.make_truncated_poly(2), Z.make_truncated_poly(3), Z.make_lie2(3),
        Z.make_leibniz2(2), Z.make_dialgebra(2),
    )


SQUARE_MAX = 16


def _cone_jobs(m) -> list[Job]:
    """The slice-limit cone certifications of acceptance criterion 5."""
    X, M, S = m.xmod, m.morphisms, m.structures
    zoo = m.zoo.make_standard_xmods()
    out = []

    def certify(anchor, eq_pair, slice_testers, eq_testers):
        base = anchor.c0
        term, init = X.slice_terminal(base), X.slice_initial(base)
        prod, p1, p2 = X.slice_product(anchor, anchor)
        collapse = X.XModMorphism(
            f"onto_term_{anchor.name}", anchor, term, anchor.boundary, M.identity_morphism(base)
        )
        idterm = X.xmod_identity(term)
        pb, q1, q2 = X.slice_pullback(collapse, idterm)
        f, g = eq_pair
        eq, incl = X.xmod_equalizer(f, g)
        cones = (
            ("terminal", term, {"testers": slice_testers}),
            ("initial", init, {"testers": slice_testers}),
            ("product", prod, {"legs": (p1, p2), "testers": slice_testers}),
            ("pullback", pb, {"legs": (q1, q2), "parallel": (collapse, idterm),
                              "testers": slice_testers}),
            ("equalizer", eq, {"legs": (incl,), "parallel": (f, g), "testers": eq_testers}),
        )
        for kind, cand, kw in cones:
            out.append(Job(
                f"verify_universal_cone {kind} {cand.name}", "",
                lambda kind=kind, cand=cand, kw=kw: X.verify_universal_cone(kind, cand, **kw),
                _one_mediator,
            ))

    m1 = zoo["xm_z2_z4"]
    flip = X.XModMorphism("flip", m1, m1, M.identity_morphism(m1.c1),
                          S.Morphism("neg_z4", m1.c0, m1.c0, tuple(m1.c0.neg)))
    group_slice = [m1, zoo["xm_terminal_z4"], zoo["xm_initial_z4"]]
    certify(m1, (X.xmod_identity(m1), flip), group_slice, group_slice + [zoo["xm_conj_s3"]])
    m2 = zoo["xm_ideal_f2x"]
    prune = X.XModMorphism("prune", m2, m2, S.Morphism("zero_top", m2.c1, m2.c1, (0, 0)),
                           S.Morphism("kill_x", m2.c0, m2.c0, (0, 1, 0, 1)))
    alg_slice = [m2, X.slice_terminal(m2.c0), X.slice_initial(m2.c0)]
    certify(m2, (X.xmod_identity(m2), prune), alg_slice, alg_slice)
    return out


def _one_mediator(rep) -> str | None:
    if not rep.ok:
        return "a cone has other than one mediator:\n" + rep.render()
    if not any("cones=" in item.detail for item in rep.items):
        return "no tester contributed a cone"
    return None


def _count_is(want: int):
    def check(homs):
        return None if len(homs) == want else f"{len(homs)} maps, want {want}"

    return check


def search_sweep(m, seed: int, root: Path) -> Plan:
    rng = random.Random(seed)
    Z, M, X, C, P = m.zoo, m.morphisms, m.xmod, m.cat1, m.pullbacks
    jobs: list[Job] = []

    # acceptance criterion 8 pairs whose split carrier stays within SQUARE_MAX
    zoo = Z.make_standard_xmods()
    structures = _zoo_structures(Z)
    for x in zoo.values():
        hits = Counter(x.boundary.map)
        for s in structures:
            if s.profile.name != x.c0.profile.name:
                continue
            for phi in M.enumerate_morphisms(s, x.c0):
                if sum(hits.get(c, 0) for c in phi.map) * s.n > SQUARE_MAX:
                    continue
                jobs.append(Job(
                    f"square_commutes {x.name} {phi.name}", f"map={phi.map}",
                    lambda x=x, phi=phi: P.square_commutes(x, phi, max_size=SQUARE_MAX), _ok,
                ))

    # acceptance criterion 4 round trips
    def found(result):
        return None if result is not None else "round-trip isomorphism not found"

    for key, x in zoo.items():
        if max(x.c1.n, x.c0.n) <= 8:
            back = C.cat1_to_xmod(C.xmod_to_cat1(x))
            jobs.append(Job(f"find_xmod_isomorphism {key}", "",
                            lambda back=back, x=x: X.find_xmod_isomorphism(back, x), found))
    for key, c in Z.make_standard_cat1s().items():
        back = C.xmod_to_cat1(C.cat1_to_xmod(c))
        jobs.append(Job(f"find_cat1_isomorphism {key}", "",
                        lambda back=back, c=c: C.find_cat1_isomorphism(back, c), found))

    jobs += _cone_jobs(m)

    # |Hom(Z_12, Z_60)| = gcd(12, 60) under 60 seeded labellings of the
    # codomain, which leave the work of the search unchanged. These equal
    # jobs hold the median job, so job_p50_ms has no gap to fall into.
    z12, z60 = Z.make_cyclic(12), Z.make_cyclic(60)
    for _ in range(60):
        perm = _shuffled(rng, z60.n)
        b, _ = _relabel(m, z60, perm)
        jobs.append(Job("enumerate_morphisms z12 z60", f"perm={perm}",
                        lambda b=b: M.enumerate_morphisms(z12, b), _count_is(math.gcd(12, 60))))
    rng.shuffle(jobs)
    return Plan(jobs)


# ---------------------------------------------------------------------------
# build_roundtrip: constructions, each serialized and parsed back


def _parts(obj):
    """(kind, structures the object's file references) for an xmodkit object."""
    if hasattr(obj, "boundary"):
        return "xmod", (obj.c1, obj.c0)
    if hasattr(obj, "embed"):
        return "cat1", (obj.big, obj.base)
    return "structure", ()


def _roundtrip(m, obj) -> bool:
    """serialize(parse(serialize(x))) == serialize(x), for x and its parts."""
    io = m.io
    kind, parts = _parts(obj)
    texts = {f"{p.name}.mci": io.serialize_structure(p) for p in parts}
    text = getattr(io, f"serialize_{kind}")(obj)
    if kind == "structure":
        back = io.parse_structure(text)
    else:
        loaded = {ref: io.parse_structure(t) for ref, t in texts.items()}
        back = getattr(io, f"parse_{kind}")(text, lambda ref, line: loaded[ref])
    _, back_parts = _parts(back)
    again = {f"{p.name}.mci": io.serialize_structure(p) for p in back_parts}
    return getattr(io, f"serialize_{kind}")(back) == text and again == texts


def _size_check(size_of, want):
    def check(result):
        obj, same = result
        if not same:
            return "serialize(parse(serialize(x))) differs from serialize(x)"
        got = size_of(obj)
        return None if got == want else f"carrier size {got}, formula gives {want}"

    return check


def _n(s):
    return len(s.elements)


def build_roundtrip(m, seed: int, root: Path) -> Plan:
    rng = random.Random(seed)
    Z, M, A, L, X, C, P, S = (
        m.zoo, m.morphisms, m.actions, m.limits, m.xmod, m.cat1, m.pullbacks, m.structures
    )
    jobs: list[Job] = []

    def relabeled(s, name=None):
        perm = _shuffled(rng, s.n)
        return _relabel(m, s, perm, name)[0], f"perm={perm}"

    def add(name, spec, build, size_of, want):
        def run(build=build):
            obj = build()
            return obj, _roundtrip(m, obj)

        jobs.append(Job(name, spec, run, _size_check(size_of, want)))

    # semidirect products of conjugation actions, |A||B|. f2x k=4 appears
    # under several labellings (as in the translations below): a block of
    # jobs of one cost at the 90th percentile keeps job_p90_ms steady.
    f2x4 = Z.make_truncated_poly(2, 4)
    for base in (Z.make_symmetric3(), Z.make_cyclic(16), Z.make_truncated_poly(3),
                 Z.make_leibniz2(3), f2x4, f2x4, f2x4, Z.make_lie2(5)):
        s, spec = relabeled(base)
        add(f"semidirect_product conj {s.name}", spec,
            lambda s=s: A.semidirect_product(A.conjugation_action(s))[0], _n, s.n * s.n)

    # direct products, |A||B|
    for a0, b0 in ((Z.make_cyclic(12), Z.make_cyclic(16)),
                   (Z.make_truncated_poly(2, 4), Z.make_truncated_poly(2)),
                   (Z.make_symmetric3(), Z.make_cyclic(8)), (Z.make_lie2(3), Z.make_lie2(3))):
        a, sa = relabeled(a0)
        b, sb = relabeled(b0, f"{b0.name}b")
        add(f"direct_product {a.name} {b.name}", f"{sa} {sb}",
            lambda a=a, b=b: L.direct_product(a, b)[0], _n, a.n * b.n)

    # fibre products of seeded surjections, sum over the shared codomain
    def surjections(a, b):
        return [f for f in M.enumerate_morphisms(a, b, max_size=a.n) if len(set(f.map)) == b.n]

    for a0, b0, c0 in ((Z.make_cyclic(24), Z.make_cyclic(36), Z.make_cyclic(12)),
                       (Z.make_truncated_poly(2, 4), Z.make_truncated_poly(2, 3),
                        Z.make_truncated_poly(2))):
        alphas, betas = surjections(a0, c0), surjections(b0, c0)
        for _ in range(2):
            alpha, beta = rng.choice(alphas), rng.choice(betas)
            ca, cb = Counter(alpha.map), Counter(beta.map)
            want = sum(ca[c] * cb[c] for c in range(c0.n))
            add(f"fiber_product {a0.name} {b0.name} over {c0.name}",
                f"alpha={alpha.map} beta={beta.map}",
                lambda alpha=alpha, beta=beta: L.fiber_product(alpha, beta)[0], _n, want)

    # equalizers of seeded parallel pairs, and subgroups of z48
    z48, z24 = Z.make_cyclic(48), Z.make_cyclic(24)
    homs = M.enumerate_morphisms(z48, z24, max_size=48)
    for _ in range(2):
        f, g = rng.sample(homs, 2)
        want = sum(1 for i in range(48) if f.map[i] == g.map[i])
        add("equalizer z48 z24", f"f={f.map} g={g.map}",
            lambda f=f, g=g: L.equalizer(f, g).induced, _n, want)
    for _ in range(2):
        s, spec = relabeled(z48)
        d = rng.choice((2, 3, 4, 6, 8, 12))
        keep = [k for k in range(48) if int(s.elements[k]) % d == 0]
        add(f"subobject {s.name} multiples of {d}", f"{spec} d={d}",
            lambda s=s, keep=keep: S.subobject(s, keep).induced, _n, 48 // d)

    # slice limits over z4 and f2x (acceptance criterion 5 shapes)
    zoo = Z.make_standard_xmods()
    for anchor in (zoo["xm_z2_z4"], zoo["xm_ideal_f2x"]):
        base = anchor.c0
        hits = Counter(anchor.boundary.map)
        term = X.slice_terminal(base)
        collapse = X.XModMorphism(f"onto_term_{anchor.name}", anchor, term, anchor.boundary,
                                  M.identity_morphism(base))
        f = X.xmod_identity(anchor)
        g = X.XModMorphism("same", anchor, anchor,
                           rng.choice(M.enumerate_morphisms(anchor.c1, anchor.c1)),
                           M.identity_morphism(base))
        top = lambda xm: _n(xm.c1)  # noqa: E731
        add(f"slice_terminal {base.name}", "", lambda base=base: X.slice_terminal(base),
            top, base.n)
        add(f"slice_initial {base.name}", "", lambda base=base: X.slice_initial(base), top, 1)
        add(f"slice_product {anchor.name}", "",
            lambda anchor=anchor: X.slice_product(anchor, anchor)[0], top,
            sum(v * v for v in hits.values()))
        add(f"slice_pullback {anchor.name}", "",
            lambda c=collapse, t=term: X.slice_pullback(c, X.xmod_identity(t))[0],
            top, anchor.c1.n)
        add(f"xmod_equalizer {anchor.name}", f"g={g.top.map}",
            lambda f=f, g=g: X.xmod_equalizer(f, g)[0], top,
            sum(1 for i in range(anchor.c1.n) if f.top.map[i] == g.top.map[i]))

    # translations up to the 729-element split object of f3x k=3
    for base in (Z.make_cyclic(16), f2x4, f2x4, Z.make_truncated_poly(3, 3)):
        s, spec = relabeled(base)
        xm = X.slice_terminal(s)
        add(f"xmod_to_cat1 {xm.name}", spec, lambda xm=xm: C.xmod_to_cat1(xm),
            lambda c: _n(c.big), s.n * s.n)
        c = C.xmod_to_cat1(xm)
        add(f"cat1_to_xmod {c.name}", spec, lambda c=c: C.cat1_to_xmod(c),
            lambda x: _n(x.c1), c.big.n // c.base.n)

    # pullbacks along seeded injective base morphisms; an injective map into
    # a cyclic base has one image, so the work does not depend on the seed
    def injections(a, b):
        return [f for f in M.enumerate_morphisms(a, b) if len(set(f.map)) == a.n]

    z2, z6, z8, z12, z16 = (Z.make_cyclic(k) for k in (2, 6, 8, 12, 16))
    for xm, t in ((X.slice_terminal(z12), z6), (X.inclusion_xmod(z16, (0, 4, 8, 12)), z8),
                  (zoo["xm_z2_z4"], z2)):
        c = C.xmod_to_cat1(xm)
        maps = injections(t, xm.c0)
        for phi in rng.sample(maps, min(3, len(maps))):
            hits, img = Counter(xm.boundary.map), Counter(phi.map)
            add(f"pullback_xmod {xm.name} {phi.name}", f"phi={phi.map}",
                lambda xm=xm, phi=phi: P.pullback_xmod(xm, phi)[0], lambda x: _n(x.c1),
                sum(hits[v] * img[v] for v in range(xm.c0.n)))
            add(f"pullback_cat1 {c.name} {phi.name}", f"phi={phi.map}",
                lambda c=c, phi=phi: P.pullback_cat1(c, phi)[0], lambda pc: _n(pc.big),
                sum(img[c.src.map[k]] * img[c.tgt.map[k]] for k in range(c.big.n)))
    rng.shuffle(jobs)
    return Plan(jobs)


# ---------------------------------------------------------------------------
# cli_golden: the golden command script through `python -m xmodkit`


def golden_commands(root: Path) -> list[str]:
    lines = (root / "golden" / "commands.txt").read_text(encoding="utf-8").splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]


def pinned_records(here: Path) -> list[str]:
    """The pinned transcript split into one '$ xmodkit ...' record per command."""
    text = (here / "golden_transcript.txt").read_text(encoding="utf-8")
    records, cur = [], ""
    for line in text.splitlines(keepends=True):
        if line.startswith("$ xmodkit ") and cur:
            records.append(cur)
            cur = ""
        cur += line
    records.append(cur)
    return records


def _record(line: str, stdout: str, code: int) -> str:
    return f"$ xmodkit {line}\n{stdout}exit {code}\n"


def _golden_workdir(root: Path, tag: str) -> tuple[Path, Callable[[], None]]:
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"

    def fresh():
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        for src in sorted((root / "golden").glob("*.mci")):
            shutil.copy(src, work / src.name)

    return work, fresh


def _record_check(want: str):
    def check(rec):
        code = int(rec.rstrip("\n").rsplit("exit ", 1)[1])
        if code != 0:
            return f"exit {code}"
        return None if rec == want else f"transcript record differs:\n{rec}"

    return check


def cli_golden(m, seed: int, root: Path) -> Plan:
    """The pinned corpus; the seed does not change it, so the digest is fixed."""
    here = Path(__file__).resolve().parent
    commands = golden_commands(root)
    records = pinned_records(here)
    if len(records) != len(commands):
        raise RuntimeError("pinned transcript and golden/commands.txt disagree")
    work, fresh = _golden_workdir(root, "cli")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    fresh()

    def invoke(line):
        proc = subprocess.run(
            [sys.executable, "-m", "xmodkit", *shlex.split(line)],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        return _record(line, proc.stdout, proc.returncode)

    jobs = [
        Job(f"xmodkit {line}", line, lambda line=line: invoke(line), _record_check(want))
        for line, want in zip(commands, records)
    ]
    return Plan(jobs, prepare=fresh, close=lambda: shutil.rmtree(work, ignore_errors=True),
                child_processes=True)


def cli_inprocess(m, root: Path) -> Plan:
    """The same script through ``cli.main`` in this process, for the traced run."""
    here = Path(__file__).resolve().parent
    commands = golden_commands(root)
    records = pinned_records(here)
    work, fresh = _golden_workdir(root, "cli-inproc")
    home = os.getcwd()

    def prepare():
        os.chdir(home)
        fresh()
        os.chdir(work)

    def close():
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    def invoke(line):
        buf = _io.StringIO()
        with redirect_stdout(buf):
            code = m.cli.main(shlex.split(line))
        return _record(line, buf.getvalue(), code)

    jobs = [
        Job(f"cli.main {line}", line, lambda line=line: invoke(line), _record_check(want))
        for line, want in zip(commands, records)
    ]
    return Plan(jobs, prepare=prepare, close=close)


BUILDERS = {
    "law_scan": law_scan,
    "search_sweep": search_sweep,
    "build_roundtrip": build_roundtrip,
    "cli_golden": cli_golden,
}
