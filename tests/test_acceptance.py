"""Acceptance suite: ten end-to-end criteria with runtime budgets.

Each test prints one line, ``ACCEPTANCE <n> PASS <summary> (<elapsed>)``,
after all of its assertions hold (run pytest with ``-s`` to see them).
The criteria exercise the package at desk scale: exhaustive table
perturbations, random action perturbations, translation roundtrips,
universal-property enumeration against the zoo, and a deterministic
replay of the golden command script.
"""

import functools
import random
import shlex
import shutil
import time
from pathlib import Path

from conftest import brute_force_morphisms

from xmodkit.actions import (
    check_derived_action,
    conjugation_action,
    make_action,
    semidirect_product,
    trivial_action,
)
from xmodkit.cat1 import (
    cat1_to_xmod,
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    verify_cat1,
    verify_cat1_morphism,
    xmod_to_cat1,
)
from xmodkit.cli import main as cli_main
from xmodkit.morphisms import (
    enumerate_morphisms,
    find_isomorphism,
    identity_morphism,
)
from xmodkit.pullbacks import (
    cat1_pullback_mediator,
    cat1_pullback_mediators,
    preimage_xmod,
    pullback_cat1,
    pullback_xmod,
    square_commutes,
    xmod_pullback_mediator,
    xmod_pullback_mediators,
)
from xmodkit.structures import Morphism, evaluate_law, make_structure, verify_structure
from xmodkit.xmod import (
    XModMorphism,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    inclusion_xmod,
    make_xmod,
    slice_initial,
    slice_product,
    slice_pullback,
    slice_terminal,
    verify_universal_cone,
    verify_xmod,
    verify_xmod_morphism,
    xmod_equalizer,
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

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _criterion(num, label, limit):
    """Wrap a test so it prints one PASS/FAIL line and enforces a budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL {label}")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < limit, f"{label}: {elapsed:.2f}s over the {limit:.0f}s budget"
            print(f"ACCEPTANCE {num} PASS {label} ({elapsed:.2f}s)")

        return wrapper

    return deco


def _zoo_structures():
    return (
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4),
        make_symmetric3(),
        make_truncated_poly(2),
        make_truncated_poly(3),
        make_lie2(3),
        make_leibniz2(2),
        make_dialgebra(2),
    )


def _one_entry_variants(s):
    """Every structure obtained from s by rewriting exactly one table entry."""

    def build(add=s.add, neg=s.neg, star=s.star, omega=s.omega):
        return make_structure(f"{s.name}_mut", s.profile, s.elements, add, neg, star, omega)

    for i in range(s.n):
        for j in range(s.n):
            for v in range(s.n):
                if v != s.add[i][j]:
                    rows = [list(r) for r in s.add]
                    rows[i][j] = v
                    yield build(add=rows)
    for i in range(s.n):
        for v in range(s.n):
            if v != s.neg[i]:
                row = list(s.neg)
                row[i] = v
                yield build(neg=row)
    for sym in s.profile.binary_symbols():
        for i in range(s.n):
            for j in range(s.n):
                for v in range(s.n):
                    if v != s.star[sym][i][j]:
                        tabs = {k: [list(r) for r in t] for k, t in s.star.items()}
                        tabs[sym][i][j] = v
                        yield build(star=tabs)
    for sym in s.profile.unary_symbols():
        for i in range(s.n):
            for v in range(s.n):
                if v != s.omega[sym][i]:
                    tabs = {k: list(t) for k, t in s.omega.items()}
                    tabs[sym][i] = v
                    yield build(omega=tabs)


@_criterion(1, "axiom suite accepts the zoo and pinpoints every table corruption", 10.0)
def test_criterion_01_axiom_perturbations():
    for s in _zoo_structures():
        assert verify_structure(s).ok, s.name
    for base in (make_cyclic(4), make_truncated_poly(2)):
        total = fails = 0
        for variant in _one_entry_variants(base):
            total += 1
            rep = verify_structure(variant)
            if rep.ok:
                continue
            fails += 1
            for item in rep.failures():
                assert evaluate_law(variant, item.law, item.witness) is False, (
                    f"{base.name}: witness for {item.law} re-evaluates clean"
                )
        nb = len(base.profile.binary_symbols())
        nu = len(base.profile.unary_symbols())
        slots = (nb + 1) * base.n * base.n + (nu + 1) * base.n
        assert total == slots * (base.n - 1)
        assert fails > 0


@_criterion(2, "derived-action check matches semidirect verification on perturbations", 10.0)
def test_criterion_02_action_iff(z2, z3):
    base_dot = ((0, 1, 2), (0, 2, 1))
    inv = make_action("inv_z2_z3", z2, z3, base_dot, {})
    assert check_derived_action(inv).ok
    assert verify_structure(semidirect_product(inv)[0]).ok

    rng = random.Random(20260815)
    draws = rejected = 0
    while draws < 60:
        i, j, v = rng.randrange(2), rng.randrange(3), rng.randrange(3)
        if v == base_dot[i][j]:
            continue
        draws += 1
        dot = [list(r) for r in base_dot]
        dot[i][j] = v
        mutant = make_action("inv_mut", z2, z3, dot, {})
        direct = check_derived_action(mutant).ok
        via_product = verify_structure(semidirect_product(mutant)[0]).ok
        assert direct == via_product, f"disagreement at dot[{i}][{j}] = {v}"
        if not direct:
            rejected += 1
    assert rejected > 0


@_criterion(3, "inversion semidirect product is s3, the trivial one is z6", 1.0)
def test_criterion_03_semidirect_identification(z2, z3):
    inv = make_action("inv_z2_z3", z2, z3, ((0, 1, 2), (0, 2, 1)), {})
    twisted = semidirect_product(inv)[0]
    assert find_isomorphism(twisted, make_symmetric3()) is not None
    plain = semidirect_product(trivial_action(z2, z3))[0]
    assert find_isomorphism(plain, make_cyclic(6)) is not None


@_criterion(4, "crossed module / split object translation round-trips on the zoo", 30.0)
def test_criterion_04_translation_roundtrip():
    zoo = make_standard_xmods()
    small = {k: x for k, x in zoo.items() if max(x.c1.n, x.c0.n) <= 8}
    assert len(small) == 7
    for key, x in small.items():
        back = cat1_to_xmod(xmod_to_cat1(x))
        assert find_xmod_isomorphism(back, x) is not None, key
    for key, c in make_standard_cat1s().items():
        assert max(c.big.n, c.base.n) <= 8, key
        back = xmod_to_cat1(cat1_to_xmod(c))
        assert find_cat1_isomorphism(back, c) is not None, key


def _slice_universality(anchor, eq_pair, slice_testers, eq_testers):
    """Build all five slice limits over anchor's base and certify each cone."""
    base = anchor.c0
    term = slice_terminal(base)
    init = slice_initial(base)
    prod, p1, p2 = slice_product(anchor, anchor)
    collapse = XModMorphism(
        f"onto_term_{anchor.name}", anchor, term, anchor.boundary, identity_morphism(base)
    )
    assert verify_xmod_morphism(collapse).ok
    idterm = xmod_identity(term)
    pb, q1, q2 = slice_pullback(collapse, idterm)
    f, g = eq_pair
    assert verify_xmod_morphism(f).ok and verify_xmod_morphism(g).ok
    eq, incl = xmod_equalizer(f, g)

    for built in (term, init, prod, pb, eq):
        assert verify_xmod(built).ok, built.name
    reports = (
        verify_universal_cone("terminal", term, testers=slice_testers),
        verify_universal_cone("initial", init, testers=slice_testers),
        verify_universal_cone("product", prod, legs=(p1, p2), testers=slice_testers),
        verify_universal_cone(
            "pullback", pb, legs=(q1, q2), parallel=(collapse, idterm), testers=slice_testers
        ),
        verify_universal_cone("equalizer", eq, legs=(incl,), parallel=(f, g), testers=eq_testers),
    )
    for rep in reports:
        assert rep.ok, rep.render()
        # at least one tester must contribute a real cone
        assert any("cones=" in item.detail for item in rep.items), rep.subject


@_criterion(5, "slice limits verify and are universal against the zoo testers", 300.0)
def test_criterion_05_slice_completeness():
    zoo = make_standard_xmods()

    m1 = zoo["xm_z2_z4"]
    flip = XModMorphism(
        "flip",
        m1,
        m1,
        identity_morphism(m1.c1),
        Morphism("neg_z4", m1.c0, m1.c0, tuple(m1.c0.neg)),
    )
    group_slice = [m1, zoo["xm_terminal_z4"], zoo["xm_initial_z4"]]
    group_eq = group_slice + [zoo["xm_conj_s3"]]
    _slice_universality(m1, (xmod_identity(m1), flip), group_slice, group_eq)

    m2 = zoo["xm_ideal_f2x"]
    prune = XModMorphism(
        "prune",
        m2,
        m2,
        Morphism("zero_top", m2.c1, m2.c1, (0, 0)),
        Morphism("kill_x", m2.c0, m2.c0, (0, 1, 0, 1)),
    )
    alg_slice = [m2, slice_terminal(m2.c0), slice_initial(m2.c0)]
    _slice_universality(m2, (xmod_identity(m2), prune), alg_slice, alg_slice)


@_criterion(6, "pulled-back crossed module is universal; kernels arise as pullbacks", 30.0)
def test_criterion_06_pullback_xmod(z2, z4):
    p = make_xmod("p_z4", identity_morphism(z4), conjugation_action(z4))
    assert verify_xmod(p).ok
    double = Morphism("double", z2, z4, (0, 2))
    pb, proj = pullback_xmod(p, double)
    assert pb.c1.n == 2
    assert verify_xmod(pb).ok and verify_xmod_morphism(proj).ok

    zoo = make_standard_xmods()
    testers = [
        zoo["xm_z2_z4"],
        zoo["xm_conj_s3"],
        zoo["xm_terminal_z4"],
        zoo["xm_initial_z4"],
        slice_terminal(z2),
        slice_initial(z2),
        pb,
    ]
    cones = 0
    for t in testers:
        for f in enumerate_xmod_morphisms(t, p):
            if f.bottom.map != double.map:
                continue
            cones += 1
            meds = xmod_pullback_mediators(pb, proj, f)
            assert len(meds) == 1, f.name
            direct = xmod_pullback_mediator(pb, proj, f)
            assert verify_xmod_morphism(direct).ok
            assert (direct.top.map, direct.bottom.map) == (meds[0].top.map, meds[0].bottom.map)
    assert cones >= 3

    mod2 = Morphism("mod2", z4, z2, (0, 1, 0, 1))
    pre = preimage_xmod(mod2, (0,))
    assert pre.c1.elements == ("0", "2")
    assert verify_xmod(pre).ok
    as_pullback = pullback_xmod(inclusion_xmod(z2, (0,)), mod2)[0]
    assert find_xmod_isomorphism(pre, as_pullback) is not None


@_criterion(7, "pulled-back split object is universal", 60.0)
def test_criterion_07_pullback_cat1(z2):
    cats = make_standard_cat1s()
    r = cats["xm_z2_z4"]
    double = Morphism("double", z2, r.base, (0, 2))
    pc, proj = pullback_cat1(r, double)
    assert pc.big.n == 4
    assert verify_cat1(pc).ok and verify_cat1_morphism(proj).ok

    testers = list(cats.values()) + [
        xmod_to_cat1(slice_terminal(z2)),
        xmod_to_cat1(slice_initial(z2)),
        pc,
    ]
    cones = 0
    for t in testers:
        assert max(t.big.n, t.base.n) <= 8, t.name
        if t.big.profile.name != r.big.profile.name:
            continue  # no morphisms across profiles, hence no cones
        for g in enumerate_cat1_morphisms(t, r):
            if g.base_map.map != double.map:
                continue
            cones += 1
            meds = cat1_pullback_mediators(pc, proj, g)
            assert len(meds) == 1, g.name
            direct = cat1_pullback_mediator(pc, proj, g)
            assert verify_cat1_morphism(direct).ok
            assert (direct.big_map.map, direct.base_map.map) == (
                meds[0].big_map.map,
                meds[0].base_map.map,
            )
    assert cones >= 3


# the largest split carrier of a zoo square (the fibre of the boundary
# over phi's image, times |phi.dom|): xm_ideal_f3x and xm_ideal_lie3 at 81
SQUARE_MAX_SIZE = 81


@_criterion(8, "pulling back commutes with the split-object translation", 120.0)
def test_criterion_08_square():
    zoo = make_standard_xmods()
    structures = _zoo_structures()
    executed = set()
    for x in zoo.values():
        for s in structures:
            if s.profile.name != x.c0.profile.name:
                continue
            for phi in enumerate_morphisms(s, x.c0):
                rep = square_commutes(x, phi, max_size=SQUARE_MAX_SIZE)
                assert rep.ok, rep.render()
                executed.add((x.name, s.name, phi.map))
    for key in ("xm_z2_z4", "xm_ideal_f2x", "xm_ideal_leib2", "xm_ideal_dialg2", "xm_initial_z4"):
        x = zoo[key]
        assert (key, x.c0.name, tuple(range(x.c0.n))) in executed, key
    assert len(executed) == 79


@_criterion(9, "morphism enumeration matches the unfiltered brute-force scan", 60.0)
def test_criterion_09_enumeration_oracle(z2, z3, z4, f2x):
    small = [z2, z3, z4, f2x, make_leibniz2(2), make_dialgebra(2)]
    pairs = [
        (a, b)
        for a in small
        for b in small
        if a.profile.name == b.profile.name and max(a.n, b.n) <= 4
    ]
    assert len(pairs) == 12
    for a, b in pairs:
        fast = sorted(m.map for m in enumerate_morphisms(a, b))
        assert fast == brute_force_morphisms(a, b), (a.name, b.name)


@_criterion(10, "golden command script is deterministic and its outputs re-verify", 300.0)
def test_criterion_10_cli_determinism(tmp_path, monkeypatch, capsys):
    script = [ln.strip() for ln in (GOLDEN / "commands.txt").read_text().splitlines()]
    script = [ln for ln in script if ln and not ln.startswith("#")]
    assert len(script) >= 30

    def replay(workdir):
        workdir.mkdir()
        for src in GOLDEN.glob("*.mci"):
            shutil.copy(src, workdir / src.name)
        (workdir / "out").mkdir()
        monkeypatch.chdir(workdir)
        records = []
        for line in script:
            code = cli_main(shlex.split(line))
            captured = capsys.readouterr()
            records.append((line, code, captured.out, captured.err))
        return records

    first = replay(tmp_path / "run1")
    second = replay(tmp_path / "run2")
    assert first == second
    # byte for byte the pinned transcript, in golden/run.sh's record format
    transcript = "".join(f"$ xmodkit {line}\n{out}exit {code}\n" for line, code, out, _ in first)
    assert transcript == (GOLDEN / "transcript.txt").read_text(encoding="utf-8")
    assert all(code == 0 for _, code, _, _ in first)

    outputs = sorted((tmp_path / "run1" / "out").glob("*.mci"))
    assert outputs
    monkeypatch.chdir(tmp_path / "run1")
    for path in outputs:
        code = cli_main(["verify", f"out/{path.name}"])
        capsys.readouterr()
        assert code == 0, path.name
