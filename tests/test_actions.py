"""Derived actions and the semidirect construction.

Expected values: the inversion action of Z2 on Z3 must assemble to the
symmetric group on three letters (permutation oracle), the trivial action
to the direct sum, and conjugation on a normal subgroup to a group of
order |G| * |N|. Condition failures are rechecked below by recomputing
the quantified equation at the reported witness straight from the tables.
"""

import pytest

from xmodkit.actions import (
    action_from_section,
    check_derived_action,
    conjugation_action,
    make_action,
    restrict_action,
    semidirect_product,
    trivial_action,
)
from xmodkit.errors import ClosureError, StructuralError
from xmodkit.morphisms import compose, find_isomorphism, is_morphism, kernel
from xmodkit.profiles import get_profile
from xmodkit.structures import Morphism, make_structure, subobject, verify_structure

from conftest import oracle_cyclic, oracle_poly, oracle_s3

COND_NAMES = tuple(f"cond-{k}" for k in range(1, 13))


def inversion_action():
    z2, z3 = oracle_cyclic(2, "z2"), oracle_cyclic(3, "z3")
    return make_action("inv", z2, z3, ((0, 1, 2), (0, 2, 1)), {})


def poly_ideal_action():
    f2x = oracle_poly(2, "f2x")
    sub = subobject(f2x, (0, 2), name="xideal")
    return conjugation_action(f2x, sub)


def test_inversion_action_passes():
    rep = check_derived_action(inversion_action())
    assert tuple(i.law for i in rep.items) == COND_NAMES
    assert rep.ok, rep.render()
    assert check_derived_action(inversion_action()).ok


def test_semidirect_of_inversion_is_symmetric():
    act = inversion_action()
    p, inj, proj, sect = semidirect_product(act)
    assert p.n == 6
    assert p.elements[0] == "(0,0)"
    assert verify_structure(p).ok
    assert find_isomorphism(p, oracle_s3()) is not None
    assert is_morphism(inj) and is_morphism(proj) and is_morphism(sect)
    assert compose(proj, sect).map == (0, 1)
    assert all(v == act.actor.zero for v in compose(proj, inj).map)
    assert kernel(proj).elements == tuple(sorted(inj.map))


def test_trivial_action_gives_direct_sum():
    z2, z3 = oracle_cyclic(2, "z2"), oracle_cyclic(3, "z3")
    act = trivial_action(z2, z3)
    assert check_derived_action(act).ok
    p, _, _, _ = semidirect_product(act)
    assert find_isomorphism(p, oracle_cyclic(6, "z6")) is not None


def test_conjugation_action_on_rotations():
    s3 = oracle_s3()
    rot = subobject(s3, (0, 1, 2), name="rot")
    act = conjugation_action(s3, rot)
    # conjugating r by the swap s inverts it
    assert act.dot[3][1] == 2
    assert check_derived_action(act).ok
    p, _, _, _ = semidirect_product(act)
    assert p.n == 18
    assert verify_structure(p).ok


def test_conjugation_needs_ideal():
    s3 = oracle_s3()
    flip = subobject(s3, (0, 3), name="flip")
    with pytest.raises(ClosureError, match="^conj_flip: not closed under dot at "):
        conjugation_action(s3, flip)
    # the shape of action_from_section: an actor lifted into s3 conjugates
    # the flip subgroup by a rotation
    z2 = oracle_cyclic(2, "z2")
    with pytest.raises(ClosureError, match="^lifted: not closed under dot at "):
        restrict_action("lifted", z2, flip.induced, [(0,), (3,)], [(s3, (0, 1))])


def test_conjugation_on_whole_structure():
    z4 = oracle_cyclic(4, "z4")
    act = conjugation_action(z4)
    assert act.dot == tuple(tuple(range(4)) for _ in range(4))
    assert check_derived_action(act).ok
    f2x = oracle_poly(2, "f2x")
    act2 = conjugation_action(f2x)
    assert act2.star_act["mul"] == f2x.star["mul"]
    assert check_derived_action(act2).ok


def test_poly_ideal_action_tables_and_product():
    act = poly_ideal_action()
    assert act.acted.elements == ("0", "x")
    assert act.dot == ((0, 1), (0, 1), (0, 1), (0, 1))
    assert act.star_act["mul"] == ((0, 0), (0, 1), (0, 0), (0, 1))
    assert check_derived_action(act).ok
    p, inj, proj, sect = semidirect_product(act)
    assert p.n == 8
    assert verify_structure(p).ok
    assert is_morphism(inj) and is_morphism(proj) and is_morphism(sect)


def test_action_shape_validation():
    z2, z3 = oracle_cyclic(2, "z2"), oracle_cyclic(3, "z3")
    f2x = oracle_poly(2, "f2x")
    with pytest.raises(StructuralError):
        make_action("bad", z2, z3, ((0, 1, 2),), {})  # missing actor row
    with pytest.raises(StructuralError):
        make_action("bad", z2, z3, ((0, 1, 3), (0, 2, 1)), {})  # entry out of range
    with pytest.raises(StructuralError):
        make_action("bad", z2, f2x, ((0,) * 4, (0,) * 4), {"mul": ((0,) * 4,) * 2})
    with pytest.raises(StructuralError):
        make_action("bad", f2x, f2x, tuple((0,) * 4 for _ in range(4)), {})  # stars missing


def test_broken_shift_dot_fails_2_and_3():
    z2, z3 = oracle_cyclic(2, "z2"), oracle_cyclic(3, "z3")
    act = make_action("shift", z2, z3, ((0, 1, 2), (1, 2, 0)), {})
    rep = check_derived_action(act)
    bad = {i.law for i in rep.failures()}
    assert bad == {"cond-2", "cond-3"}
    for item in rep.failures():
        if item.law == "cond-2":
            b, a1, a2 = (act.actor.index(item.witness[0]),) + tuple(
                act.acted.index(w) for w in item.witness[1:]
            )
            lhs = act.dot[b][act.acted.add[a1][a2]]
            rhs = act.acted.add[act.dot[b][a1]][act.dot[b][a2]]
            assert lhs != rhs


def test_broken_zero_row_fails_1():
    z2, z3 = oracle_cyclic(2, "z2"), oracle_cyclic(3, "z3")
    act = make_action("crush", z2, z3, ((0, 0, 0), (0, 2, 1)), {})
    rep = check_derived_action(act)
    bad = {i.law for i in rep.failures()}
    assert bad == {"cond-1", "cond-3"}
    item = [i for i in rep.items if i.law == "cond-1"][0]
    assert item.witness == ("1",)


def test_star_perturbation_fails_5_and_matches_product():
    act = poly_ideal_action()
    star = {s: [list(r) for r in t] for s, t in act.star_act.items()}
    star["mul"][1][1] = 0  # scalar one no longer fixes x
    broken = make_action("broken", act.actor, act.acted, act.dot, star)
    rep = check_derived_action(broken)
    assert {i.law for i in rep.failures()} == {"cond-5"}
    p, _, _, _ = semidirect_product(broken)
    assert not verify_structure(p).ok


def _left_projection_algebra():
    """Nonabelian additive carrier wearing the F2 algebra profile.

    mul is the left projection, so mixed products in a semidirect product
    carry arbitrary carrier elements in the actor slot.
    """
    s3 = oracle_s3()
    prof = get_profile("comm-algebra-f2")
    mul = tuple(tuple(i for _ in range(6)) for i in range(6))
    omega = {"s0": (0,) * 6, "s1": tuple(range(6))}
    return make_structure("lp", prof, s3.elements, s3.add, s3.neg, {"mul": mul}, omega)


def test_condition_12_failure_detected():
    prof = get_profile("comm-algebra-f2")
    one = make_structure(
        "one", prof, ("0",), ((0,),), (0,), {"mul": ((0,),)}, {"s0": (0,), "s1": (0,)}
    )
    b = _left_projection_algebra()
    dot = tuple((0,) for _ in range(6))
    star = {s: tuple((0,) for _ in range(6)) for s in prof.binary_symbols()}
    act = make_action("noncentral", b, one, dot, star)
    rep = check_derived_action(act)
    assert {i.law for i in rep.failures()} == {"cond-12"}
    item = rep.failures()[0]
    assert item.witness
    # oracle: the products r*anything and s*anything land on r and s,
    # which do not commute additively
    p, _, _, _ = semidirect_product(act)
    r, s = p.index("(0,r)"), p.index("(0,s)")
    assert p.add[r][s] != p.add[s][r]
    assert not verify_structure(p).ok


def test_group_fuzz_check_matches_product():
    base = inversion_action()
    for i in range(2):
        for j in range(3):
            for v in range(3):
                if v == base.dot[i][j]:
                    continue
                dot = [list(r) for r in base.dot]
                dot[i][j] = v
                act = make_action("fuzz", base.actor, base.acted, dot, {})
                ok_check = check_derived_action(act).ok
                ok_prod = verify_structure(semidirect_product(act)[0]).ok
                assert ok_check == ok_prod, f"disagree at dot[{i}][{j}]={v}"


def test_algebra_fuzz_check_matches_product():
    base = poly_ideal_action()
    syms = base.actor.profile.binary_symbols()
    assert syms == ("mul",)  # self-opposite symbol carries both slots
    variants = []
    for i in range(4):
        for j in range(2):
            for v in range(2):
                if v != base.dot[i][j]:
                    dot = [list(r) for r in base.dot]
                    dot[i][j] = v
                    variants.append((dot, base.star_act))
            for sym in syms:
                for v in range(2):
                    if v != base.star_act[sym][i][j]:
                        star = {s: [list(r) for r in t] for s, t in base.star_act.items()}
                        star[sym][i][j] = v
                        variants.append((base.dot, star))
    assert len(variants) == 16
    for dot, star in variants:
        act = make_action("fuzz", base.actor, base.acted, dot, star)
        ok_check = check_derived_action(act).ok
        ok_prod = verify_structure(semidirect_product(act)[0]).ok
        assert ok_check == ok_prod


def test_action_from_section_recovers_original():
    act = inversion_action()
    p, inj, proj, sect = semidirect_product(act)
    back = action_from_section(proj, sect)
    assert back.actor is proj.cod
    assert back.acted.n == 3
    assert back.dot == act.dot
    assert check_derived_action(back).ok


def test_carrier_rule_refuses_other_tables():
    z4 = oracle_cyclic(4, "z4")
    with pytest.raises(StructuralError) as err:
        conjugation_action(z4, subobject(oracle_cyclic(6, "z6"), (0, 3)))
    assert str(err.value) == "conjugation_action: subobject belongs to a different parent"
    p, _, proj, _ = semidirect_product(inversion_action())
    stray = Morphism("stray", oracle_cyclic(3, "z3"), p, (0, 0, 0))
    with pytest.raises(StructuralError) as err:
        action_from_section(proj, stray)
    assert str(err.value) == "action_from_section: section endpoints do not match the projection"


def test_carrier_rule_accepts_renamed_copies():
    # a parent or section endpoint with equal tables under another name is the same carrier
    z4, w4 = oracle_cyclic(4, "z4"), oracle_cyclic(4, "w4")
    copy = conjugation_action(w4, subobject(z4, (0, 2)))
    assert copy.dot == conjugation_action(z4, subobject(z4, (0, 2))).dot
    assert check_derived_action(copy).ok
    act = inversion_action()
    p, _, proj, sect = semidirect_product(act)
    renamed = Morphism("renamed", oracle_cyclic(2, "w2"), p, sect.map)
    back = action_from_section(proj, renamed)
    assert back.dot == act.dot
    assert check_derived_action(back).ok


def test_action_from_section_rejects_non_section():
    act = inversion_action()
    p, inj, proj, sect = semidirect_product(act)
    squash = Morphism("squash", proj.cod, p, (p.index("(0,0)"), p.index("(0,0)")))
    with pytest.raises(StructuralError):
        action_from_section(proj, squash)
