"""Cat1 objects: verification, the two translations, and roundtrips.

The main oracle is a hand-built split object on Z2 x Z4 pairs computed
with modular arithmetic only; the translation from the matching crossed
module must reproduce it table for table.
"""

import pytest

from xmodkit.actions import trivial_action
from xmodkit.cat1 import (
    Cat1Morphism,
    cat1_to_xmod,
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    make_cat1,
    verify_cat1,
    verify_cat1_morphism,
    xmod_morphism_to_cat1,
    xmod_to_cat1,
)
from xmodkit.errors import StructuralError
from xmodkit.morphisms import identity_morphism
from xmodkit.profiles import get_profile
from xmodkit.structures import Morphism, make_structure
from xmodkit.xmod import (
    XModMorphism,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    inclusion_xmod,
    _same_object,
    make_xmod,
    slice_terminal,
    verify_xmod,
)

from conftest import oracle_cyclic, oracle_poly, oracle_s3


def xm_z2_z4():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    bnd = Morphism("double", z2, z4, (0, 2))
    return make_xmod("z2_into_z4", bnd, trivial_action(z4, z2))


def hand_cat1():
    """Pairs (a, b) with a mod 2, b mod 4; t(a, b) = 2a + b."""
    z4 = oracle_cyclic(4, "z4")
    pairs = [(a, b) for a in range(2) for b in range(4)]
    idx = {p: k for k, p in enumerate(pairs)}
    ids = tuple(f"({a},{b})" for a, b in pairs)
    add = tuple(
        tuple(idx[((a + a2) % 2, (b + b2) % 4)] for a2, b2 in pairs) for a, b in pairs
    )
    neg = tuple(idx[((-a) % 2, (-b) % 4)] for a, b in pairs)
    big = make_structure("big", get_profile("group"), ids, add, neg, {}, {})
    embed = Morphism("e", z4, big, tuple(idx[(0, b)] for b in range(4)))
    src = Morphism("s", big, z4, tuple(b for a, b in pairs))
    tgt = Morphism("t", big, z4, tuple((2 * a + b) % 4 for a, b in pairs))
    return make_cat1("hand", embed, src, tgt)


def test_cat1_legs_meet_at_equal_carriers():
    # a leg ending at a renamed copy of the base is kept as given
    c = hand_cat1()
    src = Morphism("s", c.big, oracle_cyclic(4, "w4"), c.src.map)
    copy = make_cat1("copy", c.embed, src, c.tgt)
    assert copy.src is src
    assert verify_cat1(copy).ok
    assert copy.tables == c.tables and _same_object(copy, c)
    assert cat1_to_xmod(copy).tables == cat1_to_xmod(c).tables
    # another tgt, or another kind, is another object
    assert not _same_object(make_cat1("other", c.embed, c.src, c.src), c)
    assert not _same_object(cat1_to_xmod(c), c)


def test_hand_built_object_verifies_with_frozen_items():
    rep = verify_cat1(hand_cat1())
    assert [i.law for i in rep.items] == [
        "pre:big",
        "pre:base",
        "pre:embed",
        "pre:src",
        "pre:tgt",
        "src-split",
        "tgt-split",
        "kernel-commute",
    ]
    assert rep.ok, rep.render()


def test_translation_reproduces_hand_built_object():
    c = xmod_to_cat1(xm_z2_z4())
    h = hand_cat1()
    assert c.big.elements == h.big.elements
    assert c.big.add == h.big.add
    assert c.big.neg == h.big.neg
    assert c.embed.map == h.embed.map
    assert c.src.map == h.src.map
    assert c.tgt.map == h.tgt.map
    assert verify_cat1(c).ok


def test_kernel_commute_failure():
    s3, z1 = oracle_s3(), oracle_cyclic(1, "z1")
    c = make_cat1(
        "lump",
        Morphism("e", z1, s3, (0,)),
        Morphism("s", s3, z1, (0,) * 6),
        Morphism("t", s3, z1, (0,) * 6),
    )
    rep = verify_cat1(c)
    assert {i.law for i in rep.failures()} == {"kernel-commute"}
    item = rep.failures()[0]
    assert item.witness == ("r", "s")
    x, y = s3.index("r"), s3.index("s")
    comm = s3.add[s3.add[s3.add[x][y]][s3.neg[x]]][s3.neg[y]]
    assert comm != s3.zero


def test_kernel_star_failure():
    f2x = oracle_poly(2, "f2x")
    prof = get_profile("comm-algebra-f2")
    one = make_structure(
        "one", prof, ("0",), ((0,),), (0,), {"mul": ((0,),)}, {"s0": (0,), "s1": (0,)}
    )
    c = make_cat1(
        "lump",
        Morphism("e", one, f2x, (0,)),
        Morphism("s", f2x, one, (0,) * 4),
        Morphism("t", f2x, one, (0,) * 4),
    )
    rep = verify_cat1(c)
    assert {i.law for i in rep.failures()} == {"kernel-star[mul]"}
    assert rep.failures()[0].witness == ("1", "1")


def test_split_failures():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    mod2 = (0, 1, 0, 1)
    c = make_cat1(
        "nosplit",
        Morphism("e", z2, z4, (0, 2)),
        Morphism("s", z4, z2, mod2),
        Morphism("t", z4, z2, mod2),
    )
    rep = verify_cat1(c)
    assert {i.law for i in rep.failures()} == {"src-split", "tgt-split"}
    assert rep.failures()[0].witness == ("1",)


def test_embed_must_be_injective():
    z2, z1 = oracle_cyclic(2, "z2"), oracle_cyclic(1, "z1")
    with pytest.raises(StructuralError):
        make_cat1(
            "squash",
            Morphism("e", z2, z1, (0, 0)),
            Morphism("s", z1, z2, (0,)),
            Morphism("t", z1, z2, (0,)),
        )


def test_round_trip_from_crossed_module():
    xm = xm_z2_z4()
    back = cat1_to_xmod(xmod_to_cat1(xm))
    assert back.c1.n == 2
    assert verify_xmod(back).ok
    assert find_xmod_isomorphism(back, xm) is not None


def test_round_trip_from_cat1_object():
    c = hand_cat1()
    x = cat1_to_xmod(c)
    assert verify_xmod(x).ok
    c2 = xmod_to_cat1(x)
    iso = find_cat1_isomorphism(c, c2)
    assert iso is not None
    assert verify_cat1_morphism(iso).ok


def test_algebra_round_trip():
    f2x = oracle_poly(2, "f2x")
    xm = inclusion_xmod(f2x, (0, 2))
    c = xmod_to_cat1(xm)
    rep = verify_cat1(c)
    assert rep.ok, rep.render()
    assert "kernel-star[mul]" in [i.law for i in rep.items]
    back = cat1_to_xmod(c)
    assert find_xmod_isomorphism(back, xm) is not None


def test_functor_on_morphisms():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    m = XModMorphism("bang", xm, term, xm.boundary, identity_morphism(z4))
    fm = xmod_morphism_to_cat1(m)
    rep = verify_cat1_morphism(fm)
    assert [i.law for i in rep.items] == [
        "pre:big",
        "pre:base",
        "square-embed",
        "square-src",
        "square-tgt",
    ]
    assert rep.ok, rep.render()
    assert fm.dom.big.n == 8 and fm.cod.big.n == 16


def test_morphism_counts_match_across_translation():
    xm = xm_z2_z4()
    c = xmod_to_cat1(xm)
    cat_homs = enumerate_cat1_morphisms(c, c)
    xmod_homs = enumerate_xmod_morphisms(xm, xm)
    assert len(cat_homs) == len(xmod_homs) == 4
    images = {
        (xmod_morphism_to_cat1(m, c, c).big_map.map, m.bottom.map) for m in xmod_homs
    }
    assert images == {(f.big_map.map, f.base_map.map) for f in cat_homs}


def test_find_cat1_isomorphism_negative():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    crushed = make_xmod(
        "crushed", Morphism("zero", z2, z4, (0, 0)), trivial_action(z4, z2)
    )
    a, b = xmod_to_cat1(xm), xmod_to_cat1(crushed)
    assert a.big.n == b.big.n
    assert find_cat1_isomorphism(a, b) is None
    # equal sizes across profiles: None before any search
    f2x = xmod_to_cat1(inclusion_xmod(oracle_poly(2, "f2x"), (0, 2)))
    assert (f2x.big.n, f2x.base.n) == (a.big.n, a.base.n)
    assert find_cat1_isomorphism(a, f2x) is None


def test_find_cat1_isomorphism_sizes_differ():
    # sizes are compared before the size guard
    z4 = oracle_cyclic(4, "z4")
    a = xmod_to_cat1(xm_z2_z4())
    bigger = xmod_to_cat1(slice_terminal(z4))
    other_base = xmod_to_cat1(inclusion_xmod(oracle_cyclic(8, "z8"), (0,)))
    assert (a.big.n, a.base.n, bigger.big.n, other_base.big.n, other_base.base.n) == (8, 4, 16, 8, 8)
    assert find_cat1_isomorphism(a, bigger, max_size=1) is None
    assert find_cat1_isomorphism(a, other_base, max_size=1) is None


def test_cat1_morphism_endpoints_must_match():
    z4 = oracle_cyclic(4, "z4")
    c, term = xmod_to_cat1(xm_z2_z4()), xmod_to_cat1(slice_terminal(z4))
    cases = [
        (Cat1Morphism("m", c, c, identity_morphism(term.big), identity_morphism(c.base)),
         "morphism m: big endpoints do not match"),
        (Cat1Morphism("m", c, c, identity_morphism(c.big), identity_morphism(c.big)),
         "morphism m: base endpoints do not match"),
    ]
    for m, message in cases:
        with pytest.raises(StructuralError) as err:
            verify_cat1_morphism(m)
        assert str(err.value) == message


def test_broken_square_detected():
    xm = xm_z2_z4()
    c = xmod_to_cat1(xm)
    twisted = Cat1Morphism(
        "twist",
        c,
        c,
        identity_morphism(c.big),
        Morphism("n", c.base, c.base, tuple(c.base.neg)),
    )
    rep = verify_cat1_morphism(twisted)
    assert not rep.ok
    assert "square-src" in {i.law for i in rep.failures()}
