"""Input refusals that no other test reaches, each with its class and message.

Every case builds one malformed input for one constructor or check and
asserts the exact exception class and the whole message it raises."""

import re

import pytest

from xmodkit.actions import action_from_section, trivial_action
from xmodkit.cat1 import Cat1Object, make_cat1
from xmodkit.errors import ClosureError, ParseError, StructuralError
from xmodkit.io import save_structure
from xmodkit.limits import direct_product, equalizer
from xmodkit.morphisms import (
    element_order,
    enumerate_morphisms,
    identity_morphism,
    morphism_report,
)
from xmodkit.profiles import get_profile, make_profile
from xmodkit.pullbacks import preimage_xmod, pullback_cat1, pullback_xmod
from xmodkit.records import Record
from xmodkit.structures import Morphism, evaluate_law, make_structure, subobject
from xmodkit.terms import Zero, eval_term, parse_identity, parse_term
from xmodkit.xmod import (
    XModMorphism,
    compose_xmod,
    enumerate_slice_morphisms,
    induced_xmod,
    make_xmod,
    slice_initial,
    slice_pullback,
    slice_terminal,
    xmod_identity,
)
from xmodkit.zoo import (
    make_cyclic,
    make_standard_cat1s,
    make_standard_xmods,
    make_truncated_poly,
)

Z2, Z4 = make_cyclic(2), make_cyclic(4)
V4 = direct_product(Z2, Z2, name="v4")[0]
XM = make_standard_xmods()["xm_z2_z4"]
C = make_standard_cat1s()["xm_z2_z4"]
BAD = Morphism("bad", Z2, Z4, (1, 0))
MOD2 = Morphism("mod2", Z4, Z2, (0, 1, 0, 1))
# top (1, 0) sends zero to 1, so this is no crossed-module morphism
SWAP = XModMorphism("swap", XM, XM, Morphism("top", Z2, Z2, (1, 0)), identity_morphism(Z4))
# identity-shaped bottom between two different four-element groups
REBASE = XModMorphism(
    "rebase", slice_terminal(Z4), slice_terminal(V4),
    Morphism("top", Z4, V4, (0, 1, 2, 3)), Morphism("bot", Z4, V4, (0, 1, 2, 3)),
)
GROUP = get_profile("group")
# a constant add table: no element is a zero
FLAT = make_structure("flat", GROUP, ("a", "b"), ((0, 0), (0, 0)), (0, 0), {}, {})
# 0 is a zero, but a + a = a, so a never adds up to it
IDEM = make_structure("idem", GROUP, ("0", "a"), ((0, 1), (1, 1)), (0, 0), {}, {})
# src and tgt send nothing to zero, so no triple lies over the zero map
OFF = Morphism("off", Z2, Z2, (1, 1))
NOWHERE = Cat1Object("nowhere", identity_morphism(Z2), OFF, OFF)
COMM = parse_identity("comm", "(m x y) = (m y x)")


def profile(binary=(("m", "m"),), unary=(), identities=()):
    return lambda: make_profile("p", binary, unary, identities)


def record_with_late_default():
    return type("Late", (Record,), {"__annotations__": {"a": int, "b": int}, "a": 0})

CASES = [
    ("slice_pullback-leg", lambda: slice_pullback(SWAP, xmod_identity(XM)),
     StructuralError, "slice_pullback: leg swap is not a morphism"),
    ("equalizer-leg", lambda: equalizer(BAD, Morphism("double", Z2, Z4, (0, 2))),
     StructuralError, "equalizer leg bad is not a morphism"),
    ("action_from_section-section",
     lambda: action_from_section(MOD2, Morphism("sect", Z2, Z4, (0, 3))),
     StructuralError, "action_from_section: sect is not a morphism"),
    ("pullback_cat1-phi", lambda: pullback_cat1(C, Morphism("bad", Z2, Z4, (1, 0))),
     StructuralError, f"pullback of {C.name}: bad is not a morphism"),
    ("pullback_xmod-no-zero", lambda: pullback_xmod(XM, Morphism("phi", FLAT, Z4, (0, 0))),
     StructuralError, "action conj_flat: both carriers need an additive zero"),
    ("preimage_xmod-phi", lambda: preimage_xmod(BAD, (0,)),
     StructuralError, "preimage along bad: not a morphism"),
    ("preimage_xmod-index", lambda: preimage_xmod(MOD2, (0, 5)),
     StructuralError, "preimage along mod2: index 5 out of range"),
    ("make_cat1-src", lambda: make_cat1("w", C.embed, C.embed, C.tgt),
     StructuralError, "cat1 w: src does not run from big to base"),
    ("make_cat1-tgt", lambda: make_cat1("w", C.embed, C.src, C.embed),
     StructuralError, "cat1 w: tgt does not run from big to base"),
    ("make_xmod-action", lambda: make_xmod("w", XM.boundary, trivial_action(Z2, Z2)),
     StructuralError, "crossed module w: action endpoints do not match the boundary"),
    ("slice_leg-bases", lambda: induced_xmod(REBASE),
     StructuralError, "induced_xmod: bases differ"),
    ("compose_xmod-middle", lambda: compose_xmod(XM, slice_terminal(Z2), XM.action),
     StructuralError, "compose of xm_z2_z4 and term_z2: middle levels differ"),
    ("compose_xmod-action",
     lambda: compose_xmod(XM, slice_terminal(Z4), trivial_action(Z2, Z2)),
     StructuralError, "compose_xmod: base action endpoints do not match"),
    ("enumerate_slice_morphisms-bases",
     lambda: enumerate_slice_morphisms(XM, slice_terminal(Z2)),
     StructuralError, "slice morphisms between xm_z2_z4 and term_z2: bases differ"),
    ("subobject-empty", lambda: subobject(Z4, ()),
     ClosureError, "z4: subobject must be nonempty"),
    ("subobject-index", lambda: subobject(Z4, (0, 7)),
     StructuralError, "z4: subobject index 7 out of range"),
    ("make_structure-neg-short",
     lambda: make_structure("w", GROUP, ("0", "1"), Z2.add, (0,), {}, {}),
     StructuralError, "w: table 'neg' has 1 entries, expected 2"),
    ("make_structure-neg-entry",
     lambda: make_structure("w", GROUP, ("0", "1"), Z2.add, (0, 5), {}, {}),
     StructuralError, "w: table 'neg' entry 5 out of range"),
    ("morphism_report-image", lambda: morphism_report(Morphism("m", Z2, Z4, (0, 9))),
     StructuralError, "morphism m: image index 9 out of range"),
    ("element_order-no-zero", lambda: element_order(FLAT, 0),
     StructuralError, "flat: no zero, orders undefined"),
    ("element_order-no-order", lambda: element_order(IDEM, 1),
     StructuralError, "idem: element a has no additive order"),
    ("search-profiles", lambda: enumerate_morphisms(Z2, make_truncated_poly(2)),
     StructuralError, "cannot enumerate morphisms across profiles (group vs comm-algebra-f2)"),
    ("search-no-zero", lambda: enumerate_morphisms(FLAT, Z2),
     StructuralError, "flat: no zero, cannot enumerate morphisms"),
    ("opposite_of-unknown", lambda: GROUP.opposite_of("mul"),
     StructuralError, "unknown star symbol 'mul' in profile group"),
    ("unary_kind-unknown", lambda: GROUP.unary_kind("s0"),
     StructuralError, "unknown unary symbol 's0' in profile group"),
    ("make_profile-star", profile(binary=[("m", "m"), ("m", "m")]),
     StructuralError, "duplicate star symbol in profile p"),
    ("make_profile-unary", profile(unary=[("u", "S"), ("u", "S")]),
     StructuralError, "duplicate unary symbol in profile p"),
    ("make_profile-reserved", profile(binary=[("add", "add")]),
     StructuralError, "symbol 'add' is reserved"),
    ("make_profile-overlap", profile(unary=[("m", "S")]),
     StructuralError, "star and unary symbols overlap in profile p"),
    ("make_profile-unpaired", profile(binary=[("a", "b"), ("b", "b")]),
     StructuralError, "profile p: opposites of 'a' do not pair up"),
    ("make_profile-kind", profile(unary=[("u", "X")]),
     StructuralError, "profile p: unary kind must be S or D, got 'X'"),
    ("make_profile-identity-name", profile(identities=[COMM, COMM]),
     StructuralError, "profile p: duplicate identity name 'comm'"),
    ("make_profile-arity", profile(identities=[parse_identity("one", "(m x) = x")]),
     StructuralError, "profile p: identity 'one' uses 'm' with arity 1"),
    ("pullback_cat1-empty", lambda: pullback_cat1(NOWHERE, Morphism("zero", Z2, Z2, (0, 0))),
     StructuralError, "pullback of nowhere: empty carrier"),
    ("record-late-default", record_with_late_default,
     TypeError, "Late: a field without default follows a default"),
    ("index-unknown", lambda: Z4.index("9"),
     StructuralError, "z4: unknown element id '9'"),
    ("make_structure-empty", lambda: make_structure("w", GROUP, (), (), (), {}, {}),
     StructuralError, "w: carrier must be nonempty"),
    ("make_structure-unary",
     lambda: make_structure("w", GROUP, ("0", "1"), Z2.add, Z2.neg, {}, {"s0": (0, 1)}),
     StructuralError, "w: unary table for unknown symbol 's0'"),
    ("evaluate_law-witness", lambda: evaluate_law(Z4, "add-assoc", ("1",)),
     StructuralError, "law 'add-assoc' takes 3 witness entries"),
    ("evaluate_law-unknown", lambda: evaluate_law(Z4, "nope", ()),
     StructuralError, "unknown law 'nope' for profile group"),
    ("parse_term-close", lambda: parse_term(")"), ParseError, "unexpected ')'"),
    ("parse_term-open", lambda: parse_term("("), ParseError, "unclosed '('"),
    ("eval_term-no-zero", lambda: eval_term(Zero(), FLAT, {}),
     StructuralError, "structure flat has no additive zero"),
    ("eval_term-op", lambda: eval_term(parse_term("(mul x x)"), Z4, {"x": 1}),
     StructuralError, "unknown operation 'mul' for profile group"),
    ("slice_initial-no-zero", lambda: slice_initial(FLAT),
     StructuralError, "slice_initial: flat has no zero"),
    ("make_truncated_poly-k", lambda: make_truncated_poly(2, 0),
     StructuralError, "truncated polynomials need k >= 1, got 0"),
    ("save_structure-name",
     lambda: save_structure(make_structure("a b", GROUP, Z2.elements, Z2.add, Z2.neg, {}, {}),
                            "a b.mci"),
     StructuralError, "name 'a b' cannot be used in files"),
]


@pytest.mark.parametrize("build,cls,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refusal(build, cls, message):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as err:
        build()
    assert type(err.value) is cls
