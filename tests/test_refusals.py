"""Input refusals that no other test reaches, each with its class and message.

Every case builds one malformed input for one constructor or check and
asserts the exact exception class and the whole message it raises."""

import re

import pytest

from xmodkit.actions import action_from_section, trivial_action
from xmodkit.cat1 import make_cat1
from xmodkit.errors import ClosureError, StructuralError
from xmodkit.limits import direct_product, equalizer
from xmodkit.morphisms import identity_morphism, morphism_report
from xmodkit.profiles import get_profile
from xmodkit.pullbacks import preimage_xmod, pullback_cat1, pullback_xmod
from xmodkit.structures import Morphism, make_structure, subobject
from xmodkit.xmod import (
    XModMorphism,
    compose_xmod,
    enumerate_slice_morphisms,
    induced_xmod,
    make_xmod,
    slice_pullback,
    slice_terminal,
    xmod_identity,
)
from xmodkit.zoo import make_cyclic, make_standard_cat1s, make_standard_xmods

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
]


@pytest.mark.parametrize("build,cls,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refusal(build, cls, message):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as err:
        build()
    assert type(err.value) is cls
