"""Twin objects at every join of a two-level diagram.

The twins are xm_z2_z4 (z2 -> z4, boundary 1 -> 2) and flat (z2 -> z4,
zero boundary, trivial action). Both are crossed modules on the same
carriers, so a join that compares carriers only takes one for the other.
Every public function that takes two two-level objects or morphisms runs
on them here: it must refuse with StructuralError or return what its
verifier passes. A universal cone on a diagram that does not meet must
be refused; on one that meets (the twins' product) it must pass.
"""

import pytest

from xmodkit.actions import trivial_action
from xmodkit.cat1 import (
    Cat1Morphism,
    Cat1Object,
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    verify_cat1,
    verify_cat1_morphism,
    xmod_morphism_to_cat1,
    xmod_to_cat1,
)
from xmodkit.errors import StructuralError
from xmodkit.morphisms import identity_morphism
from xmodkit.pullbacks import (
    cat1_pullback_mediator,
    cat1_pullback_mediators,
    pullback_cat1,
    pullback_xmod,
    xmod_pullback_mediator,
    xmod_pullback_mediators,
)
from xmodkit.structures import Morphism
from xmodkit.xmod import (
    CrossedModule,
    XModMorphism,
    compose_xmod_morphisms,
    enumerate_slice_morphisms,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    make_xmod,
    slice_initial,
    slice_product,
    slice_pullback,
    slice_terminal,
    verify_universal_cone,
    verify_xmod,
    verify_xmod_morphism,
    xmod_equalizer,
    xmod_fiber_product,
    xmod_identity,
)
from xmodkit.zoo import make_standard_xmods

_VERIFIERS = {
    CrossedModule: verify_xmod,
    XModMorphism: verify_xmod_morphism,
    Cat1Object: verify_cat1,
    Cat1Morphism: verify_cat1_morphism,
}


def twins():
    xm = make_standard_xmods()["xm_z2_z4"]
    zero = Morphism("zero", xm.c1, xm.c0, (0, 0))
    return xm, make_xmod("flat", zero, trivial_action(xm.c0, xm.c1))


def into(init: CrossedModule, cod: CrossedModule) -> XModMorphism:
    """The slice morphism from the initial object: zero top, identity bottom."""
    top = Morphism(f"zero_{cod.name}", init.c1, cod.c1, (cod.c1.zero,))
    return XModMorphism(f"into_{cod.name}", init, cod, top, identity_morphism(init.c0))


def _verified(result) -> bool:
    """Every object and morphism in result, at any depth, passes its verifier."""
    if isinstance(result, (tuple, list)):
        return all(map(_verified, result))
    return result is None or _VERIFIERS[type(result)](result).ok


def _outcome(call) -> str:
    try:
        result = call()
    except StructuralError:
        return "refused"
    return "verified" if _verified(result) else "FAILS"


def test_twins_are_refused_or_verified():
    xm, flat = twins()
    init = slice_initial(xm.c0)
    f, g = into(init, xm), into(init, flat)
    id_xm, id_flat = xmod_identity(xm), xmod_identity(flat)
    pb, proj = pullback_xmod(xm, identity_morphism(xm.c0))
    c_xm, c_flat = xmod_to_cat1(xm), xmod_to_cat1(flat)
    pc, cproj = pullback_cat1(c_xm, identity_morphism(xm.c0))
    cid_flat = xmod_morphism_to_cat1(id_flat)
    calls = {
        "compose id_flat after id_xm": lambda: compose_xmod_morphisms(id_flat, id_xm),
        "compose id_xm after id_flat": lambda: compose_xmod_morphisms(id_xm, id_flat),
        "compose id_xm after into_xm": lambda: compose_xmod_morphisms(id_xm, f),
        "equalizer into_xm, into_flat": lambda: xmod_equalizer(f, g),
        "equalizer id_xm, id_flat": lambda: xmod_equalizer(id_xm, id_flat),
        "slice pullback into_xm, into_flat": lambda: slice_pullback(f, g),
        "slice product": lambda: slice_product(xm, flat),
        "fibre product": lambda: xmod_fiber_product(xm, flat),
        "xmod mediator": lambda: xmod_pullback_mediator(pb, proj, id_flat),
        "xmod mediators": lambda: xmod_pullback_mediators(pb, proj, id_flat),
        "cat1 mediator": lambda: cat1_pullback_mediator(pc, cproj, cid_flat),
        "cat1 mediators": lambda: cat1_pullback_mediators(pc, cproj, cid_flat),
        "slice Hom": lambda: enumerate_slice_morphisms(xm, flat),
        "xmod Hom": lambda: enumerate_xmod_morphisms(flat, xm),
        "xmod iso": lambda: find_xmod_isomorphism(xm, flat),
        "cat1 Hom": lambda: enumerate_cat1_morphisms(c_xm, c_flat),
        "cat1 iso": lambda: find_cat1_isomorphism(c_flat, c_xm),
    }
    outcomes = {label: _outcome(call) for label, call in calls.items()}
    assert "FAILS" not in outcomes.values(), outcomes
    refused = [
        "compose id_flat after id_xm", "compose id_xm after id_flat",
        "equalizer into_xm, into_flat", "equalizer id_xm, id_flat",
        "slice pullback into_xm, into_flat",
        "xmod mediator", "xmod mediators", "cat1 mediator", "cat1 mediators",
    ]
    assert [label for label, o in outcomes.items() if o == "refused"] == refused


def test_cones_on_twins_meet_or_are_refused():
    xm, flat = twins()
    init = slice_initial(xm.c0)
    f, g = into(init, xm), into(init, flat)
    testers = [init, xm, flat]
    eq, incl = xmod_equalizer(f, f)
    pb, p1, p2 = slice_pullback(f, f)
    refused = [
        ("equalizer", eq, (incl,), (f, g)),
        ("pullback", pb, (p1, p2), (f, g)),
        ("pullback", pb, (p1, p2), (g, f)),
    ]
    for kind, candidate, legs, parallel in refused:
        with pytest.raises(StructuralError) as err:
            verify_universal_cone(kind, candidate, legs, testers, parallel)
        assert str(err.value) == f"{kind} cone: legs and parallel pair do not meet"
    # the twins' product meets: as a product, and as the pullback over the terminal
    prod, q1, q2 = slice_product(xm, flat)
    term = slice_terminal(xm.c0)
    bangs = [
        XModMorphism(f"bang_{x.name}", x, term, x.boundary, identity_morphism(x.c0))
        for x in (xm, flat)
    ]
    assert verify_universal_cone("product", prod, (q1, q2), testers).ok
    assert verify_universal_cone("pullback", prod, (q1, q2), testers, bangs).ok
