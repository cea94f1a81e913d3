"""One route per construction, against the routes it replaced.

``slice_pullback`` builds the fibre of the two legs' tops directly. The
route it replaced is written out here as the oracle: rebase each leg's
domain onto the shared codomain's top level (``induced_xmod``), take the
fibre product of the two rebased modules, give it the diagonal action of
the base and stack it on the codomain (``compose_xmod``). Both must
serialize the module, its carrier and both legs byte for byte alike over
every slice cospan and slice product of the zoo objects. Base change
(``pullback_xmod``) is the same fibre, of a module and the terminal module
of the new base T; the route it replaced assembled the fibre product, T's
action and the projection by hand, and is the oracle for the module, its
carrier and the projection over every zoo module and every morphism into
its base from a zoo structure. The tests also show that the replaced
routes no longer run: the slice limits call neither helper, the pullback
mediator scans build their identity lower level without a Hom search,
and ``find_isomorphism`` walks one ``_image_tables`` stream to its first
bijection instead of listing the whole Hom set with
``enumerate_morphisms``.
"""

import pytest

import xmodkit.cat1
import xmodkit.morphisms
import xmodkit.pullbacks
import xmodkit.xmod
from fail_corpus import zoo_structures
from xmodkit.actions import make_action, restrict_action, trivial_action
from xmodkit.cat1 import xmod_to_cat1
from xmodkit.errors import StructuralError
from xmodkit.io import serialize_structure, serialize_xmod, serialize_xmodmorphism
from xmodkit.limits import fiber_product, same_structure
from xmodkit.morphisms import enumerate_morphisms, find_isomorphism, identity_morphism
from xmodkit.pullbacks import (
    cat1_pullback_mediators,
    pullback_cat1,
    pullback_xmod,
    xmod_pullback_mediators,
)
from xmodkit.records import replace
from xmodkit.structures import Morphism
from xmodkit.xmod import (
    XModMorphism,
    compose_xmod,
    enumerate_slice_morphisms,
    induced_xmod,
    make_xmod,
    slice_initial,
    slice_product,
    slice_pullback,
    slice_terminal,
    verify_xmod,
    xmod_equalizer,
    xmod_fiber_product,
    xmod_identity,
)
from xmodkit.zoo import make_cyclic, make_standard_xmods


def _old_slice_pullback(f, g, name=None):
    """The replaced route: two rebased modules, their fibre product, the
    diagonal base action and the stacked composite."""
    name = name or f"pb_{f.dom.name}_{g.dom.name}"
    ind_f = induced_xmod(f, name=f"ind_{f.name}")
    ind_g = induced_xmod(g, name=f"ind_{g.name}")
    fib, q1, q2 = xmod_fiber_product(ind_f, ind_g, name=name)
    base = f.dom.c0
    act = restrict_action(
        f"diag_{fib.c1.name}", base, fib.c1, list(zip(q1.top.map, q2.top.map)),
        [(f.dom.action, range(base.n)), (g.dom.action, range(base.n))],
    )
    out = compose_xmod(fib, f.cod, act, name=name)
    p1 = XModMorphism(f"fst_{name}", out, f.dom, q1.top, identity_morphism(base))
    p2 = XModMorphism(f"snd_{name}", out, g.dom, q2.top, identity_morphism(base))
    return out, p1, p2


def _old_pullback_xmod(x, phi):
    """The replaced base change: the fibre of x's boundary and phi by hand,
    T = phi.dom acting through phi on the first coordinate and by
    conjugation on the second, the second coordinate as boundary."""
    name = f"pb_{x.name}_{phi.name}"
    fib, fst, snd = fiber_product(x.boundary, phi, name=f"c1_{name}")
    t = phi.dom
    act = restrict_action(
        f"act_{name}", t, fib, list(zip(fst.map, snd.map)), [(x.action, phi.map), (t, range(t.n))]
    )
    out = make_xmod(name, Morphism(f"bnd_{name}", fib, t, snd.map), act)
    top = Morphism(f"top_{name}", fib, x.c1, fst.map)
    return out, XModMorphism(f"proj_{name}", out, x, top, Morphism(phi.name, t, x.c0, phi.map))


def _old_slice_product(xm1, xm2):
    term = slice_terminal(xm1.c0)
    f = XModMorphism(f"bang_{xm1.name}", xm1, term, xm1.boundary, identity_morphism(xm1.c0))
    g = XModMorphism(f"bang_{xm2.name}", xm2, term, xm2.boundary, identity_morphism(xm2.c0))
    return _old_slice_pullback(f, g, name=f"prod_{xm1.name}_{xm2.name}")


def _texts(built) -> tuple[str, ...]:
    out, p1, p2 = built
    return (
        serialize_structure(out.c1), serialize_xmod(out),
        serialize_xmodmorphism(p1), serialize_xmodmorphism(p2),
    )


def _zoo_objects():
    """The zoo modules, then the terminal and initial object over each zoo base."""
    zoo = list(make_standard_xmods().values())
    bases = {x.c0.name: x.c0 for x in zoo}.values()
    extra = [slice_terminal(b) for b in bases] + [slice_initial(b) for b in bases]
    return zoo + [x for x in extra if x.name not in {z.name for z in zoo}]


def test_slice_limits_match_the_replaced_route():
    objs = _zoo_objects()
    cospans = products = 0
    for c in objs:
        over = [a for a in objs if same_structure(a.c0, c.c0)]
        legs = {a.name: enumerate_slice_morphisms(a, c) for a in over}
        for f in (f for a in over for f in legs[a.name]):
            for g in (g for b in over for g in legs[b.name]):
                assert _texts(slice_pullback(f, g)) == _texts(_old_slice_pullback(f, g))
                cospans += 1
        for b in over:
            assert _texts(slice_product(c, b)) == _texts(_old_slice_product(c, b))
            products += 1
    assert (cospans, products) == (151, 79)


def test_base_change_matches_the_replaced_route():
    """Every zoo module pulled back along every morphism into its base from
    a zoo structure, and along one into a renamed copy of each base."""
    zoo = list(make_standard_xmods().values())
    structures = {s.name: s for x in zoo for s in x.levels}
    structures.update((s.name, s) for s in zoo_structures())
    pulls = 0
    for x in zoo:
        copy = replace(x.c0, name=f"{x.c0.name}_copy")
        phis = [Morphism("to_copy", x.c0, copy, tuple(range(x.c0.n)))]
        for t in structures.values():
            if t.profile.name == x.c0.profile.name:
                phis += enumerate_morphisms(t, x.c0)
        for phi in phis:
            pb, proj = pullback_xmod(x, phi)
            old, old_proj = _old_pullback_xmod(x, phi)
            assert (serialize_structure(pb.c1), serialize_xmod(pb)) == (
                serialize_structure(old.c1), serialize_xmod(old)
            ), (x.name, phi.name)
            assert serialize_xmodmorphism(proj) == serialize_xmodmorphism(old_proj)
            assert (proj.name, proj.bottom.map) == (old_proj.name, phi.map)
            pulls += 1
    assert pulls == 110


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refuse


def test_slice_limits_build_no_rebased_or_stacked_module(monkeypatch):
    for name in ("induced_xmod", "compose_xmod"):
        monkeypatch.setattr(xmodkit.xmod, name, _refuse(name))
    for xm in make_standard_xmods().values():
        term = slice_terminal(xm.c0)
        bang = XModMorphism("bang", xm, term, xm.boundary, identity_morphism(xm.c0))
        assert slice_pullback(bang, xmod_identity(term))[0].c1.n == xm.c1.n
        slice_product(xm, xm)


def _no_hom_search(monkeypatch):
    for module in (xmodkit.morphisms, xmodkit.pullbacks, xmodkit.xmod, xmodkit.cat1):
        monkeypatch.setattr(
            module, "enumerate_morphisms", _refuse("enumerate_morphisms"), raising=False
        )


def test_mediator_scans_run_under_the_identity_without_a_hom_search(monkeypatch):
    # a base of 16 elements: a Hom search of the bottom level trips the default guard
    x = slice_initial(make_cyclic(16))
    phi = identity_morphism(x.c0)
    pb, proj = pullback_xmod(x, phi)
    pc, cproj = pullback_cat1(xmod_to_cat1(x), phi)
    _no_hom_search(monkeypatch)
    (med,) = xmod_pullback_mediators(pb, proj, proj)
    assert (med.name, med.bottom.name) == (f"med0_{proj.name}", "id_z16")
    assert med.top.map == (0,) and med.bottom.map == tuple(range(16))
    # the big carrier has 16 elements, so the twin needs a guard of 16
    (cmed,) = cat1_pullback_mediators(pc, cproj, cproj, max_size=16)
    assert (cmed.name, cmed.base_map.name) == (f"med0_{cproj.name}", "id_z16")
    assert cmed.big_map.map == tuple(range(16)) and cmed.base_map.map == tuple(range(16))


def test_find_isomorphism_walks_image_tables(monkeypatch):
    calls = {"enumerate_morphisms": 0, "_image_tables": 0}
    for name in calls:
        real = getattr(xmodkit.morphisms, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(xmodkit.morphisms, name, spy)
    z4 = make_cyclic(4)
    iso = find_isomorphism(z4, z4)
    assert iso.name == "iso_z4_z4" and iso.map == (0, 1, 2, 3)
    assert calls == {"enumerate_morphisms": 0, "_image_tables": 1}


def _z4_modules():
    """The terminal object over z4, and z4 over z4 with zero boundary and
    trivial action: equal carriers, different modules."""
    z4 = make_cyclic(4)
    zero = Morphism("zero", z4, z4, (0, 0, 0, 0))
    return slice_terminal(z4), make_xmod("flat_z4", zero, trivial_action(z4, z4))


def _z3_modules():
    """z3 over z2 with the zero boundary, acted on trivially and by
    inversion: equal carriers and boundary, different actions."""
    z2, z3 = make_cyclic(2), make_cyclic(3)
    zero = Morphism("zero", z3, z2, (0, 0, 0))
    inv = make_action("inv", z2, z3, ((0, 1, 2), (0, 2, 1)), {})
    return make_xmod("flat_z3", zero, trivial_action(z2, z3)), make_xmod("inv_z3", zero, inv)


def test_slice_pullback_rejects_codomains_with_equal_carriers():
    for a, b in (_z4_modules(), _z3_modules()):
        assert verify_xmod(a).ok and verify_xmod(b).ok
        with pytest.raises(StructuralError) as e:
            slice_pullback(xmod_identity(a), xmod_identity(b))
        assert e.value.message == "slice_pullback: codomains differ"


def test_xmod_equalizer_rejects_domains_with_equal_carriers():
    term, flat = _z4_modules()
    base = identity_morphism(term.c0)
    zero = Morphism("zero", flat.c1, term.c1, (0,) * 4)
    to_term = XModMorphism("to_term", flat, term, zero, base)
    with pytest.raises(StructuralError) as e:
        xmod_equalizer(xmod_identity(term), to_term)
    assert e.value.message == "xmod_equalizer: domains differ"
