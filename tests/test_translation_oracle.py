"""The xmod <-> cat1 translation as a differential oracle for search.

Crossed modules and split objects are equivalent categories, so the
morphism search on either side must agree with the other through the
translation: xmod_morphism_to_cat1 is one-to-one from Hom(x, y) onto
Hom(T x, T y), preserves identities and composition, and an isomorphism
exists on one side exactly when it exists on the other. The two searches
keep one contract, lower level major and upper tables ascending, so the
split-object search lists the translated Hom list in its order and finds
the image of the first crossed-module isomorphism. The way back,
from a split-object morphism to a crossed-module morphism, restricts the
big map to the source kernels; it is written out here so the check does
not lean on the code it checks. Hom counts and that agreement must also
survive a seeded relabelling of both modules' carriers, which no search
shortcut can know about.

The pairs are every same-profile pair of zoo modules, with split
carriers up to 27 elements, and each pullback of a zoo module along a
criterion-8 morphism (split carrier within the default guard) paired
with the module it was pulled back from. The two morphism verifiers must
also agree on every pair of carrier maps, morphism or not.
"""

import random
from collections import Counter
from itertools import product

from xmodkit.actions import make_action, trivial_action
from xmodkit.cat1 import (
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    verify_cat1_morphism,
    xmod_morphism_to_cat1,
    xmod_to_cat1,
)
from xmodkit.morphisms import DEFAULT_MAX_SIZE, enumerate_morphisms
from xmodkit.pullbacks import pullback_xmod
from xmodkit.structures import Morphism, make_structure
from xmodkit.xmod import (
    XModMorphism,
    compose_xmod_morphisms,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    make_xmod,
    slice_initial,
    verify_xmod_morphism,
    xmod_identity,
)
from xmodkit.zoo import (
    make_cyclic,
    make_dialgebra,
    make_leibniz2,
    make_lie2,
    make_standard_xmods,
    make_symmetric3,
    make_truncated_poly,
)


def _move1(table, pos, vals) -> tuple:
    """table[i] = v becomes out[pos[i]] = vals[v]."""
    out = [0] * len(table)
    for i, v in enumerate(table):
        out[pos[i]] = vals[v]
    return tuple(out)


def _move2(table, rows, cols, vals) -> tuple:
    """table[i][j] = v becomes out[rows[i]][cols[j]] = vals[v]."""
    out = [[0] * len(cols) for _ in rows]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[rows[i]][cols[j]] = vals[v]
    return tuple(tuple(r) for r in out)


def _relabel_structure(s, perm):
    """s with element i moved to position perm[i]."""
    return make_structure(
        f"{s.name}_r",
        s.profile,
        _move1(range(s.n), perm, s.elements),
        _move2(s.add, perm, perm, perm),
        _move1(s.neg, perm, perm),
        {sym: _move2(t, perm, perm, perm) for sym, t in s.star.items()},
        {sym: _move1(t, perm, perm) for sym, t in s.omega.items()},
    )


def _relabel(x, rng):
    """x with both carriers permuted at random."""
    p1 = rng.sample(range(x.c1.n), x.c1.n)
    p0 = rng.sample(range(x.c0.n), x.c0.n)
    c1, c0 = _relabel_structure(x.c1, p1), _relabel_structure(x.c0, p0)
    act = x.action
    action = make_action(
        f"{act.name}_r",
        c0,
        c1,
        _move2(act.dot, p0, p1, p1),
        {sym: _move2(t, p0, p1, p1) for sym, t in act.star_act.items()},
    )
    bnd = Morphism(f"bnd_{x.name}_r", c1, c0, _move1(x.boundary.map, p1, p0))
    return make_xmod(f"{x.name}_r", bnd, action)


def _translate(x):
    """The split object of x and the max_size that lets its big carrier be searched."""
    c = xmod_to_cat1(x)
    return c, max(DEFAULT_MAX_SIZE, c.big.n)


def _source_kernel(c) -> list[int]:
    return [k for k in range(c.big.n) if c.src.map[k] == c.base.zero]


def _back(f) -> tuple:
    """(top, bottom) of a split-object morphism, top restricted to the source kernels."""
    ker_cod = _source_kernel(f.cod)
    top = tuple(ker_cod.index(f.big_map.map[k]) for k in _source_kernel(f.dom))
    return top, f.base_map.map


def _compose(g, f) -> tuple:
    return tuple(g[v] for v in f)


def _tables(f) -> tuple:
    return f.big_map.map, f.base_map.map


def _in_order(x, y) -> tuple:
    """(T x, T y, Hom(x, y), its translation, Hom(T x, T y)). The split
    object search lists the translated morphisms in the crossed-module
    order, and finds the image of the first isomorphism x -> y, or none."""
    tx, guard_x = _translate(x)
    ty, _ = _translate(y)
    homs = enumerate_xmod_morphisms(x, y)
    images = [xmod_morphism_to_cat1(m, tx, ty) for m in homs]
    cat_homs = enumerate_cat1_morphisms(tx, ty, guard_x)
    assert [_tables(f) for f in cat_homs] == [_tables(f) for f in images], (x.name, y.name)
    iso = find_xmod_isomorphism(x, y)
    want = None if iso is None else _tables(xmod_morphism_to_cat1(iso, tx, ty))
    got = find_cat1_isomorphism(tx, ty, guard_x)
    assert (None if got is None else _tables(got)) == want, (x.name, y.name)
    return tx, ty, homs, images, cat_homs


def _check_pair(x, y, rng) -> None:
    tx, ty, homs, images, cat_homs = _in_order(x, y)
    assert len({_tables(f) for f in images}) == len(homs), (x.name, y.name)
    assert {_back(f) for f in cat_homs} == {(m.top.map, m.bottom.map) for m in homs}

    # T(g . f) = T(g) . T(f) for every endomorphism g of y
    for g in enumerate_xmod_morphisms(y, y):
        tg = xmod_morphism_to_cat1(g, ty, ty)
        for m, tm in zip(homs, images):
            tgm = xmod_morphism_to_cat1(compose_xmod_morphisms(g, m), tx, ty)
            assert tgm.big_map.map == _compose(tg.big_map.map, tm.big_map.map)
            assert tgm.base_map.map == _compose(tg.base_map.map, tm.base_map.map)

    # the same agreement with both modules relabelled, and the same count
    x_r, y_r = _relabel(x, rng), _relabel(y, rng)
    assert len(_in_order(x_r, y_r)[2]) == len(homs), (x.name, y.name)


def _check_identity(x) -> None:
    tx, _ = _translate(x)
    ident = xmod_morphism_to_cat1(xmod_identity(x), tx, tx)
    assert ident.big_map.map == tuple(range(tx.big.n))
    assert ident.base_map.map == tuple(range(tx.base.n))


def test_zoo_pairs_agree_across_translation():
    rng = random.Random(20180)
    zoo = list(make_standard_xmods().values())
    pairs = [(x, y) for x in zoo for y in zoo if x.c1.profile.name == y.c1.profile.name]
    assert len(pairs) == 21
    for x in zoo:
        _check_identity(x)
    for x, y in pairs:
        _check_pair(x, y, rng)


def test_pullbacks_agree_across_translation():
    rng = random.Random(20181)
    structures = (
        make_cyclic(2), make_cyclic(3), make_cyclic(4), make_symmetric3(),
        make_truncated_poly(2), make_truncated_poly(3), make_lie2(3),
        make_leibniz2(2), make_dialgebra(2),
    )
    checked = 0
    for x in make_standard_xmods().values():
        hits = Counter(x.boundary.map)
        for s in structures:
            if s.profile.name != x.c0.profile.name:
                continue
            for phi in enumerate_morphisms(s, x.c0):
                if sum(hits.get(c, 0) for c in phi.map) * s.n > DEFAULT_MAX_SIZE:
                    continue
                pb, _ = pullback_xmod(x, phi)
                _check_identity(pb)
                _check_pair(pb, x, rng)
                checked += 1
    assert checked == 32


def _maps(dom, cod):
    """Every carrier map from dom to cod, morphism or not."""
    return [Morphism("m", dom, cod, m) for m in product(range(cod.n), repeat=dom.n)]


def test_morphism_verifiers_agree_on_every_map_pair():
    xm = make_standard_xmods()["xm_z2_z4"]
    flat = make_xmod(
        "flat", Morphism("zero", xm.c1, xm.c0, (0, 0)), trivial_action(xm.c0, xm.c1)
    )
    objects = [(x, xmod_to_cat1(x)) for x in (xm, flat, slice_initial(xm.c0))]
    pairs = morphisms = 0
    for (x, tx), (y, ty) in product(objects, repeat=2):
        for top, bottom in product(_maps(x.c1, y.c1), _maps(x.c0, y.c0)):
            m = XModMorphism("m", x, y, top, bottom)
            ok = verify_xmod_morphism(m).ok
            assert ok == verify_cat1_morphism(xmod_morphism_to_cat1(m, tx, ty)).ok, (
                x.name, y.name, top.map, bottom.map
            )
            pairs += 1
            morphisms += ok
    assert (pairs, morphisms) == (5888, 38)
