"""Every small model of the group profile: actions and crossed-module candidates.

The groups are z1, z2, z3, z4 and z2 x z2 (``limits.direct_product``).
For each pair (B, A) of them, ``actions()`` yields every dot table of B
on A whose rows are automorphisms of A, the zero row the identity: 531
actions. ``xmods()`` takes each of them with every boundary from
``enumerate_morphisms(A, B)``: 4,500 crossed-module candidates. Neither
list is filtered by any law, so both hold PASS and FAIL models; which is
which is what the tests ask of the package. ``tables`` names a model by
its tables, so a failing one can be rebuilt by hand.
"""

from __future__ import annotations

import itertools

from xmodkit.actions import make_action
from xmodkit.limits import direct_product
from xmodkit.morphisms import enumerate_morphisms
from xmodkit.xmod import make_xmod
from xmodkit.zoo import make_cyclic


def groups():
    z2 = make_cyclic(2)
    return [make_cyclic(1), z2, make_cyclic(3), make_cyclic(4), direct_product(z2, z2)[0]]


def automorphisms(a):
    return [m.map for m in enumerate_morphisms(a, a) if len(set(m.map)) == a.n]


def actions():
    """Every dot table of B on A with automorphism rows and the identity at B's zero."""
    gs = groups()
    for b, a in itertools.product(gs, gs):
        auts, ident = automorphisms(a), tuple(range(a.n))
        for k, rows in enumerate(itertools.product(auts, repeat=b.n - 1)):
            dot = rows[: b.zero] + (ident,) + rows[b.zero:]
            yield make_action(f"a{k}_{b.name}_{a.name}", b, a, dot, {})


def xmods():
    """Every action with every morphism from the acted group to the actor as boundary."""
    for act in actions():
        for k, bnd in enumerate(enumerate_morphisms(act.acted, act.actor)):
            yield make_xmod(f"x{k}_{act.name}", bnd, act)


def tables(model) -> str:
    """The tables that rebuild model: actor, acted, dot, and the boundary of a crossed module."""
    act = getattr(model, "action", model)
    text = f"{act.actor.name} on {act.acted.name} dot={act.dot}"
    if model is not act:
        text += f" boundary={model.boundary.map}"
    return text
