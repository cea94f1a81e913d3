"""Condition 11 recomputed by brute force from the action's tables.

Condition 11 governs the unary operations. A unary u of kind S passes
through either argument of an action star, so u(j * x) = j * u(x) (the
acted slot) and u(j * x) = u(j) * x (the actor slot). A unary of kind D
distributes over both, u(j * x) = u(j) * u(x). The oracle walks
(u, s, j, x) in the law's variable order, checks the equations of u's
kind in row order, and builds the item ``check_derived_action`` must
report: PASS, or FAIL at the first broken equation with its witness ids
and detail. The corpus is every zoo action and its seeded perturbations,
squaring on F2[x]/(x^2) as the one D-kind unary (``frobenius_f2x``), and
a mixed profile on F2[x]/(x^2) with the scalars s0 and s1 of kind S and
squaring of kind D, where each symbol's tables are picked by its kind.
"""

import itertools
import random

from fail_corpus import PER_OBJECT, SEED, frobenius_f2x, perturb_action, zoo_actions
from xmodkit.actions import check_derived_action, conjugation_action, make_action
from xmodkit.profiles import make_profile
from xmodkit.report import CheckItem
from xmodkit.structures import make_structure
from xmodkit.zoo import make_truncated_poly


def expected(act):
    """The cond-11 item of act, by brute force over its tables."""
    a, b = act.acted, act.actor
    for u, s, j, x in itertools.product(
        b.profile.unary_symbols(), b.profile.binary_symbols(), range(b.n), range(a.n)
    ):
        star, ua, ub = act.star_act[s], a.omega[u], b.omega[u]
        lhs = ua[star[j][x]]
        if b.profile.unary_kind(u) == "S":
            sides = [("acted slot: ", star[j][ua[x]]), ("actor slot: ", star[ub[j]][x])]
        else:
            sides = [("", star[ub[j]][ua[x]])]
        for label, rhs in sides:
            if lhs != rhs:
                witness = (u, s, b.elements[j], a.elements[x])
                detail = f"{label}lhs={a.elements[lhs]} rhs={a.elements[rhs]}"
                return CheckItem("cond-11", False, witness, detail)
    return CheckItem("cond-11", True)


def reported(act):
    (item,) = [i for i in check_derived_action(act).items if i.law == "cond-11"]
    return item


def mixed_f2x():
    """F2[x]/(x^2) with the scalars s0, s1 of kind S and squaring fr of kind D.

    fr sits between the two S symbols, so a D symbol is neither first nor last.
    """
    f2x = make_truncated_poly(2)
    unaries = [("s0", "S"), ("fr", "D"), ("s1", "S")]
    profile = make_profile("mixed-f2", [("mul", "mul")], unaries, [])
    mul = f2x.star["mul"]
    omega = {**f2x.omega, "fr": tuple(mul[i][i] for i in range(f2x.n))}
    return make_structure("mixed2", profile, f2x.elements, f2x.add, f2x.neg, {"mul": mul}, omega)


def moved_omegas(s):
    """Copies of s with one unary entry moved to another id, every such move."""
    for u, table in s.omega.items():
        for k, v in itertools.product(range(s.n), range(s.n)):
            if v != table[k]:
                omega = {**s.omega, u: table[:k] + (v,) + table[k + 1:]}
                yield make_structure(s.name, s.profile, s.elements, s.add, s.neg, s.star, omega)


def mixed_corpus():
    m = mixed_f2x()
    conj = conjugation_action(m)
    out = [conj]
    for moved in moved_omegas(m):
        out.append(make_action(conj.name, moved, m, conj.dot, conj.star_act))
        out.append(make_action(conj.name, m, moved, conj.dot, conj.star_act))
    return out


def zoo_corpus():
    """The zoo actions, conjugation on frob2 among them, and their seeded perturbations."""
    rng = random.Random(SEED)
    out = []
    for act in zoo_actions():
        out.append(act)
        if act.acted.n > 1:
            out += [perturb_action(act, rng)[1] for _ in range(PER_OBJECT)]
    return out


def failed_kinds(corpus):
    """Each action's cond-11 item checked against the oracle; the kinds that FAILed."""
    kinds = set()
    for act in corpus:
        item = expected(act)
        assert reported(act) == item, (act.name, act.actor.omega, act.acted.omega)
        if not item.ok:
            kinds.add(act.actor.profile.unary_kind(item.witness[0]))
    return kinds


def test_cond11_matches_the_oracle_on_the_zoo():
    assert frobenius_f2x().name in [act.acted.name for act in zoo_actions()]
    assert failed_kinds(zoo_corpus()) == {"S", "D"}


def test_cond11_matches_the_oracle_on_a_mixed_profile():
    corpus = mixed_corpus()
    assert reported(corpus[0]) == CheckItem("cond-11", True)
    assert failed_kinds(corpus) == {"S", "D"}
