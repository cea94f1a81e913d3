"""Semidirect-product tables against the per-entry formula.

``actions._product_rows`` and ``semidirect_product`` read every product
index from shared index tuples. The oracle is the formula they
replaced, one entry at a time: the pair (ia, ib) is index
ia * |B| + ib, (i1, j1) + (i2, j2) = (i1 + j1.i2, j1 + j2) and
(i1, j1) * (i2, j2) = (i1 * i2 + i1 * j2 + j1 * i2, j1 * j2), the mixed
products read from the action's star tables. Rows are compared on
every row and on sorted subsets, the call ``check_derived_action``
makes, over zoo conjugation, the stock terminal and ideal actions and
seeded non-derived perturbations of all of them.
"""

import random

import pytest

from fail_corpus import PER_OBJECT, SEED, perturb_action, zoo_actions
from xmodkit.actions import _pair_index, _product_rows, conjugation_action, semidirect_product
from xmodkit.zoo import make_cyclic, make_lie2


def oracle_rows(act, op, rows):
    a, b, dot = act.acted, act.actor, act.dot
    bn = b.n
    pairs = [(ia, ib) for ia in range(a.n) for ib in range(bn)]
    if op == "add":
        return [
            tuple([a.add[i1][dot[j1][i2]] * bn + b.add[j1][j2] for i2, j2 in pairs])
            for i1, j1 in map(pairs.__getitem__, rows)
        ]
    aster, bster = a.star[op], b.star[op]
    mixed, mixed_op = act.star_act[op], act.star_act[b.profile.opposite_of(op)]
    return [
        tuple([
            a.add[a.add[aster[i1][i2]][mixed_op[j2][i1]]][mixed[j1][i2]] * bn + bster[j1][j2]
            for i2, j2 in pairs
        ])
        for i1, j1 in map(pairs.__getitem__, rows)
    ]


def oracle_unary(act):
    """neg and each unary table of the product, entry by entry."""
    a, b, dot = act.acted, act.actor, act.dot
    pairs = [(ia, ib) for ia in range(a.n) for ib in range(b.n)]
    neg = tuple([dot[b.neg[j]][a.neg[i]] * b.n + b.neg[j] for i, j in pairs])
    omega = {
        u: tuple([a.omega[u][i] * b.n + b.omega[u][j] for i, j in pairs])
        for u in b.profile.unary_symbols()
    }
    return neg, omega


def corpus():
    """Every zoo action as given, then PER_OBJECT seeded perturbations of each
    that has an entry to move."""
    rng = random.Random(SEED)
    out = []
    for act in zoo_actions():
        out.append(act)
        if act.acted.n > 1:
            out += [perturb_action(act, rng)[1] for _ in range(PER_OBJECT)]
    return out


@pytest.mark.parametrize("act", corpus(), ids=lambda act: act.name)
def test_product_rows_match_the_formula(act):
    n = act.acted.n * act.actor.n
    rng = random.Random(f"{SEED} {act.name} {act.dot} {sorted(act.star_act.items())}")
    subset = sorted(rng.sample(range(n), max(1, n // 3)))
    for op in ("add", *act.actor.profile.binary_symbols()):
        for rows in (range(n), subset):
            got = list(_product_rows(act, op, rows, _pair_index(act)))
            assert got == oracle_rows(act, op, rows), (op, rows)


@pytest.mark.parametrize("act", zoo_actions(), ids=lambda act: act.name)
def test_product_tables_match_the_formula(act):
    prod = semidirect_product(act)[0]
    everything = range(prod.n)
    assert prod.add == tuple(oracle_rows(act, "add", everything))
    for op in act.actor.profile.binary_symbols():
        assert prod.star[op] == tuple(oracle_rows(act, op, everything))
    assert (prod.neg, dict(prod.omega)) == oracle_unary(act)


@pytest.mark.parametrize("s", [make_cyclic(24), make_lie2(5)], ids=lambda s: s.name)
def test_big_product_tables_share_their_ints(s):
    """Past the interpreter's cached small ints the product holds one int per element."""
    prod = semidirect_product(conjugation_action(s))[0]
    assert prod.n == s.n * s.n > 257
    tables = (prod.add, *prod.star.values())
    for t in tables:
        assert len({id(v) for row in t for v in row}) <= prod.n
    rows = [*(row for t in tables for row in t), prod.neg, *prod.omega.values()]
    assert len({id(v) for row in rows for v in row}) <= prod.n
