"""Condition 12 witnesses re-evaluated from the full semidirect product.

Condition 12 asks that star values commute additively inside the
semidirect product. A FAIL names two star values u and v, each by the
first (row, symbol, column) of the product's star tables that holds it,
symbols in profile order and then row-major, and reports add[u][v] and
add[v][u] as lhs and rhs. The oracle reads the rendered line back and
recomputes every part of it from ``semidirect_product``'s whole tables:
the values, their first occurrences, the first non-commuting pair and
both sums. The corpus is every zoo action and its seeded perturbations,
the ones ``tests/data/fail_reports.txt`` is built from.
"""

import random
import re

from fail_corpus import PER_OBJECT, SEED, perturb_action, zoo_actions
from xmodkit.actions import check_derived_action, semidirect_product

LINE = re.compile(r"FAIL cond-12 at \((.*)\): lhs=(\S+) rhs=(\S+)")


def corpus():
    rng = random.Random(SEED)
    out = []
    for act in zoo_actions():
        out.append(act)
        if act.acted.n > 1:
            out += [perturb_action(act, rng)[1] for _ in range(PER_OBJECT)]
    return out


def first_occurrences(prod):
    """value -> (row id, symbol, column id) of its first cell, by brute force."""
    first = {}
    for sym in prod.profile.binary_symbols():
        for i, row in enumerate(prod.star[sym]):
            for j, v in enumerate(row):
                first.setdefault(v, (prod.elements[i], sym, prod.elements[j]))
    return first


def test_cond12_witnesses_reevaluate():
    failed = 0
    for act in corpus():
        prod = semidirect_product(act)[0]
        add, ids = prod.add, prod.elements
        first = first_occurrences(prod)
        vals = sorted(first)
        clash = next(
            ((u, v) for u in vals for v in vals if add[u][v] != add[v][u]), None
        )
        (line,) = [ln for ln in check_derived_action(act).lines() if " cond-12" in ln]
        if line == "PASS cond-12":
            assert clash is None, act.name
            continue
        failed += 1
        m = LINE.fullmatch(line)
        assert m, line
        parts = m[1].split(", ")
        assert len(parts) == 6, line
        triples = [tuple(parts[:3]), tuple(parts[3:])]
        u, v = [prod.star[sym][prod.index(p1)][prod.index(p2)] for p1, sym, p2 in triples]
        assert [first[u], first[v]] == triples, line
        assert (u, v) == clash, line
        lhs, rhs = ids[add[u][v]], ids[add[v][u]]
        assert (lhs, rhs) == (m[2], m[3]) and lhs != rhs, line
    assert failed > 0
