"""The paper's equivalences on every small model of the group profile.

(a) ``check_derived_action`` agrees with the exact oracle of a derived
action: the semidirect product passes ``verify_structure``, its zero is
(0, 0), ``proj`` and ``sect`` are morphisms, and ``action_from_section``
of them gives back the same dot and star tables. (b) ``verify_xmod``
agrees with ``verify_cat1`` of ``xmod_to_cat1``, and on a PASS the
crossed module of that translation is isomorphic to the model. (e)
``square_commutes`` holds for every PASS model X and every morphism phi
from a small group T into X's base whose square has a split carrier
sum |d^-1(phi(t))| * |T| of at most ``SQUARE_MAX``. The models are
``small_models``; an assertion names the failing one's tables.
"""

from collections import Counter

from small_models import actions, groups, tables, xmods
from xmodkit.actions import action_from_section, check_derived_action, semidirect_product
from xmodkit.cat1 import cat1_to_xmod, verify_cat1, xmod_to_cat1
from xmodkit.morphisms import enumerate_morphisms, is_morphism
from xmodkit.pullbacks import square_commutes
from xmodkit.structures import verify_structure
from xmodkit.xmod import find_xmod_isomorphism, verify_xmod

SQUARE_MAX = 16  # the largest split carrier the search_sweep squares take


def derived(act) -> bool:
    """act is derived: its semidirect product is a structure that splits back into act."""
    prod, _, proj, sect = semidirect_product(act)
    if not verify_structure(prod).ok:
        return False
    if prod.zero != act.acted.zero * act.actor.n + act.actor.zero:
        return False
    if not (is_morphism(proj) and is_morphism(sect)):
        return False
    back = action_from_section(proj, sect)
    return (back.dot, back.star_act) == (act.dot, act.star_act)


def test_group_models_agree_with_their_oracles():
    verdicts = []
    for act in actions():
        ok = check_derived_action(act).ok
        assert ok == derived(act), tables(act)
        verdicts.append(ok)
    assert (len(verdicts), True in verdicts, False in verdicts) == (531, True, True)
    verdicts = []
    for xm in xmods():
        ok = verify_xmod(xm).ok
        c = xmod_to_cat1(xm)
        assert verify_cat1(c).ok == ok, tables(xm)
        if ok:
            assert find_xmod_isomorphism(cat1_to_xmod(c), xm) is not None, tables(xm)
        verdicts.append(ok)
    assert (len(verdicts), True in verdicts, False in verdicts) == (4500, True, True)


def test_group_squares_commute():
    models = [xm for xm in xmods() if verify_xmod(xm).ok]
    squares = 0
    for xm in models:
        hits = Counter(xm.boundary.map)
        for t in groups():
            for phi in enumerate_morphisms(t, xm.c0):
                if sum(hits[c] for c in phi.map) * t.n > SQUARE_MAX:
                    continue
                rep = square_commutes(xm, phi, max_size=SQUARE_MAX)
                assert rep.ok, f"{tables(xm)} phi={t.name}->{xm.c0.name} {phi.map}"
                squares += 1
    assert (len(models), squares) == (103, 1195)


if __name__ == "__main__":
    # (e) on every square, each searched with max_size its split carrier (at
    # least 12); exits 1 on a failing square or a changed count:
    #     PYTHONPATH=src python tests/test_small_models.py
    import sys
    import time

    start = time.perf_counter()
    models = [xm for xm in xmods() if verify_xmod(xm).ok]
    squares, failed = 0, []
    for xm in models:
        hits = Counter(xm.boundary.map)
        for t in groups():
            for phi in enumerate_morphisms(t, xm.c0):
                size = sum(hits[c] for c in phi.map) * t.n
                if not square_commutes(xm, phi, max_size=max(12, size)).ok:
                    failed.append(f"{tables(xm)} phi={t.name}->{xm.c0.name} {phi.map}")
                squares += 1
    seconds = time.perf_counter() - start
    summary = f"{len(models)} models, {squares} squares, {len(failed)} failed, {seconds:.1f} s"
    print("\n".join([*failed, summary]))
    sys.exit(1 if failed or (len(models), squares) != (103, 1868) else 0)
