"""Generator-reduced structure laws against the full scan.

``verify_structure`` runs some laws with variables over the additive
generators (see ``structures._law_rows``). The full scan, every
variable over the carrier, is the oracle: over every zoo structure, the
structures of the FAIL corpus, seeded single-entry perturbations at 64
to 243 elements and two large PASS structures, the report must equal
the full-scan report item for item, and each reduced scan whose laws
rested on hold must give the full scan's verdict.
"""

import random

import pytest

import xmodkit.structures as S
from fail_corpus import PER_OBJECT, SEED, perturb_structure, zoo_cat1s, zoo_structures
from xmodkit.profiles import builtin_profiles, get_profile, make_profile
from xmodkit.report import CheckItem, Report, check
from xmodkit.structures import carrier, make_structure, operations, verify_structure
from xmodkit.terms import parse_identity
from xmodkit.zoo import make_cyclic, make_truncated_poly


def full_report(s):
    """verify_structure with every law over the whole carrier."""
    if s.zero is None:
        return verify_structure(s)
    sorts, ops = {"S": carrier(s)}, operations(s)
    items = [CheckItem("add-zero-exists", True)]
    items += [check(law, sorts, ops) for _, law, _, _ in S._structure_checks(s.profile)]
    return Report(f"structure {s.name}", tuple(items))


def reduced_verdicts(s, oracle):
    """(law, reduced verdict, full verdict) for every reduced law whose
    rested-on laws pass in the oracle report."""
    checks = S._structure_checks(s.profile)
    passed = {text for (text, *_), item in zip(checks, oracle.items[1:]) if item.ok}
    sorts = {"S": carrier(s), "G": ((s.zero, *S._generating_data(s)[0]), s.elements)}
    ops = operations(s)
    return [
        (law.name, check(reduced, sorts, ops).ok, item.ok)
        for (_, law, reduced, needs), item in zip(checks, oracle.items[1:])
        if reduced is not None and needs <= passed
    ]


def assert_agrees(s):
    oracle = full_report(s)
    assert verify_structure(s) == oracle
    if s.zero is None:
        return []
    verdicts = reduced_verdicts(s, oracle)
    assert [(name, full) for name, _, full in verdicts] == [(n, r) for n, r, _ in verdicts]
    return verdicts


def corpus_structures():
    """The structures the FAIL corpus verifies: the zoo, the seeded
    perturbations of its structure section and the cat1 carriers."""
    rng = random.Random(SEED * 100)  # the structure section's stream
    out = []
    for s in zoo_structures():
        out.append(s)
        out += [perturb_structure(s, rng)[1] for _ in range(PER_OBJECT)]
    for c in zoo_cat1s():
        out += [c.embed.cod, c.embed.dom]
    return out


def _core(*stars):
    """The reduced core laws of a profile with these star symbols."""
    distrib, central = [f"distrib[{s}] z" for s in stars], [f"central[{s}] w" for s in stars]
    return ["add-assoc y", *distrib, *central]


ALGEBRA = _core("mul") + ["id[mul-assoc] x y z"]
LIE = _core("bracket", "bracketop") + ["id[antisym] x y", "id[jacobi] x y z"]
LEIBNIZ = _core("bracket", "bracketop") + ["id[leibniz] x y z"]
DIALGEBRA = _core("lprod", "lprodop", "rprod", "rprodop") + [
    f"id[dialg-{k}] x y z" for k in range(1, 6)
]
REDUCED = {
    "group": _core(),
    "comm-algebra-f2": ALGEBRA, "comm-algebra-f3": ALGEBRA, "comm-algebra-f5": ALGEBRA,
    "lie-f3": LIE, "lie-f5": LIE,
    "leibniz-f2": LEIBNIZ, "leibniz-f3": LEIBNIZ,
    "dialgebra-f2": DIALGEBRA,
}


def test_builtin_profiles_reduce_the_pinned_laws():
    # a lost reduction would only slow the scan down, so pin every one:
    # each reduced law with its variables over the generators
    found = {
        name: [
            " ".join([reduced.name, *[v for v, sort in reduced.variables if sort == "G"]])
            for _, _, reduced, _ in S._structure_checks(p)
            if reduced is not None
        ]
        for name, p in builtin_profiles().items()
    }
    assert found == REDUCED
    assert sum(map(len, found.values())) == 53


def test_reduced_scans_agree_on_the_zoo_and_the_fail_corpus():
    reduced = fails = 0
    for s in corpus_structures():
        verdicts = assert_agrees(s)
        reduced += len(verdicts)
        fails += sum(not ok for _, ok, _ in verdicts)
    # every builtin family is in the zoo, and some perturbations break a reduced law
    assert reduced > 100 and fails > 0


def _perturbed(s, op, rng):
    """s with one seeded entry of table op moved to another element."""
    table = s.add if op == "add" else s.star[op]
    i, j = rng.randrange(1, s.n), rng.randrange(1, s.n)
    rows = [list(r) for r in table]
    rows[i][j] = rng.choice([v for v in range(s.n) if v != rows[i][j]])
    rows = tuple(map(tuple, rows))
    star = {**s.star, op: rows} if op != "add" else s.star
    add = rows if op == "add" else s.add
    return make_structure(f"{s.name}.{op}", s.profile, s.elements, add, s.neg, star, s.omega)


@pytest.mark.parametrize("build, op", [
    (lambda: make_cyclic(64), "add"),
    (lambda: make_truncated_poly(2, 6), "add"),
    (lambda: make_truncated_poly(2, 6), "mul"),
    (lambda: make_truncated_poly(3, 4), "mul"),
    # an algebra of 243 would pay full scans of its passing laws in the
    # oracle, about a second each; a group of that size fails at once
    (lambda: make_cyclic(243), "add"),
])
def test_reduced_scans_agree_on_large_perturbations(build, op):
    s = _perturbed(build(), op, random.Random(f"{op}{SEED}"))
    assert not verify_structure(s).ok
    assert_agrees(s)


def test_large_pass_structures_take_the_reduced_route(monkeypatch):
    # the full scans of these take seconds: each is a group or an algebra
    # by construction, and every item must read PASS
    runs = _spy(monkeypatch)
    for s in (make_cyclic(256), make_truncated_poly(3, 5)):
        assert verify_structure(s).ok
    over_g = {name for name, sorts in runs if "G" in sorts}
    full = {name for name, sorts in runs if "G" not in sorts}
    assert {"add-assoc", "distrib[mul]", "central[mul]", "id[mul-assoc]"} <= over_g
    assert not over_g & full


def _spy(monkeypatch):
    """Record (law name, variable sorts) of every scan verify_structure runs."""
    runs = []

    def spy(law, sorts, ops):
        runs.append((law.name, {s for _, s in law.variables}))
        return check(law, sorts, ops)

    monkeypatch.setattr(S, "check", spy)
    return runs


def _loop5(profile="group"):
    """A five-element loop: zero is two-sided, add is not associative."""
    add = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 1, 0, 3),
        (3, 2, 4, 1, 0),
        (4, 3, 0, 2, 1),
    )
    prof = get_profile(profile)
    star = {sym: ((0,) * 5,) * 5 for sym in prof.binary_symbols()}
    omega = {u: (0, 1, 2, 3, 4) if u == "s1" else (0,) * 5 for u in prof.unary_symbols()}
    return make_structure("loop5", prof, "abcde", add, (0, 1, 3, 4, 2), star, omega)


@pytest.mark.parametrize("profile", ["group", "comm-algebra-f2"])
def test_nonassociative_loop_falls_back_to_the_full_scan(monkeypatch, profile):
    s = _loop5(profile)
    runs = _spy(monkeypatch)
    rep = verify_structure(s)
    assert [line for line in rep.lines() if line.startswith("FAIL add-assoc")]
    # Light's test fails over the generators, so the full scan names the witness
    assert runs[:2] == [("add-assoc", {"S", "G"}), ("add-assoc", {"S"})]
    # nothing that rests on add-assoc runs over the generators
    assert [name for name, sorts in runs[2:] if "G" in sorts] == []
    monkeypatch.undo()
    assert rep == full_report(s)


def test_zero_is_scanned_with_the_generators():
    # a monoid that is no group: zero is no sum of the generators a and b,
    # and distrib[mul] holds at z = a and z = b but not at z = 0
    prof = make_profile("mon", [("mul", "mul")], [], [])
    add = ((0, 1, 2), (1, 1, 1), (2, 1, 1))
    mul = ((0, 0, 0), (0, 0, 0), (2, 1, 1))
    s = make_structure("mon3", prof, "0ab", add, (0, 1, 2), {"mul": mul}, {})
    rep = verify_structure(s)
    assert CheckItem("distrib[mul]", False, ("b", "0", "0"), "lhs=b rhs=a") in rep.items
    assert rep == full_report(s)


def _z6_with(*identities):
    """Z_6 with the commutative bilinear product 4xy in a profile of its own."""
    rows = [("add-comm", "(add x y) = (add y x)"), *identities]
    prof = make_profile("z6mul", [("mul", "mul")], [], [parse_identity(*r) for r in rows])
    add = tuple(tuple((i + j) % 6 for j in range(6)) for i in range(6))
    mul = tuple(tuple((4 * i * j) % 6 for j in range(6)) for i in range(6))
    neg = tuple((-i) % 6 for i in range(6))
    return make_structure("z6", prof, "012345", add, neg, {"mul": mul}, {})


def test_identity_is_reduced_by_its_text_not_its_name(monkeypatch):
    # q(x) = 4x^2 equals 16x^3 at the generators 0 and 1 only
    s = _z6_with(("mul-assoc", "(mul x x) = (mul (mul x x) x)"))
    runs = _spy(monkeypatch)
    rep = verify_structure(s)
    assert ("id[mul-assoc]", {"S"}) in runs and ("id[mul-assoc]", {"G"}) not in runs
    assert rep.failures() == (CheckItem("id[mul-assoc]", False, ("2",), "lhs=4 rhs=2"),)
    monkeypatch.undo()
    assert rep == full_report(s)


def test_rested_on_laws_are_matched_by_text(monkeypatch):
    # id[add-comm] here is no commutativity law, so mul-assoc is not reduced
    s = _z6_with(("mul-assoc", "(mul x (mul y z)) = (mul (mul x y) z)"))
    profile = make_profile("z6mul", [("mul", "mul")], [], [
        parse_identity("add-comm", "(add x 0) = x"),
        parse_identity("mul-assoc", "(mul x (mul y z)) = (mul (mul x y) z)"),
    ])
    odd = make_structure("z6", profile, s.elements, s.add, s.neg, s.star, {})
    runs = _spy(monkeypatch)
    assert verify_structure(s).ok and verify_structure(odd).ok
    assert runs.count(("id[mul-assoc]", {"G"})) == 1
    assert runs.count(("id[mul-assoc]", {"S"})) == 1


@pytest.mark.parametrize("identity, ok", [
    (("mul-comm", "(mul x y) = (mul y x)"), True),
    (("mul-zero", "(mul x y) = 0"), False),
])
def test_user_identity_additive_on_both_sides_is_reduced(monkeypatch, identity, ok):
    # a user profile over Z2 x Z2 whose mul is a symmetric bilinear form
    rows = [("add-comm", "(add x y) = (add y x)"), identity]
    prof = make_profile("z2z2mul", [("mul", "mul")], [], [parse_identity(*r) for r in rows])
    pairs = [(a, b) for a in range(2) for b in range(2)]
    add = tuple(tuple(pairs.index(((a + c) % 2, (b + d) % 2)) for c, d in pairs) for a, b in pairs)
    mul = tuple(tuple(pairs.index(((a * c + b * d) % 2, 0)) for c, d in pairs) for a, b in pairs)
    s = make_structure("z2z2", prof, ("00", "01", "10", "11"), add, (0, 1, 2, 3), {"mul": mul}, {})
    runs = _spy(monkeypatch)
    rep = verify_structure(s)
    law = f"id[{identity[0]}]"
    assert (law, {"G"}) in runs
    # a failing reduced scan hands over to the full scan, which names the witness
    assert ((law, {"S"}) in runs) is not ok
    assert rep.ok is ok
    monkeypatch.undo()
    assert rep == full_report(s)
