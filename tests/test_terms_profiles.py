"""Term language and profile registry tests.

Expected values here are frozen from hand evaluation over small mod-n
tables computed independently in the tests themselves. The law lists of
every builtin profile are pinned in ``tests/data/structure_laws.txt``;
regenerate it with

    PYTHONPATH=src python tests/test_terms_profiles.py > tests/data/structure_laws.txt

only when a law is meant to change.
"""

import gc
import importlib
import sys
import weakref
from pathlib import Path

import pytest

from xmodkit.errors import StructuralError
from xmodkit.terms import (
    App,
    Identity,
    Var,
    Zero,
    eval_term,
    format_term,
    parse_term,
    term_vars,
)
from xmodkit import profiles
from xmodkit.profiles import builtin_profiles, get_profile, make_profile
from xmodkit.structures import evaluate_law, make_structure, structure_laws, verify_structure

LISTING = Path(__file__).parent / "data" / "structure_laws.txt"


def _z4():
    # independent oracle: build Z4 tables from modular arithmetic
    n = 4
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    neg = tuple((-i) % n for i in range(n))
    return make_structure(
        "z4", get_profile("group"), tuple(str(i) for i in range(n)), add, neg, {}, {}
    )


def test_parse_format_roundtrip():
    cases = [
        "x",
        "0",
        "(add x y)",
        "(neg (add x 0))",
        "(mul x (add y z))",
        "(s1 (mul x y))",
    ]
    for text in cases:
        t = parse_term(text)
        assert format_term(t) == text
        assert parse_term(format_term(t)) == t


def test_parse_structure_shapes():
    assert parse_term("x") == Var("x")
    assert parse_term("0") == Zero()
    assert parse_term("(add x (neg y))") == App("add", (Var("x"), App("neg", (Var("y"),))))


def test_parse_errors_carry_position():
    for bad in ["(add x", "(add x y))", "()", "(add x y) z", ""]:
        with pytest.raises(StructuralError):
            parse_term(bad)


def test_term_vars_first_occurrence_order():
    t = parse_term("(add (mul y x) (add y z))")
    assert term_vars(t) == ("y", "x", "z")


def test_eval_term_on_z4():
    s = _z4()
    t = parse_term("(add x (neg y))")
    # oracle: (x - y) mod 4
    for x in range(4):
        for y in range(4):
            assert eval_term(t, s, {"x": x, "y": y}) == (x - y) % 4
    assert eval_term(parse_term("0"), s, {}) == 0


def test_builtin_profile_names():
    names = set(builtin_profiles())
    assert {
        "group",
        "comm-algebra-f2",
        "comm-algebra-f3",
        "comm-algebra-f5",
        "lie-f3",
        "lie-f5",
        "leibniz-f2",
        "leibniz-f3",
        "dialgebra-f2",
    } <= names


def test_group_profile_is_bare():
    p = get_profile("group")
    assert p.binary == ()
    assert p.unary == ()
    assert p.identities == ()


def test_opposite_closure_enforced():
    with pytest.raises(StructuralError):
        make_profile("bad", binary=[("bracket", "bracketop")], unary=[], identities=[])


def test_comm_algebra_profile_shape():
    p = get_profile("comm-algebra-f3")
    assert [b.symbol for b in p.binary] == ["mul"]
    assert p.opposite_of("mul") == "mul"
    assert [u.symbol for u in p.unary] == ["s0", "s1", "s2"]
    assert all(u.kind == "S" for u in p.unary)
    names = [i.name for i in p.identities]
    assert "add-comm" in names and "mul-assoc" in names


def test_lie_profile_shape():
    p = get_profile("lie-f3")
    assert [b.symbol for b in p.binary] == ["bracket", "bracketop"]
    assert p.opposite_of("bracket") == "bracketop"
    assert p.opposite_of("bracketop") == "bracket"
    assert p.is_primary("bracket") and not p.is_primary("bracketop")
    names = [i.name for i in p.identities]
    assert "antisym" in names and "jacobi" in names


def test_dialgebra_profile_shape():
    p = get_profile("dialgebra-f2")
    assert [b.symbol for b in p.binary] == ["lprod", "lprodop", "rprod", "rprodop"]
    names = [i.name for i in p.identities]
    assert {"dialg-1", "dialg-2", "dialg-3", "dialg-4", "dialg-5"} <= set(names)


def test_unknown_ops_in_identity_rejected():
    bad = Identity("oops", parse_term("(frob x y)"), Zero())
    with pytest.raises(StructuralError):
        make_profile("p", binary=[("mul", "mul")], unary=[], identities=[bad])


def test_unknown_profile_name():
    with pytest.raises(StructuralError):
        get_profile("no-such-profile")
    # names that only look like a family member over F_p
    for name in ("lie-f03", "lie-f2", "group-f2", "lie-f", "-f3", "lie"):
        with pytest.raises(StructuralError, match=f"^unknown profile '{name}'$"):
            get_profile(name)


def test_get_profile_builds_only_the_named_profile(monkeypatch):
    monkeypatch.setattr(profiles, "_BUILTINS", {})
    p = get_profile("lie-f3")
    assert list(profiles._BUILTINS) == ["lie-f3"]
    assert get_profile("lie-f3") is p
    builtins = builtin_profiles()
    for name, expected in builtins.items():
        assert get_profile(name) == expected and get_profile(name) is not expected
    assert list(profiles._BUILTINS) == ["lie-f3"] + [n for n in builtins if n != "lie-f3"]


def test_a_second_verify_hashes_no_term_tree(monkeypatch):
    # the profile keys the structure-law caches and each law the compiled
    # scanners; once a structure has been verified, neither lookup may walk
    # the profile's or a law's term trees again
    s = make_structure(
        "dl", get_profile("dialgebra-f2"), ("0",), ((0,),), (0,),
        {"lprod": ((0,),), "rprod": ((0,),)}, {"s0": (0,), "s1": (0,)},
    )
    assert verify_structure(s).ok
    hashed = []
    for cls in (App, Var, Zero):
        original = cls.__hash__
        monkeypatch.setattr(cls, "__hash__", lambda t, h=original: hashed.append(t) or h(t))
    assert verify_structure(s).ok
    assert evaluate_law(s, "id[dialg-3]", ("0", "0", "0"))
    assert hashed == []


def _package_modules():
    return {n: m for n, m in sys.modules.items() if n == "xmodkit" or n.startswith("xmodkit.")}


def test_reimport_releases_previous_package():
    # a fresh import of the package must not keep the previous one alive,
    # e.g. through a typing Union over the term classes cached at import
    saved = _package_modules()
    try:
        refs = []
        for _ in range(2):
            for name in _package_modules():
                del sys.modules[name]
            for mod in ("cli", "zoo", "pullbacks"):
                importlib.import_module(f"xmodkit.{mod}")
            refs.append(weakref.ref(sys.modules["xmodkit.terms"].App))
        gc.collect()
        assert refs[0]() is None
        assert refs[1]() is not None
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def law_listing() -> str:
    """Every builtin profile's identities, then its structure laws with
    and without them, as ``name: lhs = rhs`` lines in order."""
    lines = []
    for name, p in builtin_profiles().items():
        for title, laws in (
            ("identities", p.identities),
            ("structure_laws", structure_laws(p, False)),
            ("structure_laws core_only", core_laws(p)),
        ):
            lines.append(f"# {name} {title}")
            lines += [f"{i.name}: {format_term(i.lhs)} = {format_term(i.rhs)}" for i in laws]
    return "\n".join(lines) + "\n"


def core_laws(p):
    """The structure laws without the profile's identities."""
    return tuple([i for i in structure_laws(p) if not i.name.startswith("id[")])


def test_structure_laws_are_parsed_once_per_profile():
    # evaluate_law reads them for every witness it re-checks
    for p in builtin_profiles().values():
        assert structure_laws(p) is structure_laws(p)
        # bench/tracer.py passes core_only positionally
        assert structure_laws(p, True) == core_laws(p)


def test_law_listing_is_byte_identical():
    assert law_listing() == LISTING.read_text()


if __name__ == "__main__":
    sys.stdout.write(law_listing())
