"""File formats: canonical text, parse/serialize roundtrips, save/load.

Canonical texts are frozen by hand below; roundtrips must be
byte-identical so command output stays reproducible. What loading a
mutated file gives, for every parse error, is pinned in
``tests/data/parse_errors.txt`` (``tests/parse_corpus.py``).
"""

import ast
import re
from pathlib import Path

import pytest

from xmodkit import io
from xmodkit.actions import conjugation_action, trivial_action
from xmodkit.errors import ParseError, StructuralError
from xmodkit.io import (
    load_action,
    load_any,
    load_cat1,
    load_morphism,
    load_structure,
    load_xmod,
    load_xmodmorphism,
    parse_structure,
    save_action,
    save_cat1,
    save_morphism,
    save_structure,
    save_xmod,
    save_xmodmorphism,
    serialize_action,
    serialize_cat1,
    serialize_morphism,
    serialize_structure,
    serialize_xmod,
    serialize_xmodmorphism,
)
from xmodkit.limits import same_structure
from xmodkit.morphisms import identity_morphism
from xmodkit.structures import Morphism, make_structure, subobject
from xmodkit.xmod import XModMorphism, make_xmod, verify_xmod
from xmodkit.cat1 import verify_cat1
from parse_corpus import render_corpus
from xmodkit.zoo import (
    make_cyclic,
    make_dialgebra,
    make_leibniz2,
    make_lie2,
    make_standard_cat1s,
    make_standard_xmods,
    make_symmetric3,
    make_truncated_poly,
)

Z2_TEXT = """structure z2
profile group
elements 0 1
add
0 1
1 0
neg 0 1
end
"""

F2X_TEXT = """structure f2x
profile comm-algebra-f2
elements 0 1 x 1+x
add
0 1 x 1+x
1 0 1+x x
x 1+x 0 1
1+x x 1 0
neg 0 1 x 1+x
table mul
0 0 0 0
0 1 x 1+x
0 x 0 x
0 1+x x 1
unary s0 0 0 0 0
unary s1 0 1 x 1+x
end
"""


def test_structure_text_frozen():
    assert serialize_structure(make_cyclic(2)) == Z2_TEXT
    assert serialize_structure(make_truncated_poly(2)) == F2X_TEXT


def test_structure_roundtrip_zoo():
    for s in (
        make_cyclic(4),
        make_symmetric3(),
        make_truncated_poly(2),
        make_truncated_poly(3),
        make_lie2(3),
        make_leibniz2(2),
        make_dialgebra(2),
    ):
        text = serialize_structure(s)
        back = parse_structure(text)
        assert same_structure(back, s)
        assert back.name == s.name
        assert serialize_structure(back) == text


def test_lie_file_lists_primary_table_only():
    text = serialize_structure(make_lie2(3))
    assert "table bracket\n" in text
    assert "bracketop" not in text
    back = parse_structure(text)
    assert back.star["bracketop"] == tuple(zip(*back.star["bracket"]))


def test_parse_tolerates_comments_and_blank_lines():
    text = (
        "# cyclic group of order two\n\nstructure z2\nprofile group\n\n"
        "elements 0 1\nadd\n0 1\n1 0\nneg 0 1\n# done\nend\n"
    )
    assert same_structure(parse_structure(text), make_cyclic(2))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_structure("structure z2\nelements 0 1\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_structure(
            "structure z2\nprofile group\nelements 0 1\nadd\n0 1\n1 7\nneg 0 1\nend\n"
        )
    assert e.value.line == 6
    with pytest.raises(ParseError):
        parse_structure(Z2_TEXT + "extra\n")
    with pytest.raises(ParseError):
        parse_structure(Z2_TEXT.replace("add\n0 1\n1 0\n", "add\n0 1\n1 0\nadd\n0 1\n1 0\n"))
    with pytest.raises(ParseError):
        parse_structure("structure z2\nprofile nosuch\nelements 0 1\nend\n")
    with pytest.raises(ParseError):
        parse_structure(Z2_TEXT.replace("elements 0 1", "elements 0 0"))


MORPHISM_TEXT = """morphism double
dom z2.mci
cod z4.mci
map
0 0
1 2
end
"""


def test_morphism_text_frozen():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    assert serialize_morphism(Morphism("double", z2, z4, (0, 2))) == MORPHISM_TEXT


def test_morphism_save_load(tmp_path):
    z2, z4 = make_cyclic(2), make_cyclic(4)
    m = Morphism("double", z2, z4, (0, 2))
    p = tmp_path / "double.mci"
    save_morphism(m, p)
    assert (tmp_path / "z2.mci").exists() and (tmp_path / "z4.mci").exists()
    back = load_morphism(p)
    assert back.name == "double" and back.map == (0, 2)
    assert same_structure(back.dom, z2) and same_structure(back.cod, z4)
    save_morphism(back, p)
    assert p.read_text(encoding="utf-8") == MORPHISM_TEXT


def test_ref_must_be_sibling(tmp_path):
    p = tmp_path / "bad.mci"
    p.write_text(MORPHISM_TEXT.replace("dom z2.mci", "dom ../z2.mci"), encoding="utf-8")
    with pytest.raises(ParseError):
        load_morphism(p)


ACTION_TEXT = """action conj_ideal
actor f2x.mci
acted f2x.sub.mci
dot
0 x
0 x
0 x
0 x
table mul
0 0
0 x
0 0
0 x
end
"""


def test_action_text_frozen_and_roundtrip(tmp_path):
    f2x = make_truncated_poly(2)
    act = conjugation_action(f2x, subobject(f2x, (0, 2)), name="conj_ideal")
    assert serialize_action(act) == ACTION_TEXT
    p = tmp_path / "conj_ideal.mci"
    save_action(act, p)
    back = load_action(p)
    assert back.dot == act.dot and back.star_act == act.star_act
    assert same_structure(back.actor, f2x)
    save_action(back, p)
    assert p.read_text(encoding="utf-8") == ACTION_TEXT


XMOD_TEXT = """xmod xm_z2_z4
c1 z2.mci
c0 z4.mci
boundary 0 2
action
dot
0 1
0 1
0 1
0 1
end
"""


def test_xmod_text_frozen():
    zoo = make_standard_xmods()
    assert serialize_xmod(zoo["xm_z2_z4"]) == XMOD_TEXT


def test_xmod_save_load_all_standard(tmp_path):
    for name, xm in make_standard_xmods().items():
        p = tmp_path / f"{name}.mci"
        save_xmod(xm, p)
        back = load_xmod(p)
        assert back.name == name
        assert back.boundary.map == xm.boundary.map
        assert back.action.dot == xm.action.dot
        assert back.action.star_act == xm.action.star_act
        assert same_structure(back.c1, xm.c1) and same_structure(back.c0, xm.c0)
        assert verify_xmod(back).ok
        first = p.read_bytes()
        save_xmod(back, p)
        assert p.read_bytes() == first


def test_cat1_save_load_all_standard(tmp_path):
    for name, c in make_standard_cat1s().items():
        p = tmp_path / f"{name}.mci"
        save_cat1(c, p)
        back = load_cat1(p)
        assert back.embed.map == c.embed.map
        assert back.src.map == c.src.map and back.tgt.map == c.tgt.map
        assert same_structure(back.big, c.big)
        assert verify_cat1(back).ok
        first = p.read_bytes()
        save_cat1(back, p)
        assert p.read_bytes() == first


def test_cat1_text_frozen():
    c = make_standard_cat1s()["xm_initial_z4"]
    assert serialize_cat1(c) == (
        "cat1 cat1_xm_initial_z4\n"
        "big big_cat1_xm_initial_z4.mci\n"
        "base z4.mci\n"
        "embed (0,0) (0,1) (0,2) (0,3)\n"
        "src 0 1 2 3\n"
        "tgt 0 1 2 3\n"
        "end\n"
    )


def test_xmodmorphism_save_load(tmp_path):
    zoo = make_standard_xmods()
    xm, term = zoo["xm_z2_z4"], zoo["xm_terminal_z4"]
    m = XModMorphism(
        "collapse", xm, term, xm.boundary, identity_morphism(xm.c0)
    )
    text = serialize_xmodmorphism(m)
    assert text == (
        "xmodmorphism collapse\n"
        "dom xm_z2_z4.mci\n"
        "cod xm_terminal_z4.mci\n"
        "top\n"
        "0 0\n"
        "1 2\n"
        "bottom\n"
        "0 0\n"
        "1 1\n"
        "2 2\n"
        "3 3\n"
        "end\n"
    )
    p = tmp_path / "collapse.mci"
    save_xmodmorphism(m, p)
    back = load_xmodmorphism(p)
    assert back.top.map == (0, 2) and back.bottom.map == (0, 1, 2, 3)
    assert back.dom.name == "xm_z2_z4" and back.cod.name == "xm_terminal_z4"
    save_xmodmorphism(back, p)
    assert p.read_text(encoding="utf-8") == text


def test_load_any_dispatch(tmp_path):
    zoo = make_standard_xmods()
    save_structure(make_cyclic(2), tmp_path / "z2.mci")
    save_xmod(zoo["xm_z2_z4"], tmp_path / "xm.mci")
    kind, obj = load_any(tmp_path / "z2.mci")
    assert kind == "structure" and obj.n == 2
    kind, obj = load_any(tmp_path / "xm.mci")
    assert kind == "xmod" and obj.c1.n == 2
    (tmp_path / "junk.mci").write_text("nonsense here\nend\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_any(tmp_path / "junk.mci")


def test_save_rejects_colliding_names(tmp_path):
    a = make_cyclic(2)
    b = make_structure(
        "z2",
        a.profile,
        ("0", "1"),
        ((0, 1), (1, 0)),
        (0, 1),
        {},
        {},
    )
    ok = Morphism("same_name_ok", a, b, (0, 1))
    save_morphism(ok, tmp_path / "m.mci")
    z3 = make_cyclic(3, name="z2")
    clash = Morphism("clash", a, z3, (0, 0))
    with pytest.raises(StructuralError):
        save_morphism(clash, tmp_path / "m2.mci")


def test_save_refuses_to_overwrite_a_referenced_file(tmp_path):
    """A save onto a file the object references (a structure, or a module of
    an xmodmorphism) raises before it writes anything."""
    xm = make_standard_xmods()["xm_z2_z4"]
    c = make_standard_cat1s()["xm_z2_z4"]
    m = XModMorphism("m", xm, xm, identity_morphism(xm.c1), identity_morphism(xm.c0))
    cases = (
        (save_xmod, xm, "z2.mci", "xmod xm_z2_z4"),
        (save_cat1, c, "z4.mci", "cat1 cat1_xm_z2_z4"),
        (save_cat1, c, "big_cat1_xm_z2_z4.mci", "cat1 cat1_xm_z2_z4"),
        (save_xmodmorphism, m, "xm_z2_z4.mci", "xmodmorphism m"),
        (save_xmodmorphism, m, "z4.mci", "xmodmorphism m"),
    )
    for save, obj, name, what in cases:
        with pytest.raises(StructuralError) as e:
            save(obj, tmp_path / name)
        assert str(e.value) == f"refusing to overwrite {name}: {what} references it"
    assert list(tmp_path.iterdir()) == []


def test_content_after_end_names_its_line(tmp_path):
    with pytest.raises(ParseError) as e:
        parse_structure(Z2_TEXT + "\n# trailing\nneg 0 1\n")
    assert str(e.value) == "content after end (line 11)"

    f2x = make_truncated_poly(2)
    act = conjugation_action(f2x, subobject(f2x, (0, 2)), name="conj_ideal")
    save_action(act, tmp_path / "a.mci")
    (tmp_path / "a.mci").write_text(ACTION_TEXT + "end\n", encoding="utf-8")
    with pytest.raises(ParseError) as e:
        load_action(tmp_path / "a.mci")
    assert str(e.value) == "content after end (line 15)"

    save_morphism(Morphism("double", make_cyclic(2), make_cyclic(4), (0, 2)), tmp_path / "m.mci")
    (tmp_path / "m.mci").write_text(MORPHISM_TEXT + "map\n", encoding="utf-8")
    with pytest.raises(ParseError) as e:
        load_morphism(tmp_path / "m.mci")
    assert str(e.value) == "content after end (line 8)"


def test_save_rejects_different_objects_sharing_a_name(tmp_path):
    z2, z4 = make_cyclic(2, name="z"), make_cyclic(4, name="z")
    xm = make_xmod("clash", Morphism("b", z2, z4, (0, 2)), trivial_action(z4, z2))
    with pytest.raises(StructuralError) as e:
        save_xmod(xm, tmp_path / "x.mci")
    assert e.value.message == "two different structures share the name 'z'"

    zoo = make_standard_xmods()
    a, b = zoo["xm_z2_z4"], zoo["xm_terminal_z4"]
    twin = make_xmod(a.name, b.boundary, b.action)
    m = XModMorphism("m", a, twin, a.boundary, identity_morphism(a.c0))
    with pytest.raises(StructuralError) as e:
        save_xmodmorphism(m, tmp_path / "m.mci")
    assert e.value.message == "two different modules share the name 'xm_z2_z4'"


PARSE_ERRORS = Path(__file__).parent / "data" / "parse_errors.txt"


def test_parse_error_corpus_is_byte_identical(tmp_path):
    assert render_corpus(tmp_path) == PARSE_ERRORS.read_text(encoding="utf-8")


def _parse_error_patterns():
    """A pattern for each literal or f-string ParseError message in io.py."""
    tree = ast.parse(Path(io.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ParseError"):
            continue
        msg = node.args[0]
        if isinstance(msg, ast.Constant):
            yield re.escape(msg.value)
        elif isinstance(msg, ast.JoinedStr):
            yield "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".+?"
                for part in msg.values
            )
        else:  # only the profile lookup's message is passed through (e.message)
            assert isinstance(msg, ast.Attribute), f"io.py line {node.lineno}"


def test_parse_error_corpus_reaches_every_message():
    pinned = PARSE_ERRORS.read_text(encoding="utf-8")
    patterns = list(_parse_error_patterns())
    assert len(patterns) > 20
    missing = [
        p for p in patterns if not re.search(rf": ParseError: {p} \(line \d+\)$", pinned, re.M)
    ]
    assert missing == []


def test_element_ids_cannot_start_a_comment():
    # every element id starts some add row, which a leading '#' would comment out
    with pytest.raises(StructuralError) as e:
        make_structure(
            "z", make_cyclic(2).profile, ("0", "#1"), ((0, 1), (1, 0)), (0, 1), {}, {}
        )
    assert e.value.message == "z: bad element id '#1'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of file (line 1)"),
        ("# nothing\n\n  # here\n", "unexpected end of file (line 1)"),
        # truncated tables: the line of the last row read, not of the comments after it
        (Z2_TEXT[: Z2_TEXT.index("1 0\n")] + "\n# cut\n\n", "unexpected end of file (line 5)"),
        (F2X_TEXT[: F2X_TEXT.index("0 x 0 x")] + "\n\n", "unexpected end of file (line 12)"),
        (Z2_TEXT[: Z2_TEXT.index("end")] + "# no end\n", "unexpected end of file (line 7)"),
        (Z2_TEXT + "\n# c\nneg 0 1\n", "content after end (line 11)"),
        (F2X_TEXT + "\n\nend\n# x\n", "content after end (line 20)"),
    ],
)
def test_cursor_error_lines(text, message):
    with pytest.raises(ParseError) as e:
        parse_structure(text)
    assert str(e.value) == message


def test_cursor_skips_trailing_blank_and_comment_lines():
    back = parse_structure(Z2_TEXT + "\n\n# trailing comment\n   \n#\n")
    assert serialize_structure(back) == Z2_TEXT


def test_parse_holds_one_row_at_a_time():
    """Parsing a 256-element table file peaks at a small multiple of its text."""
    import tracemalloc

    from xmodkit.cat1 import xmod_to_cat1
    from xmodkit.xmod import slice_terminal

    text = serialize_structure(xmod_to_cat1(slice_terminal(make_truncated_poly(2, 4))).big)
    assert len(text) > 1_500_000
    tracemalloc.start()
    try:
        parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * len(text)
