"""Command line behaviour: exit codes, report output, artifact files.

Conventions pinned here: verification commands print a report and exit
0/1 with its verdict; construction commands print the canonical
serialization of the built object to stdout and exit 0, writing files
only under -o; malformed input and size-guard trips exit 2 with an
ERROR line on stderr.
"""

import argparse
import os
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import xmodkit
from xmodkit.actions import check_derived_action, conjugation_action, make_action, trivial_action
from xmodkit.cat1 import make_cat1, verify_cat1
from xmodkit import io
from xmodkit.cli import _build_parser, main
from xmodkit.io import (
    load_action,
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
    serialize_structure,
)
from xmodkit.morphisms import identity_morphism, morphism_report
from xmodkit.structures import Morphism, subobject, verify_structure
from xmodkit.xmod import (
    XModMorphism,
    find_xmod_isomorphism,
    make_xmod,
    slice_initial,
    slice_terminal,
    verify_xmod,
    verify_xmod_morphism,
)
from xmodkit.zoo import (
    make_cyclic,
    make_standard_cat1s,
    make_standard_xmods,
    make_truncated_poly,
)


def run(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_double(dirpath):
    z2, z4 = make_cyclic(2), make_cyclic(4)
    path = dirpath / "double.mci"
    save_morphism(Morphism("double", z2, z4, (0, 2)), path)
    return path


def write_zoo_xmod(dirpath, key):
    path = dirpath / f"{key}.in.mci"
    save_xmod(make_standard_xmods()[key], path)
    return path


def test_verify_structure_pass_and_fail(tmp_path, capsys):
    save_structure(make_cyclic(4), tmp_path / "z4.mci")
    code, out, err = run(capsys, "verify", str(tmp_path / "z4.mci"))
    assert code == 0
    assert "RESULT PASS structure z4" in out
    assert err == ""

    bad = serialize_structure(make_cyclic(3)).replace("\n1 2 0\n", "\n1 1 0\n")
    (tmp_path / "bad.mci").write_text(bad, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(tmp_path / "bad.mci"))
    assert code == 1
    assert "RESULT FAIL structure z3" in out
    assert any(line.startswith("FAIL ") for line in out.splitlines())


def test_verify_dispatches_on_file_kind(tmp_path, capsys):
    zoo = make_standard_xmods()
    save_morphism(
        Morphism("double", make_cyclic(2), make_cyclic(4), (0, 2)),
        tmp_path / "m.mci",
    )
    f2x = make_truncated_poly(2)
    save_action(
        conjugation_action(f2x, subobject(f2x, (0, 2))), tmp_path / "a.mci"
    )
    save_xmod(zoo["xm_z2_z4"], tmp_path / "x.mci")
    collapse = XModMorphism(
        "collapse",
        zoo["xm_z2_z4"],
        zoo["xm_terminal_z4"],
        zoo["xm_z2_z4"].boundary,
        identity_morphism(zoo["xm_z2_z4"].c0),
    )
    save_xmodmorphism(collapse, tmp_path / "xm.mci")
    save_cat1(make_standard_cat1s()["xm_z2_z4"], tmp_path / "c.mci")

    for name, marker in [
        ("m.mci", "RESULT PASS morphism double"),
        ("a.mci", "cond-1"),
        ("x.mci", "RESULT PASS crossed module xm_z2_z4"),
        ("xm.mci", "RESULT PASS crossed module morphism collapse"),
        ("c.mci", "RESULT PASS cat1 cat1_xm_z2_z4"),
    ]:
        code, out, err = run(capsys, "verify", str(tmp_path / name))
        assert code == 0, (name, out, err)
        assert marker in out


def test_verify_failing_morphism_exits_one(tmp_path, capsys):
    save_morphism(
        Morphism("skew", make_cyclic(2), make_cyclic(4), (0, 1)),
        tmp_path / "skew.mci",
    )
    code, out, _ = run(capsys, "verify", str(tmp_path / "skew.mci"))
    assert code == 1
    assert "RESULT FAIL morphism skew" in out


def test_bad_files_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.mci"))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR ")

    (tmp_path / "junk.mci").write_text("who knows\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(tmp_path / "junk.mci"))
    assert code == 2
    assert "ERROR" in err

    save_structure(make_cyclic(2), tmp_path / "z2only.mci")
    code, _, err = run(capsys, "check-xmod", str(tmp_path / "z2only.mci"))
    assert code == 2
    assert "ERROR" in err


def test_element_id_starting_with_hash_is_an_error(tmp_path, capsys):
    # any file this structure saved to would have an add row starting '#1', a comment
    (tmp_path / "hash.mci").write_text(
        "structure hash\nprofile group\nelements 0 #1\nadd\n0 #1\n0 0\nneg 0 #1\nend\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "verify", str(tmp_path / "hash.mci"))
    assert (code, out) == (2, "")
    assert err == "ERROR hash: bad element id '#1'\n"


def test_typed_checks(tmp_path, capsys):
    f2x = make_truncated_poly(2)
    save_action(
        conjugation_action(f2x, subobject(f2x, (0, 2))), tmp_path / "a.mci"
    )
    code, out, _ = run(capsys, "check-action", str(tmp_path / "a.mci"))
    assert code == 0
    assert "PASS cond-12" in out

    save_xmod(make_standard_xmods()["xm_conj_s3"], tmp_path / "x.mci")
    assert run(capsys, "check-xmod", str(tmp_path / "x.mci"))[0] == 0

    save_cat1(make_standard_cat1s()["xm_ideal_f2x"], tmp_path / "c.mci")
    assert run(capsys, "check-cat1", str(tmp_path / "c.mci"))[0] == 0


def test_semidirect_gates_input_and_emits_product(tmp_path, capsys):
    z2, z3 = make_cyclic(2), make_cyclic(3)
    save_action(
        make_action("inv", z2, z3, ((0, 1, 2), (0, 2, 1)), {}),
        tmp_path / "inv.mci",
    )
    out_path = tmp_path / "prod.mci"
    code, out, _ = run(
        capsys, "semidirect", str(tmp_path / "inv.mci"), "-o", str(out_path)
    )
    assert code == 0
    prod = parse_structure(out)
    assert prod.n == 6
    assert prod.name == "sdp_z3_z2"
    assert out_path.read_text(encoding="utf-8") == out
    assert run(capsys, "verify", str(out_path))[0] == 0

    # dot table that is not by automorphisms: rejected with a report
    save_action(
        make_action("notact", z2, z3, ((0, 1, 2), (1, 0, 2)), {}),
        tmp_path / "notact.mci",
    )
    code, out, _ = run(capsys, "semidirect", str(tmp_path / "notact.mci"))
    assert code == 1
    assert "RESULT FAIL" in out


def test_translation_chain_through_files(tmp_path, capsys):
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    code, out, _ = run(
        capsys, "to-cat1", str(xm_path), "-o", str(tmp_path / "c.mci")
    )
    assert code == 0
    assert out.startswith("cat1 cat1_xm_z2_z4\n")
    assert run(capsys, "check-cat1", str(tmp_path / "c.mci"))[0] == 0

    code, out, _ = run(
        capsys, "to-xmod", str(tmp_path / "c.mci"), "-o", str(tmp_path / "b.mci")
    )
    assert code == 0
    assert out.startswith("xmod ")
    assert run(capsys, "check-xmod", str(tmp_path / "b.mci"))[0] == 0
    back = load_xmod(tmp_path / "b.mci")
    assert back.c1.n == 2
    assert find_xmod_isomorphism(back, make_standard_xmods()["xm_z2_z4"]) is not None


def test_base_limits(tmp_path, capsys):
    z2, z3, z4 = make_cyclic(2), make_cyclic(3), make_cyclic(4)
    save_structure(z2, tmp_path / "z2.mci")
    save_structure(z3, tmp_path / "z3.mci")
    code, out, _ = run(
        capsys,
        "limit",
        "product",
        str(tmp_path / "z2.mci"),
        str(tmp_path / "z3.mci"),
        "-o",
        str(tmp_path / "p.mci"),
    )
    assert code == 0
    assert parse_structure(out).n == 6
    assert run(capsys, "verify", str(tmp_path / "p.mci"))[0] == 0

    double = write_double(tmp_path)
    save_morphism(identity_morphism(z4), tmp_path / "id4.mci")
    code, out, _ = run(
        capsys, "limit", "pullback", str(double), str(tmp_path / "id4.mci")
    )
    assert code == 0
    assert parse_structure(out).n == 2

    save_morphism(
        Morphism("negate", z4, z4, tuple(z4.neg)), tmp_path / "neg.mci"
    )
    code, out, _ = run(
        capsys,
        "limit",
        "equalizer",
        str(tmp_path / "id4.mci"),
        str(tmp_path / "neg.mci"),
    )
    assert code == 0
    assert parse_structure(out).elements == ("0", "2")

    code, _, err = run(capsys, "limit", "product", str(tmp_path / "z2.mci"))
    assert code == 2
    assert "ERROR" in err


def test_slice_limits_and_leg_files(tmp_path, capsys):
    save_structure(make_cyclic(4), tmp_path / "z4.mci")
    code, out, _ = run(
        capsys,
        "limit",
        "slice-terminal",
        str(tmp_path / "z4.mci"),
        "-o",
        str(tmp_path / "term.mci"),
    )
    assert code == 0
    assert out.startswith("xmod ")
    assert run(capsys, "check-xmod", str(tmp_path / "term.mci"))[0] == 0
    code, _, _ = run(
        capsys,
        "limit",
        "slice-initial",
        str(tmp_path / "z4.mci"),
        "-o",
        str(tmp_path / "init.mci"),
    )
    assert code == 0
    assert run(capsys, "check-xmod", str(tmp_path / "init.mci"))[0] == 0

    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    code, _, _ = run(
        capsys,
        "limit",
        "slice-product",
        str(xm_path),
        str(xm_path),
        "-o",
        str(tmp_path / "sp.mci"),
    )
    assert code == 0
    prod = load_xmod(tmp_path / "sp.mci")
    assert prod.c1.n == 2  # diagonal of an injective boundary
    assert run(capsys, "check-xmod", str(tmp_path / "sp.mci"))[0] == 0
    for suffix in ("fst", "snd"):
        leg_path = tmp_path / f"sp_{suffix}.mci"
        assert leg_path.exists()
        assert run(capsys, "verify", str(leg_path))[0] == 0
    leg = load_xmodmorphism(tmp_path / "sp_fst.mci")
    assert leg.dom.c1.n == 2
    assert leg.cod.name == "xm_z2_z4"


def test_slice_equalizer_from_morphism_files(tmp_path, capsys):
    xm = make_standard_xmods()["xm_z2_z4"]
    same = XModMorphism(
        "same", xm, xm, identity_morphism(xm.c1), identity_morphism(xm.c0)
    )
    flip = XModMorphism(
        "flip",
        xm,
        xm,
        identity_morphism(xm.c1),
        Morphism("negate", xm.c0, xm.c0, tuple(xm.c0.neg)),
    )
    save_xmodmorphism(same, tmp_path / "same.mci")
    save_xmodmorphism(flip, tmp_path / "flip.mci")
    code, out, _ = run(
        capsys,
        "limit",
        "slice-equalizer",
        str(tmp_path / "same.mci"),
        str(tmp_path / "flip.mci"),
        "-o",
        str(tmp_path / "eq.mci"),
    )
    assert code == 0
    eq = load_xmod(tmp_path / "eq.mci")
    assert eq.c0.elements == ("0", "2")
    assert eq.c1.n == 2
    assert run(capsys, "check-xmod", str(tmp_path / "eq.mci"))[0] == 0
    assert (tmp_path / "eq_incl.mci").exists()
    assert run(capsys, "verify", str(tmp_path / "eq_incl.mci"))[0] == 0


def test_pullback_xmod_cli(tmp_path, capsys):
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    double = write_double(tmp_path)
    code, out, _ = run(
        capsys,
        "pullback-xmod",
        "--xmod",
        str(xm_path),
        "--along",
        str(double),
        "-o",
        str(tmp_path / "pb.mci"),
    )
    assert code == 0
    assert out.startswith("xmod ")
    pb = load_xmod(tmp_path / "pb.mci")
    assert pb.c1.n == 2
    assert pb.c0.n == 2
    assert run(capsys, "check-xmod", str(tmp_path / "pb.mci"))[0] == 0
    assert (tmp_path / "pb_proj.mci").exists()
    assert run(capsys, "verify", str(tmp_path / "pb_proj.mci"))[0] == 0
    proj = load_xmodmorphism(tmp_path / "pb_proj.mci")
    assert proj.bottom.map == (0, 2)


def test_pullback_cat1_cli(tmp_path, capsys):
    save_cat1(make_standard_cat1s()["xm_z2_z4"], tmp_path / "c.mci")
    double = write_double(tmp_path)
    code, out, _ = run(
        capsys,
        "pullback-cat1",
        "--cat1",
        str(tmp_path / "c.mci"),
        "--along",
        str(double),
        "-o",
        str(tmp_path / "pc.mci"),
    )
    assert code == 0
    assert out.startswith("cat1 ")
    pc = load_cat1(tmp_path / "pc.mci")
    assert pc.big.n == 4
    assert pc.base.n == 2
    assert run(capsys, "check-cat1", str(tmp_path / "pc.mci"))[0] == 0


def test_check_universal_terminal_and_product(tmp_path, capsys):
    term = write_zoo_xmod(tmp_path, "xm_terminal_z4")
    xm = write_zoo_xmod(tmp_path, "xm_z2_z4")
    init = write_zoo_xmod(tmp_path, "xm_initial_z4")
    code, out, _ = run(
        capsys,
        "check-universal",
        "terminal",
        str(term),
        "--testers",
        str(xm),
        str(init),
    )
    assert code == 0
    assert "PASS mediator[xm_z2_z4]" in out
    assert "PASS mediator[xm_initial_z4]" in out
    assert "RESULT PASS" in out

    run(
        capsys,
        "limit",
        "slice-product",
        str(xm),
        str(xm),
        "-o",
        str(tmp_path / "sp.mci"),
    )
    code, out, _ = run(
        capsys,
        "check-universal",
        "product",
        str(tmp_path / "sp.mci"),
        "--legs",
        str(tmp_path / "sp_fst.mci"),
        str(tmp_path / "sp_snd.mci"),
        "--testers",
        str(xm),
        str(init),
    )
    assert code == 0
    assert "RESULT PASS" in out


def test_check_universal_pullback_and_equalizer(tmp_path, capsys):
    zoo = make_standard_xmods()
    xm, term = zoo["xm_z2_z4"], zoo["xm_terminal_z4"]
    collapse = XModMorphism(
        "collapse", xm, term, xm.boundary, identity_morphism(xm.c0)
    )
    idterm = XModMorphism(
        "idterm",
        term,
        term,
        identity_morphism(term.c1),
        identity_morphism(term.c0),
    )
    save_xmodmorphism(collapse, tmp_path / "collapse.mci")
    save_xmodmorphism(idterm, tmp_path / "idterm.mci")
    init = write_zoo_xmod(tmp_path, "xm_initial_z4")
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")

    code, _, _ = run(
        capsys,
        "limit",
        "slice-pullback",
        str(tmp_path / "collapse.mci"),
        str(tmp_path / "idterm.mci"),
        "-o",
        str(tmp_path / "spb.mci"),
    )
    assert code == 0
    assert load_xmod(tmp_path / "spb.mci").c1.n == 2
    code, out, _ = run(
        capsys,
        "check-universal",
        "pullback",
        str(tmp_path / "spb.mci"),
        "--legs",
        str(tmp_path / "spb_fst.mci"),
        str(tmp_path / "spb_snd.mci"),
        "--parallel",
        str(tmp_path / "collapse.mci"),
        str(tmp_path / "idterm.mci"),
        "--testers",
        str(xm_path),
        str(init),
    )
    assert code == 0
    assert "RESULT PASS" in out

    same = XModMorphism(
        "same", xm, xm, identity_morphism(xm.c1), identity_morphism(xm.c0)
    )
    flip = XModMorphism(
        "flip",
        xm,
        xm,
        identity_morphism(xm.c1),
        Morphism("negate", xm.c0, xm.c0, tuple(xm.c0.neg)),
    )
    save_xmodmorphism(same, tmp_path / "same.mci")
    save_xmodmorphism(flip, tmp_path / "flip.mci")
    run(
        capsys,
        "limit",
        "slice-equalizer",
        str(tmp_path / "same.mci"),
        str(tmp_path / "flip.mci"),
        "-o",
        str(tmp_path / "eq.mci"),
    )
    code, out, _ = run(
        capsys,
        "check-universal",
        "equalizer",
        str(tmp_path / "eq.mci"),
        "--legs",
        str(tmp_path / "eq_incl.mci"),
        "--parallel",
        str(tmp_path / "same.mci"),
        str(tmp_path / "flip.mci"),
        "--testers",
        str(xm_path),
    )
    assert code == 0
    assert "PASS mediator[xm_z2_z4]" in out


def test_diagrams_that_meet_by_carriers_only_are_refused(tmp_path, capsys):
    # flat has xm_z2_z4's carriers but the zero boundary, so into_xm and
    # into_flat share a domain and differ at their codomains
    zoo = make_standard_xmods()
    xm, init = zoo["xm_z2_z4"], zoo["xm_initial_z4"]
    flat = make_xmod(
        "flat", Morphism("zero", xm.c1, xm.c0, (0, 0)), trivial_action(xm.c0, xm.c1)
    )
    for cod, name in ((xm, "into_xm"), (flat, "into_flat")):
        top = Morphism(f"top_{name}", init.c1, cod.c1, (0,))
        leg = XModMorphism(name, init, cod, top, identity_morphism(init.c0))
        save_xmodmorphism(leg, tmp_path / f"{name}.mci")
    at = lambda name: str(tmp_path / f"{name}.mci")  # noqa: E731
    f, g = at("into_xm"), at("into_flat")
    for kind in ("equalizer", "pullback"):
        assert run(capsys, "limit", f"slice-{kind}", f, f, "-o", at(kind))[0] == 0
    testers = ("--testers", str(write_zoo_xmod(tmp_path, "xm_initial_z4")))
    before = sorted(os.listdir(tmp_path))
    refusals = [
        (("limit", "slice-equalizer", f, g, "-o", at("bad")), "xmod_equalizer: codomains differ"),
        (("check-universal", "equalizer", at("equalizer"), "--legs", at("equalizer_incl"),
          "--parallel", f, g, *testers), "equalizer cone: legs and parallel pair do not meet"),
        (("check-universal", "pullback", at("pullback"), "--legs", at("pullback_fst"),
          at("pullback_snd"), "--parallel", f, g, *testers),
         "pullback cone: legs and parallel pair do not meet"),
    ]
    for args, message in refusals:
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (2, "", f"ERROR {message}\n"), args
    assert sorted(os.listdir(tmp_path)) == before


def test_check_universal_size_guard(tmp_path, capsys):
    term = write_zoo_xmod(tmp_path, "xm_terminal_z4")
    xm = write_zoo_xmod(tmp_path, "xm_z2_z4")
    code, out, err = run(
        capsys,
        "check-universal",
        "terminal",
        str(term),
        "--testers",
        str(xm),
        "--max-size",
        "2",
    )
    assert code == 2
    assert out == ""
    assert "ERROR" in err and "guard" in err


@pytest.mark.parametrize("kind, message", [
    ("terminal", "terminal cone takes no legs"),
    ("product", "product cone takes no parallel pair"),
])
def test_check_universal_refuses_arguments_its_kind_does_not_take(tmp_path, capsys, kind, message):
    xm = write_zoo_xmod(tmp_path, "xm_z2_z4")
    run(capsys, "limit", "slice-product", str(xm), str(xm), "-o", str(tmp_path / "sp.mci"))
    legs = {"terminal": ["sp_fst.mci"], "product": ["sp_fst.mci", "sp_snd.mci"]}[kind]
    candidate = tmp_path / "sp.mci"
    if kind == "terminal":
        candidate = write_zoo_xmod(tmp_path, "xm_terminal_z4")
    code, out, err = run(
        capsys,
        "check-universal",
        kind,
        str(candidate),
        "--legs",
        *[str(tmp_path / leg) for leg in legs],
        "--parallel",
        str(tmp_path / "sp_fst.mci"),
        str(tmp_path / "sp_snd.mci"),
        "--testers",
        str(xm),
    )
    assert (code, out) == (2, "")
    assert message in err


def test_square_check_cli(tmp_path, capsys):
    xm = write_zoo_xmod(tmp_path, "xm_z2_z4")
    double = write_double(tmp_path)
    code, out, _ = run(
        capsys, "square-check", "--xmod", str(xm), "--along", str(double)
    )
    assert code == 0
    assert "PASS route-xmod-first" in out
    assert "PASS route-cat1-first" in out
    assert "PASS isomorphic" in out
    assert "RESULT PASS" in out

    code, _, err = run(
        capsys,
        "square-check",
        "--xmod",
        str(xm),
        "--along",
        str(double),
        "--max-size",
        "1",
    )
    assert code == 2
    assert "ERROR" in err


def test_square_check_27_element_split_carrier(tmp_path, capsys):
    xm = make_standard_xmods()["xm_ideal_f3x"]
    save_xmod(xm, tmp_path / "xm_ideal_f3x.mci")
    save_morphism(identity_morphism(xm.c0), tmp_path / "id_f3x.mci")
    args = ("square-check", "--xmod", str(tmp_path / "xm_ideal_f3x.mci"),
            "--along", str(tmp_path / "id_f3x.mci"))
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == "ERROR enumerate_morphisms: domain carrier 27 exceeds guard 12\n"

    code, out, err = run(capsys, *args, "--max-size", "81")
    assert code == 0 and err == ""
    assert "PASS isomorphic" in out
    assert out.splitlines()[-1] == "RESULT PASS square xm_ideal_f3x along id_f3x"


def test_check_universal_max_size_reaches_the_searches(tmp_path, capsys):
    z16 = make_cyclic(16)
    save_xmod(slice_terminal(z16), tmp_path / "term_z16.mci")
    save_xmod(slice_initial(z16), tmp_path / "init_z16.mci")
    term, init = str(tmp_path / "term_z16.mci"), str(tmp_path / "init_z16.mci")
    args = ("check-universal", "terminal", term, "--testers", term, init)
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == "ERROR universal cone tester term_z16 exceeds guard 8\n"

    code, out, err = run(capsys, *args, "--max-size", "16")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "PASS mediator[term_z16]", "PASS mediator[init_z16]", "RESULT PASS terminal cone term_z16"
    ]


def test_construction_output_is_byte_stable(tmp_path, capsys):
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    _, first, _ = run(capsys, "to-cat1", str(xm_path))
    _, second, _ = run(capsys, "to-cat1", str(xm_path))
    assert first == second

    z2, z3 = make_cyclic(2), make_cyclic(3)
    save_action(
        make_action("inv", z2, z3, ((0, 1, 2), (0, 2, 1)), {}),
        tmp_path / "inv.mci",
    )
    _, first, _ = run(capsys, "semidirect", str(tmp_path / "inv.mci"))
    _, second, _ = run(capsys, "semidirect", str(tmp_path / "inv.mci"))
    assert first == second


def test_usage_errors_and_help(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err.lower() or "invalid" in err.lower()

    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out


def test_module_invocation(tmp_path):
    save_structure(make_cyclic(2), tmp_path / "z2.mci")
    result = subprocess.run(
        [sys.executable, "-m", "xmodkit", "verify", str(tmp_path / "z2.mci")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "RESULT PASS structure z2" in result.stdout


def write_gate_inputs(dirpath):
    """A failing input of every kind a construction reads, and passing partners."""
    zoo = make_standard_xmods()
    xm = zoo["xm_z2_z4"]
    z2, z4 = xm.c1, xm.c0
    bad3 = serialize_structure(make_cyclic(3, name="bad3")).replace("\n1 2 0\n", "\n1 1 0\n")
    (dirpath / "bad3.mci").write_text(bad3, encoding="utf-8")
    save_structure(z2, dirpath / "z2.mci")
    write_double(dirpath)
    save_morphism(Morphism("skew", z2, z4, (0, 1)), dirpath / "skew.mci")
    save_action(
        make_action("notact", z2, make_cyclic(3), ((0, 1, 2), (1, 0, 2)), {}),
        dirpath / "notact.mci",
    )
    save_xmod(xm, dirpath / "xm.mci")
    save_xmod(make_xmod("badx", Morphism("b", z2, z4, (0, 1)), xm.action), dirpath / "badx.mci")
    save_xmodmorphism(
        XModMorphism("collapse", xm, zoo["xm_terminal_z4"], xm.boundary, identity_morphism(z4)),
        dirpath / "collapse.mci",
    )
    save_xmodmorphism(
        XModMorphism("badm", xm, xm, identity_morphism(z2), Morphism("zero", z4, z4, (0,) * 4)),
        dirpath / "badm.mci",
    )
    c = make_standard_cat1s()["xm_z2_z4"]
    save_cat1(
        make_cat1("badc", c.embed, c.src, Morphism("t", c.big, c.base, (0,) * c.big.n)),
        dirpath / "badc.mci",
    )


# command line, the input whose report it prints, and that input's loader
# and verifier; both inputs of pullback-xmod fail, and its --xmod is
# gated first although --along comes first on the line
GATE_CASES = [
    ("semidirect notact.mci", "notact.mci", load_action, check_derived_action),
    ("to-cat1 badx.mci", "badx.mci", load_xmod, verify_xmod),
    ("to-xmod badc.mci", "badc.mci", load_cat1, verify_cat1),
    ("limit product z2.mci bad3.mci", "bad3.mci", load_structure, verify_structure),
    ("limit pullback double.mci skew.mci", "skew.mci", load_morphism, morphism_report),
    ("limit equalizer skew.mci double.mci", "skew.mci", load_morphism, morphism_report),
    ("limit slice-terminal bad3.mci", "bad3.mci", load_structure, verify_structure),
    ("limit slice-initial bad3.mci", "bad3.mci", load_structure, verify_structure),
    ("limit slice-product xm.mci badx.mci", "badx.mci", load_xmod, verify_xmod),
    (
        "limit slice-pullback badm.mci collapse.mci",
        "badm.mci",
        load_xmodmorphism,
        verify_xmod_morphism,
    ),
    (
        "limit slice-equalizer collapse.mci badm.mci",
        "badm.mci",
        load_xmodmorphism,
        verify_xmod_morphism,
    ),
    ("pullback-xmod --along skew.mci --xmod badx.mci", "badx.mci", load_xmod, verify_xmod),
    ("pullback-cat1 --cat1 badc.mci --along double.mci", "badc.mci", load_cat1, verify_cat1),
]


@pytest.mark.parametrize(
    "line,failing,load,verify", GATE_CASES, ids=[case[0] for case in GATE_CASES]
)
def test_construction_gates_print_first_failing_report(
    tmp_path, capsys, line, failing, load, verify
):
    write_gate_inputs(tmp_path)
    (tmp_path / "out").mkdir()
    argv = [str(tmp_path / w) if w.endswith(".mci") else w for w in line.split()]
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "out" / "built.mci"))
    assert (code, err) == (1, "")
    assert out == verify(load(tmp_path / failing)).render() + "\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("kind,arity,files", [
    ("slice-terminal", 1, ["nosuch1.mci", "nosuch2.mci"]),
    ("product", 2, ["nosuch1.mci"]),
    ("slice-equalizer", 2, ["nosuch1.mci", "nosuch2.mci", "nosuch3.mci"]),
])
def test_limit_arity_error_before_any_read(tmp_path, capsys, kind, arity, files):
    code, out, err = run(capsys, "limit", kind, *(str(tmp_path / f) for f in files))
    assert (code, out) == (2, "")
    assert err == f"ERROR limit {kind} takes {arity} file(s), got {len(files)}\n"


def test_construction_refuses_to_overwrite_differing_companion(tmp_path, capsys):
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "z4.mci").write_text("structure z4\n# not this one\n", encoding="utf-8")
    code, _, err = run(capsys, "to-cat1", str(xm_path), "-o", str(tmp_path / "out" / "up.mci"))
    assert code == 2
    assert err == "ERROR refusing to overwrite z4.mci: existing file differs\n"


@pytest.mark.parametrize("words,what", [
    ("limit slice-terminal z4.mci", "xmod term_z4"),
    ("to-cat1 xm_z2_z4.mci", "cat1 cat1_xm_z2_z4"),
])
def test_construction_refuses_to_overwrite_a_file_it_references(
    tmp_path, monkeypatch, capsys, words, what
):
    """-o onto the base file the output references exits 2 and writes no file."""
    golden = Path(__file__).resolve().parent.parent / "golden"
    for src in golden.glob("*.mci"):
        shutil.copy(src, tmp_path / src.name)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *words.split(), "-o", "z4.mci")
    assert code == 2
    assert err == f"ERROR refusing to overwrite z4.mci: {what} references it\n"
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_golden_commands_cover_every_subcommand_and_kind():
    commands = Path(__file__).resolve().parent.parent / "golden" / "commands.txt"
    lines = [
        ln.split() for ln in commands.read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {words[0] for words in lines} == set(sub.choices)
    for command in ("limit", "check-universal"):
        kind = next(a for a in sub.choices[command]._actions if a.dest == "kind")
        assert {words[1] for words in lines if words[0] == command} == set(kind.choices)


# what each golden construction line writes under out/, by its command
# words; every name carries .mci
OUT_FILES = {
    "semidirect": "sdp_z3_z2",
    "to-cat1": "up big_cat1_xm_z2_z4 z4",
    "to-xmod": "down ker_src_cat1_xm_z2_z4 z4",
    "limit product": "prod_z2_z3",
    "limit pullback": "fib_double_id",
    "limit equalizer": "eq_id_neg",
    "limit slice-terminal": "term_z4 z4",
    "limit slice-initial": "init_z4 z4 z4.sub",
    "limit slice-product": "sp sp_fst sp_snd prod_xm_z2_z4_xm_z2_z4 c1_prod_xm_z2_z4_xm_z2_z4"
    " xm_z2_z4 z2 z4",
    "limit slice-pullback": "spb spb_fst spb_snd pb_xm_z2_z4_xm_terminal_z4"
    " c1_pb_xm_z2_z4_xm_terminal_z4 xm_terminal_z4 xm_z2_z4 z2 z4",
    "limit slice-equalizer": "seq seq_incl eq_same_flip eq0_same_flip eq1_same_flip xm_z2_z4 z2 z4",
    "pullback-xmod": "pbx pbx_proj pb_xm_z2_z4_double c1_pb_xm_z2_z4_double xm_z2_z4 z2 z4",
    "pullback-cat1": "pbc big_pb_cat1_xm_z2_z4_double z2",
}


def test_golden_constructions_write_exactly_their_files(tmp_path, monkeypatch, capsys):
    """Each -o writes the object, its named legs and their companions, and nothing else."""
    golden = Path(__file__).resolve().parent.parent / "golden"
    lines = (golden / "commands.txt").read_text(encoding="utf-8").splitlines()
    constructions = [ln.split() for ln in lines if " -o " in ln and not ln.startswith("#")]
    assert len(constructions) == len(OUT_FILES)
    for words in constructions:
        key = " ".join(words[:2] if words[0] == "limit" else words[:1])
        work = tmp_path / key.replace(" ", "_")
        (work / "out").mkdir(parents=True)
        for src in golden.glob("*.mci"):
            shutil.copy(src, work / src.name)
        monkeypatch.chdir(work)
        assert main(words) == 0, key
        capsys.readouterr()
        written = sorted(f.name for f in (work / "out").iterdir())
        assert written == sorted(f"{name}.mci" for name in OUT_FILES[key].split()), key


def test_non_utf8_input_exits_two(tmp_path, capsys):
    (tmp_path / "bad.mci").write_bytes(b"structure z2\n\xff\n")
    code, out, err = run(capsys, "verify", str(tmp_path / "bad.mci"))
    assert (code, out) == (2, "")
    assert err.startswith("ERROR cannot read ") and err.count("\n") == 1

    # a companion that is not UTF-8 text blocks the save of an -o construction
    xm_path = write_zoo_xmod(tmp_path, "xm_z2_z4")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "z4.mci").write_bytes(b"\xffstructure z4\n")
    code, _, err = run(capsys, "to-cat1", str(xm_path), "-o", str(tmp_path / "out" / "up.mci"))
    assert code == 2
    assert err.startswith("ERROR cannot read ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "up.mci").exists()


def test_golden_commands_read_each_loaded_file_once(tmp_path, monkeypatch, capsys):
    """One io.load memo per command: every file it loads is read once."""
    golden = Path(__file__).resolve().parent.parent / "golden"
    for src in golden.glob("*.mci"):
        shutil.copy(src, tmp_path / src.name)
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    read_text, write_named = io._read_text, io._write_named
    reads: list = []
    saving: list = []

    def counting_read(path):
        if not saving:  # comparing a companion under -o is not a load
            reads.append(Path(path).resolve())
        return read_text(path)

    def flagged_write(path, text):
        saving.append(path)
        try:
            write_named(path, text)
        finally:
            saving.pop()

    monkeypatch.setattr(io, "_read_text", counting_read)
    monkeypatch.setattr(io, "_write_named", flagged_write)
    lines = (golden / "commands.txt").read_text(encoding="utf-8").splitlines()
    for line in (ln for ln in lines if ln.strip() and not ln.startswith("#")):
        reads.clear()
        assert main(shlex.split(line)) == 0, line
        capsys.readouterr()
        assert reads, line
        assert max(Counter(reads).values()) == 1, line


# runs `python -m xmodkit ARGS`, then names every module it loaded on stderr
_RUN_AND_LIST = """
import runpy, sys
try:
    runpy.run_module("xmodkit", run_name="__main__")
finally:
    print(*sorted(sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "command, used, unused",
    [
        (
            "verify z4.mci",
            ("structures",),
            ("morphisms", "actions", "xmod", "cat1", "limits", "pullbacks"),
        ),
        ("check-xmod xm_z2_z4.mci", ("actions", "xmod"), ("cat1", "pullbacks")),
        (
            "limit product z2.mci z3.mci",
            ("limits", "morphisms"),
            ("actions", "xmod", "cat1", "pullbacks"),
        ),
        ("to-cat1 xm_z2_z4.mci", ("actions", "xmod", "cat1"), ("pullbacks",)),
    ],
)
def test_commands_import_only_the_layers_they_run(command, used, unused):
    golden = Path(__file__).resolve().parent.parent / "golden"
    src = Path(xmodkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def child(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=golden, env=env, capture_output=True, text=True
        )

    result = child("-c", _RUN_AND_LIST, *command.split())
    assert result.returncode == 0
    # a check prints its report, a construction its built object
    assert "RESULT PASS" in result.stdout or result.stdout.startswith(("structure ", "cat1 "))
    # modules the interpreter's own start-up loads do not count
    startup = child("-c", "import sys; print(*sys.modules)").stdout.split()
    loaded = set(result.stderr.split()) - set(startup)
    assert {f"xmodkit.{m}" for m in used} <= loaded
    assert sorted(loaded & {f"xmodkit.{m}" for m in unused}) == []
    if command.startswith("verify"):
        assert sorted(loaded & {"dataclasses", "inspect"}) == []
