"""The compiled law engine against its independent oracles.

* The rendered reports of a seeded corpus of single-entry perturbations
  are pinned byte for byte (``tests/data/fail_reports.txt``).
* The engine's first witness and both sides agree with a brute-force
  scan through the ``eval_term`` interpreter on every builtin profile.
* With ``eval_term`` made to raise, every verifier and search still runs,
  and each search returns exactly what its report function accepts.
* Every golden command survives inputs with one table or map entry
  mutated: exit 0, 1 or 2 and no exception.
"""

import itertools
import os
import random
import shlex
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import xmodkit.terms
from fail_corpus import (
    perturb_structure,
    render_corpus,
    zoo_cat1s,
    zoo_structures,
)
from xmodkit.cat1 import (
    Cat1Morphism,
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    verify_cat1_morphism,
    xmod_to_cat1,
)
from xmodkit.cli import main as cli_main
from xmodkit.morphisms import (
    enumerate_morphisms,
    find_isomorphism,
    identity_morphism,
    morphism_report,
)
from xmodkit.profiles import builtin_profiles, get_profile
from xmodkit.pullbacks import square_commutes
from xmodkit.structures import Morphism, make_structure, structure_laws, verify_structure
from xmodkit.terms import eval_term
from xmodkit.xmod import (
    XModMorphism,
    enumerate_slice_morphisms,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    slice_terminal,
    verify_universal_cone,
    verify_xmod_morphism,
)
from xmodkit.zoo import (
    make_cyclic,
    make_dialgebra,
    make_leibniz2,
    make_lie2,
    make_standard_xmods,
    make_truncated_poly,
)

HERE = Path(__file__).parent
GOLDEN = HERE.parent / "golden"


def test_fail_report_corpus_is_byte_identical():
    assert render_corpus() == (HERE / "data" / "fail_reports.txt").read_text()


# ---------------------------------------------------------------------------
# engine against the interpreter


def line_algebra(profile_name, p):
    """F_p with every star product zero: one small object per scalar profile."""
    profile = get_profile(profile_name)
    add = tuple(tuple((i + j) % p for j in range(p)) for i in range(p))
    zero = tuple((0,) * p for _ in range(p))
    star = {s: zero for s in profile.binary_symbols()}
    omega = {f"s{k}": tuple(k * i % p for i in range(p)) for k in range(p)}
    neg = tuple(-i % p for i in range(p))
    return make_structure(f"line{p}", profile, [str(i) for i in range(p)], add, neg, star, omega)


def profile_examples(name):
    """Small structures of one builtin profile (at most 9 elements)."""
    zoo = [s for s in zoo_structures() if s.profile.name == name]
    extra = {
        "comm-algebra-f5": [make_truncated_poly(5, 1)],
        "lie-f3": [make_lie2(3), line_algebra("lie-f3", 3)],
        "lie-f5": [line_algebra("lie-f5", 5)],
        "leibniz-f2": [make_leibniz2(2)],
        "leibniz-f3": [make_leibniz2(3)],
        "dialgebra-f2": [make_dialgebra(2)],
    }
    return zoo + [s for s in extra.get(name, []) if s.name not in {z.name for z in zoo}]


def interpreted_items(s):
    """Report lines of verify_structure, recomputed by brute force with eval_term."""
    lines = ["PASS add-zero-exists"]
    for law in structure_laws(s.profile):
        names = law.variables()
        line = f"PASS {law.name}"
        for combo in itertools.product(range(s.n), repeat=len(names)):
            env = dict(zip(names, combo))
            lhs, rhs = eval_term(law.lhs, s, env), eval_term(law.rhs, s, env)
            if lhs != rhs:
                ids = ", ".join(s.elements[i] for i in combo)
                line = f"FAIL {law.name} at ({ids}): lhs={s.elements[lhs]} rhs={s.elements[rhs]}"
                break
        lines.append(line)
    return lines


@pytest.mark.parametrize("profile", sorted(builtin_profiles()))
def test_engine_matches_interpreter(profile):
    examples = profile_examples(profile)
    assert examples, profile

    @seed(1805)
    @settings(max_examples=6, deadline=None, database=None)
    @given(st.data())
    def run(data):
        s = data.draw(st.sampled_from(examples))
        if data.draw(st.booleans()):
            _, s = perturb_structure(s, random.Random(data.draw(st.integers(0, 2**16))))
        if s.zero is None:
            return
        assert verify_structure(s).lines() == interpreted_items(s)

    for s in examples:
        assert verify_structure(s).lines() == interpreted_items(s)
    run()


# ---------------------------------------------------------------------------
# the interpreter stays an oracle


@pytest.fixture
def no_interpreter(monkeypatch):
    """Make every module binding of eval_term raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("eval_term called outside the oracle")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("xmodkit") and getattr(mod, "eval_term", None):
            monkeypatch.setattr(mod, "eval_term", refuse)
    assert xmodkit.terms.eval_term is refuse


def test_verifiers_and_searches_run_without_the_interpreter(no_interpreter):
    # the corpus runs every report function on PASS and FAIL inputs
    assert render_corpus() == (HERE / "data" / "fail_reports.txt").read_text()
    zoo = make_standard_xmods()
    x = zoo["xm_ideal_f2x"]
    assert find_isomorphism(x.c0, x.c0) is not None
    assert find_xmod_isomorphism(x, x) is not None
    c = xmod_to_cat1(x)
    assert find_cat1_isomorphism(c, c) is not None
    assert square_commutes(x, identity_morphism(x.c0)).ok
    term = slice_terminal(x.c0)
    assert verify_universal_cone("terminal", term, testers=[x]).ok


def _all_maps(a, b):
    for images in itertools.product(range(b.n), repeat=a.n):
        yield Morphism("m", a, b, images)


def _bijective(table, n):
    return len(table) == n == len(set(table))


def test_morphism_search_equals_report_filter(no_interpreter):
    small = [s for s in zoo_structures() + [make_cyclic(3)] if s.n <= 4]
    pairs = [(a, b) for a in small for b in small if a.profile.name == b.profile.name]
    assert len(pairs) == 13
    isos = 0
    for a, b in pairs:
        brute = [m.map for m in _all_maps(a, b) if morphism_report(m).ok]
        assert [m.map for m in enumerate_morphisms(a, b)] == brute, (a.name, b.name)
        # the isomorphism search walks its own candidate order, not the sorted one
        bijections = [m for m in brute if _bijective(m, b.n)]
        iso = find_isomorphism(a, b)
        assert (iso is None) == (not bijections), (a.name, b.name)
        if iso is not None:
            assert iso.map in bijections
            isos += 1
    assert 0 < isos < len(pairs)


def test_xmod_search_equals_report_filter(no_interpreter):
    zoo = [x for x in make_standard_xmods().values() if x.c1.n * x.c0.n <= 36]
    checked = isos = 0
    for d, c in itertools.product(zoo, repeat=2):
        if d.c0.profile.name != c.c0.profile.name:
            continue
        tops = enumerate_morphisms(d.c1, c.c1)
        bottoms = enumerate_morphisms(d.c0, c.c0)
        brute = [
            (t.map, b.map)
            for b in bottoms
            for t in tops
            if verify_xmod_morphism(XModMorphism("m", d, c, t, b)).ok
        ]
        found = [(m.top.map, m.bottom.map) for m in enumerate_xmod_morphisms(d, c)]
        assert found == brute, (d.name, c.name)
        first = next(
            (p for p in brute if _bijective(p[0], c.c1.n) and _bijective(p[1], c.c0.n)), None
        )
        iso = find_xmod_isomorphism(d, c)
        got = None if iso is None else (iso.top.map, iso.bottom.map)
        assert got == first, (d.name, c.name)
        isos += first is not None
        ident = tuple(range(d.c0.n))
        if d.c0 is c.c0 or d.c0 == c.c0:
            slices = [(m.top.map, m.bottom.map) for m in enumerate_slice_morphisms(d, c)]
            assert slices == [pair for pair in brute if pair[1] == ident]
        checked += 1
    assert checked >= 10
    assert 0 < isos < checked


def test_cat1_search_equals_report_filter(no_interpreter):
    cats = [c for c in zoo_cat1s() if c.big.n <= 12]
    checked = isos = 0
    for d, c in itertools.product(cats, repeat=2):
        if d.big.profile.name != c.big.profile.name:
            continue
        bigs = enumerate_morphisms(d.big, c.big)
        bases = enumerate_morphisms(d.base, c.base)
        brute = [
            (phi.map, psi.map)
            for phi in bigs
            for psi in bases
            if verify_cat1_morphism(Cat1Morphism("m", d, c, phi, psi)).ok
        ]
        found = [(m.big_map.map, m.base_map.map) for m in enumerate_cat1_morphisms(d, c)]
        assert found == brute, (d.name, c.name)
        first = next(
            (p for p in brute if _bijective(p[0], c.big.n) and _bijective(p[1], c.base.n)), None
        )
        iso = find_cat1_isomorphism(d, c)
        got = None if iso is None else (iso.big_map.map, iso.base_map.map)
        assert got == first, (d.name, c.name)
        isos += first is not None
        checked += 1
    assert checked >= 5
    assert 0 < isos < checked


# ---------------------------------------------------------------------------
# CLI mutation fuzz


# leading tokens that are not entries, for lines that start with a keyword
LEAD = {"neg": 1, "boundary": 1, "src": 1, "tgt": 1, "embed": 1, "unary": 2}
HEADERS = {
    "structure", "profile", "elements", "morphism", "dom", "cod", "xmod", "c1", "c0",
    "action", "actor", "acted", "cat1", "big", "base", "xmodmorphism", "top", "bottom",
    "map", "add", "dot", "table", "end",
}


def _entries(lines):
    """(line, token) positions of table and map entries in a .mci file."""
    out = []
    for k, line in enumerate(lines):
        toks = line.split()
        if not toks or toks[0] in HEADERS:
            continue
        out += [(k, j) for j in range(LEAD.get(toks[0], 0), len(toks))]
    return out


def _commands():
    script = [ln.strip() for ln in (GOLDEN / "commands.txt").read_text().splitlines()]
    return [ln for ln in script if ln and not ln.startswith("#")]


@seed(1805)
@settings(max_examples=12, deadline=None, database=None)
@given(st.data())
def test_cli_survives_one_mutated_entry(data):
    files = sorted(p.name for p in GOLDEN.glob("*.mci"))
    name = data.draw(st.sampled_from(files))
    lines = (GOLDEN / name).read_text().splitlines()
    k, j = data.draw(st.sampled_from(_entries(lines)))
    toks = lines[k].split()
    others = sorted({t for t in toks if t != toks[j]}) or sorted(
        {lines[a].split()[b] for a, b in _entries(lines)} - {toks[j]}
    )
    if not others:
        return
    toks[j] = data.draw(st.sampled_from(others))
    lines[k] = " ".join(toks)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for src in GOLDEN.glob("*.mci"):
            shutil.copy(src, work / src.name)
        (work / name).write_text("\n".join(lines) + "\n")
        (work / "out").mkdir()
        here = Path.cwd()
        try:
            os.chdir(work)
            for line in _commands():
                with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                    code = cli_main(shlex.split(line))
                assert code in (0, 1, 2), (name, lines[k], line, code)
        finally:
            os.chdir(here)
