"""Corpus of one-row file mutations and what loading each mutant gives.

Small golden files of every kind are copied, with the sibling files they
reference, into a scratch directory. Each meaningful row of each input is
mutated in turn (deleted, duplicated, its last token replaced by an id no
file uses, its last token dropped, a token appended, cut to its keyword,
the file truncated before it, and a header row's whole block deleted or
duplicated), and ``io.load`` of the mutant is recorded on one line: the
exception class, message and line, or ``OK``. The corpus pins every
``ParseError`` message of ``io.py``, its line number and the order in
which the checks fire. ``tests/data/parse_errors.txt`` holds the output;
regenerate it with

    PYTHONPATH=src python tests/parse_corpus.py > tests/data/parse_errors.txt

only when a parse error is meant to change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from xmodkit import io

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

INPUTS = (
    "z4.mci",
    "f2x.mci",
    "double.mci",
    "inv_z2_z3.mci",
    "xm_z2_z4.mci",
    "xm_ideal_f2x.mci",
    "collapse.mci",
    "cat1_xm_z2_z4.mci",
)

# replaces a row's last token: no element, profile or file has this name,
# and it cannot name a sibling file
UNKNOWN = "./?"

# first tokens of the rows that open a file, a reference or a block
KEYWORDS = frozenset(
    "structure profile elements add neg table unary end morphism dom cod map "
    "action actor acted dot xmod c1 c0 boundary xmodmorphism top bottom cat1 "
    "big base embed src tgt".split()
)


def _mutants(lines: list[str]):
    """(line number, mutation, mutated lines) for each meaningful row."""
    rows = [i for i, raw in enumerate(lines) if raw.split() and not raw.lstrip().startswith("#")]
    for k, i in enumerate(rows):
        fields = lines[i].split()
        before, after = lines[:i], lines[i + 1:]
        yield i + 1, "delete", before + after
        yield i + 1, "duplicate", before + [lines[i]] * 2 + after
        yield i + 1, "unknown-last", before + [" ".join(fields[:-1] + [UNKNOWN])] + after
        yield i + 1, "drop-last", before + [" ".join(fields[:-1])] + after
        yield i + 1, "append", before + [" ".join(fields + fields[-1:])] + after
        if len(fields) > 1:
            yield i + 1, "keyword-only", before + [fields[0]] + after
        yield i + 1, "truncate", before
        end = next((j for j in rows[k + 1:] if lines[j].split()[0] in KEYWORDS), len(lines))
        if fields[0] in KEYWORDS and end > i + 1:
            block = lines[i:end]
            yield i + 1, "delete-block", before + lines[end:]
            yield i + 1, "duplicate-block", before + block + block + lines[end:]


def _outcome(path: Path, workdir: Path) -> str:
    try:
        io.load(path)
    except Exception as e:  # every outcome is recorded, expected or not
        return f"{type(e).__name__}: {e}".replace(str(workdir), "DIR")
    return "OK"


def render_corpus(workdir: Path) -> str:
    """The corpus text; workdir is an empty scratch directory."""
    for f in GOLDEN.glob("*.mci"):
        shutil.copy(f, workdir / f.name)
    mutant = workdir / "mutant.mci"
    out = []
    for name in INPUTS:
        lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
        for line, mutation, mutated in _mutants(lines):
            mutant.write_text("".join(f"{raw}\n" for raw in mutated), encoding="utf-8")
            out.append(f"{name} {line} {mutation}: {_outcome(mutant, workdir)}\n")
    return "".join(out)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(render_corpus(Path(tmp)))
