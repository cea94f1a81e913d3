"""Command line front end.

Two families of subcommands share fixed conventions:

* verification commands (verify, check-*, check-universal, square-check)
  print a report to stdout and exit 0 when every item passed, 1 otherwise;
* construction commands (semidirect, to-cat1, to-xmod, limit, pullback-*)
  first verify their inputs, then print the canonical serialization of the
  built object to stdout and exit 0; with -o the object and any companion
  morphisms are also written as .mci files next to the output path.

Two tables of strings drive them. The kind table (``_KINDS``) maps each
object type to its verifier and its io kind, read by ``_verify`` and
``_io`` (``io.serialize_<kind>``, ``io.save_<kind>``). The construction
table (``_CONSTRUCTIONS``) maps each construction command, and each
``limit`` kind, to the file kinds of its inputs, its build and the
suffixes of the legs it saves. One runner, ``_construct``, does
load -> gate -> build -> emit for every row; ``verify`` and the
``check-*`` commands take their verifier from the kind table.
``check-universal`` and ``square-check`` have their own bodies. Every
command loads its files through one ``io.load`` memo, so each file is
read once and every reference to it is one object.

Importing this module loads only ``io`` and the structure layer below
it; the size guards that are the parser's defaults live in ``errors``.
Both tables name their layer functions as ``"layer.function"`` and
import the layer when a command calls it, as ``io`` does for the parsers
and savers of the other kinds: ``verify`` of a structure file loads no
morphisms, actions, xmod, cat1, limits or pullbacks code, and
``check-xmod`` loads no cat1 or pullbacks code.

Unreadable or malformed files, size-guard trips, and other structural
problems print an ERROR line to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import io
from .errors import DEFAULT_MAX_SIZE, UNIVERSAL_MAX_SIZE, XmodkitError
from .report import Report
from .structures import Subobject


def _fn(path: str) -> Callable:
    """The function named by "layer.function", its layer imported now.

    Both tables name their functions so and resolve them at call time:
    a command imports only the layers it runs, and a wrapper bound to a
    layer function after import (bench/tracer.py wraps each layer so) is
    the one used.
    """
    layer, name = path.split(".")
    return getattr(importlib.import_module(f".{layer}", __package__), name)


# object type name -> (its verifier, its io kind: serialize_<kind>, save_<kind>)
_KINDS = {
    "Structure": ("structures.verify_structure", "structure"),
    "Morphism": ("morphisms.morphism_report", "morphism"),
    "DerivedAction": ("actions.check_derived_action", "action"),
    "CrossedModule": ("xmod.verify_xmod", "xmod"),
    "XModMorphism": ("xmod.verify_xmod_morphism", "xmodmorphism"),
    "Cat1Object": ("cat1.verify_cat1", "cat1"),
}


def _verify(obj) -> Report:
    """obj's report from its kind's verifier."""
    return _fn(_KINDS[type(obj).__name__][0])(obj)


def _io(verb: str, obj) -> Callable:
    """io.serialize_<kind> or io.save_<kind> (verb) for obj's kind."""
    return getattr(io, f"{verb}_{_KINDS[type(obj).__name__][1]}")


# command line words -> (input file kinds in argument order, the build,
# suffixes of the legs saved under -o)
_CONSTRUCTIONS = {
    "semidirect": (("action",), "actions.semidirect_product", ()),
    "to-cat1": (("xmod",), "cat1.xmod_to_cat1", ()),
    "to-xmod": (("cat1",), "cat1.cat1_to_xmod", ()),
    "limit product": (("structure", "structure"), "limits.direct_product", ()),
    "limit pullback": (("morphism", "morphism"), "limits.fiber_product", ()),
    "limit equalizer": (("morphism", "morphism"), "limits.equalizer", ()),
    "limit slice-terminal": (("structure",), "xmod.slice_terminal", ()),
    "limit slice-initial": (("structure",), "xmod.slice_initial", ()),
    "limit slice-product": (("xmod", "xmod"), "xmod.slice_product", ("fst", "snd")),
    "limit slice-pullback": (
        ("xmodmorphism", "xmodmorphism"), "xmod.slice_pullback", ("fst", "snd")
    ),
    "limit slice-equalizer": (("xmodmorphism", "xmodmorphism"), "xmod.xmod_equalizer", ("incl",)),
    "pullback-xmod": (("xmod", "morphism"), "pullbacks.pullback_xmod", ("proj",)),
    "pullback-cat1": (("cat1", "morphism"), "pullbacks.pullback_cat1", ()),
}


def _finish(report: Report) -> int:
    print(report.render())
    return 0 if report.ok else 1


def _check(args) -> int:
    return _finish(_verify(io.load(args.file, args.file_kind)[1]))


def _construct(args) -> int:
    """Load every input, gate each with its verifier, build, and emit.

    All inputs load before any gate runs; the first failing report in
    argument order is printed and the command exits 1. A build returns
    the object, or a tuple of the object and its legs; legs past the
    row's suffixes are not saved, and a subobject emits its carrier.
    """
    if args.command == "limit":
        key, paths = f"limit {args.kind}", args.files
    else:
        key, paths = args.command, [getattr(args, dest) for dest in args.inputs]
    kinds, build, suffixes = _CONSTRUCTIONS[key]
    if len(paths) != len(kinds):  # only limit takes a variable file count
        raise XmodkitError(f"{key} takes {len(kinds)} file(s), got {len(paths)}")
    loaded: dict = {}
    inputs = [io.load(path, kind, loaded)[1] for kind, path in zip(kinds, paths)]
    for x in inputs:
        report = _verify(x)
        if not report.ok:
            return _finish(report)
    obj = _fn(build)(*inputs)
    obj, *legs = obj if isinstance(obj, tuple) else (obj,)
    if isinstance(obj, Subobject):
        obj = obj.induced
    sys.stdout.write(_io("serialize", obj)(obj))
    if args.out:
        _io("save", obj)(obj, args.out)
        out = Path(args.out)
        for suffix, leg in zip(suffixes, legs):
            _io("save", leg)(leg, out.with_name(f"{out.stem}_{suffix}{out.suffix}"))
    return 0


def _cmd_check_universal(args) -> int:
    loaded: dict = {}

    def each(kind: str, paths) -> tuple:
        return tuple([io.load(path, kind, loaded)[1] for path in paths])

    candidate = io.load(args.candidate, "xmod", loaded)[1]
    legs = each("xmodmorphism", args.legs)
    testers = each("xmod", args.testers)
    parallel = each("xmodmorphism", args.parallel) if args.parallel else None
    return _finish(
        _fn("xmod.verify_universal_cone")(
            args.kind, candidate, legs, testers, parallel, max_size=args.max_size
        )
    )


def _cmd_square_check(args) -> int:
    loaded: dict = {}
    x = io.load(args.xmod, "xmod", loaded)[1]
    phi = io.load(args.along, "morphism", loaded)[1]
    return _finish(_fn("pullbacks.square_commutes")(x, phi, max_size=args.max_size))


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodkit",
        description=(
            "Verify and build finite groups-with-operations, derived actions, "
            "crossed modules, and split objects stored as .mci files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def check(name: str, kind: str | None, help_text: str):
        """A check of one file; kind None takes it from the file's first keyword."""
        p = add(name, _check, help_text)
        p.add_argument("file")
        p.set_defaults(file_kind=kind)

    def construct(name: str, help_text: str, *inputs: str):
        """A construction command: its inputs in argument order, then -o."""
        p = add(name, _construct, help_text)
        for arg in inputs:
            if arg.startswith("--"):
                p.add_argument(arg, required=True)
            else:
                p.add_argument(arg)
        p.add_argument("-o", "--out")
        p.set_defaults(inputs=[arg.lstrip("-") for arg in inputs])

    check("verify", None, "verify any .mci file according to its kind")
    check("check-action", "action", "check the derived action conditions")
    check("check-xmod", "xmod", "check the crossed module laws")
    check("check-cat1", "cat1", "check the split object laws")

    construct("semidirect", "build the semidirect product of an action", "file")
    construct("to-cat1", "translate a crossed module to a split object", "file")
    construct("to-xmod", "translate a split object to a crossed module", "file")

    p = add("limit", _construct, "build a limit of structures or crossed modules")
    kinds = [key.split()[1] for key in _CONSTRUCTIONS if key.startswith("limit ")]
    p.add_argument("kind", choices=sorted(kinds))
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--out")

    construct(
        "pullback-xmod", "pull a crossed module back along a base morphism", "--xmod", "--along"
    )
    construct(
        "pullback-cat1", "pull a split object back along a base morphism", "--cat1", "--along"
    )

    p = add(
        "check-universal",
        _cmd_check_universal,
        "count mediating morphisms into a candidate limit",
    )
    p.add_argument("kind", choices=["terminal", "initial", "product", "pullback", "equalizer"])
    p.add_argument("candidate")
    p.add_argument("--legs", nargs="*", default=[])
    p.add_argument("--parallel", nargs=2, default=None)
    p.add_argument("--testers", nargs="*", default=[])
    p.add_argument("--max-size", type=int, default=UNIVERSAL_MAX_SIZE)

    p = add(
        "square-check",
        _cmd_square_check,
        "compare pulling back before and after translating to a split object",
    )
    p.add_argument("--xmod", required=True)
    p.add_argument("--along", required=True)
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (XmodkitError, OSError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
