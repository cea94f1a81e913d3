"""Command line front end.

Two families of subcommands share fixed conventions:

* verification commands (verify, check-*, check-universal, square-check)
  print a report to stdout and exit 0 when every item passed, 1 otherwise;
* construction commands (semidirect, to-cat1, to-xmod, limit, pullback-*)
  first verify their inputs, then print the canonical serialization of the
  built object to stdout and exit 0; with -o the object and any companion
  morphisms are also written as .mci files next to the output path.

Two tables drive them. The kind table (``_kind``) maps each object type
to its verifier, serializer and saver. The construction table
(``_constructions``) maps each construction command, and each ``limit``
kind, to the file kinds of its inputs and its build. One runner,
``_construct``, does load -> gate -> build -> emit for every row;
``verify`` and the ``check-*`` commands take their verifier from the kind
table. ``check-universal`` and ``square-check`` have their own bodies.
Every command loads its files through one ``io.load`` memo, so each file
is read once and every reference to it is one object.

Unreadable or malformed files, size-guard trips, and other structural
problems print an ERROR line to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from .actions import DerivedAction, check_derived_action, semidirect_product
from .cat1 import Cat1Object, cat1_to_xmod, verify_cat1, xmod_to_cat1
from .errors import IncompatibleActionError, XmodkitError
from .io import (
    load,
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
from .limits import direct_product, equalizer, fiber_product
from .morphisms import DEFAULT_MAX_SIZE, UNIVERSAL_MAX_SIZE, morphism_report
from .pullbacks import pullback_cat1, pullback_xmod, square_commutes
from .report import Report
from .structures import Morphism, Structure, verify_structure
from .xmod import (
    CrossedModule,
    XModMorphism,
    slice_initial,
    slice_product,
    slice_pullback,
    slice_terminal,
    verify_universal_cone,
    verify_xmod,
    verify_xmod_morphism,
    xmod_equalizer,
)


class _Kind(NamedTuple):
    verify: Callable[[Any], Report]
    serialize: Callable[[Any], str]
    save: Callable[[Any, Any], None]


# Both tables are built at call time, so a wrapper bound to one of these
# names after import (bench/tracer.py wraps each layer so) is the one used.


def _kind(obj) -> _Kind:
    """The kind table: object type -> (verifier, serializer, saver)."""
    return {
        Structure: _Kind(verify_structure, serialize_structure, save_structure),
        Morphism: _Kind(morphism_report, serialize_morphism, save_morphism),
        DerivedAction: _Kind(check_derived_action, serialize_action, save_action),
        CrossedModule: _Kind(verify_xmod, serialize_xmod, save_xmod),
        XModMorphism: _Kind(verify_xmod_morphism, serialize_xmodmorphism, save_xmodmorphism),
        Cat1Object: _Kind(verify_cat1, serialize_cat1, save_cat1),
    }[type(obj)]


def _with_legs(make: Callable, *suffixes: str) -> Callable:
    """A build from a constructor returning (object, leg, ...).

    The legs named by suffixes, in order, are saved under -o; any further
    results are dropped.
    """

    def build(*inputs):
        obj, *legs = make(*inputs)
        return obj, tuple(zip(suffixes, legs))

    return build


def _constructions() -> dict:
    """The construction table: command line words -> (input kinds, build).

    The inputs load as the named file kinds, in argument order; the build
    returns the object and its (suffix, leg) pairs.
    """
    return {
        "semidirect": (("action",), _with_legs(semidirect_product)),
        "to-cat1": (("xmod",), lambda xm: (xmod_to_cat1(xm), ())),
        "to-xmod": (("cat1",), lambda c: (cat1_to_xmod(c), ())),
        "limit product": (("structure", "structure"), _with_legs(direct_product)),
        "limit pullback": (("morphism", "morphism"), _with_legs(fiber_product)),
        "limit equalizer": (
            ("morphism", "morphism"),
            lambda f, g: (equalizer(f, g).induced, ()),
        ),
        "limit slice-terminal": (("structure",), lambda x: (slice_terminal(x), ())),
        "limit slice-initial": (("structure",), lambda x: (slice_initial(x), ())),
        "limit slice-product": (("xmod", "xmod"), _with_legs(slice_product, "fst", "snd")),
        "limit slice-pullback": (
            ("xmodmorphism", "xmodmorphism"),
            _with_legs(slice_pullback, "fst", "snd"),
        ),
        "limit slice-equalizer": (
            ("xmodmorphism", "xmodmorphism"),
            _with_legs(xmod_equalizer, "incl"),
        ),
        "pullback-xmod": (("xmod", "morphism"), _with_legs(pullback_xmod, "proj")),
        "pullback-cat1": (("cat1", "morphism"), _with_legs(pullback_cat1)),
    }


def _finish(report: Report) -> int:
    print(report.render())
    return 0 if report.ok else 1


def _check(args) -> int:
    obj = load(args.file, args.file_kind)[1]
    return _finish(_kind(obj).verify(obj))


def _construct(args) -> int:
    """Load every input, gate each with its verifier, build, and emit.

    All inputs load before any gate runs; the first failing report in
    argument order is printed and the command exits 1.
    """
    if args.command == "limit":
        key, paths = f"limit {args.kind}", args.files
    else:
        key, paths = args.command, [getattr(args, dest) for dest in args.inputs]
    kinds, build = _constructions()[key]
    if len(paths) != len(kinds):  # only limit takes a variable file count
        raise XmodkitError(f"{key} takes {len(kinds)} file(s), got {len(paths)}")
    loaded: dict = {}
    inputs = [load(path, kind, loaded)[1] for kind, path in zip(kinds, paths)]
    for x in inputs:
        report = _kind(x).verify(x)
        if not report.ok:
            return _finish(report)
    obj, legs = build(*inputs)
    kind = _kind(obj)
    sys.stdout.write(kind.serialize(obj))
    if args.out:
        kind.save(obj, args.out)
        out = Path(args.out)
        for suffix, leg in legs:
            _kind(leg).save(leg, out.with_name(f"{out.stem}_{suffix}{out.suffix}"))
    return 0


def _cmd_check_universal(args) -> int:
    loaded: dict = {}

    def each(kind: str, paths) -> tuple:
        return tuple(load(path, kind, loaded)[1] for path in paths)

    candidate = load(args.candidate, "xmod", loaded)[1]
    legs = each("xmodmorphism", args.legs)
    testers = each("xmod", args.testers)
    parallel = each("xmodmorphism", args.parallel) if args.parallel else None
    return _finish(
        verify_universal_cone(
            args.kind, candidate, legs, testers, parallel, max_size=args.max_size
        )
    )


def _cmd_square_check(args) -> int:
    loaded: dict = {}
    x = load(args.xmod, "xmod", loaded)[1]
    phi = load(args.along, "morphism", loaded)[1]
    return _finish(square_commutes(x, phi, max_size=args.max_size))


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
    kinds = [key.split()[1] for key in _constructions() if key.startswith("limit ")]
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
    except IncompatibleActionError as exc:
        where = f" at ({', '.join(str(w) for w in exc.witness)})" if exc.witness else ""
        print(f"FAIL {exc}{where}")
        return 1
    except (XmodkitError, OSError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
