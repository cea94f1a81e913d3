"""Line-oriented text files for every object kind.

A file holds one object. The first word of the first meaningful line
names the kind: structure, morphism, action, xmod, xmodmorphism, cat1.
Values are element ids, never indices, and compound objects reference
their parts as sibling files (``dom z2.mci``). Blank lines and lines
whose first word starts with ``#`` are skipped everywhere, so no element
id starts with ``#``.

The kind table ``_KINDS`` gives each kind's reference rows; the parser
and serializer heads, the savers and ``load`` read them from it.
``_usable`` is the rule for names and references, read or written, and
a header row is its keyword alone (``_alone``). A row of ids is read in
one lookup (``_ids``), written in one join (``_row``). Every read goes
through ``_read_text`` and every load through ``load``, whose memo reads
each file once per command and shares one object between every
reference to it. Only the structure layer is imported with this module;
the other kinds' parsers and savers import their layer when they run.

Serialization is canonical: single spaces, tables in carrier order, one
trailing newline, only primary star tables for structures (opposites are
transposed on load) but all star tables for actions, where the two
orientations are independent. parse(serialize(x)) rebuilds x and
serialize(parse(text)) reproduces canonical text byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import ParseError, StructuralError
from .profiles import get_profile
from .structures import Morphism, Structure, make_structure, same_structure

if TYPE_CHECKING:  # pragma: no cover
    from .actions import DerivedAction
    from .cat1 import Cat1Object
    from .xmod import CrossedModule, XModMorphism

# kind -> (the kind of the sibling files it references, their keys in file
# order); each key is also the attribute of the object that holds the part
_KINDS = {
    "structure": (None, ()),
    "morphism": ("structure", ("dom", "cod")),
    "action": ("structure", ("actor", "acted")),
    "xmod": ("structure", ("c1", "c0")),
    "xmodmorphism": ("xmod", ("dom", "cod")),
    "cat1": ("structure", ("big", "base")),
}


def _usable(name: str) -> bool:
    """Whether name can stand in a file: one token and a sibling file name."""
    one_token = name.split() == [name]
    return one_token and not name.startswith(".") and "/" not in name and "\\" not in name


def _rows(text: str):
    """(line number, fields) of each meaningful line, skipping blanks and comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield i, fields


class _Cursor:
    """The meaningful rows of a text, split one at a time as they are read;
    one row of lookahead answers ``done`` and ``after_end``."""

    def __init__(self, text: str):
        self.rows = _rows(text)
        self.ahead = next(self.rows, None)
        self.last = 1  # line of the last row read

    def done(self) -> bool:
        return self.ahead is None

    def next(self) -> tuple[int, list[str]]:
        out = self.ahead
        if out is None:
            raise ParseError("unexpected end of file", line=self.last)
        self.last = out[0]
        self.ahead = next(self.rows, None)
        return out

    def take(self, key: str) -> tuple[int, list[str]]:
        line, fields = self.next()
        if fields[0] != key:
            raise ParseError(f"expected {key!r}, found {fields[0]!r}", line=line)
        return line, fields

    def after_end(self) -> None:
        """Reject any row after the 'end' row just read."""
        if not self.done():
            raise ParseError("content after end", line=self.ahead[0])

    def finish(self) -> None:
        _alone(*self.take("end"))
        self.after_end()


def _alone(line: int, fields: list[str]) -> None:
    """A header row (add, map, dot, top, bottom, action, end) is its keyword alone."""
    if len(fields) != 1:
        raise ParseError(f"{fields[0]!r} line needs no values, found {len(fields) - 1}", line=line)


def _ids(idx: dict[str, int], tokens, line: int) -> tuple[int, ...]:
    """The indices of a row of ids, read in one pass; an id idx lacks is an error."""
    try:
        return tuple(map(idx.__getitem__, tokens))
    except KeyError as e:
        raise ParseError(f"unknown element id {e.args[0]!r}", line=line)


def _read_table(c: _Cursor, rows: int, width: int, idx: dict[str, int]):
    out = []
    for _ in range(rows):
        line, fields = c.next()
        if len(fields) != width:
            raise ParseError(f"row needs {width} entries, found {len(fields)}", line=line)
        out.append(_ids(idx, fields, line))
    return tuple(out)


def _ids_after(fields: list[str], skip: int, count: int, idx: dict[str, int], line: int):
    if len(fields) != skip + count:
        raise ParseError(
            f"{fields[0]!r} line needs {count} value(s), found {len(fields) - skip}",
            line=line,
        )
    return _ids(idx, fields[skip:], line)


def _parse_head(c: _Cursor, kind: str, loader=None) -> list:
    """[name, part, ...]: the name row, then each reference row's loader(file name, line)."""
    out: list = []
    for key in (kind, *_KINDS[kind][1]):
        line, fields = c.take(key)
        if len(fields) != 2:
            what = "file name" if out else "name"
            raise ParseError(f"{key!r} line needs exactly one {what}", line=line)
        if not (out or _usable(fields[1])):
            raise ParseError(f"name {fields[1]!r} cannot be used in files", line=line)
        out.append(loader(fields[1], line) if out else fields[1])
    return out


def parse_structure(text: str) -> Structure:
    c = _Cursor(text)
    (name,) = _parse_head(c, "structure")
    line, fields = c.take("profile")
    if len(fields) != 2:
        raise ParseError("'profile' line needs exactly one name", line=line)
    try:
        profile = get_profile(fields[1])
    except StructuralError as e:
        raise ParseError(e.message, line=line)
    line, fields = c.take("elements")
    ids = tuple(fields[1:])
    if not ids:
        raise ParseError("'elements' line needs at least one id", line=line)
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate element id", line=line)
    idx = {e: i for i, e in enumerate(ids)}
    n = len(ids)

    add = neg = None
    star: dict[str, tuple] = {}
    omega: dict[str, tuple] = {}
    while True:
        line, fields = c.next()
        kw = fields[0]
        if kw in ("end", "add"):
            _alone(line, fields)
        if kw == "end":
            break
        if kw == "add":
            if add is not None:
                raise ParseError("duplicate add table", line=line)
            add = _read_table(c, n, n, idx)
        elif kw == "neg":
            if neg is not None:
                raise ParseError("duplicate neg table", line=line)
            neg = _ids_after(fields, 1, n, idx, line)
        elif kw == "table":
            if len(fields) != 2:
                raise ParseError("'table' line needs exactly one symbol", line=line)
            if fields[1] in star:
                raise ParseError(f"duplicate table {fields[1]!r}", line=line)
            star[fields[1]] = _read_table(c, n, n, idx)
        elif kw == "unary":
            if len(fields) < 2:
                raise ParseError("'unary' line needs a symbol", line=line)
            if fields[1] in omega:
                raise ParseError(f"duplicate unary {fields[1]!r}", line=line)
            omega[fields[1]] = _ids_after(fields, 2, n, idx, line)
        else:
            raise ParseError(f"unknown keyword {kw!r}", line=line)
    if add is None:
        raise ParseError("missing add table", line=line)
    if neg is None:
        raise ParseError("missing neg table", line=line)
    c.after_end()
    return make_structure(name, profile, ids, add, neg, star, omega)


def _read_map(c: _Cursor, dom: Structure, cod: Structure) -> tuple[int, ...]:
    """One 'id image' row per domain element, in any order; the id is read
    first, so a repeated id is reported before an unknown image on its row."""
    dom_idx, cod_idx = dom.index_map(), cod.index_map()
    out: list[Optional[int]] = [None] * dom.n
    for _ in range(dom.n):
        line, fields = c.next()
        if len(fields) != 2:
            raise ParseError("map row needs two ids", line=line)
        (i,) = _ids(dom_idx, fields[:1], line)
        if out[i] is not None:
            raise ParseError(f"duplicate map row for {fields[0]!r}", line=line)
        (out[i],) = _ids(cod_idx, fields[1:], line)
    return tuple(out)  # type: ignore[arg-type]


def parse_morphism(text: str, loader) -> Morphism:
    c = _Cursor(text)
    name, dom, cod = _parse_head(c, "morphism", loader)
    _alone(*c.take("map"))
    m = _read_map(c, dom, cod)
    c.finish()
    return Morphism(name, dom, cod, m)


def _read_action(c: _Cursor, actor: Structure, acted: Structure):
    """The dot table, then star blocks up to 'end', of actor acting on acted."""
    idx = acted.index_map()
    _alone(*c.take("dot"))
    dot = _read_table(c, actor.n, acted.n, idx)
    star: dict[str, tuple] = {}
    while True:
        line, fields = c.next()
        if fields[0] == "end":
            _alone(line, fields)
            c.after_end()
            return dot, star
        if fields[0] != "table" or len(fields) != 2:
            raise ParseError(f"expected 'table' or 'end', found {fields[0]!r}", line=line)
        if fields[1] in star:
            raise ParseError(f"duplicate table {fields[1]!r}", line=line)
        star[fields[1]] = _read_table(c, actor.n, acted.n, idx)


def parse_action(text: str, loader) -> DerivedAction:
    from .actions import make_action

    c = _Cursor(text)
    name, actor, acted = _parse_head(c, "action", loader)
    dot, star = _read_action(c, actor, acted)
    return make_action(name, actor, acted, dot, star)


def parse_xmod(text: str, loader) -> CrossedModule:
    from .actions import make_action
    from .xmod import make_xmod

    c = _Cursor(text)
    name, c1, c0 = _parse_head(c, "xmod", loader)
    line, fields = c.take("boundary")
    bmap = _ids_after(fields, 1, c1.n, c0.index_map(), line)
    _alone(*c.take("action"))
    dot, star = _read_action(c, c0, c1)
    act = make_action(f"act_{name}", c0, c1, dot, star)
    return make_xmod(name, Morphism(f"bnd_{name}", c1, c0, bmap), act)


def parse_xmodmorphism(text: str, loader) -> XModMorphism:
    from .xmod import XModMorphism

    c = _Cursor(text)
    name, dom, cod = _parse_head(c, "xmodmorphism", loader)
    _alone(*c.take("top"))
    top = Morphism(f"top_{name}", dom.c1, cod.c1, _read_map(c, dom.c1, cod.c1))
    _alone(*c.take("bottom"))
    bottom = Morphism(f"bottom_{name}", dom.c0, cod.c0, _read_map(c, dom.c0, cod.c0))
    c.finish()
    return XModMorphism(name, dom, cod, top, bottom)


def parse_cat1(text: str, loader) -> Cat1Object:
    from .cat1 import make_cat1

    c = _Cursor(text)
    name, big, base = _parse_head(c, "cat1", loader)
    line, fields = c.take("embed")
    emap = _ids_after(fields, 1, base.n, big.index_map(), line)
    line, fields = c.take("src")
    smap = _ids_after(fields, 1, big.n, base.index_map(), line)
    line, fields = c.take("tgt")
    tmap = _ids_after(fields, 1, big.n, base.index_map(), line)
    c.finish()
    return make_cat1(
        name,
        Morphism(f"embed_{name}", base, big, emap),
        Morphism(f"src_{name}", big, base, smap),
        Morphism(f"tgt_{name}", big, base, tmap),
    )


def _read_text(path: Path) -> str:
    """The one reader of every file: unreadable or non-UTF-8 input is an error."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise StructuralError(f"cannot read {path}: {e}")


def load(path, kind=None, loaded=None):
    """Read and parse the file at path; returns (kind, object).

    With kind None the file's first keyword names its kind. loaded
    memoises by (resolved path, kind), and the sibling files a file
    references load through the same dict, so within one dict each file
    is read and parsed once and every reference to it is one object.
    """
    p = Path(path)
    loaded = {} if loaded is None else loaded
    key = (p.resolve(), kind)
    if key in loaded:
        return loaded[key]
    text = _read_text(p)
    if kind is None:
        first = next(_rows(text), None)
        if first is None:
            raise ParseError("empty file", line=1)
        line, (kind, *_) = first
        if kind not in _KINDS:
            raise ParseError(f"unknown file kind {kind!r}", line=line)
    ref_kind = _KINDS[kind][0]

    def sibling(ref: str, line: int):
        if not _usable(ref):
            raise ParseError(f"reference {ref!r} must be a sibling file name", line=line)
        return load(p.parent / ref, ref_kind, loaded)[1]

    # looked up by name when called, so a wrapper bound later (bench/tracer.py) is used
    parse = globals()[f"parse_{kind}"]
    obj = parse(text) if ref_kind is None else parse(text, sibling)
    loaded[key] = kind, obj
    return kind, obj


def load_any(path):
    """Dispatch on the first keyword; returns (kind, object)."""
    return load(path)


def load_structure(path) -> Structure:
    return load(path, "structure")[1]


def load_morphism(path) -> Morphism:
    return load(path, "morphism")[1]


def load_action(path) -> DerivedAction:
    return load(path, "action")[1]


def load_xmod(path) -> CrossedModule:
    return load(path, "xmod")[1]


def load_xmodmorphism(path) -> XModMorphism:
    return load(path, "xmodmorphism")[1]


def load_cat1(path) -> Cat1Object:
    return load(path, "cat1")[1]


def _token(name: str) -> str:
    """name, once it is known to be usable in files."""
    if not _usable(name):
        raise StructuralError(f"name {name!r} cannot be used in files")
    return name


def _row(s: Structure):
    """The row writer of s: a row of indices -> their ids, joined in one pass."""
    get = list(s.elements).__getitem__  # a plain method; a tuple's is a slower slot wrapper
    return lambda row: " ".join(map(get, row))


def _head(kind: str, obj) -> list[str]:
    """The name row, then one row per sibling file obj references."""
    return [f"{kind} {_token(obj.name)}"] + [
        f"{key} {_token(getattr(obj, key).name)}.mci" for key in _KINDS[kind][1]
    ]


def _text(out: list[str]) -> str:
    """The file text of out's lines, closed by the 'end' row."""
    return "\n".join([*out, "end", ""])


def serialize_structure(s: Structure) -> str:
    row = _row(s)
    out = _head("structure", s) + [f"profile {s.profile.name}", "elements " + " ".join(s.elements)]
    out += ["add", *map(row, s.add), "neg " + row(s.neg)]
    for sym in s.profile.primary_binary_symbols():
        out += [f"table {sym}", *map(row, s.star[sym])]
    for sym in s.profile.unary_symbols():
        out.append(f"unary {sym} " + row(s.omega[sym]))
    return _text(out)


def _map_lines(dom: Structure, cod: Structure, m) -> list[str]:
    return [f"{a} {b}" for a, b in zip(dom.elements, map(list(cod.elements).__getitem__, m))]


def serialize_morphism(m: Morphism) -> str:
    return _text(_head("morphism", m) + ["map"] + _map_lines(m.dom, m.cod, m.map))


def _action_tables(acted: Structure, act: DerivedAction) -> list[str]:
    row = _row(acted)
    out = ["dot", *map(row, act.dot)]
    for sym in act.actor.profile.binary_symbols():
        out += [f"table {sym}", *map(row, act.star_act[sym])]
    return out


def serialize_action(act: DerivedAction) -> str:
    return _text(_head("action", act) + _action_tables(act.acted, act))


def serialize_xmod(xm: CrossedModule) -> str:
    out = _head("xmod", xm) + ["boundary " + _row(xm.c0)(xm.boundary.map), "action"]
    return _text(out + _action_tables(xm.c1, xm.action))


def serialize_xmodmorphism(m: XModMorphism) -> str:
    out = _head("xmodmorphism", m) + ["top", *_map_lines(m.dom.c1, m.cod.c1, m.top.map)]
    return _text(out + ["bottom", *_map_lines(m.dom.c0, m.cod.c0, m.bottom.map)])


def serialize_cat1(c: Cat1Object) -> str:
    return _text([
        *_head("cat1", c),
        "embed " + _row(c.big)(c.embed.map),
        "src " + _row(c.base)(c.src.map),
        "tgt " + _row(c.base)(c.tgt.map),
    ])


def _write_named(path: Path, text: str) -> None:
    """Write a companion file, refusing to clobber different content."""
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    elif _read_text(path) != text:
        raise StructuralError(f"refusing to overwrite {path.name}: existing file differs")


def _write_structures(dirpath: Path, structs) -> None:
    seen: dict[str, Structure] = {}
    for s in structs:
        name = _token(s.name)
        if name in seen:
            if not same_structure(seen[name], s):
                raise StructuralError(f"two different structures share the name {name!r}")
            continue
        seen[name] = s
        _write_named(dirpath / f"{name}.mci", serialize_structure(s))


def _save(kind: str, obj, path) -> None:
    """Write the files obj references next to path, structures first, then obj's file."""
    p = Path(path)
    ref_kind, keys = _KINDS[kind]
    parts = [getattr(obj, key) for key in keys]
    if ref_kind == "xmod":
        from .xmod import _same_object

        dom, cod = parts
        if dom.name == cod.name and not _same_object(dom, cod):
            raise StructuralError(f"two different modules share the name {dom.name!r}")
        structs = [getattr(xm, key) for xm in parts for key in _KINDS["xmod"][1]]
        _write_structures(p.parent, structs)
        for xm in parts:
            _write_named(p.parent / f"{xm.name}.mci", serialize_xmod(xm))
    else:
        _write_structures(p.parent, parts)
    p.write_text(globals()[f"serialize_{kind}"](obj), encoding="utf-8")  # by name, as in load


def save_structure(s: Structure, path) -> None:
    _save("structure", s, path)


def save_morphism(m: Morphism, path) -> None:
    _save("morphism", m, path)


def save_action(act: DerivedAction, path) -> None:
    _save("action", act, path)


def save_xmod(xm: CrossedModule, path) -> None:
    _save("xmod", xm, path)


def save_xmodmorphism(m: XModMorphism, path) -> None:
    _save("xmodmorphism", m, path)


def save_cat1(c: Cat1Object, path) -> None:
    _save("cat1", c, path)
