"""Line-oriented text files for every object kind.

A file holds one object. The first word of the first meaningful line
names the kind: structure, morphism, action, xmod, xmodmorphism, cat1.
Values are element ids, never indices, and compound objects reference
their parts as sibling files (``dom z2.mci``). Blank lines and lines
starting with ``#`` are skipped outside counted table rows.

All reads go through ``_read_text`` (non-UTF-8 input is an error) and
all loads through ``load``, whose memo lets a command read each file
once and share one object between every reference to it.

Only the structure layer is imported with this module. The parsers and
savers of the other kinds import the layer they use (actions, xmod,
cat1, limits) when they run, so reading a structure file loads none of
those.

Serialization is canonical: single spaces, tables in carrier order, one
trailing newline, only primary star tables for structures (opposites are
transposed on load) but all star tables for actions, where the two
orientations are independent. parse(serialize(x)) rebuilds x and
serialize(parse(text)) reproduces canonical text byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from .errors import ParseError, StructuralError
from .profiles import get_profile
from .structures import Morphism, Structure, make_structure

if TYPE_CHECKING:  # pragma: no cover
    from .actions import DerivedAction
    from .cat1 import Cat1Object
    from .xmod import CrossedModule, XModMorphism


def _rows(text: str):
    """(line number, fields) of each meaningful line, skipping blanks and comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield i, fields


class _Cursor:
    def __init__(self, text: str):
        self.rows: list[tuple[int, list[str]]] = list(_rows(text))
        self.k = 0

    def done(self) -> bool:
        return self.k >= len(self.rows)

    def next(self) -> tuple[int, list[str]]:
        if self.done():
            last = self.rows[-1][0] if self.rows else 1
            raise ParseError("unexpected end of file", line=last)
        out = self.rows[self.k]
        self.k += 1
        return out

    def take(self, key: str) -> tuple[int, list[str]]:
        line, fields = self.next()
        if fields[0] != key:
            raise ParseError(f"expected {key!r}, found {fields[0]!r}", line=line)
        return line, fields

    def after_end(self) -> None:
        """Reject any row after the 'end' row just read."""
        if not self.done():
            raise ParseError("content after end", line=self.rows[self.k][0])

    def finish(self) -> None:
        self.take("end")
        self.after_end()


def _lookup(idx: dict[str, int], token: str, line: int) -> int:
    try:
        return idx[token]
    except KeyError:
        raise ParseError(f"unknown element id {token!r}", line=line)


def _read_row(c: _Cursor, width: int, idx: dict[str, int]) -> tuple[int, ...]:
    line, fields = c.next()
    if len(fields) != width:
        raise ParseError(f"row needs {width} entries, found {len(fields)}", line=line)
    return tuple([_lookup(idx, t, line) for t in fields])


def _read_table(c: _Cursor, rows: int, width: int, idx: dict[str, int]):
    return tuple([_read_row(c, width, idx) for _ in range(rows)])


def _ids_after(fields: list[str], skip: int, count: int, idx: dict[str, int], line: int):
    if len(fields) != skip + count:
        raise ParseError(
            f"{fields[0]!r} line needs {count} value(s), found {len(fields) - skip}",
            line=line,
        )
    return tuple([_lookup(idx, t, line) for t in fields[skip:]])


def parse_structure(text: str) -> Structure:
    c = _Cursor(text)
    name = _take_name(c, "structure")
    line, profile_name = _take_one(c, "profile")
    try:
        profile = get_profile(profile_name)
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


def _take_one(c: _Cursor, key: str, what: str = "name") -> tuple[int, str]:
    """The line number and single value of the next row, keyed key."""
    line, fields = c.take(key)
    if len(fields) != 2:
        raise ParseError(f"{key!r} line needs exactly one {what}", line=line)
    return line, fields[1]


def _take_name(c: _Cursor, kind: str) -> str:
    return _take_one(c, kind)[1]


def _take_ref(c: _Cursor, key: str, loader: Callable[[str, int], object]):
    line, ref = _take_one(c, key, "file name")
    return loader(ref, line)


def _read_map(c: _Cursor, dom_ids, cod_idx: dict[str, int]) -> tuple[int, ...]:
    dom_idx = {e: i for i, e in enumerate(dom_ids)}
    out: list[Optional[int]] = [None] * len(dom_ids)
    for _ in dom_ids:
        line, fields = c.next()
        if len(fields) != 2:
            raise ParseError("map row needs two ids", line=line)
        i = _lookup(dom_idx, fields[0], line)
        if out[i] is not None:
            raise ParseError(f"duplicate map row for {fields[0]!r}", line=line)
        out[i] = _lookup(cod_idx, fields[1], line)
    return tuple(out)  # type: ignore[arg-type]


def parse_morphism(text: str, loader) -> Morphism:
    c = _Cursor(text)
    name = _take_name(c, "morphism")
    dom = _take_ref(c, "dom", loader)
    cod = _take_ref(c, "cod", loader)
    c.take("map")
    m = _read_map(c, dom.elements, cod.index_map())
    c.finish()
    return Morphism(name, dom, cod, m)


def _read_action(c: _Cursor, actor: Structure, acted: Structure):
    """The dot table, then star blocks up to 'end', of actor acting on acted."""
    idx = acted.index_map()
    c.take("dot")
    dot = _read_table(c, actor.n, acted.n, idx)
    star: dict[str, tuple] = {}
    while True:
        line, fields = c.next()
        if fields[0] == "end":
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
    name = _take_name(c, "action")
    actor = _take_ref(c, "actor", loader)
    acted = _take_ref(c, "acted", loader)
    dot, star = _read_action(c, actor, acted)
    return make_action(name, actor, acted, dot, star)


def parse_xmod(text: str, loader) -> CrossedModule:
    from .actions import make_action
    from .xmod import make_xmod

    c = _Cursor(text)
    name = _take_name(c, "xmod")
    c1 = _take_ref(c, "c1", loader)
    c0 = _take_ref(c, "c0", loader)
    line, fields = c.take("boundary")
    bmap = _ids_after(fields, 1, c1.n, c0.index_map(), line)
    c.take("action")
    dot, star = _read_action(c, c0, c1)
    act = make_action(f"act_{name}", c0, c1, dot, star)
    return make_xmod(name, Morphism(f"bnd_{name}", c1, c0, bmap), act)


def parse_xmodmorphism(text: str, loader) -> XModMorphism:
    from .xmod import XModMorphism

    c = _Cursor(text)
    name = _take_name(c, "xmodmorphism")
    dom = _take_ref(c, "dom", loader)
    cod = _take_ref(c, "cod", loader)
    c.take("top")
    top = _read_map(c, dom.c1.elements, cod.c1.index_map())
    c.take("bottom")
    bottom = _read_map(c, dom.c0.elements, cod.c0.index_map())
    c.finish()
    return XModMorphism(
        name,
        dom,
        cod,
        Morphism(f"top_{name}", dom.c1, cod.c1, top),
        Morphism(f"bottom_{name}", dom.c0, cod.c0, bottom),
    )


def parse_cat1(text: str, loader) -> Cat1Object:
    from .cat1 import make_cat1

    c = _Cursor(text)
    name = _take_name(c, "cat1")
    big = _take_ref(c, "big", loader)
    base = _take_ref(c, "base", loader)
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


_PARSERS = {
    "structure": parse_structure,
    "morphism": parse_morphism,
    "action": parse_action,
    "xmod": parse_xmod,
    "xmodmorphism": parse_xmodmorphism,
    "cat1": parse_cat1,
}


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
        if kind not in _PARSERS:
            raise ParseError(f"unknown file kind {kind!r}", line=line)
    # an xmodmorphism references crossed modules, every other kind structures
    ref_kind = "xmod" if kind == "xmodmorphism" else "structure"

    def sibling(ref: str, line: int):
        if "/" in ref or "\\" in ref or ref.startswith("."):
            raise ParseError(f"reference {ref!r} must be a sibling file name", line=line)
        return load(p.parent / ref, ref_kind, loaded)[1]

    obj = parse_structure(text) if kind == "structure" else _PARSERS[kind](text, sibling)
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


def _check_token(name: str) -> None:
    bad = not name or "/" in name or "\\" in name or name.startswith(".")
    if bad or any(ch.isspace() for ch in name):
        raise StructuralError(f"name {name!r} cannot be used in files")


def _ref(s) -> str:
    _check_token(s.name)
    return f"{s.name}.mci"


def _ids(s: Structure, row) -> str:
    return " ".join(s.elements[v] for v in row)


def _table_lines(s: Structure, table) -> list[str]:
    return [_ids(s, row) for row in table]


def _head(kind: str, obj, **refs) -> list[str]:
    """The name row, then one row per sibling file obj references."""
    _check_token(obj.name)
    return [f"{kind} {obj.name}"] + [f"{key} {_ref(part)}" for key, part in refs.items()]


def _text(out: list[str]) -> str:
    """The file text of out's lines, closed by the 'end' row."""
    return "\n".join(out + ["end"]) + "\n"


def serialize_structure(s: Structure) -> str:
    _check_token(s.name)
    out = [
        f"structure {s.name}",
        f"profile {s.profile.name}",
        "elements " + " ".join(s.elements),
        "add",
    ]
    out += _table_lines(s, s.add)
    out.append("neg " + _ids(s, s.neg))
    for sym in s.profile.primary_binary_symbols():
        out += [f"table {sym}"] + _table_lines(s, s.star[sym])
    for sym in s.profile.unary_symbols():
        out.append(f"unary {sym} " + _ids(s, s.omega[sym]))
    return _text(out)


def _map_lines(dom: Structure, cod: Structure, m) -> list[str]:
    return [f"{dom.elements[i]} {cod.elements[m[i]]}" for i in range(dom.n)]


def serialize_morphism(m: Morphism) -> str:
    out = _head("morphism", m, dom=m.dom, cod=m.cod) + ["map"]
    return _text(out + _map_lines(m.dom, m.cod, m.map))


def _action_tables(acted: Structure, act: DerivedAction) -> list[str]:
    out = ["dot"] + _table_lines(acted, act.dot)
    for sym in act.actor.profile.binary_symbols():
        out += [f"table {sym}"] + _table_lines(acted, act.star_act[sym])
    return out


def serialize_action(act: DerivedAction) -> str:
    out = _head("action", act, actor=act.actor, acted=act.acted)
    return _text(out + _action_tables(act.acted, act))


def serialize_xmod(xm: CrossedModule) -> str:
    out = _head("xmod", xm, c1=xm.c1, c0=xm.c0)
    out += ["boundary " + _ids(xm.c0, xm.boundary.map), "action"]
    return _text(out + _action_tables(xm.c1, xm.action))


def serialize_xmodmorphism(m: XModMorphism) -> str:
    out = _head("xmodmorphism", m, dom=m.dom, cod=m.cod) + ["top"]
    out += _map_lines(m.dom.c1, m.cod.c1, m.top.map)
    out.append("bottom")
    out += _map_lines(m.dom.c0, m.cod.c0, m.bottom.map)
    return _text(out)


def serialize_cat1(c: Cat1Object) -> str:
    return _text([
        *_head("cat1", c, big=c.big, base=c.base),
        "embed " + _ids(c.big, c.embed.map),
        "src " + _ids(c.base, c.src.map),
        "tgt " + _ids(c.base, c.tgt.map),
    ])


def _write_named(path: Path, text: str) -> None:
    """Write a companion file, refusing to clobber different content."""
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    elif _read_text(path) != text:
        raise StructuralError(f"refusing to overwrite {path.name}: existing file differs")


def _write_structures(dirpath: Path, structs) -> None:
    from .limits import same_structure

    seen: dict[str, Structure] = {}
    for s in structs:
        _check_token(s.name)
        if s.name in seen:
            if not same_structure(seen[s.name], s):
                raise StructuralError(
                    f"two different structures share the name {s.name!r}"
                )
            continue
        seen[s.name] = s
        _write_named(dirpath / f"{s.name}.mci", serialize_structure(s))


def save_structure(s: Structure, path) -> None:
    Path(path).write_text(serialize_structure(s), encoding="utf-8")


def _save(path, parts, serialize, obj) -> None:
    """Write the structures obj references next to path, then obj's file."""
    p = Path(path)
    _write_structures(p.parent, parts)
    p.write_text(serialize(obj), encoding="utf-8")


def save_morphism(m: Morphism, path) -> None:
    _save(path, (m.dom, m.cod), serialize_morphism, m)


def save_action(act: DerivedAction, path) -> None:
    _save(path, (act.actor, act.acted), serialize_action, act)


def save_xmod(xm: CrossedModule, path) -> None:
    _save(path, (xm.c1, xm.c0), serialize_xmod, xm)


def _same_xmod(a: CrossedModule, b: CrossedModule) -> bool:
    from .limits import same_structure

    return (
        same_structure(a.c1, b.c1)
        and same_structure(a.c0, b.c0)
        and a.boundary.map == b.boundary.map
        and a.action.dot == b.action.dot
        and a.action.star_act == b.action.star_act
    )


def save_xmodmorphism(m: XModMorphism, path) -> None:
    p = Path(path)
    if m.dom.name == m.cod.name and not _same_xmod(m.dom, m.cod):
        raise StructuralError(f"two different modules share the name {m.dom.name!r}")
    _write_structures(p.parent, (m.dom.c1, m.dom.c0, m.cod.c1, m.cod.c0))
    for xm in (m.dom, m.cod):
        _write_named(p.parent / f"{xm.name}.mci", serialize_xmod(xm))
    p.write_text(serialize_xmodmorphism(m), encoding="utf-8")


def save_cat1(c: Cat1Object, path) -> None:
    _save(path, (c.big, c.base), serialize_cat1, c)
