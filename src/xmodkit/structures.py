"""Finite structures over a variety profile, and their law checker.

A structure is a finite carrier with a group operation ``add`` (written
additively, not assumed abelian), unary ``neg``, one table per star
symbol and one per unary symbol. Verification runs a deterministic law
list through the compiled law engine of :mod:`terms`; every law is an
equational identity, so any reported witness can be re-evaluated by the
independent interpreter (see :func:`evaluate_law`).

The laws are written as ``(name, "lhs = rhs")`` rows, one per star or
unary symbol where they mention one, and parsed once per profile by
:func:`structure_laws`. Core laws, per profile:

* group laws for (carrier, add, neg, zero),
* left distributivity of every star symbol over add (the right-hand
  version is the same law for the opposite symbol),
* unary additivity, plus the S/D star law for each unary-star pair,
* centrality of star products under add,
* opposite coherence: the table of a symbol's opposite is its transpose.

Extra identities from the profile are checked after the core.

``same_structure`` is the one sameness rule for carriers, asked by every
endpoint, codomain and square check of the package: names do not count.

Some laws are proved by a smaller scan. Once the laws it rests on have
passed in the same report, a scan with some of its variables over the
additive generators (plus zero) proves a law for the whole carrier: its
row names those variables for a core law, and a profile identity runs
every variable there when both its sides are additive in each. A law
whose rested-on laws have not passed, or that fails over the
generators, is scanned over the whole carrier, so every FAIL item and
its first witness are those of the full scan.
"""

from __future__ import annotations

import functools
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

from .errors import ClosureError, StructuralError
from .profiles import VarietyProfile
from .records import Record
from .report import CheckItem, Report, check
from .terms import Equation, Identity, Law, _additive, eval_term, format_term, parse_identity

Table1 = tuple[int, ...]
Table2 = tuple[Table1, ...]


class Structure(Record):
    name: str
    profile: VarietyProfile
    elements: tuple[str, ...]
    add: Table2
    neg: Table1
    star: Mapping[str, Table2]
    omega: Mapping[str, Table1]
    zero: int | None

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, element_id: str) -> int:
        try:
            return self.elements.index(element_id)
        except ValueError:
            raise StructuralError(f"{self.name}: unknown element id {element_id!r}") from None

    def index_map(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def conj(self, i: int, j: int) -> int:
        """i + j - i"""
        return self.add[self.add[i][j]][self.neg[i]]


_CARRIER = attrgetter("profile.name", "elements", "add", "neg", "star", "omega")


def same_structure(a: Structure, b: Structure) -> bool:
    """One profile, equal ids and equal tables; the name does not count."""
    return a is b or _CARRIER(a) == _CARRIER(b)


class Morphism(Record):
    name: str
    dom: Structure
    cod: Structure
    map: Table1


class Subobject(Record):
    parent: Structure
    elements: tuple[int, ...]  # parent indices, ascending
    induced: Structure
    embed: Morphism


def _transpose(t: Table2) -> Table2:
    return tuple(zip(*t))


def _check_table2(name: str, op: str, t: Sequence[Sequence[int]], rows: int, width: int) -> Table2:
    """t as rows tuples of width entries below width; a row is scanned only to name a bad entry."""
    if len(t) != rows:
        raise StructuralError(f"{name}: table {op!r} has {len(t)} rows, expected {rows}")
    out = tuple([tuple(row) for row in t])
    valid = set(range(width))
    for r, row in enumerate(out):
        if len(row) != width:
            raise StructuralError(
                f"{name}: table {op!r} row {r} has {len(row)} entries, expected {width}"
            )
        if not valid.issuperset(row):
            bad = next(v for v in row if v not in valid)
            raise StructuralError(f"{name}: table {op!r} entry {bad} out of range")
    return out


def _check_table1(name: str, op: str, t: Sequence[int], n: int) -> Table1:
    if len(t) != n:
        raise StructuralError(f"{name}: table {op!r} has {len(t)} entries, expected {n}")
    for v in t:
        if not (0 <= v < n):
            raise StructuralError(f"{name}: table {op!r} entry {v} out of range")
    return tuple(t)


def _infer_zero(add: Table2) -> int | None:
    n = len(add)
    for e in range(n):
        if all(add[e][x] == x and add[x][e] == x for x in range(n)):
            return e
    return None


def make_structure(
    name: str,
    profile: VarietyProfile,
    elements: Sequence[str],
    add: Sequence[Sequence[int]],
    neg: Sequence[int],
    star: Mapping[str, Sequence[Sequence[int]]],
    omega: Mapping[str, Sequence[int]],
) -> Structure:
    """Validate tables, transpose in missing opposite star tables, infer zero."""
    elements = tuple(elements)
    if not elements:
        raise StructuralError(f"{name}: carrier must be nonempty")
    if len(set(elements)) != len(elements):
        raise StructuralError(f"{name}: duplicate element ids")
    for e in elements:
        # every id starts some row of its file's add table, where a leading '#' is a comment
        if e.startswith("#") or e.split() != [e]:
            raise StructuralError(f"{name}: bad element id {e!r}")
    n = len(elements)

    add_t = _check_table2(name, "add", add, n, n)
    neg_t = _check_table1(name, "neg", neg, n)

    syms = profile.binary_symbols()
    for k in star:
        if k not in syms:
            raise StructuralError(f"{name}: star table for unknown symbol {k!r}")
    star_t: dict[str, Table2] = {}
    for sym in syms:
        if sym in star:
            star_t[sym] = _check_table2(name, sym, star[sym], n, n)
        elif profile.opposite_of(sym) in star:
            star_t[sym] = _transpose(_check_table2(name, sym, star[profile.opposite_of(sym)], n, n))
        else:
            raise StructuralError(f"{name}: missing star table for {sym!r}")

    usyms = profile.unary_symbols()
    for k in omega:
        if k not in usyms:
            raise StructuralError(f"{name}: unary table for unknown symbol {k!r}")
    omega_t: dict[str, Table1] = {}
    for sym in usyms:
        if sym not in omega:
            raise StructuralError(f"{name}: missing unary table for {sym!r}")
        omega_t[sym] = _check_table1(name, sym, omega[sym], n)

    return Structure(name, profile, elements, add_t, neg_t, star_t, omega_t, _infer_zero(add_t))


# ---------------------------------------------------------------------------
# law lists


# A row is (name, "lhs = rhs"[, variables over G[, texts rested on]]).
# Once the rested-on laws have passed, a scan with those variables over
# the additive generators G (those of _generating_data, plus zero) proves
# the law for the whole carrier. README.md gives the proofs.
_GROUP_LAWS = (
    ("add-assoc", "(add (add x y) z) = (add x (add y z))", "y"),  # Light's associativity test
    ("add-zero-left", "(add 0 x) = x"),
    ("add-zero-right", "(add x 0) = x"),
    ("add-neg-right", "(add x (neg x)) = 0"),
    ("add-neg-left", "(add (neg x) x) = 0"),
)
_UNREDUCED = ("", ())  # no variable over G, nothing rested on
# {s} is a star symbol and {o} its opposite
_DISTRIB = "({s} x (add y z)) = (add ({s} x y) ({s} x z))"
_CENTRAL = "(add w ({s} x y)) = (add ({s} x y) w)"
_OPPOSITE = "({s} x y) = ({o} y x)"


@functools.lru_cache(maxsize=None)
def _law_rows(profile: VarietyProfile) -> tuple:
    """(identity, variables over G, texts rested on) per structure law, in order.

    A profile identity runs every variable over G when both its sides are
    additive in each variable; it rests on the laws that make add an
    abelian group and every star additive in both arguments.
    """
    stars = profile.binary_symbols()
    monoid = tuple([row[1] for row in _GROUP_LAWS[:3]])
    distrib = [(f"distrib[{s}]", _DISTRIB.format(s=s), "z", monoid) for s in stars]
    unary = []
    for u in profile.unary:
        o = u.symbol
        unary.append((f"unary-add[{o}]", f"({o} (add x y)) = (add ({o} x) ({o} y))"))
        for s in stars:
            rhs = f"({s} ({o} x) y)" if u.kind == "S" else f"({s} ({o} x) ({o} y))"
            unary.append((f"unary-star[{o},{s}]", f"({o} ({s} x y)) = {rhs}"))
    central = [(f"central[{s}]", _CENTRAL.format(s=s), "w", monoid) for s in stars]
    opposite = [
        (f"opposite[{s}]", _OPPOSITE.format(s=s, o=profile.opposite_of(s)))
        for s in profile.primary_binary_symbols()
    ]
    rows = []
    for row in (*_GROUP_LAWS, *distrib, *unary, *central, *opposite):
        name, text, over_g, rests = row + _UNREDUCED[len(row) - 2:]
        rows.append((parse_identity(name, text), tuple(over_g.split()), rests))
    bilinear = (*[row[1] for row in (*_GROUP_LAWS, *distrib, *opposite)], "(add x y) = (add y x)")
    for i in profile.identities:
        names = i.variables()
        additive = all(_additive(t, v) for t in (i.lhs, i.rhs) for v in names)
        rows.append((Identity(f"id[{i.name}]", i.lhs, i.rhs), names if additive else (), bilinear))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def structure_laws(profile: VarietyProfile, core_only: bool = False) -> tuple[Identity, ...]:
    """The structure laws, in order; core_only (read by the bench tracer) drops the identities."""
    laws = [i for i, _, _ in _law_rows(profile)]
    return tuple(laws[: len(laws) - len(profile.identities)] if core_only else laws)


@functools.lru_cache(maxsize=None)
def _structure_checks(profile: VarietyProfile) -> tuple:
    """Per structure law: its text, its engine law with every variable
    over the carrier S, and its reduced law (None if no variable runs
    over G) with the texts that must have passed before it runs."""
    out = []
    for i, over_g, rests in _law_rows(profile):
        text = f"{format_term(i.lhs)} = {format_term(i.rhs)}"
        eqs = (Equation(i.lhs, i.rhs, "S"),)
        typed = [(v, "G" if v in over_g else "S") for v in i.variables()]
        law = Law(i.name, tuple([(v, "S") for v, _ in typed]), eqs)
        reduced = Law(i.name, tuple(typed), eqs) if over_g else None
        out.append((text, law, reduced, frozenset(rests)))
    return tuple(out)


def carrier(s: Structure):
    """The sort of a structure's elements: every index, named by its id."""
    return range(len(s.elements)), s.elements


def operations(s: Structure, tag: str = "") -> dict:
    """The tables of s by op name (add, neg, the zero 0 and every symbol), each prefixed by tag."""
    ops = {"add": s.add, "neg": s.neg, "0": s.zero, **s.star, **s.omega}
    return {tag + k: v for k, v in ops.items()}


def verify_structure(s: Structure) -> Report:
    """Every structure law, in order. A law with a reduction runs over the
    additive generators once the laws it rests on have passed, and over
    the whole carrier if they have not or if it fails there."""
    subject = f"structure {s.name}"
    if s.zero is None:
        item = CheckItem("add-zero-exists", False, (), "no two-sided identity in add table")
        return Report(subject, (item,))
    sorts, ops = {"S": carrier(s)}, operations(s)
    items = [CheckItem("add-zero-exists", True)]
    passed: set[str] = set()
    for text, law, reduced, needs in _structure_checks(s.profile):
        item = None
        if reduced is not None and needs <= passed:
            if "G" not in sorts:
                sorts["G"] = ((s.zero, *_generating_data(s)[0]), s.elements)
            item = check(reduced, sorts, ops)
        if item is None or not item.ok:
            item = check(law, sorts, ops)
        if item.ok:
            passed.add(text)
        items.append(item)
    return Report(subject, tuple(items))


def _generating_data(s: Structure, first=()):
    """Additive generators (those of first not yet reached, then greedy
    picks) plus a derivation of every nonzero element.

    A derivation (element, parent, k) means element = parent + gens[k],
    with parent zero or derived earlier; generator k is zero + gens[k].
    So every element is a sum of generators, whatever the laws of add.
    """
    known = {s.zero}
    order: list[tuple[int, int, int]] = []
    gens: list[int] = []
    for x in (*first, *range(s.n)):
        if x in known:
            continue
        gens.append(x)
        known.add(x)
        order.append((x, s.zero, len(gens) - 1))
        for e, _, _ in order:  # the loop also visits what it appends
            for k, g in enumerate(gens):
                z = s.add[e][g]
                if z not in known:
                    known.add(z)
                    order.append((z, e, k))
    return gens, order


def evaluate_law(s: Structure, law_name: str, witness: tuple[str, ...]) -> bool:
    """Re-evaluate one named law at a witness; True means the law holds there."""
    if law_name == "add-zero-exists":
        return s.zero is not None
    if s.zero is None:
        return False
    for law in structure_laws(s.profile):
        if law.name == law_name:
            names = law.variables()
            if len(names) != len(witness):
                raise StructuralError(f"law {law_name!r} takes {len(names)} witness entries")
            env = {v: s.index(i) for v, i in zip(names, witness)}
            return eval_term(law.lhs, s, env) == eval_term(law.rhs, s, env)
    raise StructuralError(f"unknown law {law_name!r} for profile {s.profile.name}")


# ---------------------------------------------------------------------------
# restricted products and subobjects


def _getter(col: Sequence[int]):
    """Entries of a row at the positions col, as a tuple."""
    if len(col) == 1:
        k = col[0]
        return lambda row: (row[k],)
    return itemgetter(*col)


class _Restriction:
    """Kept index tuples of a product of carriers and their positions.

    Set-up is linear in the kept tuples, not in the size of the product.
    Tables are read column by column: getters[i] picks coordinate i of
    every kept tuple out of a row of component i's table.
    """

    def __init__(self, name: str, components: Sequence[Structure], keep):
        self.name = name
        self.components = components
        self.cols = tuple(list(zip(*keep)))  # coordinate i of every kept tuple
        self.getters = list(map(_getter, self.cols))
        self.pos = dict(zip(keep, range(len(keep))))

    def labels(self, cols) -> tuple[str, ...]:
        """Ids of the tuples whose coordinate i runs through cols[i]."""
        names = [map(c.elements.__getitem__, col) for c, col in zip(self.components, cols)]
        if len(names) == 1:
            return tuple(list(names[0]))
        return tuple(list(map("({})".format, map(",".join, zip(*names)))))

    def locate(self, columns, op: str, heads, args: Sequence[str]) -> Table2:
        """Positions of a table of tuples given coordinatewise.

        columns[i][h] holds coordinate i of the tuples in row h, aligned
        with args; entry (h, j) is op at heads[h] + (args[j],).
        """
        rows = map(zip, *columns)
        find = self.pos.__getitem__
        try:
            return tuple([tuple(list(map(find, row))) for row in rows])
        except KeyError:
            self._escape(zip(*columns), op, heads, args)

    def image(self, values, op: str, args: Sequence[str]) -> Table1:
        """Positions of one row: values[i] holds coordinate i, entry j is op at args[j]."""
        try:
            return tuple(list(map(self.pos.__getitem__, zip(*values))))
        except KeyError:
            self._escape([values], op, [()], args)

    def _escape(self, rows, op: str, heads, args: Sequence[str]):
        """Raise ClosureError for the first tuple outside the kept set."""
        h, j, t = next(
            (h, j, t)
            for h, row in enumerate(rows)
            for j, t in enumerate(zip(*row))
            if t not in self.pos
        )
        ids = ", ".join(heads[h] + (args[j],))
        value = self.labels([[v] for v in t])[0]
        raise ClosureError(f"{self.name}: not closed under {op} at ({ids}) -> {value}")


def restricted_product(
    name: str, components: Sequence[Structure], keep: Sequence[tuple[int, ...]]
) -> Structure:
    """The product's componentwise tables, restricted to the kept tuples.

    keep lists one index per component for each carrier element, in
    carrier order. Element ids are the component ids, parenthesised when
    there are several components. A value outside keep raises ClosureError.
    """
    r = _Restriction(name, components, keep)
    ids = r.labels(r.cols)
    heads = [(e,) for e in ids]

    def table2(tables, op: str) -> Table2:
        columns = [
            list(map(get, map(t.__getitem__, col)))
            for t, get, col in zip(tables, r.getters, r.cols)
        ]
        return r.locate(columns, op, heads, ids)

    def table1(tables, op: str) -> Table1:
        return r.image([get(t) for t, get in zip(tables, r.getters)], op, ids)

    profile = components[0].profile
    add = table2([c.add for c in components], "add")
    neg = table1([c.neg for c in components], "neg")
    star = {
        sym: table2([c.star[sym] for c in components], sym)
        for sym in profile.binary_symbols()
    }
    omega = {
        sym: table1([c.omega[sym] for c in components], sym)
        for sym in profile.unary_symbols()
    }
    return make_structure(name, profile, ids, add, neg, star, omega)


def subobject(parent: Structure, indices: Sequence[int], name: str | None = None) -> Subobject:
    """Restrict parent to a closed subset; raises ClosureError otherwise."""
    elems = tuple(sorted(set(indices)))
    if not elems:
        raise ClosureError(f"{parent.name}: subobject must be nonempty")
    for i in elems:
        if not (0 <= i < parent.n):
            raise StructuralError(f"{parent.name}: subobject index {i} out of range")
    if parent.zero is None or parent.zero not in elems:
        raise ClosureError(f"{parent.name}: subset does not contain zero")
    sub_name = name or f"{parent.name}.sub"
    induced = restricted_product(sub_name, (parent,), [(i,) for i in elems])
    embed = Morphism(f"incl_{sub_name}", induced, parent, elems)
    return Subobject(parent, elems, induced, embed)
