"""Prefix term language for equational laws, and the one law engine.

Grammar (whitespace separated, fully parenthesised):

    term ::= <var> | 0 | ( <op> term ... )

``0`` is the additive zero constant. Anything else outside parens is a
variable. Operation arity is not fixed here; it is validated when a
profile accepts an identity.

Every check in the package is a :class:`Law`: equations over sorted
variables, run against op tables bound at call time. Each law shape is
compiled once into a nested-loop scanner (:func:`first_violation`) that
returns the lexicographically first violating assignment;
:func:`report.check` renders it as a report item. ``eval_term`` is the
independent interpreter the tests and ``evaluate_law`` use to
re-evaluate witnesses; no verifier calls it.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .errors import ParseError, StructuralError
from .records import Record

if TYPE_CHECKING:  # pragma: no cover
    from typing import Union

    from .structures import Structure

    # only for annotations: a Union built at import would stay in typing's
    # cache and keep every earlier load of this module alive
    Term = Union["Var", "Zero", "App"]


class Var(Record):
    name: str


class Zero(Record):
    pass


class App(Record):
    op: str
    args: tuple["Term", ...]


class Identity(Record):
    """An equational law lhs = rhs, quantified over its variables."""

    name: str
    lhs: Term
    rhs: Term

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for v in term_vars(self.lhs) + term_vars(self.rhs):
            if v not in seen:
                seen.append(v)
        return tuple(seen)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Brackets and the runs between brackets and blanks, with their start columns."""
    return [(m.group(), m.start()) for m in re.finditer(r"[()]|[^() \t\n]+", text)]


def parse_term(text: str) -> Term:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty term", col=0)
    term, pos = _parse_one(toks, 0)
    if pos != len(toks):
        raise ParseError("trailing tokens after term", col=toks[pos][1])
    return term


def _parse_one(toks: list[tuple[str, int]], pos: int) -> tuple[Term, int]:
    tok, col = toks[pos]
    if tok == ")":
        raise ParseError("unexpected ')'", col=col)
    if tok != "(":
        return (Zero() if tok == "0" else Var(tok)), pos + 1
    pos += 1
    if pos >= len(toks):
        raise ParseError("unclosed '('", col=col)
    op, opcol = toks[pos]
    if op in "()":
        raise ParseError("expected operation symbol after '('", col=opcol)
    pos += 1
    args: list[Term] = []
    while True:
        if pos >= len(toks):
            raise ParseError("unclosed '('", col=col)
        if toks[pos][0] == ")":
            return App(op, tuple(args)), pos + 1
        arg, pos = _parse_one(toks, pos)
        args.append(arg)


def parse_identity(name: str, equation: str) -> Identity:
    """The identity called name, from ``"lhs = rhs"``."""
    lhs, rhs = equation.split(" = ")
    return Identity(name, parse_term(lhs), parse_term(rhs))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    return "(" + " ".join([t.op] + [format_term(a) for a in t.args]) + ")"


def term_vars(t: Term) -> tuple[str, ...]:
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, Zero):
        return ()
    out: list[str] = []
    for a in t.args:
        for v in term_vars(a):
            if v not in out:
                out.append(v)
    return tuple(out)


def _additive(t: Term, v: str) -> bool:
    """Whether t is additive in v by its shape: v itself, 0, an add or neg
    of additive terms, or a binary star with v in exactly one argument and
    that argument additive. Over an abelian group whose stars are additive
    in each argument, such a t is additive in v."""
    if isinstance(t, Var):
        return t.name == v
    if isinstance(t, Zero):
        return True
    if t.op in ("add", "neg"):
        return all(_additive(a, v) for a in t.args)
    holding = [a for a in t.args if v in term_vars(a)]
    return len(t.args) == 2 and len(holding) == 1 and _additive(holding[0], v)


def term_ops(t: Term) -> tuple[tuple[str, int], ...]:
    """All (op, arity) pairs appearing in t, in first-occurrence order."""
    if not isinstance(t, App):
        return ()
    out = [(t.op, len(t.args))]
    for a in t.args:
        for pair in term_ops(a):
            if pair not in out:
                out.append(pair)
    return tuple(out)


def eval_term(t: Term, s: "Structure", env: Mapping[str, int]) -> int:
    """Evaluate over a structure's tables; env maps variable name -> index."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Zero):
        if s.zero is None:
            raise StructuralError(f"structure {s.name} has no additive zero")
        return s.zero
    vals = [eval_term(a, s, env) for a in t.args]
    op = t.op
    if op == "add":
        return s.add[vals[0]][vals[1]]
    if op == "neg":
        return s.neg[vals[0]]
    if op in s.star:
        return s.star[op][vals[0]][vals[1]]
    if op in s.omega:
        return s.omega[op][vals[0]]
    raise StructuralError(f"unknown operation {op!r} for profile {s.profile.name}")


# ---------------------------------------------------------------------------
# the law engine


class Equation(Record):
    """lhs = rhs; a FAIL detail names both sides by the ids of ``sort``."""

    lhs: Term
    rhs: Term
    sort: str
    detail: str = "lhs={lhs} rhs={rhs}"


class Law(Record):
    """Equations quantified over sorted variables, given in witness order.

    A sort is bound to (domain, ids): the index sequence its variables
    range over (a carrier, a subset such as a kernel, or just the zero)
    and the ids that name indices in reports. An op is bound to a
    constant, a row (one argument) or a tuple of rows (two arguments).
    ``op[v]`` picks table number v out of a bound tuple of tables, so a
    variable over a sequence of symbols selects the table of its symbol.
    """

    name: str
    variables: tuple[tuple[str, str], ...]
    equations: tuple[Equation, ...]


Sorts = Mapping[str, tuple[Sequence[int], Sequence[str] | Mapping[int, str]]]


_ROW_DEFAULTS = ("lhs={lhs} rhs={rhs}",)  # detail


@functools.lru_cache(maxsize=None)
def law_table(rows, symbols: Sequence[str] = (), unaries: Sequence[str] = ()) -> tuple[Law, ...]:
    """Laws from rows ``(name, variables, "lhs = rhs", sort[, detail])``.

    Variables are written ``"x y:A j:B"`` (x and y of sort A). A row that
    mentions {sym} or {un} stands for one row per star or unary symbol.
    Consecutive rows with the same name are the equations of one law.
    """
    laws: list[Law] = []
    for row in rows:
        text = " ".join(row)
        row = row + _ROW_DEFAULTS[len(row) - 4:]
        for s in symbols if "{sym}" in text else unaries if "{un}" in text else ("",):
            fields = [f.replace("{sym}", s).replace("{un}", s) for f in row]
            name, variables, equation, sort, detail = fields
            eq = parse_identity(name, equation)
            e = Equation(eq.lhs, eq.rhs, sort, detail)
            if laws and laws[-1].name == name:
                laws[-1] = Law(name, laws[-1].variables, laws[-1].equations + (e,))
                continue
            pending, typed = [], []
            for token in variables.split():
                var, _, vsort = token.partition(":")
                pending.append(var)
                if vsort:
                    typed += [(v, vsort) for v in pending]
                    pending = []
            laws.append(Law(name, tuple(typed), (e,)))
    return tuple(laws)


_SCANNERS: dict = {}  # law shape -> generated scanner
# id(law) -> (scanner, sort of each variable, op names, law). Keyed by
# identity, so a lookup never hashes or compares a law's term trees; the
# entry keeps its law alive, so the id is not reused. Laws come from
# cached tables, so the entries stay bounded.
_COMPILED: dict = {}


def _compiled(lw: Law):
    hit = _COMPILED.get(id(lw))
    if hit is not None:
        return hit
    index = {v: i for i, (v, _) in enumerate(lw.variables)}
    ops: list[str] = []

    def shape(t):
        if isinstance(t, Var):
            return index[t.name]
        op, args = ("0", ()) if isinstance(t, Zero) else (t.op, t.args)
        pick = None
        if op.endswith("]") and "[" in op:
            op, var = op[:-1].split("[", 1)
            pick = index[var]
        if op not in ops:
            ops.append(op)
        return ops.index(op), pick, tuple(list(map(shape, args)))

    eqs = tuple([(shape(e.lhs), shape(e.rhs)) for e in lw.equations])
    key = (len(index), len(ops), eqs)
    scan = _SCANNERS.get(key)
    if scan is None:
        scan = _SCANNERS[key] = _generate(*key)
    hit = _COMPILED[id(lw)] = (scan, tuple([s for _, s in lw.variables]), tuple(ops), lw)
    return hit


def _generate(nvars: int, nops: int, eqs) -> Callable:
    """Compile one law shape into ``scan(d0.., t0..)``.

    Loop i runs variable i over domain d_i; ops are the tables t_k. Every
    subterm, and every row of a two-argument table, is computed in the
    loop of its innermost variable. Only positional names reach exec.
    """
    level: dict = {}  # index node -> loop it belongs to (-1: before the loops)
    consumers: dict = defaultdict(list)  # node -> loops of the nodes that read it
    order: list = []

    def lv(node) -> int:
        return node[1] if node[0] == "v" else level.get(node, -1)

    def index(base, at):
        node = ("i", base, at)
        if node not in level:
            level[node] = max(lv(base), lv(at))
            consumers[base].append(level[node])
            consumers[at].append(level[node])
            order.append(node)
        return node

    def build(s):
        if isinstance(s, int):
            return ("v", s)
        k, pick, args = s
        node = ("t", k)
        if pick is not None:
            node = index(node, ("v", pick))
        for a in args:
            node = index(node, build(a))
        return node

    checks = [(build(lhs), build(rhs)) for lhs, rhs in eqs]
    for node in [n for pair in checks for n in pair]:
        consumers[node].append(nvars - 1)

    names: dict = {}

    def expr(node) -> str:
        if node in names:
            return names[node]
        if node[0] == "v":
            return f"v{node[1]}"
        if node[0] == "t":
            return f"t{node[1]}"
        return f"{expr(node[1])}[{expr(node[2])}]"

    body: dict = defaultdict(list)
    for node in order:
        uses = consumers[node]
        if len(uses) > 1 or max(uses) > level[node]:
            body[level[node]].append(f"n{len(names)} = {expr(node)}")
            names[node] = f"n{len(names)}"

    params = [f"d{i}" for i in range(nvars)] + [f"t{k}" for k in range(nops)]
    lines = [f"def scan({', '.join(params)}):"] + ["    " + a for a in body[-1]]
    for i in range(nvars):
        lines.append("    " * (i + 1) + f"for v{i} in d{i}:")
        lines += ["    " * (i + 2) + a for a in body[i]]
    pad = "    " * (nvars + 1)
    witness = "".join(f"v{i}, " for i in range(nvars))
    for k, (lhs, rhs) in enumerate(checks):
        lines += [
            f"{pad}if (l := {expr(lhs)}) != (r := {expr(rhs)}):",
            f"{pad}    return ({witness}), {k}, l, r",
        ]
    lines.append("    return None")
    scope: dict = {}
    exec(compile("\n".join(lines), "<law scanner>", "exec"), scope)
    return scope["scan"]


def first_violation(lw: Law, sorts: Sorts, ops: Mapping[str, object]):
    """The lexicographically first assignment that breaks an equation.

    Returns (variable values, equation index, lhs, rhs), or None when
    the law holds everywhere.
    """
    scan, var_sorts, op_names, _ = _compiled(lw)
    return scan(*[sorts[s][0] for s in var_sorts], *[ops[o] for o in op_names])


def law_filter(
    laws: Sequence[Law], sorts: Sorts, ops: Mapping[str, object], *free: str
) -> Callable[..., bool]:
    """The verdict of laws bound once; call it with one table per free op.

    Used by the searches: it stops at the first violation.
    """
    bound = []
    for lw in laws:
        scan, var_sorts, op_names, _ = _compiled(lw)
        args = [sorts[s][0] for s in var_sorts] + [ops.get(o) for o in op_names]
        slots = [(len(var_sorts) + i, free.index(o)) for i, o in enumerate(op_names) if o in free]
        bound.append((scan, args, slots))

    def holds(*tables) -> bool:
        for scan, args, slots in bound:
            for i, k in slots:
                args[i] = tables[k]
            if scan(*args) is not None:
                return False
        return True

    return holds
