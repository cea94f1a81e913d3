"""Stock examples: small groups, algebras, and the standard modules.

Everything here is built from explicit arithmetic (residues, permutation
composition, truncated polynomial products, coefficient formulas), so
these builders double as fixtures for the verifier and the file formats.
"""

from __future__ import annotations

from typing import Optional

from .actions import trivial_action
from .cat1 import Cat1Object, xmod_to_cat1
from .errors import StructuralError
from .profiles import get_profile
from .structures import Morphism, Structure, make_structure
from .xmod import (
    CrossedModule,
    inclusion_xmod,
    make_xmod,
    slice_initial,
    slice_terminal,
)


def make_cyclic(n: int, name: Optional[str] = None) -> Structure:
    """Additive residues mod n."""
    if n < 1:
        raise StructuralError(f"cyclic structure needs n >= 1, got {n}")
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    neg = tuple((-i) % n for i in range(n))
    ids = tuple(str(i) for i in range(n))
    return make_structure(name or f"z{n}", get_profile("group"), ids, add, neg, {}, {})


_PERMS3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))
_PERM_IDS = ("e", "r", "r2", "s", "rs", "r2s")


def make_symmetric3(name: str = "s3") -> Structure:
    """Permutations of three points; addition is composition."""
    idx = {p: i for i, p in enumerate(_PERMS3)}
    add = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in _PERMS3) for p in _PERMS3
    )
    inv = tuple(idx[tuple(sorted(range(3), key=lambda i: p[i]))] for p in _PERMS3)
    return make_structure(name, get_profile("group"), _PERM_IDS, add, inv, {}, {})


def _coeff_id(coeffs, letters) -> str:
    parts = []
    for c, letter in zip(coeffs, letters):
        if c == 0:
            continue
        if letter == "":
            parts.append(str(c))
        else:
            parts.append(letter if c == 1 else f"{c}{letter}")
    return "+".join(parts) if parts else "0"


def _fp_algebra(p: int, k: int, profile: str, letters, products: dict, name: str) -> Structure:
    """F_p^k with coordinatewise add, neg and scalars s0..s(p-1).

    Element i has coefficients (i mod p, i//p mod p, ...), named by
    letters. products maps each star symbol to a function of two
    coefficient tuples that returns their product, already reduced mod p.
    """
    prof = get_profile(profile)
    elems = [tuple((i // p**j) % p for j in range(k)) for i in range(p**k)]
    idx = {e: i for i, e in enumerate(elems)}
    ids = tuple(_coeff_id(e, letters) for e in elems)
    add = tuple(
        tuple(idx[tuple([(a + b) % p for a, b in zip(u, v)])] for v in elems) for u in elems
    )
    star = {
        sym: tuple(tuple(idx[prod(u, v)] for v in elems) for u in elems)
        for sym, prod in products.items()
    }
    omega = {
        f"s{c}": tuple(idx[tuple([(c * a) % p for a in u])] for u in elems) for c in range(p)
    }
    # neg is the scalar p - 1
    return make_structure(name, prof, ids, add, omega[f"s{p - 1}"], star, omega)


def make_truncated_poly(p: int, k: int = 2, name: Optional[str] = None) -> Structure:
    """F_p[x] mod x^k."""
    if k < 1:
        raise StructuralError(f"truncated polynomials need k >= 1, got {k}")

    def mul(u, v):
        out = [0] * k
        for i, a in enumerate(u):
            if a:
                for j in range(k - i):
                    out[i + j] += a * v[j]
        return tuple([c % p for c in out])

    letters = ["", "x"] + [f"x{j}" for j in range(2, k)]
    return _fp_algebra(
        p, k, f"comm-algebra-f{p}", letters, {"mul": mul},
        name or (f"f{p}x" if k == 2 else f"f{p}x{k}"),
    )


def make_lie2(p: int, name: Optional[str] = None) -> Structure:
    """Two-dimensional bracket algebra with [a, b] = a over F_p."""
    bracket = lambda u, v: ((u[0] * v[1] - u[1] * v[0]) % p, 0)  # noqa: E731
    return _fp_algebra(p, 2, f"lie-f{p}", ["a", "b"], {"bracket": bracket}, name or f"lie{p}")


def make_leibniz2(p: int, name: Optional[str] = None) -> Structure:
    """Two-dimensional bracket algebra with [a, a] = b; not antisymmetric."""
    bracket = lambda u, v: (0, (u[0] * v[0]) % p)  # noqa: E731
    return _fp_algebra(
        p, 2, f"leibniz-f{p}", ["a", "b"], {"bracket": bracket}, name or f"leib{p}"
    )


def make_dialgebra(p: int, name: Optional[str] = None) -> Structure:
    """Scalars extended by a square-zero strand d; the two products differ
    in which factor feeds the d coordinate."""
    products = {
        "lprod": lambda u, v: ((u[0] * v[0]) % p, (u[1] * v[0]) % p),
        "rprod": lambda u, v: ((u[0] * v[0]) % p, (u[0] * v[1]) % p),
    }
    return _fp_algebra(p, 2, f"dialgebra-f{p}", ["", "d"], products, name or f"dialg{p}")


def make_standard_xmods() -> dict[str, CrossedModule]:
    """The stock crossed modules used by the demos and golden files."""
    z2, z4 = make_cyclic(2), make_cyclic(4)
    out: dict[str, CrossedModule] = {}
    out["xm_z2_z4"] = make_xmod(
        "xm_z2_z4", Morphism("double", z2, z4, (0, 2)), trivial_action(z4, z2)
    )
    out["xm_ideal_f2x"] = inclusion_xmod(make_truncated_poly(2), (0, 2), "xm_ideal_f2x")
    out["xm_ideal_f3x"] = inclusion_xmod(
        make_truncated_poly(3), (0, 3, 6), "xm_ideal_f3x"
    )
    out["xm_ideal_lie3"] = inclusion_xmod(make_lie2(3), (0, 1, 2), "xm_ideal_lie3")
    out["xm_ideal_leib2"] = inclusion_xmod(make_leibniz2(2), (0, 2), "xm_ideal_leib2")
    out["xm_ideal_dialg2"] = inclusion_xmod(
        make_dialgebra(2), (0, 2), "xm_ideal_dialg2"
    )
    out["xm_conj_s3"] = inclusion_xmod(make_symmetric3(), (0, 1, 2), "xm_conj_s3")
    out["xm_terminal_z4"] = slice_terminal(z4, "xm_terminal_z4")
    out["xm_initial_z4"] = slice_initial(z4, "xm_initial_z4")
    return out


def make_standard_cat1s() -> dict[str, Cat1Object]:
    """Split objects for every stock module whose carrier stays within 12."""
    zoo = make_standard_xmods()
    keep = ("xm_z2_z4", "xm_ideal_f2x", "xm_ideal_leib2", "xm_ideal_dialg2", "xm_initial_z4")
    return {k: xmod_to_cat1(zoo[k]) for k in keep}
