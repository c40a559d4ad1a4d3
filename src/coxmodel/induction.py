"""Induction products, cross-type inductions, projections, column kinds.

The three products are parabolic inductions of outer tensor products:
type A from S_p x S_q, type B from B_p x B_q, type D from D_p x D_q.
A and B reduce to Littlewood-Richardson coefficients componentwise.  The
D product uses the coefficient case table on unordered / degenerate labels;
every label-level D product is also cross-checked against its induction to
type B, which must equal the B product of the inductions of the factors.

Induction from S_n to even-rank D_n splits each degenerate pair by the
difference character restricted to S_n (see char_ring), so every
character built here is exact.

The column kinds of the model-index notation live here too, in one table
(COLUMN_KINDS): for each block, class and linear character, the beta
symbols a block of each size takes and the labels of its closed-form
character.  column_kind reads it for column_char and model_index.validate,
and columns_of spells it out for the enumerator of model_index.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from . import partitions as pt
from .char_ring import (
    VirtualCharacter,
    _trusted_character,
    d_deg,
    d_set,
    difference_value,
    mn_column_a,
)
from .lr import lr_expand
from .partitions import Partition


# --- the bullet products ------------------------------------------------------


@lru_cache(maxsize=pt.CACHE_KEYS)
def _bullet_b_labels(lab1, lab2) -> Mapping:
    (l1, l2), (m1, m2) = lab1, lab2
    out = {}
    for n1, a in lr_expand(l1, m1).items():
        for n2, b in lr_expand(l2, m2).items():
            key = (n1, n2)
            out[key] = out.get(key, 0) + a * b
    return MappingProxyType(out)


def _lift_components(dlab) -> tuple[Partition, Partition]:
    """The (unordered) component pair of a D label, degenerate as (nu, nu)."""
    if dlab[0] == "set":
        return (dlab[1], dlab[2])
    return (dlab[1], dlab[1])


def taylor_coefficient(lab1, lab2, out) -> int:
    """Multiplicity of the D label `out` in the product of two D labels.

    Case table on (nondegenerate, degenerate) input/output combinations in
    terms of LR coefficients.  Degenerate-degenerate-degenerate uses
    c(c + e1*e2*e3)/2 where the e are the three signs read as +1/-1.
    """

    def c(lam, mu, nu):
        # the type-B lift in `_bullet_d_labels` has expanded every pair read here
        return lr_expand(lam, mu).get(nu, 0)

    a1, a2 = _lift_components(lab1)
    b1, b2 = _lift_components(lab2)
    deg1 = lab1[0] == "deg"
    deg2 = lab2[0] == "deg"
    if out[0] == "set":
        n1, n2 = out[1], out[2]
        if not deg1 and not deg2:
            return (
                c(a1, b1, n1) * c(a2, b2, n2)
                + c(a1, b2, n1) * c(a2, b1, n2)
                + c(a2, b1, n1) * c(a1, b2, n2)
                + c(a2, b2, n1) * c(a1, b1, n2)
            )
        if deg1 != deg2:
            lam = a1 if deg1 else b1
            m1, m2 = (b1, b2) if deg1 else (a1, a2)
            return c(lam, m1, n1) * c(lam, m2, n2) + c(lam, m2, n1) * c(lam, m1, n2)
        return c(a1, b1, n1) * c(a1, b1, n2)
    nu = out[1]
    if not deg1 and not deg2:
        return c(a1, b1, nu) * c(a2, b2, nu) + c(a1, b2, nu) * c(a2, b1, nu)
    if deg1 != deg2:
        lam = a1 if deg1 else b1
        m1, m2 = (b1, b2) if deg1 else (a1, a2)
        return c(lam, m1, nu) * c(lam, m2, nu)
    cc = c(a1, b1, nu)
    e1 = 1 if lab1[2] == "+" else -1
    e2 = 1 if lab2[2] == "+" else -1
    e3 = 1 if out[2] == "+" else -1
    num = cc * (cc + e1 * e2 * e3)
    if num % 2 or num < 0:
        raise RuntimeError(f"bad Taylor coefficient numerator: {num}")
    return num // 2


@lru_cache(maxsize=pt.CACHE_KEYS)
def _bullet_d_labels(lab1, lab2) -> Mapping:
    """Full D product of two labels, with the type-B lift consistency check."""
    a1, a2 = _lift_components(lab1)
    b1, b2 = _lift_components(lab2)
    n = sum(a1) + sum(a2) + sum(b1) + sum(b2)
    # Lift to type B: a set label induces to both orderings, a degenerate
    # label to the single diagonal bipartition.
    blift = {}
    pairs1 = [(a1, a2)] if lab1[0] == "deg" else [(a1, a2), (a2, a1)]
    pairs2 = [(b1, b2)] if lab2[0] == "deg" else [(b1, b2), (b2, b1)]
    for p1 in pairs1:
        for p2 in pairs2:
            for key, v in _bullet_b_labels(p1, p2).items():
                blift[key] = blift.get(key, 0) + v
    out = {}
    for (n1, n2), v in blift.items():
        if n1 > n2:
            lab = d_set(n1, n2)
            d = taylor_coefficient(lab1, lab2, lab)
            if d != v:
                raise RuntimeError(f"type-B lift disagrees: {(lab1, lab2, lab, d, v)}")
            if d:
                out[lab] = d
        elif n1 == n2:
            plus = taylor_coefficient(lab1, lab2, d_deg(n1, "+"))
            minus = taylor_coefficient(lab1, lab2, d_deg(n1, "-"))
            if plus + minus != v:
                raise RuntimeError(
                    f"type-B lift disagrees: {(lab1, lab2, n1, plus, minus, v)}"
                )
            if plus:
                out[d_deg(n1, "+")] = plus
            if minus:
                out[d_deg(n1, "-")] = minus
    return MappingProxyType(out)


def bullet(ctype: str, f: VirtualCharacter, g: VirtualCharacter) -> VirtualCharacter:
    """The parabolic induction product of two same-type characters."""
    if f.ctype != ctype or g.ctype != ctype:
        raise ValueError("bullet: mixed character types")
    table = {"A": lr_expand, "B": _bullet_b_labels, "D": _bullet_d_labels}[ctype]
    # A product's labels have rank f.rank + g.rank by construction, so the
    # sum skips the per-term rank check of the constructor.
    coeffs: dict = {}
    for lab1, c1 in f.coeffs.items():
        for lab2, c2 in g.coeffs.items():
            for lab, d in table(lab1, lab2).items():
                new = coeffs.get(lab, 0) + c1 * c2 * d
                if new:
                    coeffs[lab] = new
                else:
                    del coeffs[lab]
    return _trusted_character(ctype, f.rank + g.rank, coeffs)


# --- cross-type inductions ----------------------------------------------------

# c^nu_{lam,mu} vanishes unless both lam and mu fit inside nu (Macdonald,
# "Symmetric Functions and Hall Polynomials", I.9), so the inductions from
# S_n read only the pairs inside nu, from the cached `lr_expand`.


@lru_cache(maxsize=pt.CACHE_KEYS)
def _inside(nu: Partition) -> tuple[tuple[Partition, ...], ...]:
    """The partitions whose diagrams fit inside nu's, by size, each size in
    `partitions_of` order."""
    by_size: list[list[Partition]] = [[] for _ in range(sum(nu) + 1)]

    def grow(lam: Partition, size: int) -> None:
        # depth first, larger rows first: lexicographically decreasing, which
        # on one size is `partitions_of` order
        by_size[size].append(lam)
        r = len(lam)
        if r < len(nu):
            for x in range(min(nu[r], lam[-1]) if lam else nu[0], 0, -1):
                grow(lam + (x,), size + x)

    grow((), 0)
    return tuple(map(tuple, by_size))


def _pairs_inside(nu: Partition, unordered: bool):
    """The pairs (lam, mu) inside nu with |lam| + |mu| = |nu|, in
    `bipartitions_of` order; with `unordered`, only the first ordering of
    two distinct parts, so the pairs come in `unordered_bipartitions_of`
    order (not yet in `unordered_pair` form)."""
    inside = _inside(nu)
    n = len(inside) - 1
    for k in range(n, (n - 1) // 2 if unordered else -1, -1):
        for lam in inside[k]:
            for mu in inside[n - k]:
                if not unordered or (k, lam) > (n - k, mu):
                    yield lam, mu


def ind_A_to_B(chi: VirtualCharacter) -> VirtualCharacter:
    """Induction from the symmetric subgroup up to the full signed group."""
    if chi.ctype != "A":
        raise ValueError("ind_A_to_B expects a type A character")
    terms = [
        ((lam, mu), c * d)
        for nu, c in chi.coeffs.items()
        for lam, mu in _pairs_inside(nu, unordered=False)
        if (d := lr_expand(lam, mu).get(nu, 0))
    ]
    return VirtualCharacter("B", chi.rank, terms)


@lru_cache(maxsize=pt.CACHE_KEYS)
def _restricted_difference(nu: Partition, core: Partition) -> int:
    """<chi^nu, Res_{S_n} delta_core>, summed over the classes 2mu of S_n.

    chi^nu(2mu) is read from the Murnaghan-Nakayama column at 2mu.
    """
    order = factorial(sum(nu))
    total = 0
    for mu in pt.partitions_of(sum(core)):
        cycles = tuple(2 * x for x in mu)
        class_size = order // pt.centralizer_size(cycles)
        total += class_size * mn_column_a(cycles).get(nu, 0) * difference_value(core, mu)
    s, r = divmod(total, order)
    if r:
        raise RuntimeError(f"non-integral degenerate split of {nu} at {core}")
    return s


def _ind_label_A_to_D(nu: Partition, side: str):
    """The (label, multiplicity) terms of the induction of chi^nu to D_n."""
    n = sum(nu)
    for lam, mu in _pairs_inside(nu, unordered=True):
        d = lr_expand(lam, mu).get(nu, 0)
        if d:
            yield d_set(lam, mu), d
    if n % 2 != 0:
        return
    for core in pt.partitions_of(n // 2):
        # [core,+] and [core,-] share c and differ by s; the diamond image
        # of S_n (side minus) sees delta_core with the opposite sign.  A core
        # outside nu has c = 0 and is not worth an expansion.
        c = lr_expand(core, core).get(nu, 0) if pt.contains(nu, core) else 0
        s = _restricted_difference(nu, core)
        if (c + s) % 2 or abs(s) > c:
            raise RuntimeError(f"bad degenerate split of {nu} at {core}: c={c}, s={s}")
        if side == "minus":
            s = -s
        yield d_deg(core, "+"), (c + s) // 2
        yield d_deg(core, "-"), (c - s) // 2


def ind_A_to_D(chi: VirtualCharacter, side: str = "plus") -> VirtualCharacter:
    """Induction from S_n (side=plus) or its diamond image (side=minus)."""
    if chi.ctype != "A":
        raise ValueError("ind_A_to_D expects a type A character")
    if side not in ("plus", "minus"):
        raise ValueError(f"bad side: {side!r}")
    terms = [
        (lab, c * d) for nu, c in chi.coeffs.items() for lab, d in _ind_label_A_to_D(nu, side)
    ]
    return VirtualCharacter("D", chi.rank, terms)


def restrict_B_to_D(chi: VirtualCharacter) -> VirtualCharacter:
    if chi.ctype != "B":
        raise ValueError("restrict_B_to_D expects a type B character")
    terms = []
    for (lam, mu), c in chi.coeffs.items():
        if lam != mu:
            terms.append((d_set(lam, mu), c))
        else:
            terms += ((d_deg(lam, "+"), c), (d_deg(lam, "-"), c))
    return VirtualCharacter("D", chi.rank, terms)


def induce_D_to_B(chi: VirtualCharacter) -> VirtualCharacter:
    if chi.ctype != "D":
        raise ValueError("induce_D_to_B expects a type D character")
    terms = []
    for lab, c in chi.coeffs.items():
        if lab[0] == "set":
            terms += (((lab[1], lab[2]), c), ((lab[2], lab[1]), c))
        else:
            terms.append(((lab[1], lab[1]), c))
    return VirtualCharacter("B", chi.rank, terms)


# --- projections ----------------------------------------------------------------


def project(kind: str, chi: VirtualCharacter) -> VirtualCharacter:
    """Character-level projection onto the symmetric-group character ring."""
    if kind in ("piL", "piR"):
        if chi.ctype != "B":
            raise ValueError(f"{kind} expects a type B character")
        pos = 0 if kind == "piL" else 1
        terms = [(pair[pos], c) for pair, c in chi.coeffs.items() if pair[1 - pos] == ()]
    elif kind == "piD":
        if chi.ctype != "D":
            raise ValueError("piD expects a type D character")
        terms = [
            (lab[1], c) for lab, c in chi.coeffs.items() if lab[0] == "set" and lab[2] == ()
        ]
    else:
        raise ValueError(f"unknown projection: {kind!r}")
    return VirtualCharacter("A", chi.rank, terms)


# --- the column kinds -----------------------------------------------------------

# A column (alpha, beta, gamma) of a model index lies in one of three blocks:
# "A", a symmetric block (every type A column, and column 1 of types B and D
# at |alpha|), or "B" or "D", the sign-change block of column 0.
# COLUMN_KINDS maps (block, beta tag, gamma) to (betas, labels): betas(n)
# lists the beta symbols of the tag that a block of size n takes, betas(n,
# near) only those that could equal near (a lookup costs the same at any
# size), and labels(n, beta) the labels of the column's character, once each.
# The tag of a class ("pq", p, q) or ("tri", p, q, d) is ("pq",) or
# ("tri",), so no string symbol names one.
_PQ, _TRI = ("pq",), ("tri",)

# beta symbols that name the same column as another symbol of their block
COLUMN_ALIASES = {**{(block, "idplus"): "id" for block in "ABD"}, ("A", "fpfplus"): "fpf"}


def _one_row(n: int) -> Partition:
    return (n,) if n else ()


def _one_col(n: int) -> Partition:
    return (1,) * n


def _only(beta: str, fits=lambda n: True):
    """The betas of a string symbol: the symbol itself at the sizes that fit."""
    return lambda n, near=None, beta=beta, fits=fits: (beta,) if fits(n) else ()


# the betas of the string symbols, each built once for every entry it serves
_ID = _only("id")
_ID_FROM_2 = _only("id", lambda n: n >= 2)
_ID_BUT_1 = _only("id", lambda n: n != 1)
_AT_2 = {beta: _only(beta, lambda n: n == 2) for beta in ("id", "fpf", "fpfdiamond")}
_FPF = _only("fpf", lambda n: n % 2 == 0)
_FPF_DIAMOND = _only("fpfdiamond", lambda n: n % 2 == 0)


def _splits(n: int, near=None) -> tuple:
    """("pq", p, q): two nonempty parts that fill the block."""
    ps = range(1, n) if near is None else [p for p in near[1:2] if 0 < p < n]
    return tuple(("pq", p, n - p) for p in ps)


def _d_splits(n: int, near=None) -> tuple:
    return _splits(n, near) if n > 2 else ()


def _trialities(n: int, near=None) -> tuple:
    rotations = (("tri", p, q, d) for p, q in ((3, 1), (1, 3)) for d in ("cw", "ccw"))
    return tuple(rotations) if n == 4 else ()


def _two_rows(n: int, beta, transposed: bool = False) -> list[Partition]:
    """The shapes (n - j, j), j = 0 .. min(p, q), of a split class, or
    their transposes."""
    shapes = [tuple(x for x in (n - j, j) if x > 0) for j in range(min(beta[1:]) + 1)]
    return [pt.transpose(lam) for lam in shapes] if transposed else shapes


def _b_split(n: int, beta, left: bool, transposed: bool) -> list:
    """A split class's shapes as B labels, in the left or right component."""
    return [(lam, ()) if left else ((), lam) for lam in _two_rows(n, beta, transposed)[::-1]]


def _d_fpf(n: int, sign: str, rows: bool) -> list:
    pairs, cores = (pt.erows_d, pt.erows) if rows else (pt.ecols_d, pt.ecols)
    labels = [("set",) + pair for pair in pairs(n)]
    if n % 4 == 0:
        labels += (d_deg(core, sign) for core in cores(n // 2))
    return labels


def _tri_sign(beta) -> str:
    return "+" if beta[3] == "cw" else "-"


COLUMN_KINDS = {
    ("A", "id", "triv"): (_ID, lambda n, b: [_one_row(n)]),
    ("A", "id", "sgn"): (_ID, lambda n, b: [_one_col(n)]),
    ("A", "fpf", "triv"): (_FPF, lambda n, b: pt.erows(n)),
    ("A", "fpf", "sgn"): (_FPF, lambda n, b: pt.ecols(n)),
    ("B", "id", "triv"): (_ID, lambda n, b: [(_one_row(n), ())]),
    ("B", "id", "sgn"): (_ID, lambda n, b: [((), _one_col(n))]),
    ("B", "id", "pm"): (_ID_FROM_2, lambda n, b: [(_one_col(n), ())]),
    ("B", "id", "mp"): (_ID_FROM_2, lambda n, b: [((), _one_row(n))]),
    # the centralizer of a fixed-point-free class avoids the sign-change
    # generator, where pm and mp would restrict to sgn and triv
    ("B", "fpf", "triv"): (_FPF, lambda n, b: pt.erows_b(n)),
    ("B", "fpf", "sgn"): (_FPF, lambda n, b: pt.ecols_b(n)),
    ("B", _PQ, "triv"): (_splits, lambda n, b: _b_split(n, b, True, False)),
    ("B", _PQ, "sgn"): (_splits, lambda n, b: _b_split(n, b, False, True)),
    ("B", _PQ, "pm"): (_splits, lambda n, b: _b_split(n, b, True, True)),
    ("B", _PQ, "mp"): (_splits, lambda n, b: _b_split(n, b, False, False)),
    ("D", "id", "triv"): (_ID_BUT_1, lambda n, b: [d_set(_one_row(n), ())]),
    ("D", "id", "sgn"): (_ID_BUT_1, lambda n, b: [d_set(_one_col(n), ())]),
    ("D", "fpf", "triv"): (_FPF, lambda n, b: _d_fpf(n, "+", True)),
    ("D", "fpf", "sgn"): (_FPF, lambda n, b: _d_fpf(n, "+", False)),
    ("D", "fpfdiamond", "triv"): (_FPF_DIAMOND, lambda n, b: _d_fpf(n, "-", True)),
    ("D", "fpfdiamond", "sgn"): (_FPF_DIAMOND, lambda n, b: _d_fpf(n, "-", False)),
    ("D", _PQ, "triv"): (_d_splits, lambda n, b: [d_set(lam, ()) for lam in _two_rows(n, b)]),
    ("D", _PQ, "sgn"): (_d_splits, lambda n, b: [d_set(lam, ()) for lam in _two_rows(n, b, True)]),
    ("D", _TRI, "triv"): (_trialities, lambda n, b: [d_set((4,), ()), d_deg((2,), _tri_sign(b))]),
    ("D", _TRI, "sgn"): (
        _trialities,
        lambda n, b: [d_set((1, 1, 1, 1), ()), d_deg((1, 1), _tri_sign(b))],
    ),
    # Rank-2 groups are abelian: every class is central, its centralizer is
    # everything, and the character is gamma itself.
    **{
        ("D", beta, gamma): (betas, lambda n, b, sign=sign: [d_deg((1,), sign)])
        for beta, betas in _AT_2.items()
        for gamma, sign in (("mp", "+"), ("pm", "-"))
    },
}


def column_kind(block: str, column: tuple):
    """The labels function of a column in its block ("A", "B" or "D"), or
    None when the block has no such column."""
    alpha, beta, gamma = column
    if isinstance(beta, str):
        beta = tag = COLUMN_ALIASES.get((block, beta), beta)
    else:
        tag = beta[:1]
    kind = COLUMN_KINDS.get((block, tag, gamma))
    if kind is None or beta not in kind[0](abs(alpha), beta):
        return None
    return kind[1]


def columns_of(block: str, alpha: int) -> list:
    """Every column of size alpha that column_kind takes in the block, each
    alias spelled too; a negative alpha is read at |alpha|."""
    kinds = [(gamma, betas) for (b, _, gamma), (betas, _) in COLUMN_KINDS.items() if b == block]
    spelled = [(alpha, beta, gamma) for gamma, betas in kinds for beta in betas(abs(alpha))]
    aliases = [(alias, target) for (b, alias), target in COLUMN_ALIASES.items() if b == block]
    return spelled + [(alpha, a, g) for a, t in aliases for _, beta, g in spelled if beta == t]


def column_char(ctype: str, column: tuple) -> VirtualCharacter:
    """The closed-form character of one nonempty model-index column in the
    block of its type (a size-0 column names no generators)."""
    n = abs(column[0])
    labels = column_kind(ctype, column) if n else None
    if labels is None:
        raise ValueError(f"no type {ctype} column {column!r}")
    return VirtualCharacter(ctype, n, [(lab, 1) for lab in labels(n, column[1])])
