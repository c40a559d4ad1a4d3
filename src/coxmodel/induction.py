"""Induction products, cross-type inductions, projections, column characters.

The three products are parabolic inductions of outer tensor products:
type A from S_p x S_q, type B from B_p x B_q, type D from D_p x D_q.
A and B reduce to Littlewood-Richardson coefficients componentwise.  The
D product uses the coefficient case table on unordered / degenerate labels;
every label-level D product is also cross-checked against its induction to
type B, which must equal the B product of the inductions of the factors.

Induction from S_n to even-rank D_n splits each degenerate pair by the
difference character restricted to S_n (see char_ring), so every
character built here is exact.
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


# Each bound is above the keys that one classify at SEARCH_CAPS (both
# relations) touches, and those of the sweep A1-A16, B1-B8, D3-D8 in one
# process.  Label pairs: at most 314 per classify (B8), 913 per sweep.
BULLET_B_CACHE_SIZE = 4096


@lru_cache(maxsize=BULLET_B_CACHE_SIZE)
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


# label pairs: at most 120 per classify (D8), 296 per sweep
BULLET_D_CACHE_SIZE = 1024


@lru_cache(maxsize=BULLET_D_CACHE_SIZE)
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


# partitions: at most 15 per classify (B8), 15 per sweep
INSIDE_CACHE_SIZE = 256


@lru_cache(maxsize=INSIDE_CACHE_SIZE)
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


# (partition, core) pairs: at most 22 per classify (D8), 22 per sweep
DIFFERENCE_CACHE_SIZE = 1024


@lru_cache(maxsize=DIFFERENCE_CACHE_SIZE)
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


# --- closed-form column characters -----------------------------------------------


def _one_row(n: int) -> Partition:
    return (n,) if n else ()


def _one_col(n: int) -> Partition:
    return (1,) * n


def _gamma_a_label(n: int, gamma: str) -> Partition:
    if gamma == "triv":
        return _one_row(n)
    if gamma == "sgn":
        return _one_col(n)
    raise ValueError(f"bad A column character: {gamma!r}")


def column_char(ctype: str, column: tuple) -> VirtualCharacter:
    """The closed-form character of a single model-index column."""
    alpha, beta, gamma = column
    n = abs(alpha)
    if ctype == "A":
        if beta in ("id", "idplus"):
            labels = [_gamma_a_label(n, gamma)]
        elif beta in ("fpf", "fpfplus"):
            if n % 2 != 0:
                raise ValueError(f"fpf column with odd size {n}")
            labels = pt.erows(n) if gamma == "triv" else pt.ecols(n)
        else:
            raise ValueError(f"bad A column: {column!r}")
    elif ctype == "B":
        labels = _column_labels_b(n, beta, gamma)
    elif ctype == "D":
        labels = _column_labels_d(n, beta, gamma)
    else:
        raise ValueError(f"bad character type: {ctype!r}")
    return VirtualCharacter(ctype, n, [(lab, 1) for lab in labels])


def _column_labels_b(n: int, beta, gamma: str):
    if beta in ("id", "idplus"):
        label = {
            "triv": (_one_row(n), ()),
            "sgn": ((), _one_col(n)),
            "pm": (_one_col(n), ()),
            "mp": ((), _one_row(n)),
        }.get(gamma)
        if label is None:
            raise ValueError(f"bad B column character: {gamma!r}")
        return [label]
    if beta == "fpf":
        if n % 2 != 0:
            raise ValueError(f"fpf column with odd size {n}")
        # The centralizer avoids the sign-change generator, so the mixed
        # linear characters restrict to triv/sgn and collapse onto them.
        eff = {"triv": "triv", "mp": "triv", "sgn": "sgn", "pm": "sgn"}[gamma]
        return pt.erows_b(n) if eff == "triv" else pt.ecols_b(n)
    if isinstance(beta, tuple) and beta[0] == "pq":
        p, q = beta[1], beta[2]
        if p + q != n or p <= 0 or q <= 0:
            raise ValueError(f"bad (p,q) column: {beta!r} at size {n}")
        lo, hi = min(p, q), max(p, q)
        shapes = [tuple(x for x in (hi + r, lo - r) if x > 0) for r in range(lo + 1)]
        if gamma == "triv":
            return [(lam, ()) for lam in shapes]
        if gamma == "mp":
            return [((), lam) for lam in shapes]
        if gamma == "sgn":
            return [((), pt.transpose(lam)) for lam in shapes]
        if gamma == "pm":
            return [(pt.transpose(lam), ()) for lam in shapes]
        raise ValueError(f"bad B column character: {gamma!r}")
    raise ValueError(f"bad B column: {beta!r}")


def _column_labels_d(n: int, beta, gamma: str):
    if n == 0:
        raise ValueError("empty D columns have no character; skip them instead")
    if beta in ("id", "idplus"):
        if gamma == "triv":
            return [d_set(_one_row(n), ())]
        if gamma == "sgn":
            return [d_set(_one_col(n), ())]
        if gamma in ("pm", "mp"):
            if n != 2:
                raise ValueError("mixed D linear characters exist only at rank 2")
            return [d_deg((1,), "+" if gamma == "mp" else "-")]
        raise ValueError(f"bad D column character: {gamma!r}")
    if beta in ("fpf", "fpfdiamond"):
        if n % 2 != 0:
            raise ValueError(f"fpf column with odd size {n}")
        if n == 2 and gamma in ("pm", "mp"):
            # Rank-2 groups are abelian: the class is central, the
            # centralizer is everything, and the character is gamma itself.
            return [d_deg((1,), "+" if gamma == "mp" else "-")]
        sign = "+" if beta == "fpf" else "-"
        if gamma == "triv":
            pairs, cores = pt.erows_d(n), pt.erows
        elif gamma == "sgn":
            pairs, cores = pt.ecols_d(n), pt.ecols
        else:
            raise ValueError(f"bad D fpf column character: {gamma!r}")
        labels = [("set",) + pair for pair in pairs]
        if n % 4 == 0:
            labels += (d_deg(core, sign) for core in cores(n // 2))
        return labels
    if isinstance(beta, tuple) and beta[0] == "pq":
        p, q = beta[1], beta[2]
        if p + q != n or p <= 0 or q <= 0:
            raise ValueError(f"bad (p,q) column: {beta!r} at size {n}")
        if gamma == "triv":
            shapes = (tuple(x for x in (n - j, j) if x > 0) for j in range(min(p, q) + 1))
        elif gamma == "sgn":
            shapes = ((2,) * j + (1,) * (n - 2 * j) for j in range(min(p, q) + 1))
        else:
            raise ValueError(f"bad D (p,q) column character: {gamma!r}")
        return [d_set(lam, ()) for lam in shapes]
    if isinstance(beta, tuple) and beta[0] == "tri":
        if n != 4:
            raise ValueError("triality columns exist only at size 4")
        sign = "+" if beta[3] == "cw" else "-"
        if gamma == "triv":
            return [d_set((4,), ()), d_deg((2,), sign)]
        if gamma == "sgn":
            return [d_set((1, 1, 1, 1), ()), d_deg((1, 1), sign)]
        raise ValueError(f"bad D triality column character: {gamma!r}")
    raise ValueError(f"bad D column: {beta!r}")
