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
from functools import cache
from math import factorial
from types import MappingProxyType

from . import partitions as pt
from .char_ring import VirtualCharacter, d_deg, d_set, difference_value, mn_column_a
from .lr import lr_expand
from .partitions import Partition


# --- the bullet products ------------------------------------------------------


@cache
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


@cache
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
    # sum skips the per-term rank check of `VirtualCharacter.add`.
    coeffs: dict = {}
    for lab1, c1 in f.coeffs.items():
        for lab2, c2 in g.coeffs.items():
            for lab, d in table(lab1, lab2).items():
                new = coeffs.get(lab, 0) + c1 * c2 * d
                if new:
                    coeffs[lab] = new
                else:
                    coeffs.pop(lab, None)
    out = VirtualCharacter(ctype, f.rank + g.rank)
    out.coeffs = coeffs
    return out


# --- cross-type inductions ----------------------------------------------------

# c^nu_{lam,mu} vanishes unless both lam and mu fit inside nu (Macdonald,
# "Symmetric Functions and Hall Polynomials", I.9), so the inductions from
# S_n read only the pairs inside nu, from the cached `lr_expand`.


@cache
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
    out = VirtualCharacter("B", chi.rank)
    for nu, c in chi.coeffs.items():
        for lam, mu in _pairs_inside(nu, unordered=False):
            d = lr_expand(lam, mu).get(nu, 0)
            if d:
                out.add((lam, mu), c * d)
    return out


@cache
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


def _ind_label_A_to_D(nu: Partition, side: str) -> VirtualCharacter:
    n = sum(nu)
    out = VirtualCharacter("D", n)
    for lam, mu in _pairs_inside(nu, unordered=True):
        d = lr_expand(lam, mu).get(nu, 0)
        if d:
            out.add(d_set(lam, mu), d)
    if n % 2 != 0:
        return out
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
        out.add(d_deg(core, "+"), (c + s) // 2)
        out.add(d_deg(core, "-"), (c - s) // 2)
    return out


def ind_A_to_D(chi: VirtualCharacter, side: str = "plus") -> VirtualCharacter:
    """Induction from S_n (side=plus) or its diamond image (side=minus)."""
    if chi.ctype != "A":
        raise ValueError("ind_A_to_D expects a type A character")
    if side not in ("plus", "minus"):
        raise ValueError(f"bad side: {side!r}")
    out = VirtualCharacter("D", chi.rank)
    for nu, c in chi.coeffs.items():
        out.add_char(_ind_label_A_to_D(nu, side), c)
    return out


def restrict_B_to_D(chi: VirtualCharacter) -> VirtualCharacter:
    if chi.ctype != "B":
        raise ValueError("restrict_B_to_D expects a type B character")
    out = VirtualCharacter("D", chi.rank)
    for (lam, mu), c in chi.coeffs.items():
        if lam != mu:
            out.add(d_set(lam, mu), c)
        else:
            out.add(d_deg(lam, "+"), c)
            out.add(d_deg(lam, "-"), c)
    return out


def induce_D_to_B(chi: VirtualCharacter) -> VirtualCharacter:
    if chi.ctype != "D":
        raise ValueError("induce_D_to_B expects a type D character")
    out = VirtualCharacter("B", chi.rank)
    for lab, c in chi.coeffs.items():
        if lab[0] == "set":
            out.add((lab[1], lab[2]), c)
            out.add((lab[2], lab[1]), c)
        else:
            out.add((lab[1], lab[1]), c)
    return out


# --- projections ----------------------------------------------------------------


def project(kind: str, chi: VirtualCharacter) -> VirtualCharacter:
    """Character-level projection onto the symmetric-group character ring."""
    out = VirtualCharacter("A", chi.rank)
    if kind in ("piL", "piR"):
        if chi.ctype != "B":
            raise ValueError(f"{kind} expects a type B character")
        pos = 0 if kind == "piL" else 1
        for (lam, mu), c in chi.coeffs.items():
            pair = (lam, mu)
            if pair[1 - pos] == ():
                out.add(pair[pos], c)
        return out
    if kind == "piD":
        if chi.ctype != "D":
            raise ValueError("piD expects a type D character")
        for lab, c in chi.coeffs.items():
            if lab[0] == "set" and lab[2] == ():
                out.add(lab[1], c)
        return out
    raise ValueError(f"unknown projection: {kind!r}")


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
        out = VirtualCharacter("A", n)
        if beta in ("id", "idplus"):
            out.add(_gamma_a_label(n, gamma))
        elif beta in ("fpf", "fpfplus"):
            if n % 2 != 0:
                raise ValueError(f"fpf column with odd size {n}")
            fam = pt.erows(n) if gamma == "triv" else pt.ecols(n)
            for lam in fam:
                out.add(lam)
        else:
            raise ValueError(f"bad A column: {column!r}")
        return out
    if ctype == "B":
        return _column_char_b(n, beta, gamma)
    if ctype == "D":
        return _column_char_d(n, beta, gamma)
    raise ValueError(f"bad character type: {ctype!r}")


def _column_char_b(n: int, beta, gamma: str) -> VirtualCharacter:
    out = VirtualCharacter("B", n)
    if beta in ("id", "idplus"):
        label = {
            "triv": (_one_row(n), ()),
            "sgn": ((), _one_col(n)),
            "pm": (_one_col(n), ()),
            "mp": ((), _one_row(n)),
        }.get(gamma)
        if label is None:
            raise ValueError(f"bad B column character: {gamma!r}")
        out.add(label)
        return out
    if beta == "fpf":
        if n % 2 != 0:
            raise ValueError(f"fpf column with odd size {n}")
        # The centralizer avoids the sign-change generator, so the mixed
        # linear characters restrict to triv/sgn and collapse onto them.
        eff = {"triv": "triv", "mp": "triv", "sgn": "sgn", "pm": "sgn"}[gamma]
        fam = pt.erows_b(n) if eff == "triv" else pt.ecols_b(n)
        for bp in fam:
            out.add(bp)
        return out
    if isinstance(beta, tuple) and beta[0] == "pq":
        p, q = beta[1], beta[2]
        if p + q != n or p <= 0 or q <= 0:
            raise ValueError(f"bad (p,q) column: {beta!r} at size {n}")
        lo, hi = min(p, q), max(p, q)
        shapes = []
        for r in range(lo + 1):
            parts = tuple(x for x in (hi + r, lo - r) if x > 0)
            shapes.append(parts)
        for lam in shapes:
            if gamma == "triv":
                out.add((lam, ()))
            elif gamma == "mp":
                out.add(((), lam))
            elif gamma == "sgn":
                out.add(((), pt.transpose(lam)))
            elif gamma == "pm":
                out.add((pt.transpose(lam), ()))
            else:
                raise ValueError(f"bad B column character: {gamma!r}")
        return out
    raise ValueError(f"bad B column: {beta!r}")


def _column_char_d(n: int, beta, gamma: str) -> VirtualCharacter:
    out = VirtualCharacter("D", n)
    if n == 0:
        raise ValueError("empty D columns have no character; skip them instead")
    if beta in ("id", "idplus"):
        if gamma == "triv":
            out.add(d_set(_one_row(n), ()))
        elif gamma == "sgn":
            out.add(d_set(_one_col(n), ()))
        elif gamma in ("pm", "mp"):
            if n != 2:
                raise ValueError("mixed D linear characters exist only at rank 2")
            out.add(d_deg((1,), "+" if gamma == "mp" else "-"))
        else:
            raise ValueError(f"bad D column character: {gamma!r}")
        return out
    if beta in ("fpf", "fpfdiamond"):
        if n % 2 != 0:
            raise ValueError(f"fpf column with odd size {n}")
        if n == 2 and gamma in ("pm", "mp"):
            # Rank-2 groups are abelian: the class is central, the
            # centralizer is everything, and the character is gamma itself.
            out.add(d_deg((1,), "+" if gamma == "mp" else "-"))
            return out
        sign = "+" if beta == "fpf" else "-"
        if gamma == "triv":
            for pair in pt.erows_d(n):
                out.add(("set",) + pair)
            if n % 4 == 0:
                for core in pt.erows(n // 2):
                    out.add(d_deg(core, sign))
        elif gamma == "sgn":
            for pair in pt.ecols_d(n):
                out.add(("set",) + pair)
            if n % 4 == 0:
                for core in pt.ecols(n // 2):
                    out.add(d_deg(core, sign))
        else:
            raise ValueError(f"bad D fpf column character: {gamma!r}")
        return out
    if isinstance(beta, tuple) and beta[0] == "pq":
        p, q = beta[1], beta[2]
        if p + q != n or p <= 0 or q <= 0:
            raise ValueError(f"bad (p,q) column: {beta!r} at size {n}")
        for j in range(min(p, q) + 1):
            if gamma == "triv":
                lam = tuple(x for x in (n - j, j) if x > 0)
                out.add(d_set(lam, ()))
            elif gamma == "sgn":
                lam = (2,) * j + (1,) * (n - 2 * j)
                out.add(d_set(lam, ()))
            else:
                raise ValueError(f"bad D (p,q) column character: {gamma!r}")
        return out
    if isinstance(beta, tuple) and beta[0] == "tri":
        if n != 4:
            raise ValueError("triality columns exist only at size 4")
        sign = "+" if beta[3] == "cw" else "-"
        if gamma == "triv":
            out.add(d_set((4,), ()))
            out.add(d_deg((2,), sign))
        elif gamma == "sgn":
            out.add(d_set((1, 1, 1, 1), ()))
            out.add(d_deg((1, 1), sign))
        else:
            raise ValueError(f"bad D triality column character: {gamma!r}")
        return out
    raise ValueError(f"bad D column: {beta!r}")
