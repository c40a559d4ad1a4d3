"""Virtual characters of the classical Weyl groups as sparse label sums.

Irreducible labels:
  type A: a partition of n.
  type B: an ordered pair of partitions (lam, mu) with |lam| + |mu| = n.
  type D: either ("set", lam, mu) for an unordered pair of distinct
          partitions, or ("deg", core, sign) with core a partition of n/2
          and sign "+" or "-".

The degenerate sign convention: the "+" character is the one taking the
larger value at the standard fixed-point-free involution s1 s3 ... s(n-1),
so chi[nu,+](w) - chi[nu,-](w) = 2^(n/2) * deg(nu) there.  This matches
GAP's CharacterTable("WeylD", n) labels.

The difference character delta = chi[nu,+] - chi[nu,-] vanishes except on
the split classes, whose signed cycle type 2mu has only positive cycles of
even length.  There delta(w) = eps(w) * 2^len(mu) * chi^nu(mu), with
eps(w) = +1 exactly when w is D_n-conjugate to an unsigned permutation
(Geck and Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
Algebras, 2000, type D).  The Murnaghan-Nakayama values below serve both
the symbolic split of an induction from S_n and the oracle's class values,
so every character here is exact.
"""

from __future__ import annotations

from functools import cache
from math import comb

from . import partitions as pt
from .partitions import Partition

# --- labels -----------------------------------------------------------------


def d_set(lam: Partition, mu: Partition) -> tuple:
    return ("set",) + pt.unordered_pair(lam, mu)


def d_deg(core: Partition, sign: str) -> tuple:
    if sign not in ("+", "-"):
        raise ValueError(f"bad degenerate sign: {sign!r}")
    return ("deg", core, sign)


def label_rank(ctype: str, label) -> int:
    if ctype == "A":
        return sum(label)
    if ctype == "B":
        return sum(label[0]) + sum(label[1])
    if ctype == "D":
        if label[0] == "set":
            return sum(label[1]) + sum(label[2])
        return 2 * sum(label[1])
    raise ValueError(f"bad character type: {ctype!r}")


def irr_universe(ctype: str, n: int) -> tuple:
    """Every irreducible label of the given type and rank, canonical order."""
    if n < 0:
        raise ValueError(f"negative rank: {n}")
    if ctype == "A":
        return pt.partitions_of(n)
    if ctype == "B":
        return tuple(pt.bipartitions_of(n))
    if ctype == "D":
        out = [("set",) + pair for pair in pt.unordered_bipartitions_of(n)]
        if n % 2 == 0:
            out.extend(("deg",) + lab for lab in pt.degenerate_labels(n))
        return tuple(out)
    raise ValueError(f"bad character type: {ctype!r}")


def label_sort_key(ctype: str, n: int, label) -> int:
    return _universe_index(ctype, n)[label]


_UNIVERSE_INDEX_CACHE: dict = {}


def _universe_index(ctype: str, n: int) -> dict:
    key = (ctype, n)
    if key not in _UNIVERSE_INDEX_CACHE:
        _UNIVERSE_INDEX_CACHE[key] = {
            lab: i for i, lab in enumerate(irr_universe(ctype, n))
        }
    return _UNIVERSE_INDEX_CACHE[key]


def format_label(ctype: str, label) -> str:
    if ctype == "A":
        return pt.format_partition(label)
    if ctype == "B":
        return pt.format_bipartition(label)
    if label[0] == "set":
        return pt.format_unordered((label[1], label[2]))
    return pt.format_degenerate(label[1], label[2])


def degree(ctype: str, label) -> int:
    """Dimension of the irreducible representation with this label."""
    if ctype == "A":
        return pt.standard_tableau_count(label)
    if ctype == "B":
        lam, mu = label
        n = sum(lam) + sum(mu)
        return (
            comb(n, sum(lam))
            * pt.standard_tableau_count(lam)
            * pt.standard_tableau_count(mu)
        )
    if label[0] == "set":
        lam, mu = label[1], label[2]
        n = sum(lam) + sum(mu)
        return (
            comb(n, sum(lam))
            * pt.standard_tableau_count(lam)
            * pt.standard_tableau_count(mu)
        )
    core = label[1]
    n = 2 * sum(core)
    full = comb(n, n // 2) * pt.standard_tableau_count(core) ** 2
    if full % 2:
        raise RuntimeError(f"odd degree sum for a degenerate pair: {label}")
    return full // 2


# --- symmetric and hyperoctahedral values (Murnaghan-Nakayama) ----------------


def _beta_set(lam: Partition, r: int):
    return tuple(lam[i] + (r - 1 - i) if i < len(lam) else (r - 1 - i) for i in range(r))


def _from_beta(beta):
    r = len(beta)
    lam = tuple(
        b - (r - 1 - i) for i, b in enumerate(sorted(beta, reverse=True))
    )
    return tuple(x for x in lam if x > 0)


@cache
def _strip_removals(lam: Partition, length: int):
    """(smaller partition, height sign) pairs after removing a border strip."""
    r = len(lam) + length  # enough beta numbers
    beta = set(_beta_set(lam, r))
    out = []
    for b in sorted(beta, reverse=True):
        nb = b - length
        if nb < 0 or nb in beta:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newset = set(beta)
        newset.remove(b)
        newset.add(nb)
        out.append((_from_beta(tuple(newset)), (-1) ** crossed))
    return tuple(out)


@cache
def mn_value_a(lam: Partition, cycles: tuple) -> int:
    """Symmetric group character value at the given cycle type."""
    if not cycles:
        return 1 if not lam else 0
    head, rest = cycles[0], cycles[1:]
    return sum(s * mn_value_a(mu, rest) for mu, s in _strip_removals(lam, head))


@cache
def mn_value_b(lam: Partition, mu: Partition, cycles: tuple) -> int:
    """Hyperoctahedral character value; cycles are (length, sign) pairs.

    A border strip for a cycle comes off either component; taking it off
    the second component of the label flips the sign for negative cycles.
    """
    if not cycles:
        return 1 if (not lam and not mu) else 0
    (length, sign), rest = cycles[0], cycles[1:]
    total = 0
    for nl, s in _strip_removals(lam, length):
        total += s * mn_value_b(nl, mu, rest)
    for nm, s in _strip_removals(mu, length):
        total += sign * s * mn_value_b(lam, nm, rest)
    return total


def difference_value(core: Partition, mu: Partition) -> int:
    """chi[core,+] - chi[core,-] at an unsigned permutation of cycle type 2mu."""
    return 2 ** len(mu) * mn_value_a(core, mu)


# --- virtual characters ------------------------------------------------------


class VirtualCharacter:
    """Sparse integer combination of irreducible labels of one type/rank."""

    __slots__ = ("ctype", "rank", "coeffs")

    def __init__(self, ctype: str, rank: int, coeffs=None):
        self.ctype = ctype
        self.rank = rank
        self.coeffs: dict = {}
        if coeffs:
            for lab, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                self.add(lab, c)

    def add(self, label, c: int = 1) -> "VirtualCharacter":
        if c == 0:
            return self
        if label_rank(self.ctype, label) != self.rank:
            raise ValueError(
                f"label {format_label(self.ctype, label)} has wrong rank "
                f"for {self.ctype}{self.rank}"
            )
        new = self.coeffs.get(label, 0) + c
        if new:
            self.coeffs[label] = new
        else:
            self.coeffs.pop(label, None)
        return self

    def add_char(self, other: "VirtualCharacter", scale: int = 1) -> "VirtualCharacter":
        if (other.ctype, other.rank) != (self.ctype, self.rank):
            raise ValueError("type/rank mismatch in character sum")
        for lab, c in other.coeffs.items():
            self.add(lab, scale * c)
        return self

    def sorted_items(self):
        idx = _universe_index(self.ctype, self.rank)
        return sorted(self.coeffs.items(), key=lambda kv: idx[kv[0]])

    def degree(self) -> int:
        return sum(c * degree(self.ctype, lab) for lab, c in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VirtualCharacter)
            and self.ctype == other.ctype
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctype, self.rank, frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = [
            (f"{c}*" if c != 1 else "") + format_label(self.ctype, lab)
            for lab, c in self.sorted_items()
        ]
        body = " + ".join(parts) if parts else "0"
        return f"<{self.ctype}{self.rank}: {body}>"

    def to_json(self) -> dict:
        return {
            "type": self.ctype,
            "rank": self.rank,
            "coeffs": [
                [format_label(self.ctype, lab), c] for lab, c in self.sorted_items()
            ],
        }


def char_of(ctype: str, label, c: int = 1) -> VirtualCharacter:
    return VirtualCharacter(ctype, label_rank(ctype, label), [(label, c)])


# --- twists -------------------------------------------------------------------


def _twist_label(ctype: str, label, kind: str):
    if kind == "sgn":
        if ctype == "A":
            return pt.transpose(label)
        if ctype == "B":
            lam, mu = label
            return (pt.transpose(mu), pt.transpose(lam))
        if label[0] == "set":
            return d_set(pt.transpose(label[1]), pt.transpose(label[2]))
        core, sign = label[1], label[2]
        half = sum(core)
        flip = half % 2 == 1
        new_sign = sign if not flip else ("-" if sign == "+" else "+")
        return d_deg(pt.transpose(core), new_sign)
    if kind == "diamond":
        if ctype != "D":
            raise ValueError("diamond twist applies to type D only")
        if label[0] == "set":
            return label
        return d_deg(label[1], "-" if label[2] == "+" else "+")
    if kind == "b_minusplus":
        if ctype != "B":
            raise ValueError("b_minusplus twist applies to type B only")
        lam, mu = label
        return (mu, lam)
    if kind == "b_plusminus":
        if ctype != "B":
            raise ValueError("b_plusminus twist applies to type B only")
        lam, mu = label
        return (pt.transpose(lam), pt.transpose(mu))
    raise ValueError(f"unknown twist kind: {kind!r}")


def twist(chi: VirtualCharacter, kind: str) -> VirtualCharacter:
    out = VirtualCharacter(chi.ctype, chi.rank)
    for lab, c in chi.coeffs.items():
        out.add(_twist_label(chi.ctype, lab, kind), c)
    return out


# --- multiplicity-freeness -----------------------------------------------------


def is_multiplicity_free(chi: VirtualCharacter) -> bool:
    """Does every constituent occur at most once?"""
    for lab, c in chi.coeffs.items():
        if c < 0:
            raise ValueError(f"negative coefficient at {format_label(chi.ctype, lab)}")
        if c >= 2:
            return False
    return True


# --- parsing ---------------------------------------------------------------------


def parse_label(ctype: str, text: str):
    text = text.strip()
    if ctype == "A":
        return pt.parse_partition(text)
    if ctype == "B":
        if not (text.startswith("((") or text.startswith("((")) and text.endswith(")"):
            raise ValueError(f"bad B label: {text!r}")
        lam, mu = _split_pair(text[1:-1])
        return (pt.parse_partition(lam), pt.parse_partition(mu))
    if ctype == "D":
        if text.startswith("{") and text.endswith("}"):
            a, b = _split_pair(text[1:-1])
            return d_set(pt.parse_partition(a), pt.parse_partition(b))
        if text.startswith("[") and text.endswith("]"):
            core, sign = text[1:-1].rsplit(",", 1)
            return d_deg(pt.parse_partition(core), sign.strip())
        raise ValueError(f"bad D label: {text!r}")
    raise ValueError(f"bad character type: {ctype!r}")


def _split_pair(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ValueError(f"cannot split pair: {body!r}")
