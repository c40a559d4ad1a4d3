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

A VirtualCharacter may carry "unresolved" degenerate mass: a total +/-
multiplicity per core whose split into signs is not yet known.
"""

from __future__ import annotations

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


# --- virtual characters ------------------------------------------------------


class VirtualCharacter:
    """Sparse integer combination of irreducible labels of one type/rank."""

    __slots__ = ("ctype", "rank", "coeffs", "unresolved")

    def __init__(self, ctype: str, rank: int, coeffs=None, unresolved=None):
        self.ctype = ctype
        self.rank = rank
        self.coeffs: dict = {}
        self.unresolved: dict[Partition, int] = {}
        if coeffs:
            for lab, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                self.add(lab, c)
        if unresolved:
            items = unresolved.items() if isinstance(unresolved, dict) else unresolved
            for core, m in items:
                self.add_unresolved(core, m)

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

    def add_unresolved(self, core: Partition, mass: int) -> "VirtualCharacter":
        if mass == 0:
            return self
        if mass < 0:
            raise ValueError("unresolved mass must be nonnegative")
        if self.ctype != "D" or self.rank % 2 != 0 or 2 * sum(core) != self.rank:
            raise ValueError(f"bad unresolved core {core} for {self.ctype}{self.rank}")
        self.unresolved[core] = self.unresolved.get(core, 0) + mass
        return self

    def add_char(self, other: "VirtualCharacter", scale: int = 1) -> "VirtualCharacter":
        if (other.ctype, other.rank) != (self.ctype, self.rank):
            raise ValueError("type/rank mismatch in character sum")
        for lab, c in other.coeffs.items():
            self.add(lab, scale * c)
        for core, m in other.unresolved.items():
            self.add_unresolved(core, scale * m)
        return self

    def copy(self) -> "VirtualCharacter":
        out = VirtualCharacter(self.ctype, self.rank)
        out.coeffs = dict(self.coeffs)
        out.unresolved = dict(self.unresolved)
        return out

    def has_unresolved(self) -> bool:
        return bool(self.unresolved)

    def sorted_items(self):
        idx = _universe_index(self.ctype, self.rank)
        return sorted(self.coeffs.items(), key=lambda kv: idx[kv[0]])

    def degree(self) -> int:
        total = sum(c * degree(self.ctype, lab) for lab, c in self.coeffs.items())
        for core, m in self.unresolved.items():
            total += m * degree("D", ("deg", core, "+"))
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VirtualCharacter)
            and self.ctype == other.ctype
            and self.rank == other.rank
            and self.coeffs == other.coeffs
            and self.unresolved == other.unresolved
        )

    def __hash__(self):
        return hash(
            (
                self.ctype,
                self.rank,
                frozenset(self.coeffs.items()),
                frozenset(self.unresolved.items()),
            )
        )

    def __repr__(self):
        parts = [
            (f"{c}*" if c != 1 else "") + format_label(self.ctype, lab)
            for lab, c in self.sorted_items()
        ]
        for core, m in sorted(self.unresolved.items(), key=lambda kv: pt.sort_key(kv[0])):
            parts.append(f"{m}?[{pt.format_partition(core)},±]")
        body = " + ".join(parts) if parts else "0"
        return f"<{self.ctype}{self.rank}: {body}>"

    def to_json(self) -> dict:
        doc = {
            "type": self.ctype,
            "rank": self.rank,
            "coeffs": [
                [format_label(self.ctype, lab), c] for lab, c in self.sorted_items()
            ],
        }
        if self.ctype == "D":
            doc["unresolved"] = [
                [pt.format_partition(core), m]
                for core, m in sorted(self.unresolved.items(), key=lambda kv: pt.sort_key(kv[0]))
            ]
        return doc


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
    for core, m in chi.unresolved.items():
        if kind == "sgn":
            out.add_unresolved(pt.transpose(core), m)
        elif kind == "diamond":
            out.add_unresolved(core, m)
        else:
            raise ValueError(f"twist {kind!r} undefined on unresolved mass")
    return out


# --- multiplicity-freeness -----------------------------------------------------


def is_multiplicity_free(chi: VirtualCharacter) -> bool | None:
    """True/False, or None when an unresolved degenerate split decides it.

    A degenerate core with total unresolved mass m splits as (a, m-a):
    m <= 1 is always multiplicity-free, m >= 3 never is, and m == 2 could
    be either (1,1) or (2,0), so the verdict is unknown (None).
    """
    for lab, c in chi.coeffs.items():
        if c < 0:
            raise ValueError(f"negative coefficient at {format_label(chi.ctype, lab)}")
        if c >= 2:
            return False
    unknown = False
    for core, m in chi.unresolved.items():
        both = sum(
            chi.coeffs.get(("deg", core, s), 0) for s in "+-"
        )
        if m + both >= 3 or (m >= 2 and both >= 1):
            return False
        if m == 2:
            unknown = True
    return None if unknown else True


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
