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

Murnaghan-Nakayama is written once, by columns: p_mu = sum over lam of
chi^lam(mu) s_lam (Stanley, EC2 7.17), so the values at one cycle type
form one column {label: value}, built by adding the first cycle's border
strips to the cached column of the remaining cycles.  In type B a strip
goes on either component, and a negative cycle flips the sign of strips
on the second.  `mn_value_a`, `mn_value_b` and `difference_value` read
these columns.  Every cache here is an `lru_cache` bounded by
`partitions.CACHE_KEYS`.

A `VirtualCharacter` is immutable: built once from its terms, with a
read-only `coeffs`, and `add` returns a new value.  So a cache can hand
out the character itself, without a copy.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

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


@lru_cache(maxsize=pt.CACHE_KEYS)
def _universe_index(ctype: str, n: int) -> MappingProxyType:
    """{label: position in `irr_universe(ctype, n)`}, read-only."""
    return MappingProxyType({lab: i for i, lab in enumerate(irr_universe(ctype, n))})


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
    if ctype == "B" or label[0] == "set":
        lam, mu = label if ctype == "B" else label[1:]
        n = sum(lam) + sum(mu)
        return comb(n, sum(lam)) * pt.standard_tableau_count(lam) * pt.standard_tableau_count(mu)
    core = label[1]
    n = 2 * sum(core)
    full = comb(n, n // 2) * pt.standard_tableau_count(core) ** 2
    if full % 2:
        raise RuntimeError(f"odd degree sum for a degenerate pair: {label}")
    return full // 2


# --- symmetric and hyperoctahedral values (Murnaghan-Nakayama) ----------------
#
# One column per cycle type (see the module docstring); cycle types that
# share a tail share its column.

@lru_cache(maxsize=pt.CACHE_KEYS)
def _strip_additions(nu: Partition, length: int) -> tuple:
    """(larger partition, height sign) pairs after adding a border strip.

    On beta numbers x_j = nu_j + r - 1 - j a strip moves bead i up by
    `length` to a free place, past the beads p .. i-1; rows p+1 .. i then
    take the row above plus one, and row p the rest of the strip.
    """
    if length < 1:
        raise ValueError(f"a border strip has positive length, not {length}")
    ext = list(nu) + [0] * length  # enough rows for `length` new ones
    r = len(ext)
    beta = [x + r - 1 - j for j, x in enumerate(ext)]
    out = []
    for i, b in enumerate(beta):
        top = b + length
        p = i
        while p and beta[p - 1] < top:
            p -= 1
        if p and beta[p - 1] == top:
            continue
        lam = ext[:p] + [ext[i] + length - (i - p)] + [x + 1 for x in ext[p:i]] + ext[i + 1 :]
        while not lam[-1]:
            lam.pop()
        out.append((tuple(lam), -1 if (i - p) % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=pt.CACHE_KEYS)
def mn_column_a(cycles: tuple) -> MappingProxyType:
    """{lam: chi^lam(cycles)} over the partitions lam where it is nonzero."""
    if not cycles:
        return MappingProxyType({(): 1})
    head = cycles[0]
    col: dict = {}
    for nu, v in mn_column_a(cycles[1:]).items():
        for lam, s in _strip_additions(nu, head):
            col[lam] = col.get(lam, 0) + s * v
    return MappingProxyType({lam: v for lam, v in col.items() if v})


@lru_cache(maxsize=pt.CACHE_KEYS)
def mn_column_b(cycles: tuple) -> MappingProxyType:
    """{(lam, mu): value} of the hyperoctahedral characters, where nonzero.

    `cycles` are (length, sign) pairs.  A border strip for a cycle goes on
    either component; on the second component a negative cycle flips its
    sign.
    """
    if not cycles:
        return MappingProxyType({((), ()): 1})
    length, sign = cycles[0]
    col: dict = {}
    get = col.get
    for (lam, mu), v in mn_column_b(cycles[1:]).items():
        for nl, s in _strip_additions(lam, length):
            key = nl, mu
            col[key] = get(key, 0) + s * v
        v *= sign
        for nm, s in _strip_additions(mu, length):
            key = lam, nm
            col[key] = get(key, 0) + s * v
    return MappingProxyType({lab: v for lab, v in col.items() if v})


def mn_value_a(lam: Partition, cycles: tuple) -> int:
    """Symmetric group character value at the given cycle type."""
    return mn_column_a(tuple(cycles)).get(lam, 0)


def mn_value_b(lam: Partition, mu: Partition, cycles: tuple) -> int:
    """Hyperoctahedral character value; cycles are (length, sign) pairs."""
    return mn_column_b(tuple(cycles)).get((lam, mu), 0)


def difference_value(core: Partition, mu: Partition) -> int:
    """chi[core,+] - chi[core,-] at an unsigned permutation of cycle type 2mu."""
    return 2 ** len(mu) * mn_column_a(tuple(mu)).get(core, 0)


# --- virtual characters ------------------------------------------------------


class VirtualCharacter:
    """Immutable sparse integer combination of irreducible labels of one
    type/rank, summed once from (label, c) terms or a mapping: each label's
    rank is checked, and zero sums are dropped."""

    __slots__ = ("ctype", "rank", "coeffs")

    def __new__(cls, ctype: str, rank: int, terms=()):
        coeffs: dict = {}
        get = coeffs.get
        # concrete types, not the Mapping ABC, whose first check in a process
        # walks the ABC's registry and subclasses
        for lab, c in (terms.items() if isinstance(terms, (dict, MappingProxyType)) else terms):
            if not c:
                continue
            if label_rank(ctype, lab) != rank:
                raise ValueError(
                    f"label {format_label(ctype, lab)} has wrong rank for {ctype}{rank}"
                )
            new = get(lab, 0) + c
            if new:
                coeffs[lab] = new
            else:
                del coeffs[lab]
        return _trusted_character(ctype, rank, coeffs)

    def _immutable(self, *args):
        raise AttributeError("VirtualCharacter is immutable")

    __setattr__ = __delattr__ = _immutable

    def add(self, label, c: int = 1) -> "VirtualCharacter":
        """This character plus c times `label`, as a new value."""
        return VirtualCharacter(self.ctype, self.rank, [*self.coeffs.items(), (label, c)])

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


def _trusted_character(ctype: str, rank: int, coeffs: dict) -> VirtualCharacter:
    """A character on a {label: nonzero c} dict the program summed, unchecked."""
    chi = object.__new__(VirtualCharacter)
    object.__setattr__(chi, "ctype", ctype)
    object.__setattr__(chi, "rank", rank)
    object.__setattr__(chi, "coeffs", MappingProxyType(coeffs))
    return chi


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
    terms = [(_twist_label(chi.ctype, lab, kind), c) for lab, c in chi.coeffs.items()]
    return VirtualCharacter(chi.ctype, chi.rank, terms)


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
        if not (text.startswith("(") and text.endswith(")")):
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
