"""Model indexes: validity, rewrites, equivalence, and their characters.

An index packages a model triple for one of the classical families as a
list of columns (alpha, beta, gamma): alpha is the block size, beta names
the twisted involution class inside the block, gamma the linear character.
Type A allows any number of columns (alpha = 0 only in the two-column
form); types B and D have exactly two columns, the first containing the
sign-change end of the diagram.  In type D the second alpha may be
negative, meaning the diagram-flipped copy of the symmetric block.

Beta symbols: "id", "idplus", "fpf", "fpfplus", "fpfdiamond",
("pq", p, q), ("tri", p, q, "cw"/"ccw").  Gamma symbols: "triv", "sgn",
and for the sign-change block "pm" (positive on the leftmost generator)
and "mp" (negative there).  Which (alpha, beta, gamma) a block takes is
read from one table, induction.COLUMN_KINDS, which also gives each
column's character; validate keeps only the rules of a whole index
(column count, rank 0, signs of the sizes, the fpf floor of column 1).

The normal form of an index is each column's normal form in its block,
one rule for every block (`_normal_column`), with type A's empty columns
dropped.  The enumerator spells each block's columns from the table and
keeps those that rule leaves as they are; the projections to type A
return the normal form of the columns they spell.

Two indexes are strongly equivalent when related by value-preserving
rewrites, duality, or inner diagram symmetries; full equivalence also
allows the sign twist and the outer symmetries (the flip in even rank D,
the rank-4 triality, the rank-2 swap in type B).  An orbit is walked on
column tuples, and its least member by `ModelIndex.key` is its canonical
form.  canonical_form and the strong class representatives of
enumerate_indices read it from one bounded cache keyed by (type, columns,
relation), which a walk fills for the whole orbit; only the least member
is built as an index.  equivalence_orbit walks without the cache and
builds every member.

Each column's character is built once into one bounded cache and shared,
since characters are immutable: character_of_index returns it unchanged
for an index with one nonempty column.  character_of_index checks its
index; the multiplicity-free filter skips the check on the enumerator's.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product

from .char_ring import VirtualCharacter, is_multiplicity_free
from .induction import bullet, column_char, column_kind, columns_of, ind_A_to_B, ind_A_to_D
from .partitions import CACHE_KEYS

_BETA_ORDER = {"id": 0, "idplus": 1, "fpf": 2, "fpfplus": 3, "fpfdiamond": 4}
_GAMMA_ORDER = {"triv": 0, "sgn": 1, "pm": 2, "mp": 3}


# The argument types of the tuple beta symbols after their tag.
_BETA_SHAPES = {"pq": (int, int), "tri": (int, int, str)}


def _is(x, typ) -> bool:
    return isinstance(x, typ) and not isinstance(x, bool)


def _beta_symbol(beta):
    """A beta symbol as stored: a str, ("pq", p, q) or ("tri", p, q, d)."""
    if isinstance(beta, str):
        return beta
    if isinstance(beta, (list, tuple)) and beta and isinstance(beta[0], str):
        shape = _BETA_SHAPES.get(beta[0])
        if (
            shape is not None
            and len(beta) == 1 + len(shape)
            and all(map(_is, beta[1:], shape))
        ):
            return tuple(beta)
    raise ValueError(f"bad beta symbol: {beta!r}")


def _beta_key(beta) -> tuple:
    if isinstance(beta, str):
        return (_BETA_ORDER[beta],)
    if beta[0] == "pq":
        return (5, beta[1], beta[2])
    return (6, beta[1], beta[2], 0 if beta[3] == "cw" else 1)


def _columns_key(cols: tuple) -> tuple:
    """The order of indexes of one type, read off their columns."""
    return (
        len(cols),
        tuple((a, _beta_key(b), _GAMMA_ORDER[g]) for a, b, g in cols),
    )


class ModelIndex:
    """Immutable index value; columns is a tuple of (alpha, beta, gamma)."""

    __slots__ = ("ctype", "columns")

    def __init__(self, ctype: str, columns):
        if ctype not in ("A", "B", "D"):
            raise ValueError(f"bad index type: {ctype!r}")
        cols = []
        for col in columns:
            alpha, beta, gamma = col
            if not _is(alpha, int):
                raise ValueError(f"bad block size: {alpha!r}")
            if not isinstance(gamma, str):
                raise ValueError(f"bad character symbol: {gamma!r}")
            cols.append((alpha, _beta_symbol(beta), gamma))
        object.__setattr__(self, "ctype", ctype)
        object.__setattr__(self, "columns", tuple(cols))

    def __setattr__(self, name, value):
        raise AttributeError("ModelIndex is immutable")

    @property
    def rank(self) -> int:
        return sum(abs(a) for a, _, _ in self.columns)

    def key(self) -> tuple:
        return (self.ctype, *_columns_key(self.columns))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelIndex)
            and self.ctype == other.ctype
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ctype, self.columns))

    def __repr__(self):
        return f"ModelIndex({self.ctype!r}, {list(self.columns)!r})"

    def __str__(self):
        return format_index(self)

    def to_json(self) -> dict:
        return {
            "type": self.ctype,
            "alpha": [a for a, _, _ in self.columns],
            "beta": [list(b) if isinstance(b, tuple) else b for _, b, _ in self.columns],
            "gamma": [g for _, _, g in self.columns],
        }


def _trusted_index(ctype: str, columns: tuple) -> ModelIndex:
    """An index on columns the program built, without the checks of
    ModelIndex on outside input."""
    idx = object.__new__(ModelIndex)
    object.__setattr__(idx, "ctype", ctype)
    object.__setattr__(idx, "columns", columns)
    return idx


_JSON_SHAPE = "an index is a JSON object with type and the lists alpha, beta and gamma"


def from_json(doc) -> ModelIndex:
    """The index a JSON object (or its text) states; see `_JSON_SHAPE`."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(_JSON_SHAPE)
    missing = [key for key in ("type", "alpha", "beta", "gamma") if key not in doc]
    if missing:
        raise ValueError(f"missing {', '.join(map(repr, missing))}; {_JSON_SHAPE}")
    alphas, betas, gammas = doc["alpha"], doc["beta"], doc["gamma"]
    if not all(isinstance(v, list) for v in (alphas, betas, gammas)):
        raise ValueError(_JSON_SHAPE)
    if not (len(alphas) == len(betas) == len(gammas)):
        raise ValueError("alpha/beta/gamma length mismatch")
    return ModelIndex(doc["type"], list(zip(alphas, betas, gammas)))


def _format_beta(beta) -> str:
    if isinstance(beta, str):
        return beta
    if beta[0] == "pq":
        return f"({beta[1]},{beta[2]})"
    return f"({beta[1]},{beta[2]},{beta[3]})"


def format_index(idx: ModelIndex) -> str:
    alphas = ",".join(str(a) for a, _, _ in idx.columns)
    betas = ",".join(_format_beta(b) for _, b, _ in idx.columns)
    gammas = ",".join(g for _, _, g in idx.columns)
    return f"{idx.ctype}[{alphas};{betas};{gammas}]"


# --- validity ----------------------------------------------------------------


def _fpfish(beta) -> bool:
    return beta in ("fpf", "fpfplus", "fpfdiamond")


def validate(idx: ModelIndex) -> list[str]:
    """Diagnostics for an index; empty list means valid.

    Which columns exist is read from induction's column-kind table; the
    rules here are those of the whole index.
    """
    ctype, cols = idx.ctype, idx.columns
    if ctype == "A":
        if not cols:
            return ["no columns"]
        blocks = "A" * len(cols)
    elif len(cols) != 2:
        return [f"type {ctype} indexes need exactly two columns"]
    else:
        blocks = ctype + "A"
    problems, rank = [], 0
    for i, (block, col) in enumerate(zip(blocks, cols)):
        a = col[0]
        rank += abs(a)
        if a < 0 and (ctype, i) != ("D", 1):
            problems.append(f"column {i}: negative block size {a}")
        elif a == 0 and ctype == "A" and len(cols) != 2:
            problems.append(f"column {i}: empty block outside the two-column form")
        elif column_kind(block, col) is None:
            problems.append(f"column {i}: no {block} block column {col!r}")
    if ctype != "A":
        (a0, _, _), (a1, b1, _) = cols
        if a1 < 0 and a0 != 0:
            problems.append("column 1: flipped block must be the whole diagram")
        if _fpfish(b1) and abs(a1) < 4:
            problems.append("column 1: fixed-point-free class needs size >= 4")
    if rank == 0:
        problems.append("index has rank 0")
    return problems


def check_valid(idx: ModelIndex) -> ModelIndex:
    problems = validate(idx)
    if problems:
        raise ValueError(f"invalid index {idx}: " + "; ".join(problems))
    return idx


# --- rewrites and transforms ---------------------------------------------------


def _normal_column(block: str, col: tuple) -> tuple:
    """The value-preserving normal form of one column of a block ("A", "B"
    or "D"): the spelling of its parabolic, class and character that
    `_block_columns` keeps."""
    a, b, g = col
    if a == 0:
        return (0, "id", "triv")
    if b == "idplus" or (block != "B" and abs(a) <= 2):
        # S_1, S_2 and D_2 = A_1 x A_1 are abelian: every class symbol
        # names a central singleton with full centralizer
        b = "id"
    if block == "A" and abs(a) == 1:
        g = "triv"
    return (a, b, g)


def _normal_columns(ctype: str, cols: tuple) -> tuple:
    """The columns of the normal form of an index with these columns."""
    if ctype == "A":
        # a zero-width column names no generators at all, so dropping it
        # leaves the same parabolic, class, and character
        kept = tuple(_normal_column("A", c) for c in cols if c[0] != 0)
        return kept or ((0, "id", "triv"),)
    col0, col1 = cols
    return (_normal_column(ctype, col0), _normal_column("A", col1))


def normalize(idx: ModelIndex) -> ModelIndex:
    """The normal form of an index; `idx` itself when it is one already."""
    cols = _normal_columns(idx.ctype, idx.columns)
    return idx if cols == idx.columns else ModelIndex(idx.ctype, cols)


_DUAL_BETA = {"id": "idplus", "idplus": "id", "fpf": "fpfplus", "fpfplus": "fpf"}
_BAR_GAMMA = {"triv": "sgn", "sgn": "triv", "pm": "mp", "mp": "pm"}
_SWAP_PM = {"pm": "mp", "mp": "pm"}


def _swap_pm(gamma):
    return _SWAP_PM.get(gamma, gamma)


def transform(idx: ModelIndex, kind: str) -> ModelIndex:
    """Apply one named transform: star, dual, bar, diamond, or normalize."""
    check_valid(idx)
    if kind == "normalize":
        return normalize(idx)
    if kind == "star" and idx.ctype != "A":
        raise ValueError("star applies to type A only")
    if kind == "diamond" and idx.ctype != "D":
        raise ValueError("diamond applies to type D only")
    rewrite = {"bar": _bar, "star": _star, "dual": _dual, "diamond": _diamond}.get(kind)
    if rewrite is None:
        raise ValueError(f"unknown transform: {kind!r}")
    return ModelIndex(idx.ctype, rewrite(idx.ctype, idx.columns))


# The rewrites below map the columns of a valid index to the columns of
# its image, so that an orbit builds an index only for a new member.


def _bar(ctype: str, cols: tuple) -> tuple:
    return tuple((a, b, _BAR_GAMMA[g]) for a, b, g in cols)


def _star(ctype: str, cols: tuple) -> tuple:
    return tuple(reversed(cols))


def _dual(ctype: str, cols: tuple) -> tuple:
    if ctype == "A":
        return tuple((a, _DUAL_BETA[b], g) for a, b, g in reversed(cols))
    (a0, b0, g0), (a1, b1, g1) = cols
    b1 = _DUAL_BETA[b1]
    if ctype == "B":
        if isinstance(b0, tuple):  # ("pq", p, q)
            b0 = ("pq", b0[2], b0[1])
        elif b0 != "fpf":
            b0 = _DUAL_BETA[b0]
        return ((a0, b0, g0), (a1, b1, g1))
    n = a0 + abs(a1)
    odd = n % 2 == 1
    if odd and abs(a1) == n:
        a1 = -a1
    if isinstance(b0, tuple) and b0[0] == "pq":
        b0 = ("pq", b0[2], b0[1])
    elif isinstance(b0, tuple) and b0[0] == "tri":
        d = b0[3] if not odd else ("ccw" if b0[3] == "cw" else "cw")
        b0 = ("tri", b0[2], b0[1], d)
    elif b0 in ("fpf", "fpfdiamond"):
        if (a0 // 2 + n) % 2 == 1:
            b0 = "fpfdiamond" if b0 == "fpf" else "fpf"
    else:
        b0 = _DUAL_BETA[b0]
    if odd:
        g0 = _swap_pm(g0)
    return ((a0, b0, g0), (a1, b1, g1))


def _diamond(ctype: str, cols: tuple) -> tuple:
    (a0, b0, g0), (a1, b1, g1) = cols
    if a0 == 0:
        a1 = -a1
    if isinstance(b0, tuple) and b0[0] == "tri":
        b0 = ("tri", b0[1], b0[2], "ccw" if b0[3] == "cw" else "cw")
    elif b0 in ("fpf", "fpfdiamond"):
        b0 = "fpfdiamond" if b0 == "fpf" else "fpf"
    g0 = _swap_pm(g0)
    return ((a0, b0, g0), (a1, b1, g1))


def _triality(ctype: str, cols: tuple):
    """Rank-4 type D outer rotation; defined only when the sign block is
    everything."""
    (a0, b0, g0), col1 = cols
    if a0 != 4:
        return None
    cycle = {
        ("pq", 2, 2): "fpf",
        "fpf": "fpfdiamond",
        "fpfdiamond": ("pq", 2, 2),
        ("pq", 3, 1): ("tri", 3, 1, "cw"),
        ("tri", 3, 1, "cw"): ("tri", 3, 1, "ccw"),
        ("tri", 3, 1, "ccw"): ("pq", 3, 1),
        ("pq", 1, 3): ("tri", 1, 3, "cw"),
        ("tri", 1, 3, "cw"): ("tri", 1, 3, "ccw"),
        ("tri", 1, 3, "ccw"): ("pq", 1, 3),
    }
    b0 = cycle.get(b0, b0)
    return ((a0, b0, g0), col1)


def _b2_swap(ctype: str, cols: tuple):
    """Outer swap of the two generators of a rank-2 type B index."""
    (a0, b0, g0), (a1, b1, g1) = _normal_columns(ctype, cols)
    if (a0, a1) == (2, 0):
        if b0 == "fpf":
            b0 = ("pq", 1, 1)
        elif isinstance(b0, tuple):
            b0 = "fpf"
        g0 = _swap_pm(g0)
        if b0 == "fpf":
            # the centralizer misses the sign generator, so the mixed
            # characters restrict like triv/sgn, as in the projections.
            g0 = _RESTRICTED[g0]
        return ((2, b0, g0), (0, "id", "triv"))
    if (a0, a1) == (1, 1):
        return ((0, "id", "triv"), (2, "id", g0))
    return ((1, "id", g1), (1, "id", "triv"))  # (a0, a1) == (0, 2)


# --- canonical forms -----------------------------------------------------------


def _orbit_generators(ctype: str, rank: int, relation: str) -> list:
    if relation not in ("strong", "full"):
        raise ValueError(f"bad relation: {relation!r}")
    gens = [_dual]
    if ctype == "A":
        gens.append(_star)
    if ctype == "D" and rank % 2 == 1:
        gens.append(_diamond)
    if relation == "full":
        gens.append(_bar)
        if ctype == "D" and rank % 2 == 0:
            gens.append(_diamond)
        if ctype == "D" and rank == 4:
            gens.append(_triality)
        if ctype == "B" and rank == 2:
            gens.append(_b2_swap)
    return gens


def _orbit_columns(ctype: str, cols: tuple, relation: str) -> set:
    """The columns of every member of the orbit of `cols`, the columns of a
    valid normal index; the rewrites keep them valid and normal."""
    gens = _orbit_generators(ctype, sum(abs(a) for a, _, _ in cols), relation)
    seen = {cols}
    frontier = [cols]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            img = gen(ctype, cur)
            if img is None:
                continue
            img = _normal_columns(ctype, img)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


# {(ctype, columns, relation): least member of the orbit} on valid normal
# columns, at most CACHE_KEYS keys.  A walk fills every member of its orbit
# at once, and empties the cache first when they would pass the bound.
_ORBIT_CACHE: dict = {}


def _least(ctype: str, cols: tuple, relation: str) -> ModelIndex:
    """The least member of the orbit of valid normal columns `cols`."""
    least = _ORBIT_CACHE.get((ctype, cols, relation))
    if least is None:
        orbit = _orbit_columns(ctype, cols, relation)
        least = _trusted_index(ctype, min(orbit, key=_columns_key))
        if len(_ORBIT_CACHE) + len(orbit) > CACHE_KEYS:
            _ORBIT_CACHE.clear()
        for member in orbit:
            _ORBIT_CACHE[(ctype, member, relation)] = least
    return least


def equivalence_orbit(idx: ModelIndex, relation: str = "strong") -> tuple:
    """All normalized indexes reachable under the relation's generators."""
    check_valid(idx)
    ctype = idx.ctype
    orbit = _orbit_columns(ctype, _normal_columns(ctype, idx.columns), relation)
    return tuple(ModelIndex(ctype, cols) for cols in sorted(orbit, key=_columns_key))


def canonical_form(idx: ModelIndex, relation: str = "strong") -> ModelIndex:
    """Least member of the equivalence orbit; constant on the orbit."""
    least = _ORBIT_CACHE.get((idx.ctype, idx.columns, relation))
    if least is not None:
        return least
    check_valid(idx)
    return _least(idx.ctype, _normal_columns(idx.ctype, idx.columns), relation)


# --- characters ----------------------------------------------------------------


@lru_cache(maxsize=CACHE_KEYS)
def _column(ctype: str, column: tuple, induced: bool) -> VirtualCharacter:
    """One column's character, built once and shared.

    With `induced`, the symmetric block column of a type B or D index,
    induced up to the whole group; in type D a negative size induces from
    the diamond image of S_n.
    """
    if not induced:
        return column_char(ctype, column)
    inner = column_char("A", column)
    if ctype == "B":
        return ind_A_to_B(inner)
    return ind_A_to_D(inner, "minus" if column[0] < 0 else "plus")


def character_of_index(idx: ModelIndex) -> VirtualCharacter:
    """The model character attached to an index; one column's is shared."""
    check_valid(idx)
    return _character(idx.ctype, idx.columns)


def _character(ctype: str, cols: tuple) -> VirtualCharacter:
    """character_of_index on the columns of a valid index, unchecked."""
    if ctype == "A":
        factors = [_column("A", col, False) for col in cols if col[0] != 0]
        out = factors[0]
        for f in factors[1:]:
            out = bullet("A", out, f)
        return out
    col0, col1 = cols
    chi0 = _column(ctype, col0, False) if col0[0] else None
    chi1 = _column(ctype, col1, True) if col1[0] else None
    if chi0 is None:
        return chi1
    if chi1 is None:
        return chi0
    return bullet(ctype, chi0, chi1)


# --- index-level projections ----------------------------------------------------


# The one survival rule of a sign block: the characters each projection
# keeps, and the symmetric-group character each restricts to.
_KEPT = {"piL": ("triv", "pm"), "piR": ("mp", "sgn"), "piD": ("triv", "sgn")}
_RESTRICTED = {"triv": "triv", "mp": "triv", "pm": "sgn", "sgn": "sgn"}


def project_index(kind: str, idx: ModelIndex):
    """Index image under the symmetric-group projections; None means zero.

    The sign block becomes one symmetric column, or two identity columns
    for a split class, and the image is the normal form of those columns
    beside the symmetric block, where an empty block drops out.
    """
    check_valid(idx)
    if kind not in _KEPT:
        raise ValueError(f"unknown projection: {kind!r}")
    ctype = "D" if kind == "piD" else "B"
    if idx.ctype != ctype:
        raise ValueError(f"{kind} applies to type {ctype} indexes")
    (a0, b0, g0), (a1, b1, g1) = idx.columns
    # in type B a fixed-point-free centralizer misses the sign-change
    # generator, so piL and piR both keep its triv and sgn
    if a0 and (kind == "piD" or b0 != "fpf"):
        if g0 not in _KEPT[kind]:
            return None
        g0 = _RESTRICTED[g0]
    if isinstance(b0, tuple) and b0[0] == "pq":  # split class: two identity columns
        cols = [(b0[1], "id", g0), (b0[2], "id", g0)]
    else:
        cols = [(a0, "fpf" if _fpfish(b0) else "id", g0)]
    return normalize(ModelIndex("A", [*cols, (abs(a1), b1, g1)]))


# --- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=CACHE_KEYS)
def _block_columns(block: str, alpha: int) -> tuple:
    """The valid normal columns of size alpha in a block: the spellings of
    the column-kind table that `_normal_column` leaves as they are.  A
    negative alpha is D's flipped symmetric block."""
    return tuple([col for col in columns_of(block, alpha) if _normal_column(block, col) == col])


def _compositions(n: int, parts: int):
    """Compositions of n into exactly `parts` positive parts."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


# The corank-two lemma: induction from a standard parabolic subgroup of
# corank at least two is never multiplicity-free.  A type A index with k
# columns induces from S_a1 x ... x S_ak, of corank k - 1, and its
# character contains a product of k nonempty Schur functions, which repeats
# a constituent once k >= 3 (cf. Stembridge, "Multiplicity-free products of
# Schur functions", 2001; test_criterion_7 checks the products).  So only
# indexes with at most this many columns can belong to a perfect model.
_A_MF_MAX_COLUMNS = 2


def _raw_columns(ctype: str, n: int, mf_only: bool = False):
    """The columns of every index of the rank-n shapes, each valid and
    normal; with mf_only, only those the corank-two lemma and
    `_lemma_excludes_mf` leave as candidates for a perfect model."""
    if ctype == "A":
        widest = min(n, _A_MF_MAX_COLUMNS) if mf_only else n
        shapes = (
            [("A", a) for a in comp]
            for parts in range(1, widest + 1)
            for comp in _compositions(n, parts)
        )
    elif ctype in ("B", "D"):
        # the symmetric block takes n .. 0 letters, and in D also the whole
        # diagram flipped; its fpf floor of size 4 is normal form at size 2
        flipped = [-n] if ctype == "D" else []
        shapes = ([(ctype, n - abs(a1)), ("A", a1)] for a1 in [n, *flipped, *range(n)])
    else:
        raise ValueError(f"bad index type: {ctype!r}")
    for shape in shapes:
        for cols in product(*(_block_columns(block, a) for block, a in shape)):
            if mf_only and _lemma_excludes_mf(ctype, cols):
                continue
            yield cols


def _lemma_excludes_mf(ctype: str, columns) -> bool:
    """Known sufficient conditions for a repeated constituent, read off the
    columns of a type B or D index.

    Type A is pruned by shape instead, in `_raw_columns`.
    """
    if ctype == "A":
        return False
    (a0, b0, g0), (a1, b1, g1) = columns
    a1 = abs(a1)
    if a1 >= 4 and _fpfish(b1):
        return True
    if isinstance(b0, tuple) and b0[0] == "pq" and a1 > 0:
        return True
    if ctype == "B":
        if a0 >= 2 and b0 == "fpf" and a1 >= 2 and g0 == g1:
            return True
    else:
        if a0 >= 4 and b0 in ("fpf", "fpfdiamond") and a1 >= 2 and g0 == g1:
            return True
    return False


def enumerate_indices(ctype: str, n: int, mf_only: bool = False):
    """One representative per strong class of valid rank-n indexes.

    With mf_only, only those whose character is multiplicity-free.
    """
    if mf_only:
        return tuple(multiplicity_free_characters(ctype, n))
    return _strong_representatives(ctype, n, False)


def multiplicity_free_characters(ctype: str, n: int) -> dict:
    """{index: character} of the multiplicity-free strong classes, in order."""
    out = {}
    for idx in _strong_representatives(ctype, n, True):
        chi = _character(ctype, idx.columns)
        if is_multiplicity_free(chi):
            out[idx] = chi
    return out


def _strong_representatives(ctype: str, n: int, pruned: bool):
    """Sorted strong class representatives; with `pruned`, the lemmas apply.

    The raw columns are valid and normal, so they are looked up unchecked.
    """
    reps = {_least(ctype, cols, "strong"): None for cols in _raw_columns(ctype, n, pruned)}
    return tuple(sorted(reps, key=ModelIndex.key))
