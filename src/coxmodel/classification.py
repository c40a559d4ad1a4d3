"""Perfect model search, known families, and classification.

A perfect model is a set of multiplicity-free model characters whose sum
hits every irreducible exactly once; equivalently the sum equals the
square-root-count class function.  The symbolic search enumerates the
multiplicity-free index candidates, groups them by character, and runs an
exact cover over the irreducible labels.  Covers are then expanded back to
index-level models and counted up to strong or full equivalence, where two
models are equivalent when their members match up elementwise.  One
exact-cover engine, `exact_covers`, serves types A, B and D, the dihedral
groups and the certificate below; the icosahedral group takes its covers
from the group oracle and shares only the class expansion.

The even-rank type D nonexistence argument is packaged as a replayable
certificate built from the degenerate labels: a perfect model needs both
signs of every core from rows with disjoint constituents, and the
certificate exhibits a core (or a global selection conflict) ruling that
out.
"""

from __future__ import annotations

from itertools import product

from . import partitions as pt
from .char_ring import irr_universe
from .model_index import (
    ModelIndex,
    canonical_form,
    character_of_index,
    from_json,
    multiplicity_free_characters,
    normalize,
)

SEARCH_CAPS = {"A": 16, "B": 8, "D": 8}
# The least rank the index notation covers.  D2 is A1 x A1, where the
# indexes miss covers that the group oracle finds.
RANK_FLOORS = {"A": 1, "B": 1, "D": 3}


def _check_floor(ctype: str, n: int) -> None:
    if n < RANK_FLOORS[ctype]:
        raise ValueError(f"type {ctype} needs rank >= {RANK_FLOORS[ctype]}, got {n}")


class CapExceeded(RuntimeError):
    """Raised when an oracle group would exceed its element cap."""


# --- the known families -------------------------------------------------------

# The families of fixed-point-free plus sign columns, and their types.
_P_TYPES = {"PA": "A", "PB": "B", "PBhat": "B", "PD": "D"}

# The families that exist at one rank only: type, rank, and per index the
# (size, character) of both its columns, each with beta "id".  In B3extra2,
# at block size one the two mixed characters coincide with sgn and triv.
_ONE_RANK = {
    "Aextra4": ("A", 4, [(1, "triv", 3, "sgn"), (2, "triv", 2, "triv")]),
    "B3extra1": ("B", 3, [(1, "triv", 2, "triv"), (2, "sgn", 1, "triv"),
                          (3, "pm", 0, "triv"), (3, "mp", 0, "triv")]),
    "B3extra2": ("B", 3, [(1, "sgn", 2, "triv"), (2, "pm", 1, "triv"),
                          (3, "triv", 0, "triv"), (3, "sgn", 0, "triv")]),
}


def known_model(family: str, n: int) -> tuple[ModelIndex, ...]:
    """Index lists for the named perfect model families."""
    if family in _P_TYPES:
        ctype = _P_TYPES[family]
        least = 1 if family == "PA" else 2
        if n < least or (family == "PD" and n % 2 == 0):
            odd = " and odd" if family == "PD" else ""
            raise ValueError(f"{family} needs rank >= {least}{odd}")
        out = []
        for k in range(n // 2 + 1):
            if family == "PBhat" and k == 1:
                cols = [[(2, "id", g), (n - 2, "id", "sgn")] for g in ("triv", "mp")]
            else:
                cols = [[(2 * k, "fpf", "triv"), (n - 2 * k, "id", "sgn")]]
            out += [normalize(ModelIndex(ctype, c)) for c in cols]
        return tuple(out)
    if family in _ONE_RANK:
        ctype, rank, cols = _ONE_RANK[family]
        if n != rank:
            raise ValueError(f"{family} exists at rank {rank} only")
        return tuple(
            normalize(ModelIndex(ctype, [(a0, "id", g0), (a1, "id", g1)]))
            for a0, g0, a1, g1 in cols
        )
    raise ValueError(f"unknown family: {family!r}")


KNOWN_FAMILIES = (*_P_TYPES, *_ONE_RANK)


# --- perfection test -----------------------------------------------------------


def is_perfect_symbolic(indices) -> dict:
    """Verdict on a candidate model given as a list of indexes.

    Members are `ModelIndex` values or the documents `ModelIndex.to_json`
    writes.  Returns {"status": "perfect"}, or {"status": "not_perfect"}
    with the first irreducible label whose multiplicity in the sum is not
    one as the witness.
    """
    indices = [idx if isinstance(idx, ModelIndex) else from_json(idx) for idx in indices]
    if not indices:
        raise ValueError("empty model")
    ctype, n = indices[0].ctype, indices[0].rank
    _check_floor(ctype, n)
    total: dict = {}
    for idx in indices:
        if idx.ctype != ctype or idx.rank != n:
            raise ValueError("mixed types or ranks in model")
        for lab, c in character_of_index(idx).coeffs.items():
            total[lab] = total.get(lab, 0) + c
    for lab in irr_universe(ctype, n):
        m = total.get(lab, 0)
        if m != 1:
            return {"status": "not_perfect", "witness": lab, "multiplicity": m}
    return {"status": "perfect"}


# --- exact cover search ---------------------------------------------------------


def exact_covers(masks, primary: int):
    """Every set of pairwise-disjoint rows covering each bit of `primary`.

    Rows are bitmasks over the columns.  Bits outside `primary` are
    secondary columns: at most one chosen row may hold each, but they may
    stay uncovered.  This is Knuth's Algorithm X on bitmasks: branch on the
    uncovered primary column with the fewest usable rows (the first such
    column on ties), trying its rows in order.  Yields tuples of row
    positions in the order they were chosen.
    """
    columns = [i for i in range(primary.bit_length()) if primary >> i & 1]
    by_column: dict[int, list[int]] = {i: [] for i in columns}
    for r, m in enumerate(masks):
        m &= primary
        while m:
            low = m & -m
            by_column[low.bit_length() - 1].append(r)
            m ^= low
    chosen: list[int] = []

    def rec(covered):
        best = None
        for i in columns:
            if covered >> i & 1:
                continue
            usable = [r for r in by_column[i] if masks[r] & covered == 0]
            if best is None or len(usable) < len(best):
                best = usable
                if not usable:
                    break
        if best is None:
            yield tuple(chosen)
            return
        for r in best:
            chosen.append(r)
            yield from rec(covered | masks[r])
            chosen.pop()

    return rec(0)


def _cover_rows(labels, members):
    """Group named characters into exact-cover rows, with their label masks.

    `members` yields (name, character, constituents): the constituents map
    labels to multiplicity one, so a character's mask of label positions
    identifies it.  Rows are (character, names) in the order their
    characters first appear.
    """
    pos = {lab: i for i, lab in enumerate(labels)}
    rows: dict = {}
    for name, chi, constituents in members:
        mask = sum(1 << pos[lab] for lab in constituents)
        rows.setdefault(mask, (chi, []))[1].append(name)
    return [(chi, tuple(names)) for chi, names in rows.values()], list(rows)


def _candidate_rows(ctype: str, n: int):
    """Multiplicity-free candidates grouped by character, with label masks."""
    chars = multiplicity_free_characters(ctype, n)
    members = ((idx, chi, chi.coeffs) for idx, chi in chars.items())
    return _cover_rows(irr_universe(ctype, n), members)


def search_perfect_models(ctype: str, n: int):
    """Every perfect model at this rank, as covers of character rows."""
    if ctype not in SEARCH_CAPS:
        raise ValueError(f"bad character type: {ctype!r}")
    _check_floor(ctype, n)
    if n > SEARCH_CAPS[ctype]:
        raise ValueError(f"search capped at rank {SEARCH_CAPS[ctype]} for type {ctype}")
    rows, masks = _candidate_rows(ctype, n)
    full = (1 << len(irr_universe(ctype, n))) - 1
    return [tuple(rows[r] for r in cover) for cover in exact_covers(masks, full)]


def _expand_classes(ctype, n, relation, cover_pools, canon, member_key=None) -> dict:
    """Expand covers into models and count them up to equivalence.

    A cover is a list of pools, one per row; each choice of one member per
    pool is a model, and two models are equivalent when their members have
    the same set of `canon` images.  The first model met in a class
    represents it.  Members are sorted by `member_key`, or kept in cover
    order when it is None; models are sorted by their members' keys.
    """
    classes: dict = {}
    for pools in cover_pools:
        for combo in product(*pools):
            classes.setdefault(frozenset(map(canon, combo)), combo)
    key = member_key or str
    models = [tuple(sorted(c, key=key)) if member_key else c for c in classes.values()]
    models.sort(key=lambda c: [key(x) for x in c])
    return {
        "type": ctype,
        "rank": n,
        "relation": relation,
        "count": len(models),
        "models": models,
    }


def classify(ctype: str, n: int, relation: str = "strong") -> dict:
    """Count and list the perfect models up to the chosen equivalence."""
    if ctype == "I2":
        return classify_dihedral(n, relation)
    if ctype == "H3":
        if relation != "strong":
            raise ValueError("H3 is classified at rank 3 under the strong relation only")
        return classify_h3(n)
    covers = search_perfect_models(ctype, n)
    return _expand_classes(
        ctype,
        n,
        relation,
        ([ids for _, ids in cover] for cover in covers),
        lambda idx: canonical_form(idx, relation),
        ModelIndex.key,
    )


# --- even rank type D nonexistence ---------------------------------------------


def d_even_nonexistence(n: int) -> dict:
    """Replayable certificate that even rank >= 6 admits no perfect model.

    Every perfect model must hit both signs of each degenerate core
    exactly once, using candidate characters that are pairwise disjoint in
    every constituent.  The certificate records, per core, which candidates
    carry it, and shows that no disjoint selection covers all cores: an
    exact cover whose primary columns are the degenerate labels, with every
    other label secondary.
    """
    if n < 6 or n % 2 != 0:
        raise ValueError("certificate applies to even rank >= 6")
    rows, masks = _candidate_rows("D", n)
    cores = pt.partitions_of(n // 2)
    trace = {"per_core": {}}
    for core in cores:
        for s in "+-":
            trace["per_core"].setdefault(pt.format_partition(core), {})[s] = [
                [idx.to_json() for idx in ids]
                for chi, ids in rows
                if ("deg", core, s) in chi.coeffs
            ]
    universe = irr_universe("D", n)
    degenerate = sum(1 << i for i, lab in enumerate(universe) if lab[0] == "deg")
    if next(exact_covers(masks, degenerate), None) is None:
        stage = "degenerate-selection"
        conclusion = (
            "no disjoint candidate selection covers every degenerate core with both signs"
        )
    else:
        # a selection exists on the degenerate side; fall back to the full
        # exact cover, which must come up empty.
        if search_perfect_models("D", n):
            raise RuntimeError(f"perfect model found at even rank {n}")
        stage = "exhaustive"
        conclusion = "exact cover over all multiplicity-free candidates is empty"
    return {
        "rank": n,
        "stage": stage,
        "cores": [pt.format_partition(c) for c in cores],
        "trace": trace,
        "conclusion": conclusion,
    }


def replay_certificate(cert: dict) -> bool:
    """Re-derive a nonexistence certificate from scratch and compare."""
    fresh = d_even_nonexistence(cert["rank"])
    return (
        fresh["stage"] == cert["stage"]
        and fresh["cores"] == cert["cores"]
        and fresh["trace"] == cert["trace"]
    )


# --- dihedral groups ------------------------------------------------------------


def dihedral_labels(m: int):
    """Irreducible labels of the order 2m dihedral group, m >= 3."""
    out = ["triv", "sgn"]
    if m % 2 == 0:
        out += ["pm", "mp"]
    out += [("rho", h) for h in range(1, (m - 1) // 2 + 1 if m % 2 else m // 2)]
    return tuple(out)


# The four linear characters by their signs on the generators (s, t); for
# odd m, s and t are conjugate and only triv and sgn exist.  The parabolics
# that carry a model member, by generator ids.  A member (J name, character
# name) is (J, signs) on the group: its perfect class is the identity class,
# since `dihedral_triples` folds the longest twisted involution into it.
DIHEDRAL_SIGNS = {"triv": (1, 1), "sgn": (-1, -1), "pm": (1, -1), "mp": (-1, 1)}
DIHEDRAL_GENS = {"st": (0, 1), "s": (0,), "t": (1,)}
DIHEDRAL_MEMBER = {
    (J, sigma): (gens, tuple(signs[i] for i in gens))
    for J, gens in DIHEDRAL_GENS.items()
    for sigma, signs in DIHEDRAL_SIGNS.items()
}


def dihedral_triples(m: int):
    """All model triples with their character constituents.

    Triples are (J, sigma) with J one of "st", "s", "t"; the perfect class
    is forced (the identity and the longest twisted involution induce the
    same character, so classes are folded into the character).  By
    Frobenius reciprocity the character of (J, sigma) holds each linear
    character with sigma's signs on J.  A one-generator J also holds every
    2-dimensional irreducible once; each of those lies in exactly the four
    one-generator characters, so one constituent "rho" stands for all.
    """
    linear = list(DIHEDRAL_SIGNS)[: 2 if m % 2 else 4]
    out = []
    for J in DIHEDRAL_GENS:
        for sigma in linear if J == "st" else ("triv", "sgn"):
            signs = DIHEDRAL_MEMBER[J, sigma][1]
            char = {lam: 1 for lam in linear if DIHEDRAL_MEMBER[J, lam][1] == signs}
            out.append(((J, sigma), char if J == "st" else {**char, "rho": 1}))
    return out


def _dihedral_triple_canonical(m: int, triple, relation: str):
    """Orbit-least name of a dihedral triple under the chosen relation.

    Swapping s and t and reversing the signs is conjugation for odd m,
    whose linear characters have equal signs on s and t, and the outer
    automorphism for even m, which only the full relation takes.  The
    full relation adds the sign twist, which negates the signs.  These
    maps commute and square to 1, so applying each once to the growing
    orbit closes it.
    """
    swap = {"st": "st", "s": "t", "t": "s"}
    maps = [lambda J, e: (swap[J], e[::-1])] if m % 2 or relation == "full" else []
    if relation == "full":
        maps.append(lambda J, e: (J, (-e[0], -e[1])))
    orbit = {(triple[0], DIHEDRAL_SIGNS[triple[1]])}
    for f in maps:
        orbit |= {f(*x) for x in orbit}
    names = {signs: name for name, signs in DIHEDRAL_SIGNS.items()}
    return min((J, names[e]) for J, e in orbit)


def classify_dihedral(m: int, relation: str = "strong") -> dict:
    """Closed-form perfect model classification for the dihedral groups.

    The columns are the constituents in the order the triples first name
    them: the linear labels in `dihedral_labels` order, then "rho".
    Distinct reflection classes with equal characters share a row, which
    matches strong equivalence.
    """
    if relation not in ("strong", "full"):
        raise ValueError(f"bad relation: {relation!r}")
    if m < 5:
        raise ValueError("dihedral classification needs m >= 5")
    triples = dihedral_triples(m)
    columns = list(dict.fromkeys(lab for _, char in triples for lab in char))
    rows, masks = _cover_rows(columns, ((name, char, char) for name, char in triples))
    covers = exact_covers(masks, (1 << len(columns)) - 1)
    return _expand_classes(
        "I2",
        m,
        relation,
        ([rows[r][1] for r in cover] for cover in covers),
        lambda t: _dihedral_triple_canonical(m, t, relation),
        str,
    )


def dihedral_known_models(m: int):
    """The catalog of perfect models predicted by the closed form."""
    if m % 2 == 1:
        return (
            (("st", "triv"), ("s", "sgn")),
            (("st", "sgn"), ("s", "triv")),
        )
    return (
        (("st", "triv"), ("st", "pm"), ("s", "sgn")),
        (("st", "triv"), ("st", "mp"), ("t", "sgn")),
        (("st", "sgn"), ("st", "mp"), ("s", "triv")),
        (("st", "sgn"), ("st", "pm"), ("t", "triv")),
    )


# --- known models against the oracle --------------------------------------------


def _model_characters(group, model):
    """The sorted characters of a model of (J, signs) members.

    Each member is a linear character of the parabolic on J, taken on its
    identity class, so it induces from the parabolic itself.
    """
    from . import oracle as oc

    chars = []
    for J, signs in model:
        theta = tuple(range(len(J)))
        triple = {"J": tuple(J), "min": group.identity, "theta": theta, "sigma": tuple(signs)}
        chars.append(oc.triple_character(group, triple))
    return tuple(sorted(chars))


def _oracle_covers(group):
    """The oracle's covers, each as its sorted characters."""
    from . import oracle as oc

    return {tuple(sorted(chi for chi, _ in cover)) for cover in oc.oracle_search(group)}


def known_models_are_oracle_covers(group, models) -> bool:
    """Are the models, as sets of characters, exactly the oracle's covers?

    A model that repeats a character matches no cover.
    """
    return {_model_characters(group, model) for model in models} == _oracle_covers(group)


# --- the icosahedral rank three group -------------------------------------------


def h3_known_models():
    """Model triples (J as generator subset, sigma signs per generator)."""
    return (
        (((0, 1, 2), (1, 1, 1)), ((0, 1, 2), (-1, -1, -1)), ((0, 2), (1, -1))),
        (((0, 1, 2), (1, 1, 1)), ((0, 1, 2), (-1, -1, -1)), ((0, 2), (-1, 1))),
        (((0, 1), (1, 1)), ((1, 2), (-1, -1))),
        (((0, 1), (-1, -1)), ((1, 2), (1, 1))),
    )


def verify_h3_model(model) -> bool:
    """Is one model of (J, signs) members one of the oracle's covers of H3?"""
    from . import oracle as oc

    group = oc.get_group("H3", 3)
    return _model_characters(group, model) in _oracle_covers(group)


def _h3_triple_key(group, desc):
    """Canonical strong-equivalence key of an oracle triple.

    Triples with the same generator subset, the same twisted centralizer,
    and the same restricted character are elementarily equivalent.  The
    longest element here is central and the diagram is asymmetric, so
    duals and inner automorphisms add nothing beyond that.
    """
    from . import oracle as oc

    values = oc.restricted_character(group, dict(zip(("J", "min", "theta", "sigma"), desc)))
    return (desc[0], tuple(sorted(values.items())))


def classify_h3(n: int = 3) -> dict:
    """Exhaustive oracle classification for the rank three icosahedral group.

    Members stay in the oracle's cover order.
    """
    from . import oracle as oc

    group = oc.get_group("H3", n)
    cover_pools = (
        [sorted({_h3_triple_key(group, d) for d in descs}) for _, descs in cover]
        for cover in oc.oracle_search(group)
    )
    return _expand_classes("H3", n, "strong", cover_pools, lambda key: key)
