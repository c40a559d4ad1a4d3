"""Brute-force group computations used to cross-check the symbolic layer."""

from collections import Counter

import pytest

from coxmodel.classification import search_perfect_models
from coxmodel.model_index import ModelIndex, enumerate_indices
from coxmodel.oracle import (
    GROUP_KIND,
    _split_sign,
    check_index_against_oracle,
    get_group,
    inner_product,
    mn_value_a,
    mn_value_b,
    oracle_char_of_index,
    oracle_is_perfect,
    oracle_search,
    perfect_classes,
    signed_cycle_type,
    sqrt_count,
    triple_character,
    virtual_char_values,
)


@pytest.mark.parametrize(
    "kind,n,order",
    [
        ("symA", 4, 24),
        ("symB", 3, 48),
        ("symD", 4, 192),
        ("dihedral", 7, 14),
        ("h3", 0, 120),
    ],
)
def test_group_orders(kind, n, order):
    assert get_group(kind, n).order == order


def test_sqrt_count_at_identity_is_sum_of_degrees():
    import math

    from coxmodel import partitions as pt

    g = get_group("symA", 4)
    _, reps, _ = g.conjugacy_classes()
    counts = sqrt_count(g)
    i = reps.index(g.identity)
    assert counts[i] == sum(
        pt.standard_tableau_count(p) for p in pt.partitions_of(4)
    )
    # norm sanity is asserted inside sqrt_count; check the inner product here
    assert inner_product(g, counts, counts) == len(reps)


@pytest.mark.parametrize(
    "kind,n,count",
    [
        ("symA", 2, 2),
        ("symA", 3, 2),
        ("symA", 4, 4),
        ("symB", 2, 4),
        ("symB", 3, 4),
        ("symD", 3, 4),
        ("symD", 4, 11),
        ("symD", 5, 6),
    ],
)
def test_perfect_class_counts(kind, n, count):
    assert len(perfect_classes(get_group(kind, n))) == count


def test_perfect_class_minima_are_involutions():
    g = get_group("symB", 3)
    for cls in perfect_classes(g):
        w = cls["min"]
        pi = cls["theta"]
        tw = g.apply_auto(pi, w)
        assert g.mult(w, tw) == g.identity
        assert w in cls["elements"]


def test_murnaghan_nakayama_values():
    assert mn_value_a((2, 1), (1, 1, 1)) == 2
    assert mn_value_a((2, 1), (2, 1)) == 0
    assert mn_value_a((2, 1), (3,)) == -1
    assert mn_value_a((3,), (3,)) == 1
    assert mn_value_a((1, 1, 1), (2, 1)) == -1
    # hook length check: degree of (3,1) is 3
    assert mn_value_a((3, 1), (1, 1, 1, 1)) == 3


def test_character_tables_are_orthonormal():
    # irr_value tables are audited at build time; a decomposition of the
    # square-root count must be multiplicity one across the board
    from coxmodel.oracle import decompose

    for kind, ctype, n in [
        ("symA", "A", 4),
        ("symB", "B", 3),
        ("symD", "D", 4),
        ("symD", "D", 6),
    ]:
        g = get_group(kind, n)
        dec = decompose(g, ctype, n, sqrt_count(g))
        assert set(dec.coeffs.values()) == {1}


@pytest.mark.parametrize(
    "idx",
    [
        ModelIndex("A", [(4, "fpf", "triv")]),
        ModelIndex("A", [(2, "id", "sgn"), (2, "id", "triv")]),
        ModelIndex("B", [(3, "id", "pm"), (0, "id", "triv")]),
        ModelIndex("B", [(2, ("pq", 1, 1), "mp"), (1, "id", "triv")]),
        ModelIndex("B", [(2, "fpf", "triv"), (2, "id", "sgn")]),
        ModelIndex("D", [(4, "fpf", "triv"), (0, "id", "triv")]),
        ModelIndex("D", [(4, ("tri", 3, 1, "cw"), "triv"), (0, "id", "triv")]),
        ModelIndex("D", [(4, ("tri", 3, 1, "ccw"), "triv"), (0, "id", "triv")]),
        ModelIndex("D", [(0, "id", "triv"), (-4, "id", "sgn")]),
    ],
)
def test_symbolic_characters_match_the_oracle(idx):
    assert check_index_against_oracle(idx)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_split_sign_tells_the_two_halves_apart(n):
    # on each B class that splits in D_n (all cycles positive and even),
    # the sign is constant on each D class and opposite on the two halves
    g = get_group("symD", n)
    class_of, _, _ = g.conjugacy_classes()
    halves = {}
    for w in g.elements:
        cycles = signed_cycle_type(w)
        if all(length % 2 == 0 and s == 1 for length, s in cycles):
            halves.setdefault(cycles, set()).add((class_of[w], _split_sign(w)))
    assert halves
    for pairs in halves.values():
        assert len(pairs) == 2 and {e for _, e in pairs} == {1, -1}


@pytest.mark.parametrize("n,count", [(4, 34), (6, 76)])
def test_every_strong_d_representative_matches_the_oracle(n, count):
    # includes the split degenerate labels and, at rank 6, the rotated
    # triality classes on a sign block smaller than the diagram
    reps = enumerate_indices("D", n)
    assert len(reps) == count
    for idx in reps:
        assert check_index_against_oracle(idx), idx


COVER_RANKS = [("A", n) for n in range(2, 7)] + [("B", n) for n in range(2, 6)] + [
    ("D", 3),
    ("D", 4),
    ("D", 5),
]


@pytest.mark.parametrize("ctype,n", COVER_RANKS, ids=[f"{t}{n}" for t, n in COVER_RANKS])
def test_symbolic_covers_are_the_oracle_covers(ctype, n):
    # each cover is compared as a set of class functions, the covers as a
    # multiset
    g = get_group(GROUP_KIND[ctype], n)
    symbolic = Counter(
        frozenset(virtual_char_values(g, chi) for chi, _ in cover)
        for cover in search_perfect_models(ctype, n)
    )
    oracle = Counter(frozenset(chi for chi, _ in cover) for cover in oracle_search(g))
    assert symbolic == oracle


def test_oracle_character_values_match_symbolic_expansion():
    from coxmodel.model_index import character_of_index

    idx = ModelIndex("B", [(2, "id", "pm"), (1, "id", "sgn")])
    g = get_group("symB", 3)
    assert oracle_char_of_index(g, idx) == virtual_char_values(
        g, character_of_index(idx)
    )


def test_dihedral_search_finds_all_covers():
    assert len(oracle_search(get_group("dihedral", 5))) == 2
    assert len(oracle_search(get_group("dihedral", 6))) == 4


def test_search_covers_are_perfect():
    g = get_group("dihedral", 6)
    for cover in oracle_search(g):
        chars = [chi for chi, _ in cover]
        assert oracle_is_perfect(g, chars)
        # every listed triple really induces the row's character
        for chi, descs in cover:
            for J, w, theta, sigma in descs:
                triple = {"J": J, "min": w, "theta": theta, "sigma": sigma}
                assert triple_character(g, triple) == chi


# (kind, n, Coxeter matrix, number of conjugacy classes, diagram automorphisms)
PINNED = [
    ("symA", 4, ((1, 3, 2), (3, 1, 3), (2, 3, 1)), 5, 2),
    ("symB", 3, ((1, 4, 2), (4, 1, 3), (2, 3, 1)), 10, 1),
    (
        "symD",
        4,
        ((1, 2, 3, 2), (2, 1, 3, 2), (3, 3, 1, 3), (2, 2, 3, 1)),
        13,
        6,  # triality: every permutation of the three outer nodes
    ),
    ("dihedral", 6, ((1, 6), (6, 1)), 6, 2),
    ("h3", 0, ((1, 5, 2), (5, 1, 3), (2, 3, 1)), 10, 1),
]
PINNED_IDS = [f"{kind}{n}" if n else kind for kind, n, *_ in PINNED]


@pytest.mark.parametrize("kind,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_theta_is_the_word_walk(kind, n, matrix, classes, autos):
    g = get_group(kind, n)
    assert len(g.diagram_automorphisms()) == autos
    for pi in g.diagram_automorphisms():
        theta = g.theta(pi)
        for w in g.elements:
            walked = g.identity
            for gi in g.word(w):
                walked = g.mult(walked, g.gens[pi[gi]])
            assert theta[w] == walked
            assert g.apply_auto(pi, w) == walked


@pytest.mark.parametrize("kind,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_reflections_are_all_conjugates_of_generators(kind, n, matrix, classes, autos):
    g = get_group(kind, n)
    inverse = {x: y for x in g.elements for y in g.elements if g.mult(x, y) == g.identity}
    brute = {g.mult(g.mult(x, s), inverse[x]) for s in g.gens for x in g.elements}
    assert g.reflections() == brute


@pytest.mark.parametrize("kind,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_coxeter_matrix_and_classes(kind, n, matrix, classes, autos):
    g = get_group(kind, n)
    assert g.coxeter_matrix() == matrix
    class_of, reps, sizes = g.conjugacy_classes()
    assert len(reps) == classes
    assert sum(sizes) == g.order
    for cid, rep in enumerate(reps):
        members = [w for w in g.elements if class_of[w] == cid]
        assert len(members) == sizes[cid]
        assert rep == members[0]  # the least BFS index in its class


@pytest.mark.parametrize("kind,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_parabolic_subgroups_are_built_once(kind, n, matrix, classes, autos):
    g = get_group(kind, n)
    k = len(g.gens)
    for J in [(), (0,), tuple(range(k)), tuple(range(1, k))]:
        assert g.subgroup(J) is g.subgroup(J)
        assert g.subgroup(J).gens == tuple(g.gens[i] for i in J)
