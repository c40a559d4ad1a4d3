"""Brute-force group computations used to cross-check the symbolic layer."""

import ast
from collections import Counter
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coxmodel import induction
from coxmodel import oracle as oc
from coxmodel.classification import KNOWN_FAMILIES, known_model, search_perfect_models
from coxmodel.cli import run
from coxmodel.model_index import ModelIndex, enumerate_indices, transform, validate
from coxmodel.oracle import (
    Group,
    all_triples,
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
    restricted_character,
    signed_cycle_type,
    sqrt_count,
    triple_character,
    twisted_centralizer,
    virtual_char_values,
)


# Node ids spell each group by the label the oracle's messages print
# (symA, dihedral, h3; H3 as rank 0), so a test keeps its id whichever
# way its arguments are spelled.
@pytest.mark.parametrize(
    "ctype,n,order",
    [("A", 4, 24), ("B", 3, 48), ("D", 4, 192), ("I2", 7, 14), ("H3", 3, 120)],
    ids=["symA-4-24", "symB-3-48", "symD-4-192", "dihedral-7-14", "h3-0-120"],
)
def test_group_orders(ctype, n, order):
    assert get_group(ctype, n).order == order


def test_sqrt_count_at_identity_is_sum_of_degrees():
    import math

    from coxmodel import partitions as pt

    g = get_group("A", 4)
    _, reps, _ = g.conjugacy_classes()
    counts = sqrt_count(g)
    i = reps.index(g.identity)
    assert counts[i] == sum(
        pt.standard_tableau_count(p) for p in pt.partitions_of(4)
    )
    # norm sanity is asserted inside sqrt_count; check the inner product here
    assert inner_product(g, counts, counts) == len(reps)


PERFECT_CLASS_COUNTS = [
    ("A", 2, 2), ("A", 3, 2), ("A", 4, 4), ("B", 2, 4), ("B", 3, 4),
    ("D", 3, 4), ("D", 4, 11), ("D", 5, 6),
]


@pytest.mark.parametrize(
    "ctype,n,count",
    PERFECT_CLASS_COUNTS,
    ids=[f"sym{t}-{n}-{count}" for t, n, count in PERFECT_CLASS_COUNTS],
)
def test_perfect_class_counts(ctype, n, count):
    assert len(perfect_classes(get_group(ctype, n))) == count


def test_perfect_class_minima_are_involutions():
    g = get_group("B", 3)
    for cls in perfect_classes(g):
        w = cls["min"]
        tw = g.elements[g.theta_ids(cls["theta"])[g.index[w]]]
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

    for ctype, n in [("A", 4), ("B", 3), ("D", 4), ("D", 6)]:
        g = get_group(ctype, n)
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
    g = get_group("D", n)
    class_of, _, _ = g.conjugacy_classes()
    halves = {}
    for i, w in enumerate(g.elements):
        cycles = signed_cycle_type(w)
        if all(length % 2 == 0 and s == 1 for length, s in cycles):
            halves.setdefault(cycles, set()).add((class_of[i], _split_sign(w)))
    assert halves
    for pairs in halves.values():
        assert len(pairs) == 2 and {e for _, e in pairs} == {1, -1}


def _spellings(idx):
    """idx, its dual, and each column respelled id -> idplus or fpf -> fpfplus."""
    out = {idx, transform(idx, "dual")}
    respell = {"id": "idplus", "fpf": "fpfplus"}
    for i, (a, b, g) in enumerate(idx.columns):
        # fpfplus is a class of the symmetric blocks only: every type A
        # column, and column 1 of types B and D
        if b in respell and (b == "id" or idx.ctype == "A" or i == 1):
            cols = list(idx.columns)
            cols[i] = (a, respell[b], g)
            out.add(ModelIndex(idx.ctype, cols))
    return out


STRONG_COUNTS = [
    ("A", 2, 3), ("A", 3, 5), ("A", 4, 14), ("A", 5, 26), ("A", 6, 68),
    ("B", 1, 3), ("B", 2, 14), ("B", 3, 24), ("B", 4, 50), ("B", 5, 72),
    ("D", 3, 9), ("D", 4, 34), ("D", 5, 32), ("D", 6, 76),
]


@pytest.mark.parametrize(
    "ctype,n,count", STRONG_COUNTS, ids=[f"{t}{n}" for t, n, _ in STRONG_COUNTS]
)
def test_every_spelling_of_a_strong_representative_matches_the_oracle(ctype, n, count):
    # every strong representative in every spelling the bridge reads:
    # includes the split degenerate labels, the flipped type D blocks and,
    # at D6, the rotated triality classes on a sign block smaller than the
    # diagram
    reps = enumerate_indices(ctype, n)
    assert len(reps) == count
    for idx in set().union(*map(_spellings, reps)):
        assert not validate(idx), idx
        assert check_index_against_oracle(idx), idx


COVER_RANKS = [("A", n) for n in range(2, 9)] + [("B", n) for n in range(2, 7)] + [
    ("D", 3),
    ("D", 4),
    ("D", 5),
    ("D", 6),
]


@pytest.mark.parametrize("ctype,n", COVER_RANKS, ids=[f"{t}{n}" for t, n in COVER_RANKS])
def test_symbolic_covers_are_the_oracle_covers(ctype, n):
    # each cover is compared as a set of class functions, the covers as a
    # multiset
    g = get_group(ctype, n)
    symbolic = Counter(
        frozenset(virtual_char_values(g, chi) for chi, _ in cover)
        for cover in search_perfect_models(ctype, n)
    )
    oracle = Counter(frozenset(chi for chi, _ in cover) for cover in oracle_search(g))
    assert symbolic == oracle


def test_oracle_character_values_match_symbolic_expansion():
    from coxmodel.model_index import character_of_index

    idx = ModelIndex("B", [(2, "id", "pm"), (1, "id", "sgn")])
    g = get_group("B", 3)
    assert oracle_char_of_index(g, idx) == virtual_char_values(
        g, character_of_index(idx)
    )


def test_dihedral_search_finds_all_covers():
    assert len(oracle_search(get_group("I2", 5))) == 2
    assert len(oracle_search(get_group("I2", 6))) == 4


def test_search_covers_are_perfect():
    g = get_group("I2", 6)
    for cover in oracle_search(g):
        chars = [chi for chi, _ in cover]
        assert oracle_is_perfect(g, chars)
        # every listed triple really induces the row's character
        for chi, descs in cover:
            for J, w, theta, sigma in descs:
                triple = {"J": J, "min": w, "theta": theta, "sigma": sigma}
                assert triple_character(g, triple) == chi


# (type, rank, Coxeter matrix, number of conjugacy classes, diagram automorphisms)
PINNED = [
    ("A", 4, ((1, 3, 2), (3, 1, 3), (2, 3, 1)), 5, 2),
    ("B", 3, ((1, 4, 2), (4, 1, 3), (2, 3, 1)), 10, 1),
    (
        "D",
        4,
        ((1, 2, 3, 2), (2, 1, 3, 2), (3, 3, 1, 3), (2, 2, 3, 1)),
        13,
        6,  # triality: every permutation of the three outer nodes
    ),
    ("I2", 6, ((1, 6), (6, 1)), 6, 2),
    ("H3", 3, ((1, 5, 2), (5, 1, 3), (2, 3, 1)), 10, 1),
]
PINNED_IDS = ["symA4", "symB3", "symD4", "dihedral6", "h3"]
FIVE = [(ctype, n) for ctype, n, *_ in PINNED]
FIVE_IDS = ["symA-4", "symB-3", "symD-4", "dihedral-6", "h3-0"]


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_theta_is_the_word_walk(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    assert len(g.diagram_automorphisms()) == autos
    for pi in g.diagram_automorphisms():
        theta = g.theta_ids(pi)
        for i in range(g.order):
            word = []
            j = i
            while j:
                word.append(g.rgen[j])
                j = g.rparent[j]
            walked = g.identity
            for gi in reversed(word):
                walked = g.mult(walked, g.gens[pi[gi]])
            assert len(word) == g.lengths[i]
            assert g.elements[theta[i]] == walked


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_reflections_are_all_conjugates_of_generators(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    inverse = {x: y for x in g.elements for y in g.elements if g.mult(x, y) == g.identity}
    brute = {g.mult(g.mult(x, s), inverse[x]) for s in g.gens for x in g.elements}
    assert {g.elements[t] for t in g.reflections()} == brute


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_coxeter_matrix_and_classes(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    assert g.coxeter_matrix() == matrix
    class_of, reps, sizes = g.conjugacy_classes()
    assert len(reps) == classes
    assert sum(sizes) == g.order
    for cid, rep in enumerate(reps):
        members = [w for i, w in enumerate(g.elements) if class_of[i] == cid]
        assert len(members) == sizes[cid]
        assert rep == members[0]  # the least BFS index in its class


def _permutation_filter(m):
    """Every permutation of the generators that keeps the Coxeter matrix m."""
    k = len(m)
    return tuple(
        pi
        for pi in permutations(range(k))
        if all(m[pi[i]][pi[j]] == m[i][j] for i in range(k) for j in range(k))
    )


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_diagram_automorphisms_are_the_permutation_filter(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    k = len(g.gens)
    for mask in range(1 << k):
        sub = g.subgroup(tuple(i for i in range(k) if mask >> i & 1))
        assert sub.diagram_automorphisms() == _permutation_filter(sub.coxeter_matrix())


@st.composite
def _coxeter_matrices(draw):
    """A symmetric matrix with 1 on the diagonal and bonds 2-6 off it."""
    k = draw(st.integers(1, 6))
    m = [[1] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = m[j][i] = draw(st.integers(2, 6))
    return tuple(map(tuple, m))


@settings(max_examples=150, deadline=None)
@given(_coxeter_matrices())
def test_backtracked_automorphisms_are_the_permutation_filter(m):
    assert tuple(oc._matrix_automorphisms(m)) == _permutation_filter(m)


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_parabolic_subgroups_are_built_once(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    k = len(g.gens)
    for J in [(), (0,), tuple(range(k)), tuple(range(1, k))]:
        assert g.subgroup(J) is g.subgroup(J)
        assert g.subgroup(J).gens == tuple(g.gens[i] for i in J)


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_tables_are_the_tuple_products(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    mult, elements, index = g.mult, g.elements, g.index
    assert elements[0] == g.identity and len(index) == g.order
    inverse = g.inverse

    def left(s, i):
        # s w = (w^-1 s)^-1
        return inverse[g.right[s][inverse[i]]]

    for i, w in enumerate(elements):
        for s, gen in enumerate(g.gens):
            assert elements[g.right[s][i]] == mult(w, gen)
            assert elements[left(s, i)] == mult(gen, w)
        assert mult(w, elements[inverse[i]]) == g.identity
        if i == 0:
            continue
        # right and left parents are one letter shorter
        assert mult(elements[g.rparent[i]], g.gens[g.rgen[i]]) == w
        assert mult(g.gens[g.lgen[i]], elements[g.lparent[i]]) == w
        assert g.lengths[g.rparent[i]] == g.lengths[g.lparent[i]] == g.lengths[i] - 1
        # the first letter is the least left descent
        descents = [s for s in range(len(g.gens)) if g.lengths[left(s, i)] < g.lengths[i]]
        assert g.lgen[i] == descents[0]
    for pi in g.diagram_automorphisms():
        theta = g.theta_ids(pi)
        assert theta[0] == 0
        for i, w in enumerate(elements):
            for s, gen in enumerate(g.gens):
                image = mult(elements[theta[i]], g.gens[pi[s]])
                assert elements[theta[index[mult(w, gen)]]] == image


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_subgroups_from_tables_are_the_standalone_groups(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    k = len(g.gens)
    for mask in range(1 << k):
        J = tuple(i for i in range(k) if mask >> i & 1)
        sub = g.subgroup(J)
        alone = Group("alone", [g.gens[i] for i in J], g.mult, g.identity)
        assert sub.elements == alone.elements
        assert sub.lengths == alone.lengths
        assert sub.right == alone.right
        assert sub.inverse == alone.inverse
        assert [g.elements[x] for x in sub.parent_ids] == list(sub.elements)


@pytest.mark.parametrize("ctype,n", FIVE, ids=FIVE_IDS)
def test_the_bfs_fills_every_per_element_table(ctype, n):
    # the left parents and the inverse are plain lists the moment the BFS
    # ends, for the group and every parabolic subgroup, not derived on use
    g = oc.build_group(ctype, n)
    k = len(g.gens)
    subsets = [tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)]
    for group in [g, *(Group._parabolic(g, J) for J in subsets)]:
        tables = vars(group)
        for name in ("lgen", "lparent", "inverse"):
            assert type(tables[name]) is list and len(tables[name]) == group.order, name
        inverse, lengths = tables["inverse"], group.lengths
        for i in range(group.order):
            assert inverse[inverse[i]] == i
            assert lengths[inverse[i]] == lengths[i]


def _queue_bfs(gens, mult, identity):
    """(elements, lengths, rparent, rgen, right) of one plain queue on tuples."""
    ids = {identity: 0}
    elements, lengths, rparent, rgen = [identity], [0], [-1], [-1]
    products = []
    for i, w in enumerate(elements):
        row = []
        for s, gen in enumerate(gens):
            v = mult(w, gen)
            if v not in ids:
                ids[v] = len(elements)
                elements.append(v)
                lengths.append(lengths[i] + 1)
                rparent.append(i)
                rgen.append(s)
            row.append(ids[v])
        products.append(row)
    right = [[row[s] for row in products] for s in range(len(gens))]
    return tuple(elements), lengths, rparent, rgen, right


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_numbering_is_the_one_queue_bfs(ctype, n, matrix, classes, autos):
    # the subgroup test above compares two outputs of the same BFS; this
    # pins the numbering itself, for the group and every parabolic subgroup
    g = get_group(ctype, n)
    k = len(g.gens)
    for mask in range(1 << k):
        sub = g.subgroup(tuple(i for i in range(k) if mask >> i & 1))
        got = (sub.elements, sub.lengths, sub.rparent, sub.rgen, sub.right)
        assert got == _queue_bfs(sub.gens, g.mult, g.identity)


@pytest.mark.parametrize(
    "ctype,n", [("A", 5), ("B", 4), ("D", 5), ("H3", 3)], ids=["symA-5", "symB-4", "symD-5", "h3-0"]
)
def test_byte_keys_round_trip(ctype, n):
    g = oc.build_group(ctype, n)
    codec = g._codec
    assert isinstance(codec, oc._ByteKeys)
    # the lazy tuples are the plain queue's, in the same order
    assert g.elements == _queue_bfs(g.gens, g.mult, g.identity)[0]
    for i, w in enumerate(g.elements):
        key = codec.encode(w)
        # the key is w^-1, each letter v coded v + n
        assert key == bytes(v + len(w) for v in g.elements[g.inverse[i]])
        assert codec.decode(key) == w
        assert g.id_of(w) == g.index[w] == i
        assert g.element(i) == w


def test_dihedral_and_wide_groups_keep_tuple_keys():
    assert isinstance(get_group("I2", 6)._codec, oc._TupleKeys)
    assert isinstance(oc._keys_for(oc._sp_mult, oc._sp_identity(127)), oc._ByteKeys)
    assert isinstance(oc._keys_for(oc._sp_mult, oc._sp_identity(128)), oc._TupleKeys)


def test_no_collection_fires_while_a_group_is_built():
    # byte keys and their {key: id} dict are not tracked by the GC, so the
    # BFS allocates no object that counts towards a collection
    import gc

    fired = []

    def record(phase, info):
        if phase == "start":
            fired.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        g = oc.build_group("D", 6)
    finally:
        gc.callbacks.remove(record)
    assert g.order == 23040
    assert fired == []


def _brute_theta(sub, pi):
    """{g: theta(g)} on tuples, grown by theta(x s) = theta(x) pi(s)."""
    images = {sub.identity: sub.identity}
    queue = [sub.identity]
    for x in queue:
        for s, gen in enumerate(sub.gens):
            y = sub.mult(x, gen)
            if y not in images:
                images[y] = sub.mult(images[x], sub.gens[pi[s]])
                queue.append(y)
    return images


@pytest.mark.parametrize("ctype,n", FIVE, ids=FIVE_IDS)
def test_twisted_centralizer_is_the_tuple_filter(ctype, n):
    g = get_group(ctype, n)
    triples = all_triples(g)
    assert triples
    for t in triples:
        sub = g.subgroup(t["J"])
        theta = _brute_theta(sub, t["theta"])
        w = t["min"]
        brute = [x for x in sub.elements if g.mult(x, w) == g.mult(w, theta[x])]
        cent = twisted_centralizer(g, sub, g.index[w], t["theta"])
        assert [sub.elements[x] for x in cent] == brute


def _two_recurrence_centralizer(group, sub, w, pi):
    """The centralizer by its earlier formula, kept as the reference: for
    g = s g' (left parent) (g w)^-1 = (g' w)^-1 s, for g = g'' t (right
    parent) w theta(g) = (w theta(g'')) pi(t), and g is kept when the first
    is the inverse of the second."""
    right, inverse = group.right, group.inverse
    lrows = [right[j] for j in sub.gen_ids]
    rrows = [right[sub.gen_ids[j]] for j in pi]
    gw_inv = [inverse[w]]
    wt = [w]
    out = [0]
    steps = zip(sub.lgen, sub.lparent, sub.rgen, sub.rparent)
    next(steps)  # the identity
    for g, (s, lp, t, rp) in enumerate(steps, 1):
        a = lrows[s][gw_inv[lp]]
        b = rrows[t][wt[rp]]
        gw_inv.append(a)
        wt.append(b)
        if a == inverse[b]:
            out.append(g)
    return out


def _known_triples(ctype, n):
    """The `index_to_triple` triple of every known-model index of type ctype at rank n."""
    out = []
    for family in KNOWN_FAMILIES:
        try:
            model = known_model(family, n)
        except ValueError:
            continue  # the family has no model at this rank
        out += [oc.index_to_triple(idx) for idx in model if idx.ctype == ctype]
    return out


CENTRALIZER_RANKS = (
    [("A", n) for n in range(2, 8)]
    + [("B", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 6)]
    + [("H3", 3)]
    + [("I2", m) for m in range(5, 9)]
)


@pytest.mark.parametrize(
    "ctype,n",
    CENTRALIZER_RANKS,
    ids=["H3" if t == "H3" else f"I2-{n}" if t == "I2" else f"{t}{n}" for t, n in CENTRALIZER_RANKS],
)
def test_the_centralizer_read_off_the_class_is_the_two_recurrence_one(ctype, n):
    g = get_group(ctype, n)
    known = _known_triples(ctype, n)
    assert known or ctype in ("D", "H3", "I2")
    for J, w, pi in dict.fromkeys((t["J"], t["min"], t["theta"]) for t in [*all_triples(g), *known]):
        sub = g.subgroup(J)
        cent = twisted_centralizer(g, sub, g.id_of(w), pi)
        assert cent == _two_recurrence_centralizer(g, sub, g.id_of(w), pi), (J, w, pi)


def test_a_build_walks_once_and_a_centralizer_once(monkeypatch):
    walks = []
    walk = Group._walk

    def counted(self, start, rows, *parents):
        walks.append(self.order)
        return walk(self, start, rows, *parents)

    g = oc.build_group("D", 4)
    triple = next(t for t in all_triples(g) if t["J"] == (0, 1, 2) and t["theta"] != (0, 1, 2))
    monkeypatch.setattr(Group, "_walk", counted)
    # the inverse table, once per group and once per parabolic subgroup
    oc.build_group("D", 4)
    assert walks == [g.order]
    sub = Group._parabolic(g, triple["J"])
    assert walks == [g.order, sub.order]
    walks.clear()
    twisted_centralizer(g, sub, g.id_of(triple["min"]), triple["theta"])
    assert walks == [sub.order]


PARABOLIC_GROUPS = [("B", 4, (0, 1, 2)), ("D", 5, (0, 1, 2, 3)), ("A", 6, (0, 1, 2, 3)), ("B", 3, (1, 2))]


@pytest.mark.parametrize(
    "ctype,n,J", PARABOLIC_GROUPS, ids=["B4-B3", "D5-D4", "S6-S5", "B3-12"]
)
def test_a_parabolic_answers_as_the_group_on_its_generators(ctype, n, J):
    g = oc.build_group(ctype, n)
    sub = g.subgroup(J)
    alone = Group("alone", sub.gens, g.mult, g.identity)
    assert [sub.id_of(sub.element(i)) for i in range(sub.order)] == list(range(sub.order))
    assert sqrt_count(sub) == sqrt_count(alone)
    covers = oracle_search(sub)
    assert covers == oracle_search(alone)
    for cover in covers:
        assert oracle_is_perfect(sub, [chi for chi, _ in cover])


def _tuple_orbits(g, pi):
    """The twisted classes of g as frozensets of tuples, closed under s x pi(s)."""
    seen = {}
    for x in g.elements:
        if x in seen:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for s, gen in enumerate(g.gens):
                z = g.mult(g.mult(gen, y), g.gens[pi[s]])
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        orbit = frozenset(orbit)
        for y in orbit:
            seen[y] = orbit
    return seen


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_twisted_orbit_is_the_tuple_closure(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    for pi in g.diagram_automorphisms():
        orbits = _tuple_orbits(g, pi)
        for i, x in enumerate(g.elements):
            assert {g.elements[y] for y in g.twisted_orbit(i, pi)} == orbits[x]


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_twisted_orbits_walk_each_class_once(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    ids = range(g.order)
    orders = {
        "forward": list(ids),
        "reversed": list(reversed(ids)),
        "repeated": [i for i in ids for _ in range(2)],
        "every third": list(ids[::3]),
    }
    for pi in oc._involutive_autos(g):
        orbits = _tuple_orbits(g, pi)
        for order, seeds in orders.items():
            # a seed starts a class exactly when no earlier seed lies in it
            want, held = [], set()
            for x in seeds:
                orbit = orbits[g.elements[x]]
                if orbit not in held:
                    held.add(orbit)
                    want.append((x, orbit))
            got = list(g.twisted_orbits(pi, seeds))
            assert [(x, frozenset(g.elements[y] for y in orbit)) for x, orbit in got] == want
            # disjoint: every id of the closure is walked once
            walked = [y for _, orbit in got for y in orbit]
            assert len(walked) == len(set(walked)) == sum(len(o) for o in held), (pi, order)


@pytest.mark.parametrize("ctype,n,matrix,classes,autos", PINNED, ids=PINNED_IDS)
def test_perfection_on_ids_is_the_tuple_formula(ctype, n, matrix, classes, autos):
    g = get_group(ctype, n)
    mult, e = g.mult, g.identity
    inverse = {x: y for x in g.elements for y in g.elements if mult(x, y) == e}
    refl = {mult(mult(x, s), inverse[x]) for s in g.gens for x in g.elements}
    ids = sorted(g.index[t] for t in refl)
    checked = 0
    for pi in oc._involutive_autos(g):
        theta = _brute_theta(g, pi)
        theta_ids = g.theta_ids(pi)
        for w in g.elements:
            tw = theta[w]
            if mult(w, tw) != e:
                continue
            # (w theta(t) theta(w) t)^2 = 1 for every reflection t
            want = all(
                mult(q, q) == e
                for q in (mult(mult(mult(w, theta[t]), tw), t) for t in refl)
            )
            assert oc._is_perfect(g, g.index[w], theta_ids, ids) == want, (pi, w)
            checked += 1
    assert checked


@pytest.mark.parametrize("ctype,n", FIVE, ids=FIVE_IDS)
def test_triple_character_is_the_induced_restricted_character(ctype, n):
    g = get_group(ctype, n)
    class_of, _, sizes = g.conjugacy_classes()
    for t in all_triples(g):
        values = restricted_character(g, t)
        sums = [0] * len(sizes)
        for y, v in values.items():
            sums[class_of[y]] += v
        # Ind(f)(c) = |G| / (|c| |H|) * (sum of f over H meet c)
        want = []
        for total, size in zip(sums, sizes):
            assert g.order * total % (size * len(values)) == 0
            want.append(g.order * total // (size * len(values)))
        assert triple_character(g, t) == tuple(want)


def test_a_class_without_a_unique_minimum_is_dropped(monkeypatch):
    # S3 has two perfect classes; taking every twisted involution class as
    # perfect must add every class but the transpositions, whose minima are
    # s1 and s2
    g = oc.build_group("A", 3)
    s1, s2 = g.gens
    monkeypatch.setattr(oc, "_is_perfect", lambda *args: True)
    got = {(c["theta"], c["elements"]) for c in perfect_classes(g)}
    want = set()
    for pi in oc._involutive_autos(g):
        theta = _brute_theta(g, pi)
        for orbit in set(_tuple_orbits(g, pi).values()):
            if all(g.mult(w, theta[w]) == g.identity for w in orbit):
                want.add((pi, orbit))
    transpositions = frozenset({s1, s2, g.mult(g.mult(s1, s2), s1)})
    assert ((0, 1), transpositions) in want
    assert got == want - {((0, 1), transpositions)}
    assert len(got) > 2


GOLDEN = Path(__file__).parent / "golden"

# argv, and the golden file pinning its output if there is one
GUARDED_RUNS = [
    (["oracle", "classes", "--type", "B", "--rank", "3"], None),
    (["oracle", "classes", "--type", "B", "--rank", "4"], "oracle_classes_B4.json"),
    (["oracle", "classes", "--type", "D", "--rank", "4"], "oracle_classes_D4.json"),
    (["oracle", "search", "--type", "B", "--rank", "3"], "oracle_search_B3.json"),
    (["oracle", "search", "--type", "D", "--rank", "4"], "oracle_search_D4.json"),
    (["verify", "--model", "family:PB:3", "--oracle"], None),
    (["classify", "--type", "H3"], "classify_H3.json"),
]


@pytest.mark.parametrize(
    "argv,golden", GUARDED_RUNS, ids=[" ".join(argv) for argv, _ in GUARDED_RUNS]
)
def test_no_tuple_product_after_the_bfs(argv, golden, capsys, monkeypatch):
    # the oracle answers from its id tables: a group whose mult raises once
    # it is built gives the same output as one whose mult works
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    assert run(argv) == 0
    want = capsys.readouterr().out
    if golden:
        assert want == (GOLDEN / golden).read_text(encoding="utf-8")

    def no_mult(x, y):
        raise AssertionError("tuple product after the BFS")

    init = Group.__init__

    def guarded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.mult = no_mult

    monkeypatch.setattr(Group, "__init__", guarded_init)
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_the_identity_automorphism_walks_nothing(monkeypatch):
    g = oc.build_group("D", 4)
    walks = []
    walk = Group._walk

    def counted(self, start, rows):
        walks.append(start)
        return walk(self, start, rows)

    monkeypatch.setattr(Group, "_walk", counted)
    theta = g.theta_ids((0, 1, 2, 3))
    assert list(theta) == list(range(g.order))
    assert walks == []
    g.theta_ids((1, 0, 2, 3))
    assert len(walks) == 1


def test_sqrt_count_is_computed_once_per_group():
    g = get_group("B", 4)
    assert sqrt_count(g) is sqrt_count(g)


def test_audited_tables_do_not_outlive_their_group():
    import gc
    import weakref

    from coxmodel.model_index import character_of_index
    from coxmodel.oracle import build_group

    g = build_group("B", 3)
    idx = ModelIndex("B", [(3, "id", "pm"), (0, "id", "triv")])
    first = virtual_char_values(g, character_of_index(idx))
    assert virtual_char_values(g, character_of_index(idx)) == first
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_wrong_length_class_functions_do_not_pair():
    # zip and map stop at the shorter input: a dropped class must raise
    g = get_group("B", 3)
    r2 = sqrt_count(g)
    assert inner_product(g, r2, r2) == 10
    for f, h in [(r2[:-1], r2), (r2, r2[:-1]), (r2 + (0,), r2), (r2, r2 + (0,))]:
        with pytest.raises(ValueError, match="class function has"):
            inner_product(g, f, h)
    with pytest.raises(ValueError):
        oc.pair(g, oc.weigh(g, r2), r2[:-1])
    with pytest.raises(ValueError):
        oc.pair(g, oc.weigh(g, r2)[:-1], r2[:-1])


def test_batched_pairs_are_the_single_pairs_with_their_checks():
    g = get_group("B", 3)
    r2 = sqrt_count(g)
    table = list(oc._irr_table(g, "B", 3).values())
    weighed = oc.weigh(g, r2)
    assert oc.pairs(g, weighed, table) == [oc.pair(g, weighed, chi) for chi in table]
    assert oc.pairs(g, weighed, []) == []
    # one short class function fails the whole batch
    with pytest.raises(ValueError, match="class function has"):
        oc.pairs(g, weighed, table[:2] + [r2[:-1]])
    # the identity class alone is no character: its pairing leaves a remainder
    with pytest.raises(RuntimeError, match="not integral"):
        oc.pairs(g, weighed, [r2, (1,) + (0,) * (len(r2) - 1)])


@pytest.mark.parametrize("ctype,n", [("A", 4), ("B", 3), ("D", 4), ("D", 5)])
def test_a_flipped_table_value_fails_the_audit(ctype, n, monkeypatch):
    # the first label's value at the second class changes sign
    columns = oc.irr_column
    calls = []

    def flipped(ctype, labels, w):
        values = list(columns(ctype, labels, w))
        calls.append(w)
        if len(calls) == 2:
            values[0] = -values[0]
        return tuple(values)

    monkeypatch.setattr(oc, "irr_column", flipped)
    g = oc.build_group(ctype, n)
    with pytest.raises(RuntimeError, match="orthonormal|integral"):
        oc._irr_table(g, ctype, n)
    assert g._irr == {}


def test_wrong_length_class_functions_are_not_a_model():
    g = get_group("B", 3)
    r2 = sqrt_count(g)
    assert oracle_is_perfect(g, [r2])
    for chars in ([r2[:-1]], [r2 + (0,)], [r2, ()]):
        with pytest.raises(ValueError, match="class function has"):
            oracle_is_perfect(g, chars)


def _reference_covers(g):
    """The covers by the unpruned scan: every item from `start` on, over
    candidates sorted and clash masks built as the search builds them."""
    r2 = sqrt_count(g)
    rows = {}
    for t in all_triples(g):
        desc = (t["J"], t["min"], t["theta"], t["sigma"])
        rows.setdefault(triple_character(g, t), []).append(desc)
    items = sorted(
        (
            (chi, inner_product(g, chi, chi), tuple(descs))
            for chi, descs in rows.items()
            if inner_product(g, chi, chi) == inner_product(g, chi, r2)
        ),
        key=lambda it: (-it[1], it[0]),
    )
    clash = [
        sum(1 << j for j, other in enumerate(items) if j != i and inner_product(g, chi, other[0]))
        for i, (chi, _, _) in enumerate(items)
    ]
    covers = []

    def rec(start, remaining, blocked, chosen):
        if remaining == 0:
            covers.append(tuple((items[i][0], items[i][2]) for i in chosen))
            return
        for i in range(start, len(items)):
            if items[i][1] <= remaining and not blocked >> i & 1:
                rec(i + 1, remaining - items[i][1], blocked | clash[i], chosen + [i])

    rec(0, len(r2), 0, [])
    return covers


SEARCH_RANKS = (
    [("A", n) for n in range(3, 7)]
    + [("B", n) for n in range(2, 6)]
    + [("D", 4), ("D", 5)]
    + [("I2", m) for m in range(5, 9)]
    + [("H3", 3)]
)


@pytest.mark.parametrize("ctype,n", SEARCH_RANKS, ids=[f"{t}{n}" for t, n in SEARCH_RANKS])
def test_pruned_search_finds_the_unpruned_covers_in_order(ctype, n):
    g = get_group(ctype, n)
    assert oracle_search(g) == _reference_covers(g)


def _fresh_key(g, triple):
    """(class sums, centralizer order) from the triple's restricted character."""
    class_of, reps, _ = g.conjugacy_classes()
    restricted = restricted_character(g, triple)
    sums = [0] * len(reps)
    for x, v in restricted.items():
        sums[class_of[x]] += v
    return tuple(sums), len(restricted)


@pytest.mark.parametrize("ctype", ["B", "D"], ids=["symB", "symD"])
def test_kept_inductions_are_the_fresh_ones(ctype):
    g = oc.build_group(ctype, 4)
    oracle_search(g)
    for triple in all_triples(g):
        sums, order = _fresh_key(g, triple)
        assert triple_character(g, triple) == oc.induced_character(g, sums, order)


def test_each_class_sum_key_is_induced_once_per_group(monkeypatch):
    import gc
    import weakref

    induced = []
    real = oc.induced_character

    def counted(group, sums, h):
        induced.append((tuple(sums), h))
        return real(group, sums, h)

    monkeypatch.setattr(oc, "induced_character", counted)
    g = oc.build_group("B", 5)
    assert g._induced == {}
    oracle_search(g)
    triples = all_triples(g)
    keys = {_fresh_key(g, t) for t in triples}
    assert (len(triples), len(keys)) == (717, 144)
    assert sorted(induced) == sorted(keys)
    assert set(g._induced) == keys
    for t in triples:
        assert triple_character(g, t) is g._induced[_fresh_key(g, t)]
    assert len(induced) == len(keys)
    # a new group, and a new subgroup, start empty; the memo dies with its group
    assert oc.build_group("B", 5)._induced == {}
    assert g.subgroup((0, 1))._induced == {}
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("ctype,n", [("B", 5), ("D", 5)], ids=["symB-5", "symD-5"])
def test_all_triples_decode_only_the_class_minima(ctype, n, monkeypatch):
    # the triples are the perfect classes of every parabolic, each class
    # once per linear character, read off the one id-level walk; only a
    # class minimum is decoded (the walk's orbits were decoded too: 249
    # unused elements at B5, 251 at D5)
    g = oc.build_group(ctype, n)
    decoded = []
    real = Group.element
    monkeypatch.setattr(Group, "element", lambda self, i: decoded.append(i) or real(self, i))
    triples = all_triples(g)
    classes = {(t["J"], t["min"], t["theta"]) for t in triples}
    assert len(decoded) == len(classes)
    monkeypatch.undo()
    want = []
    k = len(g.gens)
    for mask in range(1 << k):
        gen_ids = tuple(i for i in range(k) if mask >> i & 1)
        sub = g.subgroup(gen_ids)
        for cls in perfect_classes(sub):
            assert cls["min"] in cls["elements"]
            for sigma in oc.linear_characters(sub):
                want.append({"J": gen_ids, "min": cls["min"], "theta": cls["theta"], "sigma": sigma})
    assert triples == want


def test_the_oracle_never_names_the_column_kind_table():
    # the oracle's sign blocks are the independent side of every index check,
    # so they must not be read from the table that validate and column_char share
    table = {"COLUMN_KINDS", "COLUMN_ALIASES", "column_kind"}
    assert table <= set(vars(induction))
    tree = ast.parse(Path(oc.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert not named & table


@pytest.mark.parametrize(
    "ctype,ranks",
    [("A", range(1, 8)), ("B", range(1, 6)), ("D", range(2, 7)), ("I2", range(2, 9)), ("H3", [3])],
    ids=[f"{label}-ranks{i}" for i, label in enumerate(["symA", "symB", "symD", "dihedral", "h3"])],
)
def test_the_order_formula_is_the_order_the_group_walk_finds(ctype, ranks):
    for n in ranks:
        order = get_group(ctype, n).order
        assert not oc._order_passes(ctype, n, order), (ctype, n)
        assert oc._order_passes(ctype, n, order - 1), (ctype, n)


def test_groups_are_keyed_by_coxeter_type(monkeypatch):
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    ranks = [("A", 3), ("B", 2), ("D", 3), ("I2", 5), ("H3", 3)]
    for ctype, n in ranks:
        assert get_group(ctype, n) is get_group(ctype, n)
    assert list(oc._GROUP_CACHE) == ranks
    for ctype, entry in oc.GROUP_TYPES.items():
        with pytest.raises(ValueError, match=f"rank >= {entry.least}, got|rank {entry.least} only"):
            get_group(ctype, entry.least - 1)
    for wrong in ("E", "symA", "h3"):
        with pytest.raises(ValueError, match="unknown Coxeter type"):
            get_group(wrong, 4)
    # H3's one rank is the table's
    at_4 = SimpleNamespace(**{**vars(oc.GROUP_TYPES["H3"]), "least": 4})
    monkeypatch.setattr(oc, "GROUP_TYPES", {**oc.GROUP_TYPES, "H3": at_4})
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    with pytest.raises(ValueError, match="^H3 exists at rank 4 only$"):
        get_group("H3", 3)


def test_the_group_cache_holds_twice_the_default_cap(monkeypatch):
    # B6, the largest group tier-1 builds, has 46,080 elements
    monkeypatch.delenv("COXMODEL_ORACLE_CAP", raising=False)
    assert oc.GROUP_CACHE_ELEMENTS == 2 * oc.oracle_cap() == 2_000_000
    assert sum(g.order for g in oc._GROUP_CACHE.values()) <= oc.GROUP_CACHE_ELEMENTS


def test_the_group_cache_drops_its_oldest_groups_first(monkeypatch):
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    monkeypatch.setattr(oc, "GROUP_CACHE_ELEMENTS", 200)
    a4 = get_group("A", 4)
    for ctype, n in [("B", 3), ("I2", 50), ("I2", 10)]:
        get_group(ctype, n)
    # 24 + 48 + 100 + 20 elements
    assert list(oc._GROUP_CACHE) == [("A", 4), ("B", 3), ("I2", 50), ("I2", 10)]
    get_group("A", 5)  # 120 more: A4, B3 and I2(50) go
    assert list(oc._GROUP_CACHE) == [("I2", 10), ("A", 5)]
    assert get_group("A", 4) is not a4
    # a group past the bound on its own stays, alone
    b4 = get_group("B", 4)
    assert list(oc._GROUP_CACHE) == [("B", 4)] and b4.order == 384
    assert get_group("B", 4) is b4
