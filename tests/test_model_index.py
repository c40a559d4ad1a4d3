"""Index validity, rewrites, equivalence orbits, and index-level projections."""

from functools import cache
from itertools import combinations, product

import pytest

from coxmodel import classification as cl
from coxmodel import induction as ind
from coxmodel import lr
from coxmodel import model_index as mx
from coxmodel import partitions as pt
from coxmodel.char_ring import is_multiplicity_free, twist
from coxmodel.classification import SEARCH_CAPS, classify
from coxmodel.induction import bullet, column_char, column_kind, project
from coxmodel.model_index import (
    ModelIndex,
    canonical_form,
    _block_columns,
    _compositions,
    _lemma_excludes_mf,
    _raw_columns,
    character_of_index,
    check_valid,
    enumerate_indices,
    equivalence_orbit,
    format_index,
    from_json,
    normalize,
    project_index,
    transform,
    validate,
)


def mi(ctype, *cols):
    return ModelIndex(ctype, cols)


def raw_indices(ctype, n, mf_only=False):
    return [ModelIndex(ctype, cols) for cols in _raw_columns(ctype, n, mf_only)]


@cache
def strong_reps_d():
    """Every strong representative at D4-D10: past the oracle's reach, these
    exact checks are what pins the degenerate signs at D8 and D10."""
    return tuple(idx for n in range(4, 11) for idx in enumerate_indices("D", n))


def test_validate_accepts_good_indexes():
    assert validate(mi("A", (4, "fpf", "triv"))) == []
    assert validate(mi("B", (2, ("pq", 1, 1), "pm"), (1, "id", "sgn"))) == []
    assert validate(mi("D", (4, ("tri", 3, 1, "cw"), "triv"), (0, "id", "triv"))) == []
    assert validate(mi("D", (0, "id", "triv"), (-5, "idplus", "sgn"))) == []


@pytest.mark.parametrize(
    "idx",
    [
        mi("A", (3, "fpf", "triv")),  # odd fpf block
        mi("A", (0, "id", "triv")),  # rank zero
        mi("B", (2, "fpf", "pm"), (0, "id", "triv")),  # mixed char on fpf
        mi("B", (3, ("pq", 1, 1), "triv"), (0, "id", "triv")),  # p+q != size
        mi("B", (1, "id", "triv"), (3, "fpf", "triv")),  # col-1 fpf floor is 4
        mi("D", (1, "id", "triv"), (3, "id", "triv")),  # size-1 sign block
        mi("D", (3, "id", "pm"), (0, "id", "triv")),  # mixed char off size 2
        mi("D", (4, ("tri", 2, 2, "cw"), "triv"), (0, "id", "triv")),
        mi("D", (2, "id", "triv"), (-2, "id", "triv")),  # partial flip
    ],
)
def test_validate_rejects_bad_indexes(idx):
    assert validate(idx)
    with pytest.raises(ValueError):
        check_valid(idx)


def test_normalize_drops_zero_columns_in_type_a():
    idx = mi("A", (0, "id", "triv"), (5, "idplus", "sgn"))
    assert normalize(idx) == mi("A", (5, "id", "sgn"))
    # idempotent
    assert normalize(normalize(idx)) == normalize(idx)


def test_normalize_collapses_small_blocks():
    idx = mi("B", (1, "id", "triv"), (2, "idplus", "sgn"))
    assert normalize(idx) == mi("B", (1, "id", "triv"), (2, "id", "sgn"))
    # rank-2 type D sign block is abelian, class symbol collapses
    idx2 = mi("D", (2, "fpf", "pm"), (2, "id", "triv"))
    assert normalize(idx2).columns[0] == (2, "id", "pm")


def test_json_roundtrip_and_format():
    idx = mi("B", (3, ("pq", 2, 1), "mp"), (2, "id", "sgn"))
    assert from_json(idx.to_json()) == idx
    assert format_index(idx) == "B[3,2;(2,1),id;mp,sgn]"


@pytest.mark.parametrize(
    "doc,message",
    [
        (5, "an index is a JSON object"),
        ([], "an index is a JSON object"),
        ({"type": "A"}, "missing 'alpha', 'beta', 'gamma'"),
        ({"alpha": [2], "beta": ["id"], "gamma": ["triv"]}, "missing 'type'; an index is"),
        ({"type": "A", "alpha": 2, "beta": ["id"], "gamma": ["triv"]}, "the lists alpha, beta and gamma"),
    ],
)
def test_from_json_names_the_missing_key_or_the_shape(doc, message):
    with pytest.raises(ValueError, match=message):
        from_json(doc)


def test_dual_is_an_involution():
    samples = [
        mi("A", (3, "id", "triv"), (2, "id", "sgn")),
        mi("B", (3, ("pq", 2, 1), "pm"), (4, "fpf", "triv")),
        mi("B", (2, "fpf", "triv"), (3, "id", "sgn")),
        mi("D", (4, "fpf", "triv"), (1, "id", "triv")),
        mi("D", (4, ("tri", 3, 1, "cw"), "sgn"), (0, "id", "triv")),
        mi("D", (2, "id", "pm"), (3, "id", "triv")),
    ]
    for idx in samples:
        back = normalize(transform(transform(idx, "dual"), "dual"))
        assert back == normalize(idx)


def test_star_reverses_type_a_columns():
    idx = mi("A", (3, "id", "triv"), (2, "id", "sgn"))
    assert transform(idx, "star") == mi("A", (2, "id", "sgn"), (3, "id", "triv"))


def test_dual_preserves_the_character():
    samples = [
        mi("A", (4, "fpf", "triv")),
        mi("A", (3, "id", "sgn"), (2, "id", "triv")),
        mi("B", (2, "id", "pm"), (2, "id", "sgn")),
        mi("B", (4, "fpf", "triv"), (0, "id", "triv")),
        mi("D", (4, "fpf", "triv"), (0, "id", "triv")),
        mi("D", (0, "id", "triv"), (5, "id", "sgn")),
    ]
    for idx in samples + list(strong_reps_d()):
        assert character_of_index(transform(idx, "dual")) == character_of_index(idx)


def test_bar_twists_the_character_by_sgn():
    samples = [
        mi("A", (3, "id", "triv"), (2, "id", "sgn")),
        mi("B", (2, "id", "pm"), (2, "id", "sgn")),
        mi("D", (4, "fpf", "triv"), (0, "id", "triv")),
    ]
    for idx in samples + list(strong_reps_d()):
        got = character_of_index(transform(idx, "bar"))
        assert got == twist(character_of_index(idx), "sgn")


def test_diamond_twists_the_character():
    idx = mi("D", (4, "fpf", "triv"), (0, "id", "triv"))
    got = character_of_index(transform(idx, "diamond"))
    assert got == twist(character_of_index(idx), "diamond")
    tri = mi("D", (4, ("tri", 3, 1, "cw"), "triv"), (0, "id", "triv"))
    assert character_of_index(transform(tri, "diamond")) == twist(
        character_of_index(tri), "diamond"
    )
    for idx in strong_reps_d():
        got = character_of_index(transform(idx, "diamond"))
        assert got == twist(character_of_index(idx), "diamond")


def test_canonical_form_is_constant_on_orbits():
    for idx in [
        mi("B", (3, "id", "pm"), (2, "id", "sgn")),
        mi("D", (4, "fpf", "triv"), (1, "id", "triv")),
        mi("A", (3, "id", "triv"), (2, "id", "sgn")),
    ]:
        for relation in ("strong", "full"):
            orbit = equivalence_orbit(idx, relation)
            canon = canonical_form(idx, relation)
            assert canon in orbit
            for member in orbit:
                assert canonical_form(member, relation) == canon


def reference_orbit(idx, relation):
    """The orbit by a walk over indexes, one ModelIndex built per member,
    with its own list of generators, sorted by ModelIndex.key."""
    check_valid(idx)
    ctype, n = idx.ctype, idx.rank
    gens = [mx._dual]
    if ctype == "A":
        gens.append(mx._star)
    if ctype == "D" and n % 2 == 1:
        gens.append(mx._diamond)
    if relation == "full":
        gens.append(mx._bar)
        if ctype == "D" and n % 2 == 0:
            gens.append(mx._diamond)
        if ctype == "D" and n == 4:
            gens.append(mx._triality)
        if ctype == "B" and n == 2:
            gens.append(mx._b2_swap)
    start = normalize(idx)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            img = gen(ctype, cur.columns)
            if img is None:
                continue
            img = normalize(ModelIndex(ctype, img))
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return tuple(sorted(seen, key=ModelIndex.key))


def reference_strong_representatives(ctype, n, pruned):
    least = {}
    for idx in raw_indices(ctype, n, pruned):
        if idx not in least:
            orbit = reference_orbit(idx, "strong")
            least.update(dict.fromkeys(orbit, orbit[0]))
    reps = {least[idx] for idx in raw_indices(ctype, n, pruned)}
    return tuple(sorted(reps, key=ModelIndex.key))


REFERENCE_RANKS = [
    *(("A", n) for n in range(2, 13)),
    *(("B", n) for n in range(2, 11)),
    *(("D", n) for n in range(3, 11)),
]


@pytest.mark.parametrize("ctype,n", REFERENCE_RANKS)
def test_strong_representatives_are_the_reference_orbit_minima(ctype, n, monkeypatch):
    monkeypatch.setattr(mx, "_ORBIT_CACHE", {})
    for pruned in (False, True):
        assert mx._strong_representatives(ctype, n, pruned) == (
            reference_strong_representatives(ctype, n, pruned)
        )


@pytest.mark.parametrize(
    "ctype,n", [(c, n) for c, n in REFERENCE_RANKS if n <= {"A": 8, "B": 6, "D": 6}[c]]
)
def test_canonical_form_and_orbit_are_the_reference_on_every_raw_index(
    ctype, n, monkeypatch
):
    # an empty cache first, so that both the walk and the lookup are read
    monkeypatch.setattr(mx, "_ORBIT_CACHE", {})
    for relation in ("strong", "full"):
        for idx in raw_indices(ctype, n):
            want = reference_orbit(idx, relation)
            assert equivalence_orbit(idx, relation) == want
            assert canonical_form(idx, relation) == want[0]
            assert canonical_form(idx, relation) == want[0]


@pytest.mark.parametrize("ctype", sorted(SEARCH_CAPS))
def test_one_classify_at_the_caps_fits_the_orbit_cache(ctype, monkeypatch):
    # so that a classify walks each orbit once
    monkeypatch.setattr(mx, "_ORBIT_CACHE", {})
    for relation in ("strong", "full"):
        classify(ctype, SEARCH_CAPS[ctype], relation)
    assert 0 < len(mx._ORBIT_CACHE) < mx.ORBIT_CACHE_SIZE


# the keys one classify at SEARCH_CAPS, both relations, touches per cache
CLASSIFY_CACHE_KEYS = {
    "A": {
        "_column": 51,
        "_block_columns": 16,
        "_grow": 128,
        "_transposed": 123,
        "lr_expand": 273,
        "partitions_of": 111,
        "erows": 7,
        "ecols": 7,
    },
    "B": {
        "_column": 69,
        "_block_columns": 18,
        "_grow": 45,
        "_transposed": 37,
        "lr_expand": 136,
        "_bullet_b_labels": 314,
        "_inside": 15,
        "partitions_of": 45,
        "erows": 9,
        "erows_b": 4,
        "ecols_b": 4,
    },
    "D": {
        "_column": 53,
        "_block_columns": 19,
        "_grow": 45,
        "_transposed": 37,
        "lr_expand": 137,
        "_bullet_b_labels": 306,
        "_bullet_d_labels": 120,
        "_inside": 13,
        "_restricted_difference": 22,
        "partitions_of": 45,
        "unordered_bipartitions_of": 1,
        "erows": 9,
        "ecols": 2,
        "erows_b": 3,
        "ecols_b": 3,
        "erows_d": 3,
        "ecols_d": 3,
    },
}
PARTITION_CACHES = (
    "partitions_of",
    "unordered_bipartitions_of",
    "erows",
    "ecols",
    "erows_b",
    "ecols_b",
    "erows_d",
    "ecols_d",
)


@pytest.mark.parametrize("ctype", sorted(SEARCH_CAPS))
def test_one_classify_at_the_caps_fits_the_character_caches(ctype, monkeypatch):
    caches = {
        "_column": mx._column,
        "_block_columns": mx._block_columns,
        "_grow": lr._grow,
        "_transposed": lr._transposed,
        "lr_expand": lr.lr_expand,
        "_bullet_b_labels": ind._bullet_b_labels,
        "_bullet_d_labels": ind._bullet_d_labels,
        "_inside": ind._inside,
        "_restricted_difference": ind._restricted_difference,
        **{name: getattr(pt, name) for name in PARTITION_CACHES},
    }
    for f in caches.values():
        f.cache_clear()
    monkeypatch.setattr(mx, "_ORBIT_CACHE", {})
    for relation in ("strong", "full"):
        classify(ctype, SEARCH_CAPS[ctype], relation)
    for name, f in caches.items():
        info = f.cache_info()
        # each miss is a new key, as long as nothing was evicted
        assert info.misses == CLASSIFY_CACHE_KEYS[ctype].get(name, 0), name
        assert info.misses < info.maxsize, name


def test_a_full_orbit_cache_is_emptied_and_refilled(monkeypatch):
    monkeypatch.setattr(mx, "_ORBIT_CACHE", {})
    monkeypatch.setattr(mx, "ORBIT_CACHE_SIZE", 10)
    for ctype, n in (("A", 6), ("B", 5), ("D", 5)):
        assert mx._strong_representatives(ctype, n, False) == (
            reference_strong_representatives(ctype, n, False)
        )
        assert 0 < len(mx._ORBIT_CACHE) <= 10
    idx = mi("B", (3, "id", "pm"), (2, "id", "sgn"))
    assert canonical_form(idx, "full") == reference_orbit(idx, "full")[0]
    assert len(mx._ORBIT_CACHE) <= 10


def test_full_orbit_contains_strong_orbit():
    idx = mi("B", (2, "id", "pm"), (1, "id", "triv"))
    strong = set(equivalence_orbit(idx, "strong"))
    full = set(equivalence_orbit(idx, "full"))
    assert strong <= full
    assert normalize(transform(idx, "bar")) in full


def test_frozen_character_example():
    got = character_of_index(mi("B", (0, "id", "triv"), (3, "id", "sgn")))
    labs = {((1, 1, 1), ()), ((1, 1), (1,)), ((1,), (1, 1)), ((), (1, 1, 1))}
    assert dict(got.coeffs) == {lab: 1 for lab in labs}


def _check_projection(kind, idx):
    chi = character_of_index(idx)
    img = project(kind, chi)
    pidx = project_index(kind, idx)
    if pidx is None:
        assert not img.coeffs
    else:
        assert character_of_index(pidx) == img


def test_index_projections_commute_b():
    for idx in enumerate_indices("B", 3):
        _check_projection("piL", idx)
        _check_projection("piR", idx)


def test_index_projections_commute_d():
    for idx in enumerate_indices("D", 4):
        _check_projection("piD", idx)


def test_enumerate_mf_filter_is_a_subset():
    full = set(enumerate_indices("B", 3))
    mf = enumerate_indices("B", 3, mf_only=True)
    assert set(mf) <= full
    for idx in mf:
        assert is_multiplicity_free(character_of_index(idx)) is True


def test_lemma_prunes_only_repeated_constituents():
    # every valid index has an exact character, and each one a lemma prunes
    # repeats a constituent: type A loses its indexes of three or more
    # columns before enumeration, types B and D lose what _lemma_excludes_mf
    # names
    pruned = {"A": 0, "B": 0, "D": 0}
    for ctype, ranks in (("A", range(3, 9)), ("B", range(2, 11)), ("D", range(4, 11))):
        for n in ranks:
            raw = raw_indices(ctype, n)
            kept = raw_indices(ctype, n, mf_only=True)
            # the pruned enumeration is the full one, in order, minus what
            # the lemmas name
            assert kept == [
                idx
                for idx in raw
                if len(idx.columns) <= 2 and not _lemma_excludes_mf(ctype, idx.columns)
            ]
            kept = set(kept)
            for idx in raw:
                if validate(idx):
                    continue
                chi = character_of_index(idx)
                if ctype == "A":
                    assert (idx in kept) == (len(idx.columns) <= 2), idx
                if idx not in kept:
                    assert is_multiplicity_free(chi) is False, idx
                    pruned[ctype] += 1
    assert pruned["A"] > 1000
    assert pruned["B"] + pruned["D"] > 1000


def test_lemma_prunes_repeat_a_constituent_above_the_caps():
    # every index _lemma_excludes_mf prunes at B11-B14 and D11-D14, above
    # the B and D caps, has a character with a repeated constituent; the
    # ledger in notes/decisions.md, "Prune checks above the caps", goes on
    # to B20 and D21
    want = {
        ("B", 11): 580,
        ("B", 12): 766,
        ("B", 13): 886,
        ("B", 14): 1112,
        ("D", 11): 290,
        ("D", 12): 460,
        ("D", 13): 446,
        ("D", 14): 648,
    }
    for ctype, n in want:
        pruned = 0
        for idx in raw_indices(ctype, n):
            if _lemma_excludes_mf(ctype, idx.columns):
                assert is_multiplicity_free(character_of_index(idx)) is False, idx
                pruned += 1
        assert pruned == want[ctype, n]


def test_type_a_prune_holds_at_every_rank_the_cap_allows():
    # character_of_index of a type A index is the bullet product of its
    # column characters, each a nonzero genuine character, and a product
    # with a nonzero genuine character keeps a repeated constituent.  An
    # index of three or more columns at rank n has the product of its first
    # three columns, at a rank <= n, as a factor; so if every such product
    # repeats a constituent, the prune drops no model up to the type A cap.
    products = 0
    for n in range(3, SEARCH_CAPS["A"] + 1):
        for comp in _compositions(n, 3):
            for cols in product(*(_block_columns("A", a) for a in comp)):
                chars = [column_char("A", col) for col in cols]
                assert all(chi.coeffs and min(chi.coeffs.values()) > 0 for chi in chars)
                chi = bullet("A", bullet("A", chars[0], chars[1]), chars[2])
                assert is_multiplicity_free(chi) is False, cols
                products += 1
    assert products >= 13375  # A3-A16


@pytest.mark.parametrize("n", range(2, 10))
def test_type_a_prune_keeps_every_multiplicity_free_class(n):
    # reference: every strong class over all compositions of n, then the
    # multiplicity-free filter
    every = enumerate_indices("A", n)
    want = tuple(idx for idx in every if is_multiplicity_free(character_of_index(idx)))
    assert enumerate_indices("A", n, mf_only=True) == want
    assert any(len(idx.columns) > 2 for idx in every) == (n >= 3)


@pytest.mark.parametrize("n,orbits,triality", [(4, 10, 1), (6, 30, 2)])
def test_full_orbits_at_even_rank_d_keep_degree_and_multiplicity_freeness(
    n, orbits, triality
):
    # the diamond flip and, at D4, triality join strong classes here; with no
    # perfect models at even rank D, classify never canonicalizes them
    found = {equivalence_orbit(idx, "full") for idx in enumerate_indices("D", n)}
    assert len(found) == orbits
    sign_classes = [{idx.columns[0][1] for idx in orbit} for orbit in found]
    rotated = [c for c in sign_classes if any(b[0] == "tri" for b in c if isinstance(b, tuple))]
    assert len(rotated) == triality
    for orbit in found:
        chars = [character_of_index(idx) for idx in orbit]
        assert len({canonical_form(idx, "full") for idx in orbit}) == 1
        assert len({chi.degree() for chi in chars}) == 1
        assert len({is_multiplicity_free(chi) for chi in chars}) == 1


def test_raw_indices_are_valid():
    # the strong representatives are taken from _raw_columns unchecked
    for ctype, ranks in (("A", range(2, 11)), ("B", range(2, 9)), ("D", range(3, 9))):
        for n in ranks:
            for mf_only in (False, True):
                for idx in raw_indices(ctype, n, mf_only):
                    assert not validate(idx), idx


def test_normalize_returns_a_normal_index_itself():
    # _strong_representatives looks the raw columns up in the orbit cache,
    # whose keys are normal columns, so a raw index must come out of
    # normalize unchanged, not as an equal copy
    for ctype, ranks in (("A", range(2, 11)), ("B", range(2, 9)), ("D", range(3, 9))):
        for n in ranks:
            for idx in raw_indices(ctype, n):
                assert normalize(idx) is idx, idx
    idx = mi("A", (5, "idplus", "sgn"))
    out = normalize(idx)
    assert out is not idx and out == mi("A", (5, "id", "sgn"))
    assert normalize(out) is out
    idx = mi("D", (0, "id", "triv"), (-5, "idplus", "sgn"))
    assert normalize(idx) == mi("D", (0, "id", "triv"), (-5, "id", "sgn"))


def test_cached_characters_cannot_be_changed():
    # the column characters are cached and shared, so no caller may change
    # one: not the cache, nor another index's character built on it
    # each first index is one column alone, which the second shares
    pairs = [
        (mi("A", (3, "id", "sgn")), mi("A", (3, "id", "sgn"), (2, "id", "triv"))),
        (mi("B", (0, "id", "triv"), (3, "id", "sgn")), mi("B", (2, "id", "pm"), (3, "id", "sgn"))),
        (mi("B", (3, "id", "pm"), (0, "id", "triv")), mi("B", (3, "id", "pm"), (4, "fpf", "sgn"))),
        (mi("D", (0, "id", "triv"), (4, "fpf", "sgn")), mi("D", (2, "id", "pm"), (4, "fpf", "sgn"))),
        (mi("D", (0, "id", "triv"), (-4, "id", "sgn")), mi("D", (0, "id", "triv"), (-4, "id", "sgn"))),
    ]
    for first, second in pairs:
        chi = character_of_index(first)
        before, other = dict(chi.coeffs), character_of_index(second)
        label = next(iter(before))
        with pytest.raises(TypeError):
            chi.coeffs[label] = 5
        with pytest.raises(AttributeError):
            chi.coeffs.clear()
        with pytest.raises(AttributeError):
            chi.coeffs = {}
        assert chi.add(label, 5) != chi
        assert character_of_index(first) == chi and dict(chi.coeffs) == before
        assert character_of_index(second) == other


def test_enumerate_returns_canonical_representatives():
    for idx in enumerate_indices("D", 4):
        assert canonical_form(idx, "strong") == idx


# every beta and gamma symbol of the index notation, written out here rather
# than read from the column-kind table that validate and the enumerator read
A_BETAS = ("id", "idplus", "fpf", "fpfplus")
D_BETAS = ("id", "idplus", "fpf", "fpfdiamond")
A_GAMMAS = ("triv", "sgn")
B_GAMMAS = ("triv", "sgn", "pm", "mp")


def _symmetric_spellings(a):
    """Every symmetric-block column of size a: A_BETAS by A_GAMMAS."""
    return [(a, b, g) for b in A_BETAS for g in A_GAMMAS]


def _sign_spellings(a0):
    """Every sign-block column of size a0: every beta, with all pq splits
    and triality rotations, by every gamma."""
    betas = [*dict.fromkeys(A_BETAS + D_BETAS)]
    betas += [("pq", p, a0 - p) for p in range(a0 + 1)]
    betas += [("tri", p, q, d) for p, q in ((3, 1), (1, 3)) for d in ("cw", "ccw")]
    return [(a0, b, g) for b in betas for g in B_GAMMAS]


def _spellings(ctype, n):
    """Every rank-n index over the symbols."""
    if ctype == "A":
        cuts = (c for k in range(n) for c in combinations(range(1, n), k))
        shapes = [tuple(b - a for a, b in zip((0, *c), (*c, n))) for c in cuts]
        shapes += [(0, n), (n, 0)]
        pools = [[_symmetric_spellings(a) for a in shape] for shape in shapes]
    elif ctype == "B":
        pools = [[_sign_spellings(n - a1), _symmetric_spellings(a1)] for a1 in range(n + 1)]
    else:
        pools = [
            [_sign_spellings(n - abs(a1)), _symmetric_spellings(a1)] for a1 in range(-n, n + 1)
        ]
    for pool in pools:
        for cols in product(*pool):
            yield ModelIndex(ctype, cols)


SPELLED_RANKS = [
    *(("A", n) for n in range(1, 5)),
    *(("B", n) for n in range(1, 7)),
    *(("D", n) for n in range(2, 7)),
]


@pytest.mark.parametrize("ctype,n", SPELLED_RANKS)
def test_column_generators_are_the_valid_normalized_spellings(ctype, n):
    raw = raw_indices(ctype, n)
    assert len(set(raw)) == len(raw)
    want = {idx for idx in _spellings(ctype, n) if not validate(idx) and normalize(idx) == idx}
    assert set(raw) == want


# the number of spellings validate accepts at each rank, pinned so that a
# rewrite of the column rules keeps every verdict
VALID_SPELLINGS = {
    **dict(zip((("A", n) for n in range(6)), (0, 68, 152, 196, 872, 4228))),
    **dict(zip((("B", n) for n in range(8)), (0, 40, 96, 160, 272, 360, 544, 672))),
    **dict(zip((("D", n) for n in range(8)), (0, 64, 128, 160, 312, 296, 496, 464))),
}


@pytest.mark.parametrize("ctype,n", sorted(VALID_SPELLINGS))
def test_validate_accepts_the_pinned_number_of_spellings(ctype, n):
    valid = sum(1 for idx in _spellings(ctype, n) if not validate(idx))
    assert valid == VALID_SPELLINGS[ctype, n]


def _column_char_args(idx):
    """The column_char arguments of the columns of an index: the symmetric
    column of a type B or D index is read in type A at |alpha|."""
    if idx.ctype == "A":
        return [("A", col) for col in idx.columns]
    col0, (a1, b1, g1) = idx.columns
    return [(idx.ctype, col0), ("A", (abs(a1), b1, g1))]


def _takes(ctype, col) -> bool:
    try:
        column_char(ctype, col)
    except ValueError:
        return False
    return True


def test_column_char_takes_exactly_the_columns_of_valid_indexes():
    spelled, valid = set(), set()
    ranks = [*(("A", n) for n in range(1, 6)), *((t, n) for t in "BD" for n in range(1, 8))]
    for ctype, n in ranks:
        for idx in _spellings(ctype, n):
            # a size-0 column names no generators, and character_of_index
            # skips it
            args = [(t, col) for t, col in _column_char_args(idx) if col[0] != 0]
            spelled.update(args)
            if not validate(idx):
                valid.update(args)
    assert {args for args in spelled if _takes(*args)} == valid


def test_column_char_refuses_every_size_0_column():
    # validate still accepts some of them in column 0 of B and D
    empty = {
        (ctype, col)
        for t, n in SPELLED_RANKS
        for idx in _spellings(t, n)
        for ctype, col in _column_char_args(idx)
        if col[0] == 0
    }
    assert {ctype for ctype, _ in empty} == {"A", "B", "D"}
    for ctype, col in empty:
        with pytest.raises(ValueError, match=f"no type {ctype} column"):
            column_char(ctype, col)


# the valid normal columns of each block at sizes 0, 1, 2, ... (in A at
# |alpha|), counted from the hand-written enumerators the column-kind table
# replaced; D has no size-1 sign block
BLOCK_COLUMN_COUNTS = {
    "A": (1, 1, 2, 2, 6, 2, 6, 2, 6, 2, 6, 2, 6, 2, 6, 2, 6),
    "B": (1, 2, 10, 12, 18, 20, 26, 28, 34),
    "D": (1, 0, 4, 6, 20, 10, 16, 14, 20),
}
# every block size up to A16, B8 and D8, and D's flipped symmetric block
BLOCK_SIZES = {"A": [*range(17), *range(-8, 0)], "B": range(9), "D": range(9)}


def _block_spellings(block, a):
    return _symmetric_spellings(a) if block == "A" else _sign_spellings(a)


def _placed(block, col):
    """Indexes that hold col in its block beside valid normal columns, one
    for each index type that has such a column."""
    a = col[0]
    if block != "A":
        return [ModelIndex(block, [col, (2, "id", "triv")])]
    if a < 0:
        return [ModelIndex("D", [(0, "id", "triv"), col])]
    if a == 0:
        return [ModelIndex(t, [(2, "id", "triv"), col]) for t in "BD"]
    return [ModelIndex("A", [col]), *(ModelIndex(t, [(0, "id", "triv"), col]) for t in "BD")]


@pytest.mark.parametrize("block", "ABD")
def test_block_columns_are_the_valid_normal_spellings_up_to_the_caps(block):
    for a in BLOCK_SIZES[block]:
        want = set()
        for col in _block_spellings(block, a):
            verdicts = {not validate(idx) and normalize(idx) == idx for idx in _placed(block, col)}
            assert len(verdicts) == 1, col
            if verdicts.pop():
                want.add(col)
        got = _block_columns(block, a)
        assert len(got) == len(set(got)) == BLOCK_COLUMN_COUNTS[block][abs(a)], (block, a)
        assert set(got) == want, (block, a)


def test_every_column_kind_takes_a_valid_column_up_to_size_8():
    # so that no entry of the table is dead
    labels = [kind[1] for kind in ind.COLUMN_KINDS.values()]
    assert len(set(labels)) == len(labels)
    reached = {
        column_kind(block, col)
        for block in "ABD"
        for a in range(9)
        for col in _block_spellings(block, a)
        if not any(validate(idx) for idx in _placed(block, col))
    }
    assert set(labels) <= reached


def test_the_multiplicity_free_filter_validates_nothing(monkeypatch):
    # its indexes come from _raw_columns, valid by construction
    inside, filtered, calls = [False], [], []
    real_validate, real_filter = mx.validate, mx.multiplicity_free_characters

    def counted(idx):
        if inside[0]:
            calls.append(idx)
        return real_validate(idx)

    def mf_filter(ctype, n):
        filtered.append((ctype, n))
        inside[0] = True
        try:
            return real_filter(ctype, n)
        finally:
            inside[0] = False

    monkeypatch.setattr(mx, "validate", counted)
    monkeypatch.setattr(cl, "multiplicity_free_characters", mf_filter)
    classify("B", 8)
    assert filtered == [("B", 8)]
    assert calls == []
    # outside input keeps its check
    with pytest.raises(ValueError, match="invalid index"):
        character_of_index(mi("B", (1, "id", "pm"), (2, "id", "triv")))


# --- the normal form and the projections against their earlier spelling -------


def _reference_normalize_a_column(col):
    """A symmetric-block column's normal form, as written before
    `_normal_column` served every block."""
    a, b, g = col
    if a == 0:
        return (0, "id", "triv")
    if b == "idplus":
        b = "id"
    if abs(a) <= 2:
        b = "id"
    if abs(a) == 1:
        g = "triv"
    return (a, b, g)


def _reference_normal_columns(ctype, cols):
    if ctype == "A":
        kept = tuple(_reference_normalize_a_column(c) for c in cols if c[0] != 0)
        return kept or ((0, "id", "triv"),)
    (a0, b0, g0), col1 = cols
    col1 = _reference_normalize_a_column(col1)
    if a0 == 0:
        col0 = (0, "id", "triv")
    else:
        if b0 == "idplus":
            b0 = "id"
        if ctype == "D" and a0 == 2:
            b0 = "id"
        col0 = (a0, b0, g0)
    return (col0, col1)


def _reference_strip_zero_columns(ctype, cols):
    kept = [c for c in cols if c[0] != 0]
    if not kept:
        raise ValueError("projection produced an empty index")
    return ModelIndex(ctype, _reference_normal_columns(ctype, kept))


def _reference_project_index(kind, idx):
    """project_index as written with one restriction rule per class."""
    check_valid(idx)
    if kind in ("piL", "piR"):
        (a0, b0, g0), col1 = idx.columns
        if a0 == 0:
            return _reference_strip_zero_columns("A", [col1])
        if b0 == "fpf":
            return _reference_strip_zero_columns("A", [(a0, "fpf", g0), col1])
        left = kind == "piL"
        if isinstance(b0, tuple):
            if g0 not in (("triv", "pm") if left else ("mp", "sgn")):
                return None
            g = "triv" if g0 in ("triv", "mp") else "sgn"
            return _reference_strip_zero_columns(
                "A", [(b0[1], "id", g), (b0[2], "id", g), col1]
            )
        if a0 == 1:
            survives = g0 == "triv" if left else g0 == "sgn"
            gmap = {"triv": "triv", "sgn": "sgn"}
        else:
            survives = g0 in (("triv", "pm") if left else ("mp", "sgn"))
            gmap = {"triv": "triv", "pm": "sgn", "mp": "triv", "sgn": "sgn"}
        if not survives:
            return None
        return _reference_strip_zero_columns("A", [(a0, "id", gmap[g0]), col1])
    (a0, b0, g0), (a1, b1, g1) = idx.columns
    if a0 == 0:
        return _reference_strip_zero_columns("A", [(abs(a1), b1, g1)])
    if g0 not in ("triv", "sgn"):
        return None
    col1 = (abs(a1), b1, g1)
    if isinstance(b0, tuple) and b0[0] == "pq":
        cols = [(b0[1], "id", g0), (b0[2], "id", g0), col1]
    elif b0 in ("fpf", "fpfdiamond"):
        cols = [(a0, "fpf", g0), col1]
    else:
        cols = [(a0, "id", g0), col1]
    return _reference_strip_zero_columns("A", cols)


@cache
def valid_two_column_spellings():
    """Every valid spelling of a rank-n index at B1-B8 and D3-D8."""
    ranks = [*(("B", n) for n in range(1, 9)), *(("D", n) for n in range(3, 9))]
    return tuple(idx for t, n in ranks for idx in _spellings(t, n) if not validate(idx))


def test_normal_form_is_the_reference_on_every_valid_spelling():
    spellings = valid_two_column_spellings()
    # 3,056 at B1-B8 and 2,464 at D3-D8, as VALID_SPELLINGS pins to rank 7
    assert len(spellings) == 5520
    for idx in spellings:
        assert normalize(idx).columns == _reference_normal_columns(idx.ctype, idx.columns), idx


@pytest.mark.parametrize("block", "ABD")
def test_normal_form_is_the_reference_on_every_spelled_column(block):
    # normalize reads no validity, so a column is checked in every index
    # that can hold it, and its verdict must agree across them
    spelled = 0
    for a in range(-9, 10) if block == "A" else range(10):
        kept = []
        for col in ind.columns_of(block, a):
            verdicts = set()
            for idx in _placed(block, col):
                want = _reference_normal_columns(idx.ctype, idx.columns)
                assert normalize(idx).columns == want, idx
                verdicts.add(want == idx.columns)
            assert len(verdicts) == 1, col
            if verdicts.pop():
                kept.append(col)
            spelled += 1
        assert _block_columns(block, a) == tuple(kept), (block, a)
    assert spelled == {"A": 112, "B": 226, "D": 142}[block]


def test_projections_are_the_reference_on_every_valid_spelling():
    projected = 0
    for idx in valid_two_column_spellings():
        for kind in ("piL", "piR") if idx.ctype == "B" else ("piD",):
            assert project_index(kind, idx) == _reference_project_index(kind, idx), (kind, idx)
            projected += 1
    assert projected == 2 * 3056 + 2464
