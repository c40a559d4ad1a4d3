"""Known model families, exhaustive searches, and equivalence counting."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from coxmodel import classification as cl, oracle as oc, partitions as pt
from coxmodel.char_ring import irr_universe
from coxmodel.classification import (
    DIHEDRAL_MEMBER,
    KNOWN_FAMILIES,
    _cover_rows,
    _dihedral_triple_canonical,
    classify,
    classify_dihedral,
    classify_h3,
    d_even_nonexistence,
    dihedral_known_models,
    dihedral_labels,
    exact_covers,
    h3_known_models,
    is_perfect_symbolic,
    known_model,
    known_models_are_oracle_covers,
    replay_certificate,
    search_perfect_models,
    verify_h3_model,
)
from coxmodel.model_index import ModelIndex, canonical_form, character_of_index, normalize


@pytest.mark.parametrize(
    "family,ranks",
    [
        ("PA", (2, 3, 4, 5, 6)),
        ("PB", (2, 3, 4, 5)),
        ("PBhat", (2, 3, 4, 5)),
        ("PD", (3, 5, 7)),
        ("Aextra4", (4,)),
        ("B3extra1", (3,)),
        ("B3extra2", (3,)),
    ],
)
def test_known_families_are_perfect(family, ranks):
    assert family in KNOWN_FAMILIES
    for n in ranks:
        verdict = is_perfect_symbolic(known_model(family, n))
        assert verdict["status"] == "perfect", (family, n, verdict)


def test_known_families_are_perfect_by_the_oracle():
    # independent route: induce every member inside the group and sum
    cases = [("PA", "A", 4), ("PB", "B", 3), ("PD", "D", 3), ("B3extra1", "B", 3)]
    for family, ctype, n in cases:
        group = oc.get_group(ctype, n)
        chars = [oc.oracle_char_of_index(group, idx) for idx in known_model(family, n)]
        assert oc.oracle_is_perfect(group, chars), family


def _odd_parts(ctype, label):
    """The odd parts of a label in total; a degenerate [nu, +-] counts 2 odd(nu)."""
    if ctype == "A":
        return pt.odd_part_count(label)
    if ctype == "D":
        if label[0] == "deg":
            return 2 * pt.odd_part_count(label[1])
        label = label[1:]
    return sum(map(pt.odd_part_count, label))


@pytest.mark.parametrize(
    "family,ranks",
    [("PA", range(1, 21)), ("PB", range(2, 17)), ("PD", range(3, 18, 2)), ("PBhat", range(2, 15))],
    ids=["PA-1-20", "PB-2-16", "PD-3-17", "PBhat-2-14"],
)
def test_family_members_are_the_odd_part_classes(family, ranks):
    """Member k of a family at rank n holds each label with n - 2k odd parts once.

    In type A this is the involution model of Inglis, Richardson and Saxl
    ("An explicit model for the complex representations of S_n", Arch. Math.
    54, 1990).  In types B and D it is an observed identity.  PBhat splits
    PB's class k = 1: its mp member takes the bipartitions whose first part
    has all parts <= 1, and its triv member the rest.  Nothing here reads
    `lr`, `induction` or `bullet`.
    """
    ctype = "A" if family == "PA" else family[1]
    for n in ranks:
        classes = {}
        for lab in irr_universe(ctype, n):
            classes.setdefault((n - _odd_parts(ctype, lab)) // 2, []).append(lab)
        expected = [classes.get(k, []) for k in range(n // 2 + 1)]
        if family == "PBhat":
            column = [lab for lab in expected[1] if all(part <= 1 for part in lab[0])]
            expected[1:2] = [[lab for lab in expected[1] if lab not in column], column]
        members = known_model(family, n)
        assert len(members) == len(expected), (family, n)
        for member, labels in zip(members, expected):
            assert character_of_index(member).coeffs == dict.fromkeys(labels, 1), (n, member)


def test_is_perfect_accepts_index_documents():
    docs = [idx.to_json() for idx in known_model("PB", 3)]
    assert is_perfect_symbolic(docs) == {"status": "perfect"}


def test_is_perfect_reports_witnesses():
    # doubling a member must produce a repeated constituent
    model = list(known_model("PB", 3)) + [known_model("PB", 3)[0]]
    verdict = is_perfect_symbolic(model)
    assert verdict["status"] == "not_perfect"
    assert verdict["multiplicity"] != 1


def _brute_force_covers(masks, primary):
    """Pairwise-disjoint row subsets whose rows all meet `primary` and cover it."""
    rows = [r for r, m in enumerate(masks) if m & primary]
    out = set()
    for k in range(len(rows) + 1):
        for subset in combinations(rows, k):
            union = 0
            for r in subset:
                if masks[r] & union:
                    break
                union |= masks[r]
            else:
                if union & primary == primary:
                    out.add(frozenset(subset))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**7 - 1), max_size=9),
    st.integers(0, 2**7 - 1),
)
@example([], 0)
@example([0, 0b11], 0)
@example([0, 0], 0b1)
@example([0b101, 0b110, 0b001, 0b010], 0b011)  # bit 2 is secondary
def test_exact_covers_matches_brute_force(masks, primary):
    covers = list(exact_covers(masks, primary))
    found = {frozenset(c) for c in covers}
    assert len(found) == len(covers)  # no cover twice
    assert found == _brute_force_covers(masks, primary)


def test_classify_dispatches_i2_and_h3():
    assert classify("I2", 7, "full") == classify_dihedral(7, "full")
    assert classify("H3", 3) == classify_h3()


def test_search_respects_rank_caps():
    for ctype, n in (("A", 17), ("B", 9), ("D", 9)):
        with pytest.raises(ValueError, match="search capped"):
            search_perfect_models(ctype, n)


def test_search_and_verdict_respect_rank_floors():
    # at D2 = A1 x A1 the indexes give 7 covers where the oracle finds 11
    assert len(oc.oracle_search(oc.get_group("D", 2))) == 11
    for ctype, n in (("A", 0), ("B", 0), ("D", 2), ("D", 1), ("D", -1)):
        with pytest.raises(ValueError, match=f"type {ctype} needs rank >= "):
            search_perfect_models(ctype, n)
    with pytest.raises(ValueError, match="type D needs rank >= 3, got 2"):
        is_perfect_symbolic([ModelIndex("D", [(2, "id", "triv"), (0, "id", "triv")])])
    assert len(search_perfect_models("D", 3)) == 4


@pytest.mark.parametrize(
    "ctype,n,relation,count",
    [
        ("A", 4, "strong", 4),
        ("A", 4, "full", 2),
        ("A", 5, "strong", 2),
        ("A", 6, "strong", 2),
        ("B", 3, "strong", 8),
        ("B", 3, "full", 4),
        ("B", 4, "strong", 4),
        ("B", 4, "full", 2),
        ("D", 4, "strong", 0),
        ("D", 5, "strong", 2),
        ("D", 5, "full", 1),
        # beyond the golden files, up to the type A search cap
        *[("A", n, rel, c) for n in range(11, 17) for rel, c in (("strong", 2), ("full", 1))],
    ],
)
def test_classify_counts(ctype, n, relation, count):
    assert classify(ctype, n, relation)["count"] == count


def _model_key(indices, relation="strong"):
    return frozenset(canonical_form(i, relation) for i in indices)


def test_classify_b3_contains_the_extra_models():
    result = classify("B", 3, "strong")
    keys = {_model_key(m) for m in result["models"]}
    for family in ("PB", "PBhat", "B3extra1", "B3extra2"):
        assert _model_key(known_model(family, 3)) in keys


def test_classify_a4_contains_the_extra_model():
    result = classify("A", 4, "strong")
    keys = {_model_key(m) for m in result["models"]}
    assert _model_key(known_model("Aextra4", 4)) in keys
    assert _model_key(known_model("PA", 4)) in keys


def test_classify_agrees_with_the_group_oracle():
    # every class representative must be perfect inside the group too
    for ctype, n in [("A", 4), ("B", 3)]:
        group = oc.get_group(ctype, n)
        for model in classify(ctype, n, "strong")["models"]:
            chars = [oc.oracle_char_of_index(group, idx) for idx in model]
            assert oc.oracle_is_perfect(group, chars)


def test_d_even_nonexistence_certificate():
    cert = d_even_nonexistence(6)
    assert cert["stage"] == "degenerate-selection"
    assert replay_certificate(cert)
    with pytest.raises(ValueError):
        d_even_nonexistence(5)


def _degenerate_selection_found(monkeypatch, n):
    """Make the degenerate-stage exact cover of rank n yield a selection."""
    import coxmodel.classification as cl
    from coxmodel.char_ring import irr_universe

    universe = irr_universe("D", n)
    degenerate = sum(1 << i for i, lab in enumerate(universe) if lab[0] == "deg")
    real = cl.exact_covers

    def covers(masks, primary):
        return iter([(0,)]) if primary == degenerate else real(masks, primary)

    monkeypatch.setattr(cl, "exact_covers", covers)
    return cl


def test_d_even_nonexistence_falls_back_to_the_exhaustive_search(monkeypatch):
    _degenerate_selection_found(monkeypatch, 6)
    cert = d_even_nonexistence(6)
    assert cert["stage"] == "exhaustive"
    assert cert["conclusion"] == "exact cover over all multiplicity-free candidates is empty"


def test_d_even_nonexistence_raises_when_the_exhaustive_search_finds_a_model(monkeypatch):
    cl = _degenerate_selection_found(monkeypatch, 6)
    monkeypatch.setattr(cl, "search_perfect_models", lambda ctype, n: [("a model",)])
    with pytest.raises(RuntimeError, match="perfect model found at even rank 6"):
        d_even_nonexistence(6)


def test_dihedral_labels_and_counts():
    assert dihedral_labels(5) == ("triv", "sgn", ("rho", 1), ("rho", 2))
    assert len(dihedral_labels(8)) == 2 + 2 + 3
    for m in range(5, 13):
        want = 2 if m % 2 else 4
        assert classify_dihedral(m)["count"] == want


def test_dihedral_known_models_are_classes():
    for m in (5, 8):
        result = classify_dihedral(m)
        found = {frozenset(model) for model in result["models"]}
        for model in dihedral_known_models(m):
            key = frozenset(
                _dihedral_triple_canonical(m, t, "strong") for t in model
            )
            assert any(
                key
                == frozenset(
                    _dihedral_triple_canonical(m, t, "strong") for t in got
                )
                for got in found
            )


def test_h3_has_one_group_and_one_cover_search(monkeypatch):
    monkeypatch.setattr(oc, "_GROUP_CACHE", {})
    calls = []
    all_triples = oc.all_triples
    monkeypatch.setattr(oc, "all_triples", lambda group: calls.append(group) or all_triples(group))
    group = oc.get_group("H3", 3)
    assert oc.get_group("H3", 3) is group
    assert list(oc._GROUP_CACHE) == [("H3", 3)]
    for model in h3_known_models():
        assert verify_h3_model(model)
    assert calls == [group]
    assert isinstance(group._covers, tuple)
    assert oc.oracle_search(group) == list(group._covers)
    assert len(calls) == 1


def test_dihedral_full_relation_merges():
    assert classify_dihedral(7, "full")["count"] == 1
    assert classify_dihedral(8, "full")["count"] == 1


@pytest.mark.parametrize("ctype,n", [("A", 4), ("B", 3), ("D", 5), ("I2", 7), ("I2", 8)])
def test_every_symbolic_type_refuses_a_bad_relation(ctype, n):
    with pytest.raises(ValueError, match="bad relation: 'weak'"):
        classify(ctype, n, "weak")


@pytest.mark.parametrize("m", range(5, 17))
def test_dihedral_classes_are_the_oracle_covers(m):
    models = [[DIHEDRAL_MEMBER[member] for member in model] for model in classify_dihedral(m)["models"]]
    assert known_models_are_oracle_covers(oc.get_group("I2", m), models)


def _reference_dihedral_covers(m):
    """The covers as first built: a column per label, mixed characters by hand."""
    labels = dihedral_labels(m)
    rhos = [lab for lab in labels if isinstance(lab, tuple)]
    linear = ("triv", "sgn") + (("pm", "mp") if m % 2 == 0 else ())
    triples = [(("st", sigma), {sigma: 1}) for sigma in linear]
    mixed = {("s", "triv"): "pm", ("s", "sgn"): "mp", ("t", "triv"): "mp", ("t", "sgn"): "pm"}
    for J in ("s", "t"):
        for sigma in ("triv", "sgn"):
            char = dict.fromkeys(rhos + [sigma] + ([mixed[J, sigma]] if m % 2 == 0 else []), 1)
            triples.append(((J, sigma), char))
    rows, masks = _cover_rows(labels, ((name, char, char) for name, char in triples))
    return [[rows[r][1] for r in cover] for cover in exact_covers(masks, (1 << len(labels)) - 1)]


@pytest.mark.parametrize("m", [*range(5, 41), 97, 98])
def test_dihedral_covers_are_the_reference_covers_in_order(m, monkeypatch):
    seen = []
    expand = cl._expand_classes

    def spy(ctype, n, relation, cover_pools, *rest):
        seen.append([list(pools) for pools in cover_pools])
        return expand(ctype, n, relation, seen[-1], *rest)

    monkeypatch.setattr(cl, "_expand_classes", spy)
    reference = _reference_dihedral_covers(m)
    for relation in ("strong", "full"):
        result = classify_dihedral(m, relation)
        assert result == expand(
            "I2", m, relation, reference, lambda t: _dihedral_triple_canonical(m, t, relation), str
        )
    assert seen == [reference, reference]


def test_the_dihedral_cover_has_one_column_per_linear_character_and_one_for_rho(monkeypatch):
    primaries = []
    covers = cl.exact_covers
    monkeypatch.setattr(
        cl, "exact_covers", lambda masks, primary: primaries.append(primary) or covers(masks, primary)
    )
    assert classify_dihedral(10**5)["count"] == 4
    assert classify_dihedral(10**5 + 1)["count"] == 2
    assert [primary.bit_length() for primary in primaries] == [5, 3]


def test_h3_known_models_verify():
    models = h3_known_models()
    assert len(models) == 4
    for model in models:
        assert verify_h3_model(model)
    # degree bookkeeping: members sum to the involution count both ways
    group = oc.get_group("H3", 3)
    _, reps, _ = group.conjugacy_classes()
    iid = reps.index(group.identity)
    invol = oc.sqrt_count(group)[iid]
    for model in models:
        total = 0
        for J, signs in model:
            sub = group.subgroup(tuple(J))
            total += group.order // sub.order
        assert total == invol


def test_h3_exhaustive_classification():
    result = classify_h3()
    assert result["count"] == 4
    assert result["relation"] == "strong"


def test_classify_is_deterministic():
    a = classify("B", 3, "strong")
    b = classify("B", 3, "strong")
    assert a == b


@pytest.mark.parametrize("ctype,n", [("A", 6), ("B", 5), ("D", 6)])
def test_search_computes_each_candidate_character_once(ctype, n, monkeypatch):
    # the multiplicity-free filter's characters are the cover rows' characters
    from coxmodel import model_index

    calls = []
    real = model_index._character

    def counted(ctype, cols):
        calls.append(cols)
        return real(ctype, cols)

    monkeypatch.setattr(model_index, "_character", counted)
    search_perfect_models(ctype, n)
    assert len(calls) == len(set(calls))
    assert len(calls) == len(model_index._strong_representatives(ctype, n, True))
