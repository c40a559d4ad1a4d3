import math
from functools import cache

import pytest
from hypothesis import given, strategies as st

from coxmodel import char_ring as cr
from coxmodel import partitions as pt
from coxmodel.char_ring import (
    VirtualCharacter,
    char_of,
    d_deg,
    d_set,
    degree,
    format_label,
    difference_value,
    irr_universe,
    is_multiplicity_free,
    label_sort_key,
    mn_column_a,
    mn_column_b,
    mn_value_a,
    mn_value_b,
    parse_label,
    twist,
)


def test_universe_sizes():
    assert len(irr_universe("A", 5)) == 7
    # type B labels are ordered pairs of partitions
    assert len(irr_universe("B", 3)) == 10
    # type D: unordered pairs plus two signed labels per half-size core
    assert len(irr_universe("D", 4)) == 13


@pytest.mark.parametrize("ctype,order", [("A", None), ("B", None), ("D", None)])
def test_degree_square_sums(ctype, order):
    for n in range(2, 6):
        if ctype == "A":
            group_order = math.factorial(n)
        elif ctype == "B":
            group_order = 2**n * math.factorial(n)
        else:
            group_order = 2 ** (n - 1) * math.factorial(n)
        total = sum(degree(ctype, lab) ** 2 for lab in irr_universe(ctype, n))
        assert total == group_order


def test_degenerate_degree_is_half_the_pair():
    # chi^{(2),(2)} in B4 has degree 6*1*1 = 6; each degenerate half has 3
    assert degree("B", ((2,), (2,))) == 6
    assert degree("D", d_deg((2,), "+")) == 3
    assert degree("D", d_deg((2,), "-")) == 3


def test_add_and_eq():
    f = VirtualCharacter("A", 3)
    f = f.add((2, 1), 2)
    f = f.add((2, 1), -1)
    g = char_of("A", (2, 1))
    assert f == g
    f = f.add((2, 1), -1)
    assert f.coeffs == {}


def test_rank_mismatch_rejected():
    f = VirtualCharacter("A", 3)
    with pytest.raises(ValueError):
        f.add((2, 2))


def test_sgn_twist_type_a():
    f = char_of("A", (3, 1))
    assert twist(f, "sgn") == char_of("A", (2, 1, 1))
    assert twist(twist(f, "sgn"), "sgn") == f


def test_sgn_twist_type_b_swaps_and_transposes():
    f = char_of("B", ((2,), (1,)))
    assert twist(f, "sgn") == char_of("B", ((1,), (1, 1)))


def test_sgn_twist_degenerate_sign_depends_on_half_rank():
    # half-size 2 (even): sign preserved under transpose-twist
    f = char_of("D", d_deg((2,), "+"))
    assert twist(f, "sgn") == char_of("D", d_deg((1, 1), "+"))
    # half-size 3 (odd): sign flips
    g = char_of("D", d_deg((3,), "-"))
    assert twist(g, "sgn") == char_of("D", d_deg((1, 1, 1), "+"))


def test_diamond_twist():
    f = char_of("D", d_deg((2,), "+")).add(d_set((3,), (1,)))
    got = twist(f, "diamond")
    assert got.coeffs[d_deg((2,), "-")] == 1
    assert got.coeffs[d_set((3,), (1,))] == 1


def test_b_mixed_twists():
    f = char_of("B", ((2,), (1,)))
    assert twist(f, "b_minusplus") == char_of("B", ((1,), (2,)))
    assert twist(f, "b_plusminus") == char_of("B", ((1, 1), (1,)))


def test_is_multiplicity_free():
    f = char_of("A", (2, 1)).add((3,))
    assert is_multiplicity_free(f) is True
    f = f.add((3,))
    assert is_multiplicity_free(f) is False


def test_format_parse_roundtrip():
    for ctype, n in [("A", 4), ("B", 3), ("D", 4)]:
        for lab in irr_universe(ctype, n):
            assert parse_label(ctype, format_label(ctype, lab)) == lab


@pytest.mark.parametrize(
    "ctype, text",
    [("B", "x(1),(2)y"), ("B", "[(1),(2)]"), ("B", "(1),(2)"), ("B", "((1),(2)"), ("D", "(3)")],
)
def test_parse_label_rejects_malformed_text(ctype, text):
    with pytest.raises(ValueError):
        parse_label(ctype, text)


def test_characters_are_immutable():
    f = char_of("B", ((2,), (1,))).add(((1,), (2,)), 2)
    for name, value in (("coeffs", {}), ("rank", 4), ("ctype", "D")):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
        with pytest.raises(AttributeError):
            delattr(f, name)
    with pytest.raises(TypeError):
        f.coeffs[((3,), ())] = 1
    assert f == VirtualCharacter("B", 3, {((2,), (1,)): 1, ((1,), (2,)): 2})


def test_add_returns_a_new_value_and_leaves_its_receiver():
    f = char_of("A", (2, 1))
    g = f.add((3,), 2)
    assert g is not f
    assert f == char_of("A", (2, 1)) and dict(f.coeffs) == {(2, 1): 1}
    assert dict(g.coeffs) == {(2, 1): 1, (3,): 2}
    assert dict(g.add((3,), -2).coeffs) == {(2, 1): 1}
    assert dict(g.coeffs) == {(2, 1): 1, (3,): 2}


def test_a_character_keeps_its_hash_as_a_dict_key():
    f = char_of("D", d_deg((2,), "+")).add(d_set((3,), (1,)))
    table = {f: "f"}
    h = hash(f)
    # both return new values and leave f as it was
    f.add(d_set((3,), (1,)), 5)
    twist(f, "diamond")
    assert hash(f) == h
    assert table[f] == "f"
    assert table[char_of("D", d_set((3,), (1,))).add(d_deg((2,), "+"))] == "f"


def test_the_constructor_sums_terms_and_drops_zeros():
    f = VirtualCharacter("A", 3, [((3,), 1), ((2, 1), 2), ((3,), -1), ((1, 1, 1), 0)])
    assert list(f.coeffs.items()) == [((2, 1), 2)]
    with pytest.raises(ValueError):
        VirtualCharacter("A", 3, [((2, 2), 1)])


def test_label_sort_key_matches_universe_order():
    uni = irr_universe("B", 3)
    keys = [label_sort_key("B", 3, lab) for lab in uni]
    assert keys == sorted(keys)


def test_to_json_is_sorted_and_stable():
    f = char_of("B", ((1,), (2,))).add(((3,), ()), 2)
    doc = f.to_json()
    assert doc["coeffs"] == [["((3),())", 2], ["((1),(2))", 1]]


# --- Murnaghan-Nakayama: the columns against one entry at a time -------------
# The reference removes the first cycle's border strips from the label and
# recurses on the rest, one (label, cycle type) entry at a time.


@cache
def _removals(lam, length):
    """(smaller partition, height sign) pairs after removing a border strip."""
    r = len(lam) + length
    beta = {x + r - 1 - i for i, x in enumerate(lam + (0,) * length)}
    out = []
    for b in sorted(beta, reverse=True):
        if b - length < 0 or b - length in beta:
            continue
        crossed = sum(1 for x in beta if b - length < x < b)
        new = sorted(beta - {b} | {b - length}, reverse=True)
        smaller = tuple(x - (r - 1 - i) for i, x in enumerate(new))
        out.append((tuple(x for x in smaller if x), (-1) ** crossed))
    return tuple(out)


@cache
def _reference_a(lam, cycles):
    if not cycles:
        return 1 if not lam else 0
    return sum(s * _reference_a(mu, cycles[1:]) for mu, s in _removals(lam, cycles[0]))


@cache
def _reference_b(lam, mu, cycles):
    if not cycles:
        return 1 if not lam and not mu else 0
    (length, sign), rest = cycles[0], cycles[1:]
    first = sum(s * _reference_b(nl, mu, rest) for nl, s in _removals(lam, length))
    second = sum(s * _reference_b(lam, nm, rest) for nm, s in _removals(mu, length))
    return first + sign * second


def _signed_cycle_types(n):
    """One (length, sign) tuple per class of B_n, in `signed_cycle_type` order."""
    for plus, minus in pt.bipartitions_of(n):
        cycles = [(x, 1) for x in plus] + [(x, -1) for x in minus]
        yield tuple(sorted(cycles, key=lambda c: (-c[0], -c[1])))


@pytest.mark.parametrize("n", range(1, 10))
def test_type_a_columns_match_the_reference(n):
    for cycles in pt.partitions_of(n):
        for lam in pt.partitions_of(n):
            assert mn_value_a(lam, cycles) == _reference_a(lam, cycles), (lam, cycles)


@pytest.mark.parametrize("n", range(1, 7))
def test_type_b_columns_match_the_reference(n):
    labels = irr_universe("B", n)
    for cycles in _signed_cycle_types(n):
        for lam, mu in labels:
            want = _reference_b(lam, mu, cycles)
            assert mn_value_b(lam, mu, cycles) == want, (lam, mu, cycles)


def test_difference_values_match_the_reference():
    for n in range(1, 9):
        for core in pt.partitions_of(n):
            for mu in pt.partitions_of(n):
                assert difference_value(core, mu) == 2 ** len(mu) * _reference_a(core, mu)


def test_identity_columns_are_the_degrees():
    for n in range(10):
        assert mn_column_a((1,) * n) == {
            lam: pt.standard_tableau_count(lam) for lam in pt.partitions_of(n)
        }
    for n in range(7):
        degrees = {lab: degree("B", lab) for lab in irr_universe("B", n)}
        assert mn_column_b(((1, 1),) * n) == degrees


def test_columns_are_read_only_and_cycles_positive():
    with pytest.raises(TypeError):
        mn_column_a((2, 1))[(3,)] = 0
    with pytest.raises(TypeError):
        mn_column_b(((2, 1),))[(2,), ()] = 0
    with pytest.raises(ValueError):
        mn_value_a((1,), (0, 1))


def test_char_ring_caches_are_bounded():
    # each cache is an lru_cache whose bound holds what the program reaches
    partition_counts = [len(pt.partitions_of(w)) for w in range(22)]
    assert cr._universe_index.cache_info().maxsize == cr.UNIVERSE_INDEX_CACHE_SIZE >= 3 * 42
    # every (partition, strip length) with weight + length <= 21
    assert cr._strip_additions.cache_info().maxsize == cr.STRIP_CACHE_SIZE
    assert cr.STRIP_CACHE_SIZE >= sum(p * (21 - w) for w, p in enumerate(partition_counts)) == 10980
    # every cycle type of weight <= 21, and every signed one of weight <= 12
    for column in (mn_column_a, mn_column_b):
        assert column.cache_info().maxsize == cr.COLUMN_CACHE_SIZE
    assert cr.COLUMN_CACHE_SIZE >= sum(partition_counts) == 3506
    assert cr.COLUMN_CACHE_SIZE >= sum(1 for w in range(13) for _ in pt.bipartitions_of(w)) == 3132
