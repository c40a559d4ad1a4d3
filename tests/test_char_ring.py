import math

import pytest
from hypothesis import given, strategies as st

from coxmodel import partitions as pt
from coxmodel.char_ring import (
    VirtualCharacter,
    char_of,
    d_deg,
    d_set,
    degree,
    format_label,
    irr_universe,
    is_multiplicity_free,
    label_sort_key,
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
    f.add((2, 1), 2)
    f.add((2, 1), -1)
    g = char_of("A", (2, 1))
    assert f == g
    f.add((2, 1), -1)
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
    f.add((3,))
    assert is_multiplicity_free(f) is False


def test_format_parse_roundtrip():
    for ctype, n in [("A", 4), ("B", 3), ("D", 4)]:
        for lab in irr_universe(ctype, n):
            assert parse_label(ctype, format_label(ctype, lab)) == lab


def test_label_sort_key_matches_universe_order():
    uni = irr_universe("B", 3)
    keys = [label_sort_key("B", 3, lab) for lab in uni]
    assert keys == sorted(keys)


def test_to_json_is_sorted_and_stable():
    f = char_of("B", ((1,), (2,))).add(((3,), ()), 2)
    doc = f.to_json()
    assert doc["coeffs"] == [["((3),())", 2], ["((1),(2))", 1]]
