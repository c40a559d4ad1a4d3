import pytest
from hypothesis import given, strategies as st

from coxmodel import partitions as pt


partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(pt.partitions_of(n)) if n else st.just(())
)


def test_partitions_of_counts():
    # classical p(n) values
    for n, count in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15)]:
        assert len(pt.partitions_of(n)) == count


def test_partitions_of_order_is_graded_reverse_lex():
    assert pt.partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_transpose():
    assert pt.transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert pt.transpose(()) == ()


@given(partitions)
def test_transpose_involution(p):
    # column i of the diagram has a cell for every part larger than i
    columns = tuple(sum(1 for x in p if x > i) for i in range(max(p, default=0)))
    assert pt.transpose(p) == columns
    assert pt.transpose(pt.transpose(p)) == p


def test_contains():
    assert pt.contains((3, 2), (2, 2))
    assert not pt.contains((3, 2), (1, 1, 1))


def test_combine():
    assert pt.combine((3, 1), (2, 2), "sum") == (5, 3)
    assert pt.combine((3, 1), (2, 2), "union") == (3, 2, 2, 1)


def test_standard_tableau_count():
    assert pt.standard_tableau_count(()) == 1
    assert pt.standard_tableau_count((2, 1)) == 2
    assert pt.standard_tableau_count((3, 2)) == 5
    assert pt.standard_tableau_count((4, 2, 1)) == 35


@pytest.mark.parametrize("n", range(1, 8))
def test_tableau_counts_square_sum(n):
    # sum of f(lam)^2 over partitions of n equals n!
    import math

    total = sum(pt.standard_tableau_count(p) ** 2 for p in pt.partitions_of(n))
    assert total == math.factorial(n)


def test_even_row_and_column_families():
    assert pt.erows(4) == ((4,), (2, 2))
    assert pt.ecols(4) == ((2, 2), (1, 1, 1, 1))
    assert set(pt.erows(6)) == {(6,), (4, 2), (2, 2, 2)}
    # column family is the transpose of the row family
    assert set(pt.ecols(6)) == {pt.transpose(p) for p in pt.erows(6)}


def test_even_bipartition_families_keep_the_full_scan_order():
    # the families as filters over every bipartition of n, the old definitions
    def even(bp):
        return pt.odd_part_count(bp[0]) == pt.odd_part_count(bp[1]) == 0

    for n in range(15):
        position = {bp: i for i, bp in enumerate(pt.bipartitions_of(n))}
        erows_b = tuple(bp for bp in pt.bipartitions_of(n) if even(bp))
        ecols_b = sorted(
            ((pt.transpose(a), pt.transpose(b)) for a, b in erows_b), key=position.get
        )
        erows_d = tuple(bp for bp in pt.unordered_bipartitions_of(n) if even(bp))
        cols = {pt.unordered_pair(pt.transpose(a), pt.transpose(b)) for a, b in erows_d}
        ecols_d = tuple(bp for bp in pt.unordered_bipartitions_of(n) if bp in cols)
        assert pt.erows_b(n) == erows_b
        assert pt.ecols_b(n) == tuple(ecols_b)
        assert pt.erows_d(n) == erows_d
        assert pt.ecols_d(n) == ecols_d


def test_odd_row_families():
    # partitions of 6 with exactly 2 odd rows
    assert set(pt.orows(6, 2)) == {
        p for p in pt.partitions_of(6) if pt.odd_part_count(p) == 2
    }


def test_bipartitions_order_and_count():
    bps = list(pt.bipartitions_of(2))
    # |lam| + |mu| = 2, all ordered pairs
    assert len(bps) == 5
    assert (((2,), ()) in bps) and (((), (2,)) in bps) and (((1,), (1,)) in bps)


def test_unordered_pair_puts_heavier_first():
    assert pt.unordered_pair((1,), (2,)) == ((2,), (1,))
    with pytest.raises(ValueError):
        pt.unordered_pair((2, 1), (2, 1))


def test_unordered_bipartitions_of():
    pairs = list(pt.unordered_bipartitions_of(4))
    # distinct unordered pairs only
    assert len(pairs) == len(set(pairs))
    for lam, mu in pairs:
        assert lam != mu
        assert sum(lam) + sum(mu) == 4


def test_unordered_bipartitions_keep_first_seen_order():
    # the cached tuple lists each pair where the old scan first met it:
    # every ordered pair in `bipartitions_of` order, deduplicated by a set
    for n in range(11):
        seen, want = set(), []
        for lam, mu in pt.bipartitions_of(n):
            if lam != mu and pt.unordered_pair(lam, mu) not in seen:
                seen.add(pt.unordered_pair(lam, mu))
                want.append(pt.unordered_pair(lam, mu))
        got = pt.unordered_bipartitions_of(n)
        assert got == tuple(want)
        assert pt.unordered_bipartitions_of(n) is got


def test_degenerate_labels():
    labs = pt.degenerate_labels(4)
    assert labs == (((2,), "+"), ((2,), "-"), ((1, 1), "+"), ((1, 1), "-"))


def test_format_parse_roundtrip():
    for p in pt.partitions_of(5):
        assert pt.parse_partition(pt.format_partition(p)) == p
    assert pt.parse_partition("()") == ()


@given(partitions, partitions)
def test_sort_key_total_order(p, q):
    # grevlex: heavier weight first, never equal keys for distinct partitions
    if p != q:
        assert pt.sort_key(p) != pt.sort_key(q)
    if sum(p) < sum(q):
        assert pt.sort_key(p) < pt.sort_key(q)


def test_transpose_cache_is_bounded_above_weight_21():
    # B20 and D21 conjugate every partition of weight <= 21; the cache holds
    # them all, and no more than a fixed number of entries
    assert pt.transpose.cache_info().maxsize == pt.TRANSPOSE_CACHE_SIZE
    assert pt.TRANSPOSE_CACHE_SIZE >= sum(len(pt.partitions_of(n)) for n in range(22)) == 3506
