"""Littlewood-Richardson coefficients against an independent enumeration.

The reference implementation below counts LR skew tableaux directly from
the definition (semistandard fillings of nu/lam with content mu whose
reverse reading word is a lattice word), sharing no code with the library.
It fills cells row by row and checks the word's prefix as each row ends.
"""

from collections import Counter
from functools import cache
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from coxmodel import lr, partitions as pt
from coxmodel.char_ring import char_of
from coxmodel.induction import bullet
from coxmodel.lr import lr_coefficient, lr_expand, lr_mass_check

# the tableau grower itself, past the orientation choice and every cache
grow = lr._grow.__wrapped__


def _reference_lr(lam, mu, nu):
    if sum(lam) + sum(mu) != sum(nu) or not pt.contains(nu, lam):
        return 0
    rows = len(nu)
    lam = lam + (0,) * (rows - len(lam))
    cells = [(r, c) for r in range(rows) for c in range(lam[r], nu[r])]
    count = 0
    filling = {}

    def lattice_ok(last_row):
        # the reverse reading word of rows 0..last_row must be a lattice word
        seen = [0] * (len(mu) + 1)
        for r in range(last_row + 1):
            for c in range(nu[r] - 1, lam[r] - 1, -1):
                v = filling[(r, c)]
                seen[v - 1] += 1
                if v > 1 and seen[v - 1] > seen[v - 2]:
                    return False
        return True

    def fill(k, content):
        nonlocal count
        if k == len(cells):
            if tuple(content) == mu:
                count += 1
            return
        r, c = cells[k]
        row_done = k + 1 == len(cells) or cells[k + 1][0] != r
        for v in range(1, len(mu) + 1):
            if content[v - 1] == mu[v - 1]:
                continue
            left = filling.get((r, c - 1))
            if left is not None and left > v:
                continue
            above = filling.get((r - 1, c))
            if above is not None and above >= v:
                continue
            filling[(r, c)] = v
            content[v - 1] += 1
            # a finished row fixes a prefix of the word: prune there
            if not row_done or lattice_ok(r):
                fill(k + 1, content)
            content[v - 1] -= 1
            del filling[(r, c)]

    fill(0, [0] * len(mu))
    return count


@pytest.mark.parametrize(
    "lam,mu,nu,want",
    [
        ((2, 1), (2, 1), (3, 2, 1), 2),
        ((2, 1), (2, 1), (4, 2), 1),
        ((2, 1), (2, 1), (2, 2, 1, 1), 1),
        ((3, 1), (2, 1), (4, 2, 1), 2),
        ((2,), (1, 1), (3, 1), 1),
        ((2,), (1, 1), (2, 2), 0),
        ((1,), (1,), (2,), 1),
    ],
)
def test_known_coefficients(lam, mu, nu, want):
    assert lr_coefficient(lam, mu, nu) == want
    assert _reference_lr(lam, mu, nu) == want


def test_pieri_row():
    # multiplying by a single row adds a horizontal strip
    got = lr_expand((2, 1), (2,))
    assert got == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}


def test_pieri_column():
    got = lr_expand((2, 1), (1, 1))
    assert got == {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}


def test_expand_against_reference():
    # every ordered pair with |lam| + |mu| <= 9, empty partitions included;
    # `lr_expand` grows one orientation of each, so the grower itself is
    # checked on every pair too, multi-letter contents included
    for n in range(10):
        for wl in range(n + 1):
            for lam in pt.partitions_of(wl):
                for mu in pt.partitions_of(n - wl):
                    exp, grown = lr_expand(lam, mu), grow(lam, mu)
                    for got in (exp, grown):
                        assert list(got) == [nu for nu in pt.partitions_of(n) if nu in got]
                    for nu in pt.partitions_of(n):
                        want = _reference_lr(lam, mu, nu)
                        assert exp.get(nu, 0) == want
                        assert grown.get(nu, 0) == want
                        assert lr_coefficient(lam, mu, nu) == want


def test_expansion_is_read_only():
    one = char_of("A", (1,))
    before = bullet("A", one, one)
    with pytest.raises(TypeError):
        lr_expand((1,), (1,))[(2,)] = 7
    assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert bullet("A", one, one) == before
    # the four orientations of a pair that is not self-conjugate
    lam, mu = (2, 1), (3,)
    lt, mt = pt.transpose(lam), pt.transpose(mu)
    for a, b in [(lam, mu), (mu, lam), (lt, mt), (mt, lt)]:
        want = dict(grow(a, b))
        with pytest.raises(TypeError):
            lr_expand(a, b)[next(iter(want))] = 7
        assert lr_expand(a, b) == want


def _orbit(lam, mu):
    lt, mt = pt.transpose(lam), pt.transpose(mu)
    return frozenset([(lam, mu), (mu, lam), (lt, mt), (mt, lt)])


@pytest.fixture
def cold_lr():
    lr_expand.cache_clear()
    yield
    lr_expand.cache_clear()


def test_each_orbit_grows_once(monkeypatch, cold_lr):
    grown = Counter()

    def counting(lam, mu):
        grown[_orbit(lam, mu)] += 1
        return grow(lam, mu)

    monkeypatch.setattr(lr, "_grow", cache(counting))
    monkeypatch.setattr(lr, "_transposed", cache(lr._transposed.__wrapped__))
    pairs = [
        (lam, mu)
        for n in range(9)
        for k in range(n + 1)
        for lam in pt.partitions_of(k)
        for mu in pt.partitions_of(n - k)
    ]
    for lam, mu in pairs:
        assert lr_expand(mu, lam) is lr_expand(lam, mu)
    assert set(grown) == {_orbit(lam, mu) for lam, mu in pairs}
    assert set(grown.values()) == {1}


small = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(pt.partitions_of(n)) if n else st.just(())
)


@settings(max_examples=120, deadline=None)
@given(small, small)
def test_symmetry(lam, mu):
    assert grow(lam, mu) == grow(mu, lam)


@settings(max_examples=120, deadline=None)
@given(small, small)
def test_transpose_symmetry(lam, mu):
    exp = grow(lam, mu)
    expt = grow(pt.transpose(lam), pt.transpose(mu))
    assert {pt.transpose(nu): c for nu, c in exp.items()} == expt


@settings(max_examples=120, deadline=None)
@given(small, small)
def test_degree_mass(lam, mu):
    # dimensions add up: sum over nu of c * f(nu) * binomials equals the
    # induced-degree identity packaged by lr_mass_check
    assert lr_mass_check(lam, mu)


def test_extreme_shapes_have_coefficient_one():
    for lam, mu in [((3, 1), (2, 2)), ((2, 2, 1), (3,)), ((1, 1), (1, 1))]:
        s = tuple(a + b for a, b in zip_longest(lam, mu, fillvalue=0))
        u = tuple(sorted(lam + mu, reverse=True))
        assert lr_coefficient(lam, mu, s) == 1
        assert lr_coefficient(lam, mu, u) == 1
