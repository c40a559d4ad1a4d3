"""Littlewood-Richardson coefficients by growing LR tableaux strip by strip.

c^nu_{lam,mu} counts the semistandard fillings of nu/lam with content mu
whose reverse reading word (rows top to bottom, each right to left) is a
lattice word.  `lr_expand` grows them on lam one horizontal strip per
letter, row by row from the top; a row is read right to left, so the strip
of letter i+1 keeps the word lattice iff, for every row r, the (i+1)s in
rows <= r do not outnumber the i's in rows < r.  Each finished tableau
counts once for its outer shape, so one pass yields the whole expansion.

c^nu_{lam,mu} = c^nu_{mu,lam} = c^{nu'}_{lam',mu'}, so `lr_expand` grows one
orientation of the four, the one with the fewest letters and then the
larger base, caches it, and gives both orders of a pair the same mapping;
a conjugate request reads it with transposed keys, in key order again.
"""

from collections.abc import Mapping
from functools import cache
from math import comb
from types import MappingProxyType

from .partitions import Partition, contains, standard_tableau_count, transpose


def _strips(shape: Partition, size: int, above: tuple[int, ...]):
    """Horizontal strips of `size` cells on `shape` that keep the word lattice.

    `above` is the previous letter's cells per row, empty for the first
    letter (no bound).  Yields the outer shape and the strip's cells per row.
    """
    rows = shape + (0,)
    counts = [0] * len(rows)

    def grow(r: int, left: int, slack: int):
        # slack: the previous letter's cells in rows < r minus this one's
        if not left:
            yield tuple(a + b for a, b in zip(rows, counts) if a + b), tuple(counts[:r])
            return
        if r and left > rows[r - 1]:  # rows r.. hold at most rows[r-1] strip cells
            return
        room = min(left, slack, rows[r - 1] - rows[r] if r else left)
        gain = above[r] if r < len(above) else 0
        for x in range(room, -1, -1):
            counts[r] = x
            yield from grow(r + 1, left - x, slack - x + gain)
        counts[r] = 0

    yield from grow(0, size, 0 if above else size)


@cache
def _grow(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """The LR tableaux of content mu grown on lam, counted by outer shape."""
    found: dict[Partition, int] = {}

    def place(k: int, shape: Partition, above: tuple[int, ...]) -> None:
        if k == len(mu):
            found[shape] = found.get(shape, 0) + 1
            return
        for outer, counts in _strips(shape, mu[k], above):
            place(k + 1, outer, counts)

    place(0, lam, ())
    # on partitions of one weight, `partitions_of` order is reverse lexicographic
    return MappingProxyType(dict(sorted(found.items(), reverse=True)))


@cache
def _transposed(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    terms = ((transpose(nu), c) for nu, c in _grow(lam, mu).items())
    return MappingProxyType(dict(sorted(terms, reverse=True)))


@cache
def lr_expand(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """{nu: c^nu_{lam,mu}}, read-only, keys in `partitions_of` order."""
    lc, mc = transpose(lam), transpose(mu)
    orientations = ((lam, mu, False), (mu, lam, False), (lc, mc, True), (mc, lc, True))
    # one strip per letter of the content, and a larger base leaves fewer
    # cells; the orientation itself breaks ties, unconjugated first
    base, content, conjugate = min(orientations, key=lambda o: (len(o[1]), -sum(o[0]), o))
    return (_transposed if conjugate else _grow)(base, content)


@cache
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^nu_{lam,mu}."""
    # A caller may ask for any lam and mu of |nu| (`lr --nu`, library code);
    # most fail containment and must not cost an expansion each.
    if not (contains(nu, lam) and contains(nu, mu)):
        return 0
    return lr_expand(lam, mu).get(nu, 0)


def lr_mass_check(lam: Partition, mu: Partition) -> bool:
    """Degree identity: sum of c * deg(nu) over the expansion."""
    total = sum(c * standard_tableau_count(nu) for nu, c in lr_expand(lam, mu).items())
    expected = (
        comb(sum(lam) + sum(mu), sum(lam))
        * standard_tableau_count(lam)
        * standard_tableau_count(mu)
    )
    return total == expected
