"""Littlewood-Richardson coefficients by growing LR tableaux strip by strip.

c^nu_{lam,mu} counts the semistandard fillings of nu/lam with content mu
whose reverse reading word (rows top to bottom, each right to left) is a
lattice word.  `_grow` grows them on lam one horizontal strip per letter,
row by row from the top; a row is read right to left, so the strip of
letter i+1 keeps the word lattice iff, for every row r, the (i+1)s in rows
<= r do not outnumber the i's in rows < r.  The cells a strip puts in row
r of its base shape sh are bounded twice:

- at most sh[r-1] - sh[r] (the strip stays horizontal) and at most the
  lattice slack, the i's in rows < r minus the (i+1)s there;
- at least the cells still to place minus sh[r], since the rows below r
  hold at most sh[r] cells of a horizontal strip.

The two bounds never cross, so every branch ends in a tableau.  The search
is one loop over (letter, row) with an explicit stack, so a partition of a
thousand rows takes no deeper a Python stack than one of three.  Each
finished tableau counts once for its outer shape, so one pass yields the
whole expansion.

c^nu_{lam,mu} = c^nu_{mu,lam} = c^{nu'}_{lam',mu'}, so `lr_expand` grows one
orientation of the four, the one with the fewest letters and then the
larger base, caches it, and gives both orders of a pair the same mapping;
a conjugate request reads it with transposed keys, in key order again.
"""

from collections.abc import Mapping
from functools import lru_cache
from math import comb
from operator import add
from types import MappingProxyType

from .partitions import CACHE_KEYS, Partition, contains, standard_tableau_count, transpose


@lru_cache(maxsize=CACHE_KEYS)
def _grow(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """The LR tableaux of content mu grown on lam, counted by outer shape.

    Letter k puts x cells in row r of its base shape sh (lam plus the
    strips of the letters before it), with `left` of its cells still to
    place and `slack` the previous letter's cells in rows < r minus its own
    (the first letter has no previous one and no lattice bound):

    - x <= min(sh[r-1] - sh[r], slack, left): a cell above the strip's
      cells of row r must lie in sh, and the word must stay lattice;
    - x >= left - sh[r]: the strip's cells below row r lie in distinct
      columns left of sh[r], so at most sh[r] of them fit there.

    The lower bound is never above the upper one, so no branch dead-ends.
    It is at most sh[r-1] - sh[r], since the rows above left at most
    sh[r-1] cells to place, and at most `slack`, since the previous
    letter's cells in rows >= r, which are at least left - slack, lie in
    distinct columns left of sh[r] too.  Rows whose upper bound is 0 are
    stepped over without a branch.
    """
    if not mu:
        return MappingProxyType({lam: 1})
    found: dict[Partition, int] = {}
    depth = len(lam) + len(mu)  # the most rows an outer shape can have
    zero = [0] * depth
    counts = [[0] * depth for _ in mu]  # each letter's cells per row
    last = len(mu) - 1
    sh, left = list(lam) + zero[len(lam) :], mu[0]
    # a frame: letter k puts x cells in row r of sh, under the previous
    # letter's cells per row ab; row 0 of the first letter has no row above
    stack = [(0, 0, x, left, left, sh, zero) for x in range(max(left - sh[0], 0), left + 1)]
    while stack:
        k, r, x, left, slack, sh, ab = stack.pop()
        cnt = counts[k]
        while True:
            cnt[r] = x
            left -= x
            slack += ab[r] - x
            r += 1
            if not left:  # the letter's strip is complete
                if k == last:
                    nu = tuple(filter(None, map(add, sh, cnt[:r] + zero[r:])))
                    found[nu] = found.get(nu, 0) + 1
                    break
                ab = cnt[:r] + zero[r:]
                sh = list(map(add, sh, ab))
                k += 1
                cnt = counts[k]  # row 0 stays 0: no row above it gives lattice slack
                left, slack, r = mu[k], ab[0], 1
            while True:  # step over the rows with no room; they add ab[r] to the slack
                below = sh[r]
                x = sh[r - 1] - below
                if slack < x:
                    x = slack
                if left < x:
                    x = left
                if x:
                    break
                cnt[r] = 0
                slack += ab[r]
                r += 1
            # x, the most the row takes, goes on at once; the rest wait
            least = left - below
            for y in range(least if least > 0 else 0, x):
                stack.append((k, r, y, left, slack, sh, ab))
    # on partitions of one weight, `partitions_of` order is reverse lexicographic
    return MappingProxyType(dict(sorted(found.items(), reverse=True)))


@lru_cache(maxsize=CACHE_KEYS)
def _transposed(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    terms = ((transpose(nu), c) for nu, c in _grow(lam, mu).items())
    return MappingProxyType(dict(sorted(terms, reverse=True)))


@lru_cache(maxsize=CACHE_KEYS)
def lr_expand(lam: Partition, mu: Partition) -> Mapping[Partition, int]:
    """{nu: c^nu_{lam,mu}}, read-only, keys in `partitions_of` order."""
    lc, mc = transpose(lam), transpose(mu)
    orientations = ((lam, mu, False), (mu, lam, False), (lc, mc, True), (mc, lc, True))
    # one strip per letter of the content, and a larger base leaves fewer
    # cells; the orientation itself breaks ties, unconjugated first
    base, content, conjugate = min(orientations, key=lambda o: (len(o[1]), -sum(o[0]), o))
    return (_transposed if conjugate else _grow)(base, content)


# `lr --nu` and library callers; no classify calls it.  The cache stays although
# lr_expand's holds the same expansions: the benchmark reads its hit counts.
@lru_cache(maxsize=CACHE_KEYS)
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
