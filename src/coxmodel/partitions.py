"""Integer partitions, bipartitions, and the filtered label families.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Bipartitions are pairs of partitions,
unordered bipartitions are pairs of *distinct* partitions stored in a
canonical order, and degenerate labels pair a partition of n/2 with a sign.

All enumeration functions return labels in a deterministic canonical order
(graded reverse-lexicographic for single partitions) so that serialized
output is stable across runs.
"""

from functools import lru_cache
from math import factorial, prod
from typing import Iterator

Partition = tuple[int, ...]
BiPartition = tuple[Partition, Partition]


def is_partition(p) -> bool:
    """True when p is a tuple of weakly decreasing positive integers."""
    if not isinstance(p, tuple):
        return False
    return all(isinstance(x, int) and x > 0 for x in p) and all(
        p[i] >= p[i + 1] for i in range(len(p) - 1)
    )


def check_partition(p: Partition) -> Partition:
    if not is_partition(p):
        raise ValueError(f"not a partition: {p!r}")
    return p


def sort_key(p: Partition) -> tuple:
    """Graded reverse-lexicographic key: by weight, then larger parts first."""
    return (sum(p), tuple(-x for x in p))


# at least the 3,506 partitions of weight <= 21 (B20, D21 and the LR layer)
TRANSPOSE_CACHE_SIZE = 4096


@lru_cache(maxsize=TRANSPOSE_CACHE_SIZE)
def transpose(p: Partition) -> Partition:
    """Conjugate partition (reflect the diagram across the main diagonal)."""
    out: list[int] = []
    for rows in range(len(p), 0, -1):  # p[rows-1] - p[rows] columns have `rows` cells
        out += [rows] * (p[rows - 1] - (p[rows] if rows < len(p) else 0))
    return tuple(out)


def combine(p: Partition, q: Partition, mode: str) -> Partition:
    """Componentwise sum or sorted multiset union of two partitions."""
    if mode == "sum":
        k = max(len(p), len(q))
        return tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(k)
        )
    if mode == "union":
        return tuple(sorted(p + q, reverse=True))
    raise ValueError(f"unknown combine mode: {mode!r}")


def contains(big: Partition, small: Partition) -> bool:
    """Containment of Young diagrams: small fits inside big."""
    if len(small) > len(big):
        return False
    return all(small[i] <= big[i] for i in range(len(small)))


# (n, max_part) keys: 111 per classify at SEARCH_CAPS (A16), 153 for the
# sweep A1-A16, B1-B8, D3-D8 in one process, 253 for every n <= 21
PARTITIONS_CACHE_SIZE = 1024


@lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, grevlex order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def hook_product(p: Partition) -> int:
    pt = transpose(p)
    return prod(
        p[i] - j + pt[j] - i - 1 for i in range(len(p)) for j in range(p[i])
    )


def standard_tableau_count(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook length formula)."""
    n = sum(p)
    if n == 0:
        return 1
    num = factorial(n)
    den = hook_product(p)
    if num % den:
        raise RuntimeError(f"hook product does not divide |p|!: {p}")
    return num // den


def centralizer_size(p: Partition) -> int:
    """z_p: the centralizer order in S_|p| of a permutation of cycle type p."""
    return prod(x ** p.count(x) * factorial(p.count(x)) for x in set(p))


def odd_part_count(p: Partition) -> int:
    return sum(1 for x in p if x % 2 == 1)


# --- bipartition helpers ---------------------------------------------------


def bipartitions_of(n: int) -> Iterator[BiPartition]:
    """Ordered pairs (lam, mu) with |lam| + |mu| = n, canonical order.

    Heavier first component comes first; this puts ((n), ()) at the front
    and ((), (1^n)) at the back, matching the usual character-table layout.
    """
    for k in range(n, -1, -1):
        for lam in partitions_of(k):
            for mu in partitions_of(n - k):
                yield (lam, mu)


def _heavier_first(lam: Partition, mu: Partition) -> bool:
    """True for the ordering of {lam, mu} that `bipartitions_of` lists first."""
    return (sum(lam), lam) > (sum(mu), mu)


def unordered_pair(lam: Partition, mu: Partition) -> BiPartition:
    """Canonical form of the unordered pair {lam, mu}; requires lam != mu."""
    if lam == mu:
        raise ValueError(f"unordered bipartition needs distinct parts: {lam}")
    return (lam, mu) if lam > mu else (mu, lam)


# The label families below are keyed by size alone, so this holds every
# size up to 63.  The keys one classify at SEARCH_CAPS touches are beside
# each; the sweep A1-A16, B1-B8, D3-D8 touches at most 13 (erows).
FAMILY_CACHE_SIZE = 64


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 1 per classify (D8)
def unordered_bipartitions_of(n: int) -> tuple[BiPartition, ...]:
    """Unordered pairs {lam, mu} of distinct partitions with |lam| + |mu| = n.

    Each pair comes once, in `unordered_pair` form, at the place of its
    first ordering in `bipartitions_of`: the heavier part first, and at
    equal weight the one `partitions_of` lists first (the larger tuple).
    """
    return tuple(unordered_pair(*bp) for bp in bipartitions_of(n) if _heavier_first(*bp))


# --- filtered families ------------------------------------------------------


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 9 per classify (B8, D8)
def erows(n: int) -> tuple[Partition, ...]:
    """Partitions of n with all parts even."""
    return tuple(p for p in partitions_of(n) if odd_part_count(p) == 0)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 7 per classify (A16)
def ecols(n: int) -> tuple[Partition, ...]:
    out = [transpose(p) for p in erows(n)]
    return tuple(sorted(out, key=sort_key))


def orows(n: int, q: int) -> tuple[Partition, ...]:
    """Partitions of n with exactly q odd parts."""
    if (n - q) % 2 != 0:
        raise ValueError(f"orows({n},{q}): parity mismatch")
    return tuple(p for p in partitions_of(n) if odd_part_count(p) == q)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 4 per classify (B8)
def erows_b(n: int) -> tuple[BiPartition, ...]:
    """Bipartitions of n where both components have all even parts."""
    return tuple(
        (lam, mu) for k in range(n, -1, -1) for lam in erows(k) for mu in erows(n - k)
    )


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 4 per classify (B8)
def ecols_b(n: int) -> tuple[BiPartition, ...]:
    out = [(transpose(lam), transpose(mu)) for lam, mu in erows_b(n)]
    # `bipartitions_of` order: on partitions of one weight, `partitions_of`
    # order is reverse lexicographic
    return tuple(sorted(out, key=lambda bp: (sum(bp[0]), bp), reverse=True))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 3 per classify (D8)
def erows_d(n: int) -> tuple[BiPartition, ...]:
    """Unordered bipartitions {lam, mu} of n, lam != mu, all parts even."""
    return tuple(unordered_pair(*bp) for bp in erows_b(n) if _heavier_first(*bp))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)  # 3 per classify (D8)
def ecols_d(n: int) -> tuple[BiPartition, ...]:
    return tuple(unordered_pair(*bp) for bp in ecols_b(n) if _heavier_first(*bp))


def degenerate_labels(n: int) -> tuple[tuple[Partition, str], ...]:
    """All (core, sign) labels for even ambient rank n."""
    if n % 2 != 0:
        raise ValueError(f"degenerate labels need even rank, got {n}")
    out = []
    for core in partitions_of(n // 2):
        out.append((core, "+"))
        out.append((core, "-"))
    return tuple(out)


# --- text forms --------------------------------------------------------------


def format_partition(p: Partition) -> str:
    if not p:
        return "()"
    return "(" + ",".join(str(x) for x in p) + ")"


def format_bipartition(bp: BiPartition) -> str:
    return "(" + format_partition(bp[0]) + "," + format_partition(bp[1]) + ")"


def format_unordered(bp: BiPartition) -> str:
    return "{" + format_partition(bp[0]) + "," + format_partition(bp[1]) + "}"


def format_degenerate(core: Partition, sign: str) -> str:
    return "[" + format_partition(core) + "," + sign + "]"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad partition literal: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    p = tuple(int(x) for x in inner.split(","))
    return check_partition(p)
