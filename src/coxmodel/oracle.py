"""Brute-force finite group oracle for the reflection groups in scope.

Each group is enumerated element by element from one table keyed by
Coxeter type, `GROUP_TYPES`: signed permutations for A, B and D,
rotation/flip pairs for I2, products of commuting D6 reflections for H3.
`get_group` builds each (type, rank) once, and its cache holds a bounded
number of elements.  One BFS numbers the elements.  It runs on compact
keys: a signed permutation w of at most 127 letters is keyed by the bytes
of w^-1, so a product by a generator is one `bytes.translate`; dihedral
elements and wider permutations are their own keys.  The BFS fills every
per-element table from finished rows: right products by a generator,
both parents, the inverse.  Everything downstream runs on them:
subgroups, conjugacy and twisted involution classes (one marked walk
each), the perfection test, twisted centralizers, induced characters,
square-root counts.  Element tuples are decoded one at a time, only where
a value leaves the oracle: class representatives (for cycle types and
output), the minimum of a perfect class (and its elements for
`perfect_classes` alone; the triples read the classes on ids), and the
tuple-to-id lookups of `sqrt_count` and the twisted centralizers.

The oracle validates itself as it goes: BFS lengths are checked against
the exchange condition; each distinct induced character must come out
integral when it is first induced; every inner product passes through the
one pairing rule, `pairs` (one weighed class function against a list of
others; `pair` is its single form), which requires an integer and a value
on every class; the square-root-count class function must have norm
equal to the number of conjugacy classes (every irreducible here is
orthogonal); and every cover the search finds must sum to the square-root
count.

Labeled irreducible values come from one Murnaghan-Nakayama column per
class representative, read at its signed cycle type (see char_ring).  A
degenerate type D label at any even rank takes half the type B value of
its doubled core plus or minus half the difference character; the table
of every label is audited for degrees, orthonormality (each label against
all later labels in one batched pairing) and the sign convention before
it decomposes.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import add, eq, mul
from types import MappingProxyType, SimpleNamespace

from . import partitions as pt
from .char_ring import (  # mn_value_a and mn_value_b are re-exported
    VirtualCharacter,
    degree,
    difference_value,
    irr_universe,
    mn_column_a,
    mn_column_b,
    mn_value_a,
    mn_value_b,
)
from .classification import CapExceeded


def oracle_cap() -> int:
    """`COXMODEL_ORACLE_CAP`, a positive integer; 1,000,000 when unset or empty."""
    raw = os.environ.get("COXMODEL_ORACLE_CAP", "")
    if not raw:
        return 1_000_000
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"COXMODEL_ORACLE_CAP must be a positive integer, got {raw!r}")
    return cap


# --- element arithmetic -------------------------------------------------------


def _sp_mult(x, y):
    """x after y: entry i is x applied to the signed letter y[i]."""
    return tuple([x[i - 1] if i > 0 else -x[-i - 1] for i in y])


def _sp_inverse(w):
    """w^-1 of a signed permutation: w(i) = v gives w^-1(|v|) = +-i."""
    inv = [0] * len(w)
    for i, v in enumerate(w, 1):
        inv[abs(v) - 1] = i if v > 0 else -i
    return tuple(inv)


def _sp_identity(n):
    return tuple(range(1, n + 1))


# --- element keys ---------------------------------------------------------------

# A byte codes the letters -n .. n as 0 .. 2n, so n is at most 127.
_BYTE_LETTERS = 127


class _TupleKeys:
    """Elements keyed by themselves; the key of w s is `mult(w, s)`."""

    def __init__(self, mult):
        self.times = mult

    def encode(self, w):
        return w

    decode = letter = encode


class _ByteKeys:
    """A signed permutation w of n letters keyed by the bytes of w^-1.

    Letter v is coded v + n.  For an involution s, (w s)^-1 = s w^-1, so
    the key of w s is the key of w with each code passed through s: one
    C-level `bytes.translate` by the letter table of s.  A key hashes once
    and is not tracked by the GC.
    """

    def __init__(self, n):
        self.n = n
        self.times = bytes.translate

    def encode(self, w):
        n = self.n
        return bytes([v + n for v in _sp_inverse(w)])

    def decode(self, key):
        n = self.n
        return _sp_inverse([c - n for c in key])

    def letter(self, g):
        """The table that maps the code of each letter v to that of g(v)."""
        n = self.n
        table = bytearray(range(256))
        for i, v in enumerate(g, 1):
            table[n + i] = n + v
            table[n - i] = n - v
        return bytes(table)


def _keys_for(mult, identity):
    """Byte keys for signed permutations of at most 127 letters, else tuples."""
    if mult is _sp_mult and len(identity) <= _BYTE_LETTERS:
        return _ByteKeys(len(identity))
    return _TupleKeys(mult)


def _row_at(i, row):
    """The key of a parabolic's product: the parent's right row at id i."""
    return row[i]


# --- the group container ------------------------------------------------------


class Group:
    """Fully enumerated Coxeter group, numbered once by its BFS.

    The BFS runs on keys: the bytes of w^-1 for a signed permutation of
    at most 127 letters (see `_ByteKeys`), the element tuple itself
    otherwise.  Element i is `element(i)`, decoded from its key; `id_of(w)`
    encodes a tuple and looks it up.  The identity is 0.  `elements` and
    `index` are the whole group as tuples, decoded on first use.  Every
    map after the enumeration runs on the integer ids:

    - `right[g][i]` is the id of w_i s_g, and `inverse[i]` that of w_i^-1;
    - w_i = w_rparent[i] s_rgen[i] and w_i = s_lgen[i] w_lparent[i], each
      parent one letter shorter; lgen[i] is the least left descent, the
      first letter of the BFS word.

    Left products go through the inverse: s_g w_i is
    `inverse[right[g][inverse[i]]]`, since s y = (y^-1 s)^-1.

    Generators must be involutions, so twisted conjugation by s is
    x -> s x pi(s).  A parabolic subgroup numbers its own elements;
    `parent_ids` and `gen_ids` map its ids and generators to the parent's.
    """

    def __init__(self, name, gens, mult, identity):
        self.name = name
        self.gens = tuple(gens)
        self.mult = mult
        self.identity = identity
        for g in self.gens:
            if mult(g, g) != identity:
                raise ValueError(f"generator {g} of {name} is not an involution")
        codec = self._codec = _keys_for(mult, identity)
        letters = [codec.letter(g) for g in self.gens]
        self._keys, self._ids = self._enumerate(codec.encode(identity), codec.times, letters)
        self.parent_ids = range(self.order)
        self.gen_ids = tuple(range(len(self.gens)))
        self._derive()

    @classmethod
    def _parabolic(cls, parent, gen_ids):
        """The subgroup on `gen_ids`, enumerated on the parent's right rows."""
        sub = cls.__new__(cls)
        sub.name = f"{parent.name}|{gen_ids}"
        sub.gens = tuple(parent.gens[i] for i in gen_ids)
        sub.mult = parent.mult
        sub.identity = parent.identity
        rows = [parent.right[i] for i in gen_ids]
        sub.parent_ids, _ = sub._enumerate(0, _row_at, rows)
        sub._codec = parent._codec
        sub._keys = list(map(parent._keys.__getitem__, sub.parent_ids))
        sub.gen_ids = gen_ids
        sub._derive()
        return sub

    def element(self, i):
        """w_i as a tuple, decoded from its key."""
        return self._codec.decode(self._keys[i])

    def id_of(self, w):
        """The id of the tuple w; a parabolic keeps no {key: id} dict."""
        return self._ids[self._codec.encode(w)]

    @cached_property
    def elements(self):
        """Every element as a tuple, in id order."""
        return tuple(map(self.element, range(self.order)))

    @cached_property
    def index(self):
        """{element tuple: id}."""
        return dict(zip(self.elements, range(self.order)))

    def _enumerate(self, start, times, letters):
        """One BFS queue from `start`; returns ([key by id], {key: id}).

        `times(key, letters[gi])` is the key of the product by generator
        gi: a byte key translated by a table, a parent id looked up in a
        right row, or a tuple multiplied.  Every generator is an
        involution, so finding w s = v also gives v s = w: each pair
        {w, w s} is multiplied once, from the end the queue reaches first.
        A product already known must then lie one layer up, which checks
        the exchange condition on every pair.

        The queue finishes a layer before it starts the next, so each
        table reads only finished rows.  An element first met as w = w' t
        takes its first letter s from w' and its left parent
        s w = (s w') t from the row of s w', a layer below w'.  A layer's
        inverses are filled when the queue reaches it, all found and the
        layer below finished: (s w)^-1 = w^-1 s reads the row of w^-1.
        """
        cap = oracle_cap()
        index = {start: 0}
        keys = [start]
        lengths = [0]
        rparent = [-1]
        rgen = [-1]
        lgen = [-1]
        lparent = [-1]
        inverse = [0]
        # -1 until the product is known; rows double in length as ids outgrow them
        right = [[-1] for _ in self.gens]
        gens = list(zip(range(len(letters)), letters, right))
        # the queue is `keys` itself, which grows under the loop
        for base, w in enumerate(keys):
            length = lengths[base]
            if base == len(inverse):
                # the first element of a layer, and the whole layer is found
                for s, p in zip(lgen[base:], lparent[base:]):
                    inverse.append(right[s][inverse[p]])
            for gi, letter, row in gens:
                if row[base] >= 0:
                    continue
                v = times(w, letter)
                seen = index.get(v)
                if seen is None:
                    seen = index[v] = len(keys)
                    if seen >= cap:
                        raise CapExceeded(f"group {self.name} exceeds cap {cap}")
                    if seen == len(row):
                        for r in right:
                            r.extend([-1] * seen)
                    keys.append(v)
                    lengths.append(length + 1)
                    rparent.append(base)
                    rgen.append(gi)
                    if base:
                        lgen.append(lgen[base])
                        lparent.append(row[lparent[base]])
                    else:
                        lgen.append(gi)
                        lparent.append(0)
                elif lengths[seen] != length + 1:
                    raise RuntimeError("length function is not Coxeter-like")
                row[base] = seen
                row[seen] = base
        self.order = len(keys)
        # a row trimmed in place would keep its doubled capacity
        for row in right:
            trimmed = row[: self.order]
            row.clear()
            row.extend(trimmed)
        self.lengths = lengths
        self.rparent = rparent
        self.rgen = rgen
        self.lgen = lgen
        self.lparent = lparent
        self.inverse = inverse
        self.right = right
        return keys, index

    def _derive(self):
        """Empty the memos of a freshly enumerated group."""
        self._classes = None
        self._sqrt = None
        self._covers = None
        self._induced = {}
        self._thetas = {}
        self._linear = {}
        self._centralizers = {}
        self._irr = {}
        self._subgroups = {}

    def _walk(self, start, rows):
        """A map on ids from its value at the identity and its steps.

        values[i] = rows[t][values[p]] for w_i = w_p s_t: one lookup per
        element, from its value at the right parent.
        """
        values = [start]
        for p, t in zip(self.rparent[1:], self.rgen[1:]):
            values.append(rows[t][values[p]])
        return values

    def times(self, a, b):
        """The id of w_a w_b, read off b's letters from the left."""
        right, lgen, lparent = self.right, self.lgen, self.lparent
        while b:
            a = right[lgen[b]][a]
            b = lparent[b]
        return a

    def theta_ids(self, pi):
        """Ids of the images under s_i -> s_pi[i]: theta(w t) = theta(w) pi(t).

        The identity automorphism maps every id to itself, with no walk.
        """
        pi = tuple(pi)
        if pi == tuple(range(len(self.gens))):
            return range(self.order)
        images = self._thetas.get(pi)
        if images is None:
            images = self._thetas[pi] = self._walk(0, [self.right[j] for j in pi])
        return images

    def linear_values(self, signs):
        """Values of the linear character with these generator signs."""
        signs = tuple(signs)
        values = self._linear.get(signs)
        if values is None:
            # one sign product per element: value(w t) = value(w) sign(t)
            rows = [{1: s, -1: -s} for s in signs]
            values = self._linear[signs] = self._walk(1, rows)
        return values

    def twisted_orbits(self, pi, seeds):
        """(seed, ids of its orbit) per seed that no earlier orbit reached.

        The orbits are the twisted classes, closed under x -> s x pi(s), and
        one byte per id marks what they have reached.  s x is (x^-1 s)^-1:
        each x in an orbit is inverted once, and each step once more.
        """
        inverse, right = self.inverse, self.right
        steps = [(right[g], right[pi[g]]) for g in range(len(self.gens))]
        reached = bytearray(self.order)
        for seed in seeds:
            if reached[seed]:
                continue
            reached[seed] = 1
            orbit = [seed]  # the queue, which grows under the loop
            for x in orbit:
                xi = inverse[x]
                for row, twisted in steps:
                    y = twisted[inverse[row[xi]]]
                    if not reached[y]:
                        reached[y] = 1
                        orbit.append(y)
            yield seed, orbit

    def twisted_orbit(self, x, pi):
        """Ids of the twisted conjugacy orbit of id x: y = s x pi(s)."""
        return set(next(self.twisted_orbits(pi, (x,)))[1])

    def conjugacy_classes(self):
        """(class_of: id -> class id, reps, sizes); a rep is first in BFS order."""
        if self._classes is None:
            ident = tuple(range(len(self.gens)))
            class_of = [0] * self.order
            reps = []
            sizes = []
            for i, orbit in self.twisted_orbits(ident, range(self.order)):
                for x in orbit:
                    class_of[x] = len(reps)
                reps.append(self.element(i))
                sizes.append(len(orbit))
            self._classes = (class_of, tuple(reps), tuple(sizes))
        return self._classes

    def reflections(self):
        """Ids of the conjugates of the generators, in increasing order."""
        ident = tuple(range(len(self.gens)))
        orbits = self.twisted_orbits(ident, [row[0] for row in self.right])
        return sorted(chain.from_iterable(orbit for _, orbit in orbits))

    # diagram automorphisms ----------------------------------------------

    def coxeter_matrix(self):
        """m[i][j] is the order of s_i s_j."""
        k = len(self.gens)
        out = [[1] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                x = self.right[j][self.right[i][0]]
                while x:
                    x = self.right[j][self.right[i][x]]
                    out[i][j] += 1
        return tuple(map(tuple, out))

    def diagram_automorphisms(self):
        """All generator permutations preserving the Coxeter matrix."""
        return tuple(_matrix_automorphisms(self.coxeter_matrix()))

    def subgroup(self, gen_ids):
        """Parabolic subgroup on a subset of the generators, built once.

        On every generator it is the group itself.
        """
        gen_ids = tuple(gen_ids)
        if gen_ids == tuple(range(len(self.gens))):
            return self
        sub = self._subgroups.get(gen_ids)
        if sub is None:
            sub = self._subgroups[gen_ids] = Group._parabolic(self, gen_ids)
        return sub


def _matrix_automorphisms(m, pi=()):
    """The permutations with m[pi[i]][pi[j]] == m[i][j] that extend `pi`, in
    lexicographic order: letter i tries each free image in increasing
    order that keeps its bonds to the letters before it (`m` is symmetric).
    """
    i = len(pi)
    if i == len(m):
        yield pi
        return
    for image in range(len(m)):
        if image not in pi and all(m[image][p] == m[i][j] for j, p in enumerate(pi)):
            yield from _matrix_automorphisms(m, pi + (image,))


# --- the group of each Coxeter type -----------------------------------------


def _signed(first=None):
    """n signed letters: `first(n)`, if given, then s_i swapping i and i + 1."""

    def group(n):
        swaps = [(*range(1, i), i + 1, i, *range(i + 2, n + 1)) for i in range(1, n)]
        return ([first(n)] if first else []) + swaps, _sp_mult, _sp_identity(n)

    return group


def _dihedral(m):
    """s and t as (rotation, flip) pairs of the group of order 2m."""

    def mult(x, y):
        (k1, f1), (k2, f2) = x, y
        return ((k1 - k2 if f1 else k1 + k2) % m, f1 ^ f2)

    return [(0, 1), (1, 1)], mult, (0, 0)


def _h3(n):
    """s1 s3, s2 s4 and s0 s5 of D6, each a product of commuting reflections."""
    gens = [(2, 1, 4, 3, 5, 6), (1, 3, 2, 5, 4, 6), (-2, -1, 3, 4, 6, 5)]
    return gens, _sp_mult, _sp_identity(6)


# Coxeter type -> how the oracle builds its group: `label` names the group
# in messages (`{n}` is the rank), `least` is the least rank (the only one
# if `one_rank`), `group(n)` gives the generators, their product and the
# identity, and the product of `factors(n)` is the order.
GROUP_TYPES = MappingProxyType({
    "A": SimpleNamespace(
        label="symA", least=1, one_rank=False, group=_signed(),
        factors=lambda n: range(2, n + 1),
    ),
    "B": SimpleNamespace(
        label="symB", least=1, one_rank=False, group=_signed(lambda n: (-1, *range(2, n + 1))),
        factors=lambda n: chain(repeat(2, n), range(2, n + 1)),
    ),
    "D": SimpleNamespace(
        label="symD", least=2, one_rank=False, group=_signed(lambda n: (-2, -1, *range(3, n + 1))),
        factors=lambda n: chain(repeat(2, n - 1), range(2, n + 1)),
    ),
    "I2": SimpleNamespace(
        label="dihedral{n}", least=2, one_rank=False, group=_dihedral,
        factors=lambda m: (2 * m,),
    ),
    "H3": SimpleNamespace(
        label="h3", least=3, one_rank=True, group=_h3,
        factors=lambda n: (120,),
    ),
})


def _group_type(ctype: str, n: int) -> SimpleNamespace:
    """The entry of `ctype`, once `n` is one of its ranks."""
    entry = GROUP_TYPES.get(ctype)
    if entry is None:
        raise ValueError(f"unknown Coxeter type: {ctype!r}")
    if entry.one_rank and n != entry.least:
        raise ValueError(f"{ctype} exists at rank {entry.least} only")
    if n < entry.least:
        raise ValueError(f"type {ctype} needs rank >= {entry.least}, got {n}")
    return entry


def build_group(ctype: str, n: int) -> Group:
    """The group of type `ctype` at rank `n`, enumerated afresh."""
    entry = _group_type(ctype, n)
    return Group(entry.label.format(n=n), *entry.group(n))


def _order_passes(ctype: str, n: int, cap: int) -> bool:
    """Whether the group's order passes `cap`; a huge rank stops early."""
    order = 1
    for f in GROUP_TYPES[ctype].factors(n):
        order *= f
        if order > cap:
            break
    return order > cap


_GROUP_CACHE: dict = {}
# the most elements the cached groups hold together: twice the default cap
GROUP_CACHE_ELEMENTS = 2_000_000


def get_group(ctype: str, n: int) -> Group:
    """The group of type `ctype` at rank `n`, built once.

    A group whose order passes the element cap is refused before it is
    built; the BFS checks the cap again as it goes.  A new group pushes
    the oldest out of the cache until the cached orders add up to at most
    `GROUP_CACHE_ELEMENTS`, and stays itself.
    """
    key = (ctype, n)
    group = _GROUP_CACHE.get(key)
    if group is None:
        entry = _group_type(ctype, n)
        cap = oracle_cap()
        if _order_passes(ctype, n, cap):
            raise CapExceeded(f"group {entry.label.format(n=n)} exceeds cap {cap}")
        group = build_group(ctype, n)
        held = group.order + sum(g.order for g in _GROUP_CACHE.values())
        for old in list(_GROUP_CACHE):
            if held <= GROUP_CACHE_ELEMENTS:
                break
            held -= _GROUP_CACHE.pop(old).order
        _GROUP_CACHE[key] = group
    return group


# --- square roots and inner products ------------------------------------------


def sqrt_count(group: Group):
    """Class function counting square roots; equals the sum of all irreducibles.

    Computed once per group.
    """
    if group._sqrt is None:
        class_of, reps, sizes = group.conjugacy_classes()
        # the h whose square lies in each class: squaring maps a class
        # into a class, so one representative per class is enough
        counts = [0] * len(reps)
        for rep, size in zip(reps, sizes):
            h = group.id_of(rep)
            counts[class_of[group.times(h, h)]] += size
        vec = tuple(c // size for c, size in zip(counts, sizes))
        # every irreducible of these groups is orthogonal, so the norm of the
        # square-root count must equal the number of classes.
        if inner_product(group, vec, vec) != len(reps):
            raise RuntimeError("square-root sanity failed")
        group._sqrt = vec
    return group._sqrt


def _check_lengths(n_classes, *fs):
    for f in fs:
        if len(f) != n_classes:
            raise ValueError(f"class function has {len(f)} values, the group {n_classes} classes")


def weigh(group: Group, f) -> tuple:
    """f times the class sizes, the one factor `pair` needs of f."""
    _, _, sizes = group.conjugacy_classes()
    _check_lengths(len(sizes), f)
    return tuple(map(mul, sizes, f))


def pairs(group: Group, weighed, gs) -> list:
    """[<f, g> for g in gs] from `weigh(group, f)`; integers for characters.

    The one place that divides by |W|, and checks that nothing remains.
    """
    _check_lengths(len(group.conjugacy_classes()[2]), weighed, *gs)
    order = group.order
    sums = [sum(map(mul, weighed, g)) for g in gs]
    if any(total % order for total in sums):
        raise RuntimeError("inner product not integral")
    return [total // order for total in sums]


def pair(group: Group, weighed, g) -> int:
    """<f, g> from `weigh(group, f)`; an integer for characters."""
    return pairs(group, weighed, (g,))[0]


def inner_product(group: Group, f, g) -> int:
    """<f, g> of two class functions; it is an integer for characters."""
    return pair(group, weigh(group, f), g)


# --- linear characters ---------------------------------------------------------


def linear_characters(group: Group):
    """All homomorphisms to {+1, -1} as sign tuples over the generators.

    Generators joined by an odd bond share a sign.  The first generator's
    sign varies fastest.
    """
    k = len(group.gens)
    m = group.coxeter_matrix()
    odd = [(i, j) for i in range(k) for j in range(i + 1, k) if m[i][j] % 2 == 1]
    signs = (bits[::-1] for bits in product((1, -1), repeat=k))
    return tuple(s for s in signs if all(s[i] == s[j] for i, j in odd))


# --- twisted involutions and perfect classes -----------------------------------


def _involutive_autos(group: Group):
    """The diagram automorphisms whose square is the identity, in order."""
    autos = group.diagram_automorphisms()
    return tuple(pi for pi in autos if all(pi[p] == i for i, p in enumerate(pi)))


def _perfect_class_ids(group: Group):
    """(theta, class ids, id of the minimum) per perfect class with a unique
    minimal-length element: the one walk that `perfect_classes` and
    `all_triples` read."""
    refl = group.reflections()
    inverse, lengths = group.inverse, group.lengths
    for pi in _involutive_autos(group):
        theta = group.theta_ids(pi)
        # w theta(w) = 1 exactly when theta(w) is the inverse of w
        twisted = compress(range(group.order), map(eq, theta, inverse))
        for w, orbit in group.twisted_orbits(pi, twisted):
            # perfection is a class property, so test it on w only
            if not _is_perfect(group, w, theta, refl):
                continue
            min_len = min(lengths[x] for x in orbit)
            mins = [x for x in orbit if lengths[x] == min_len]
            if len(mins) == 1:
                yield pi, orbit, mins[0]


def perfect_classes(group: Group):
    """Twisted conjugacy classes of perfect involutions with a unique minimum.

    Returns a list of dicts with keys theta (generator permutation),
    elements (frozenset of group elements paired with that theta), and
    min (the unique minimal-length element).
    """
    element = group.element
    return [
        {"theta": pi, "elements": frozenset(map(element, orbit)), "min": element(m)}
        for pi, orbit, m in _perfect_class_ids(group)
    ]


def _is_perfect(group: Group, w, theta, refl) -> bool:
    """(w theta(t) theta(w) t)^2 = 1 for each reflection id t in `refl`.

    On ids: q squares to 1 exactly when q is its own inverse.
    """
    times, inverse = group.times, group.inverse
    tw = theta[w]
    for t in refl:
        q = times(times(times(w, theta[t]), tw), t)
        if inverse[q] != q:
            return False
    return True


# --- triples and induced characters --------------------------------------------


def twisted_centralizer(group: Group, sub: Group, w, pi):
    """Ids in `sub` of its g with g w = w theta(g); w is an id of `group`.

    One pass in BFS order on right rows only.  For g = s g' (left parent)
    (g w)^-1 = (g' w)^-1 s, and for g = g'' t (right parent)
    w theta(g) = (w theta(g'')) pi(t); g is kept when the first is the
    inverse of the second.
    """
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


def induced_character(group: Group, sums, h):
    """Induce from a subgroup of order h whose values sum to sums[c] on class c.

    The result must be integral.
    """
    _, _, sizes = group.conjugacy_classes()
    out = []
    for total, size in zip(sums, sizes):
        v, r = divmod(group.order * total, size * h)
        if r:
            raise RuntimeError("induced character value not integral")
        out.append(v)
    return tuple(out)


def all_triples(group: Group):
    """Every (J, perfect class, linear character) over all generator subsets."""
    k = len(group.gens)
    out = []
    for mask in range(1 << k):
        gen_ids = tuple(i for i in range(k) if (mask >> i) & 1)
        # empty J gives the trivial subgroup: its one class, the identity,
        # induces the regular character
        sub = group.subgroup(gen_ids)
        sigmas = linear_characters(sub)
        # only the class minimum is decoded
        for pi, _, m in _perfect_class_ids(sub):
            w = sub.element(m)
            for sigma in sigmas:
                out.append({"J": gen_ids, "min": w, "theta": pi, "sigma": sigma})
    return out


def _centralizer(group: Group, triple):
    """(subgroup, (centralizer order, its ids in the subgroup by class)).

    The ids come as (class id in `group`, ids in that class) pairs.  The
    triples of one class differ in sigma only, so this is computed once
    per (J, class) and kept on the subgroup.
    """
    sub = group.subgroup(triple["J"])
    key = (triple["min"], triple["theta"])
    cent = sub._centralizers.get(key)
    if cent is None:
        ids = twisted_centralizer(group, sub, group.id_of(key[0]), key[1])
        class_of = group.conjugacy_classes()[0]
        parent_ids = sub.parent_ids
        by_class = {}
        for g in ids:
            by_class.setdefault(class_of[parent_ids[g]], []).append(g)
        cent = sub._centralizers[key] = (len(ids), tuple(by_class.items()))
    return sub, cent


def restricted_character(group: Group, triple) -> dict:
    """The triple's linear character on its twisted centralizer, {id: +-1}."""
    sub, (_, by_class) = _centralizer(group, triple)
    values = sub.linear_values(triple["sigma"])
    return {sub.parent_ids[g]: values[g] for _, members in by_class for g in members}


def triple_character(group: Group, triple):
    """The induced model character of one triple, as a class-value tuple."""
    sub, (order, by_class) = _centralizer(group, triple)
    value = sub.linear_values(triple["sigma"]).__getitem__
    sums = [0] * len(group.conjugacy_classes()[1])
    for c, members in by_class:
        sums[c] = sum(map(value, members))
    # triples with the same class sums and order induce the same character,
    # so each key is induced (and checked integral) once per group
    key = (tuple(sums), order)
    chi = group._induced.get(key)
    if chi is None:
        chi = group._induced[key] = induced_character(group, sums, order)
    return chi


def oracle_is_perfect(group: Group, chars) -> bool:
    """Do the class functions sum to the square-root count pointwise?"""
    r2 = sqrt_count(group)
    total = [0] * len(r2)
    for chi in chars:
        _check_lengths(len(r2), chi)
        total = list(map(add, total, chi))
    return tuple(total) == r2


def oracle_search(group: Group):
    """All perfect models over the full triple universe, via exact cover.

    Candidate characters are deduplicated; a model is a pairwise-orthogonal
    set of multiplicity-free candidates whose multiplicities exhaust every
    irreducible, which for orthogonal groups is equivalent to the norms
    summing to the class count.  Each returned cover lists, per chosen
    character, every triple that induces it.  The covers are searched once
    per group and kept on it as a tuple; each call returns a new list.
    """
    if group._covers is not None:
        return list(group._covers)
    r2 = sqrt_count(group)
    n_classes = len(r2)
    rows: dict[tuple, list] = {}
    for triple in all_triples(group):
        chi = triple_character(group, triple)
        desc = (triple["J"], triple["min"], triple["theta"], triple["sigma"])
        rows.setdefault(chi, []).append(desc)
    items = []
    for chi, descs in rows.items():
        weighed = weigh(group, chi)
        norm, with_r2 = pairs(group, weighed, (chi, r2))
        if norm != with_r2:
            continue  # repeated constituent
        items.append((chi, norm, descs, weighed))
    items.sort(key=lambda it: (-it[1], it[0]))
    norms = [it[1] for it in items]
    chars = [it[0] for it in items]
    # clash[i] has bit j set when items i and j are not orthogonal
    clash = [0] * len(items)
    for i, (_, _, _, weighed) in enumerate(items):
        for j, ip in enumerate(pairs(group, weighed, chars[i + 1 :]), i + 1):
            if ip:
                clash[i] |= 1 << j
                clash[j] |= 1 << i
    # with_norm[k]: the items of norm k, to add up a mask's norms by bit counts
    with_norm = {}
    for i, norm in enumerate(norms):
        with_norm[norm] = with_norm.get(norm, 0) | 1 << i
    covers = []
    chosen: list[int] = []

    def rec(allowed, remaining):
        """Covers of `remaining` from `allowed`, in increasing item order.

        `allowed` holds the items after the last chosen one that are
        orthogonal to every chosen one.
        """
        if remaining == 0:
            if not oracle_is_perfect(group, [items[i][0] for i in chosen]):
                raise RuntimeError("cover is not a perfect model")
            covers.append(tuple(chosen))
            return
        # the norms of the allowed items cannot add up to what remains
        if sum(k * (allowed & m).bit_count() for k, m in with_norm.items()) < remaining:
            return
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            if norms[i] <= remaining:
                chosen.append(i)
                rec(allowed & ~clash[i], remaining - norms[i])
                chosen.pop()

    rec((1 << len(items)) - 1, n_classes)
    group._covers = tuple(
        tuple((items[i][0], tuple(items[i][2])) for i in cover)
        for cover in covers
    )
    return list(group._covers)


# --- labeled irreducible values (Murnaghan-Nakayama) ---------------------------


def signed_cycle_type(w) -> tuple:
    """Cycles of |w| with the product of the signs met along each cycle."""
    n = len(w)
    seen = [False] * n
    cycles = []
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        j, length, sign = i, 0, 1
        while not seen[j - 1]:
            seen[j - 1] = True
            v = w[j - 1]
            sign *= 1 if v > 0 else -1
            j = abs(v)
            length += 1
        cycles.append((length, sign))
    cycles.sort(key=lambda c: (-c[0], -c[1]))
    return tuple(cycles)


def _split_sign(w) -> int:
    """+1 when w is D_n-conjugate to an unsigned permutation, else -1.

    Only for w whose cycles are all positive and even.  Walking each cycle
    picks signs d with d w d unsigned; d lies in D_n exactly when it has an
    even number of -1 entries.
    """
    d = [0] * len(w)
    for i in range(len(w)):
        j, sign = i, 1
        while not d[j]:
            d[j] = sign
            sign *= 1 if w[j] > 0 else -1
            j = abs(w[j]) - 1
    return (-1) ** d.count(-1)


def irr_column(ctype: str, labels, w) -> tuple:
    """Values of the labeled irreducibles `labels` at a signed permutation w.

    One Murnaghan-Nakayama column per cycle type: a degenerate type D label
    is half its (core, core) type B value plus or minus half the
    difference character, which is nonzero only on the split classes.
    """
    cycles = signed_cycle_type(w)
    if ctype == "A":
        column = mn_column_a(tuple(length for length, _ in cycles))
        return tuple(map(column.get, labels, repeat(0)))
    if ctype not in ("B", "D"):
        raise ValueError(f"bad character type: {ctype!r}")
    column = mn_column_b(cycles)
    if ctype == "B":
        return tuple(map(column.get, labels, repeat(0)))
    split = all(length % 2 == 0 and s == 1 for length, s in cycles)
    if split:
        eps = _split_sign(w)
        mu = tuple(length // 2 for length, _ in cycles)
    out = []
    for lab in labels:
        if lab[0] == "set":
            out.append(column.get(lab[1:], 0))
            continue
        _, core, sign = lab
        value = column.get((core, core), 0)
        if split:
            delta = eps * difference_value(core, mu)
            value += delta if sign == "+" else -delta
        half, odd = divmod(value, 2)
        if odd:
            raise RuntimeError(f"odd degenerate value: {(lab, w)}")
        out.append(half)
    return tuple(out)


def _irr_table(group: Group, ctype: str, n: int) -> MappingProxyType:
    """Class values of every labeled irreducible on `group`, audited once.

    Returns a read-only {label: class-value tuple}, kept on the group.  Each
    class representative's column is read once.  The audit checks degrees,
    orthonormality (each label paired with itself and every later label in
    one batch) and the sign convention: chi[core,+] - chi[core,-] is
    2^(n/2) deg(core) at the standard fixed-point-free involution
    s1 s3 ... s(n-1).
    """
    table = group._irr.get((ctype, n))
    if table is not None:
        return table
    class_of, reps, _ = group.conjugacy_classes()
    labels = irr_universe(ctype, n)
    vecs = dict(zip(labels, zip(*(irr_column(ctype, labels, r) for r in reps))))
    for lab in labels:
        # the identity is element 0, so its class is class 0
        if vecs[lab][0] != degree(ctype, lab):
            raise RuntimeError(f"wrong degree: {lab}")
    rows = list(vecs.values())
    for i, row in enumerate(rows):
        products = pairs(group, weigh(group, row), rows[i:])
        if products[0] != 1 or any(products[1:]):
            j = next(j for j, ip in enumerate(products) if ip != (1 if j == 0 else 0))
            found = (labels[i], labels[i + j], products[j])
            raise RuntimeError(f"irreducibles not orthonormal: {found}")
    if ctype == "D" and n % 2 == 0:
        fpf = 0
        for i in range(1, n, 2):
            fpf = group.right[i][fpf]
        cid = class_of[fpf]
        for core in pt.partitions_of(n // 2):
            delta = vecs[("deg", core, "+")][cid] - vecs[("deg", core, "-")][cid]
            if delta != 2 ** (n // 2) * pt.standard_tableau_count(core):
                raise RuntimeError(f"degenerate sign convention broken: {core}")
    table = group._irr[ctype, n] = MappingProxyType(vecs)
    return table


def virtual_char_values(group: Group, chi):
    """Class-value vector of a symbolic VirtualCharacter on an oracle group.

    The sum of the table rows, each scaled by its coefficient.
    """
    _, reps, _ = group.conjugacy_classes()
    table = _irr_table(group, chi.ctype, chi.rank)
    total = [0] * len(reps)
    for lab, c in chi.coeffs.items():
        total = list(map(add, total, map(mul, table[lab], repeat(c))))
    return tuple(total)


def decompose(group: Group, ctype: str, n: int, values):
    """Write a class-value vector in the labeled irreducible basis."""
    terms = []
    residual = list(values)
    for lab, vec in _irr_table(group, ctype, n).items():
        c = inner_product(group, residual, vec)
        if c:
            terms.append((lab, c))
            for i in range(len(residual)):
                residual[i] -= c * vec[i]
    if any(residual):
        raise RuntimeError("decomposition left a residue")
    return VirtualCharacter(ctype, n, terms)


# --- bridge from symbolic indexes to concrete triples --------------------------


def _sign_block(n, a0, beta, gamma, type_d):
    """Column 0 of a signed group, on its generators 0 .. a0-1.

    Returns the element as a list of n letters, and theta and sigma as
    lists over those generators.
    """
    w = list(range(1, n + 1))
    theta = list(range(a0))
    tag = beta if isinstance(beta, str) else beta[0]
    if tag in ("idplus", "pq"):
        # negate the first q letters; an odd q in type D keeps letter 1 and
        # swaps theta on generators 0 and 1
        q = a0 if tag == "idplus" else beta[2]
        odd_d = type_d and q % 2 == 1
        for k in range(odd_d, q):
            w[k] = -(k + 1)
        if odd_d:
            theta[0], theta[1] = 1, 0
    elif tag in ("fpf", "fpfdiamond"):
        for k in range(0, a0 - 1, 2):
            w[k], w[k + 1] = k + 2, k + 1
        if tag == "fpfdiamond":
            w[0], w[1] = -2, -1
    elif tag == "tri":
        _, p, q, d = beta
        if (p, q) == (1, 3):
            w[:4] = [4, 3, 2, 1] if d == "cw" else [-4, 3, 2, -1]
        j = 1 if d == "cw" else 0
        theta[j], theta[3] = 3, j
    # gamma's signs on generator 0 and on the others
    signs = {"triv": (1, 1), "sgn": (-1, -1), "pm": (1, -1), "mp": (-1, 1)}[gamma]
    return w, theta, [signs[k > 0] for k in range(a0)]


def index_to_triple(idx):
    """Concrete (J, minimal element, theta, sigma) for a model index.

    J lists generator ids in increasing order; theta maps positions in J
    to positions in J, and sigma is a sign per position.
    """
    n = idx.rank
    signed = idx.ctype != "A"
    w, ids, theta, sigma = list(range(1, n + 1)), [], [], []
    offset, blocks = 0, idx.columns
    if signed:
        (offset, beta, gamma), *blocks = idx.columns
        if offset:
            w, theta, sigma = _sign_block(n, offset, beta, gamma, idx.ctype == "D")
            ids = list(range(offset))
    for a, beta, gamma in blocks:
        a = abs(a)
        # letters offset+1 .. offset+a; in a signed group generator 0 is the
        # sign change, so the block's generators start at offset + 1
        block = range(len(ids), len(ids) + a - 1)  # its positions in J
        ids += range(offset + signed, offset + signed + a - 1)
        theta += reversed(block) if beta in ("idplus", "fpfplus") else block
        sigma += [1 if gamma == "triv" else -1] * (a - 1)
        if beta == "idplus":
            w[offset : offset + a] = range(offset + a, offset, -1)
        elif beta == "fpf":
            for k in range(offset, offset + a - 1, 2):
                w[k], w[k + 1] = k + 2, k + 1
        offset += a
    if idx.columns[-1][0] < 0:
        # the flipped type D diagram: conjugating by the sign change of
        # letter 1 swaps generators 0 and 1
        s0 = (-1, *range(2, n + 1))
        w = _sp_mult(_sp_mult(s0, w), s0)
        ids = [0 if i == 1 else i for i in ids]
    return {"J": tuple(ids), "min": tuple(w), "theta": tuple(theta), "sigma": tuple(sigma)}


def oracle_char_of_index(group: Group, idx):
    """Induced character of an index computed entirely inside the oracle."""
    return triple_character(group, index_to_triple(idx))


def check_index_against_oracle(idx) -> bool:
    """Symbolic and group-theoretic characters of one index must agree."""
    group = get_group(idx.ctype, idx.rank)
    return index_agrees_with_oracle(group, idx, oracle_char_of_index(group, idx))


def index_agrees_with_oracle(group: Group, idx, orc) -> bool:
    """Does the symbolic character of `idx` take the class values `orc`?"""
    from .model_index import character_of_index

    return virtual_char_values(group, character_of_index(idx)) == orc
