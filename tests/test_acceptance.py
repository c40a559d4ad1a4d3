"""Acceptance gate: one test per top-level requirement.

Each test here is intentionally broad; the per-module suites hold the
narrow diagnostics.  test_criterion_2_b3_stated_total is expected to
fail: the classifier finds 8 strong classes at B rank 3 (both extra
models and their sign twists are strongly inequivalent, which the group
oracle confirms), not the 6 the requirement text states.  The project
notes ledger (notes/decisions.md) has the full writeup.
"""

import time
from itertools import product

import pytest

from coxmodel import oracle as oc
from coxmodel import partitions as pt
from coxmodel.char_ring import char_of, irr_universe, twist
from coxmodel.classification import (
    classify,
    classify_dihedral,
    classify_h3,
    d_even_nonexistence,
    h3_known_models,
    is_perfect_symbolic,
    known_model,
    replay_certificate,
    verify_h3_model,
)
from coxmodel.induction import bullet, ind_A_to_B, induce_D_to_B, project
from coxmodel.lr import lr_coefficient, lr_expand
from coxmodel.model_index import (
    character_of_index,
    enumerate_indices,
    normalize,
    project_index,
    transform,
)


def _oracle_perfect(model):
    group = oc.get_group(model[0].ctype, model[0].rank)
    chars = [oc.oracle_char_of_index(group, idx) for idx in model]
    return oc.oracle_is_perfect(group, chars)


def test_criterion_1_type_a_classification():
    start = time.monotonic()
    for n in (5, 6, 7, 8):
        assert classify("A", n, "strong")["count"] == 2
    assert time.monotonic() - start < 120
    r4 = classify("A", 4, "strong")
    assert r4["count"] > 2
    keys = [frozenset(m) for m in r4["models"]]
    assert frozenset(known_model("Aextra4", 4)) in keys
    for n in (4, 5):
        for model in classify("A", n, "strong")["models"]:
            assert _oracle_perfect(model)


def test_criterion_2_type_b_classification():
    start = time.monotonic()
    for n in (4, 5, 6):
        assert classify("B", n, "strong")["count"] == 4
    assert time.monotonic() - start < 300
    keys = [frozenset(m) for m in classify("B", 3, "strong")["models"]]
    assert frozenset(known_model("B3extra1", 3)) in keys
    assert frozenset(known_model("B3extra2", 3)) in keys
    for family in ("PB", "PBhat"):
        for n in range(2, 9):
            assert is_perfect_symbolic(known_model(family, n))["status"] == "perfect"
        for n in range(2, 5):
            assert _oracle_perfect(known_model(family, n))


def test_criterion_2_b3_stated_total():
    # the requirement text counts 6 classes at rank 3; the strong relation
    # actually separates the extra models from their sign twists, so the
    # honest answer is 8 (see the module docstring).
    assert classify("B", 3, "strong")["count"] == 6


def test_criterion_3_type_d():
    for n in (5, 7):
        assert is_perfect_symbolic(known_model("PD", n))["status"] == "perfect"
    assert _oracle_perfect(known_model("PD", 5))
    assert classify("D", 5, "strong")["count"] == 2
    assert oc.oracle_search(oc.get_group("D", 4)) == []
    for n in (6, 8):
        cert = d_even_nonexistence(n)
        assert cert["stage"] in ("degenerate-selection", "exhaustive")
        assert replay_certificate(cert)


def test_criterion_4_dihedral():
    for m in range(5, 17):
        want = 2 if m % 2 else 4
        assert classify_dihedral(m, "strong")["count"] == want
        if m <= 12:
            assert len(oc.oracle_search(oc.get_group("I2", m))) == want


def test_criterion_5_h3():
    start = time.monotonic()
    models = h3_known_models()
    assert len(models) == 4
    for model in models:
        assert verify_h3_model(model)
    assert classify_h3()["count"] == 4
    assert time.monotonic() - start < 30


def _nonempty_partitions(max_weight):
    for w in range(1, max_weight + 1):
        yield from pt.partitions_of(w)


def test_criterion_6_identity_suites():
    start = time.monotonic()
    # monotonicity under adding a column or a row to one factor and the total
    for lam, mu in product(_nonempty_partitions(5), repeat=2):
        if sum(lam) + sum(mu) > 10:
            continue
        exp = lr_expand(lam, mu)
        for r in range(1, 5):
            col = pt.combine(mu, (1,) * r, "sum")
            row = pt.combine(mu, (r,), "union")
            exp_col = lr_expand(lam, col)
            exp_row = lr_expand(lam, row)
            for nu, c in exp.items():
                assert exp_col[pt.combine(nu, (1,) * r, "sum")] >= c
                assert exp_row[pt.combine(nu, (r,), "union")] >= c
    # positivity at the two extreme shapes
    for lam, mu in product(_nonempty_partitions(6), repeat=2):
        if sum(lam) + sum(mu) > 12:
            continue
        assert lr_coefficient(lam, mu, pt.combine(lam, mu, "sum")) >= 1
        assert lr_coefficient(lam, mu, pt.combine(lam, mu, "union")) >= 1
    # LR symmetries
    for lam, mu in product(_nonempty_partitions(4), repeat=2):
        exp = lr_expand(lam, mu)
        assert exp == lr_expand(mu, lam)
        assert {pt.transpose(nu): c for nu, c in exp.items()} == lr_expand(
            pt.transpose(lam), pt.transpose(mu)
        )
    # twist involutions over whole universes
    for ctype, n in [("A", 5), ("B", 4), ("D", 4), ("D", 5)]:
        for lab in irr_universe(ctype, n):
            f = char_of(ctype, lab)
            assert twist(twist(f, "sgn"), "sgn") == f
            if ctype == "D":
                assert twist(twist(f, "diamond"), "diamond") == f
    # dual involution on every enumerated index
    for ctype, n in [("A", 4), ("B", 3), ("D", 4), ("D", 5)]:
        for idx in enumerate_indices(ctype, n):
            assert normalize(transform(transform(idx, "dual"), "dual")) == idx
    # product form of the projection lemmas
    checked_b = checked_d = 0
    for b_rank in range(1, 5):
        for a_rank in range(1, 6 - b_rank + 1):
            if b_rank + a_rank > 6:
                continue
            for a_lab in pt.partitions_of(a_rank):
                a_chi = char_of("A", a_lab)
                for b_lab in irr_universe("B", b_rank):
                    lhs = project(
                        "piL", bullet("B", char_of("B", b_lab), ind_A_to_B(a_chi))
                    )
                    rhs = bullet("A", project("piL", char_of("B", b_lab)), a_chi)
                    assert lhs == rhs
                    checked_b += 1
                if b_rank < 2:
                    continue
                for d_lab in irr_universe("D", b_rank):
                    from coxmodel.induction import ind_A_to_D

                    prod = bullet("D", char_of("D", d_lab), ind_A_to_D(a_chi))
                    lhs = project("piD", prod)
                    rhs = bullet("A", project("piD", char_of("D", d_lab)), a_chi)
                    assert lhs == rhs
                    checked_d += 1
    assert checked_b >= 200 and checked_d >= 100
    # index-level projections commute with the character-level ones
    for n in range(2, 6):
        for idx in enumerate_indices("B", n):
            for kind in ("piL", "piR"):
                img = project(kind, character_of_index(idx))
                pidx = project_index(kind, idx)
                if pidx is None:
                    assert not img.coeffs
                else:
                    assert character_of_index(pidx) == img
        for idx in enumerate_indices("D", n):
            img = project("piD", character_of_index(idx))
            pidx = project_index("piD", idx)
            if pidx is None:
                assert not img.coeffs
            else:
                assert character_of_index(pidx) == img
    assert time.monotonic() - start < 300


def test_criterion_7_repeated_constituents():
    # every symmetric-group triple product with nonempty factors repeats
    # some constituent
    checked = 0
    for lam, mu, nu in product(_nonempty_partitions(7), repeat=3):
        if sum(lam) + sum(mu) + sum(nu) > 9:
            continue
        f = bullet("A", bullet("A", char_of("A", lam), char_of("A", mu)), char_of("A", nu))
        assert any(c >= 2 for c in f.coeffs.values()), (lam, mu, nu)
        checked += 1
    assert checked >= 1000
    # type B two-step products
    checked_b = 0
    for b_rank in range(1, 6):
        for b_lab in irr_universe("B", b_rank):
            for mu, nu in product(_nonempty_partitions(7 - b_rank), repeat=2):
                if b_rank + sum(mu) + sum(nu) > 7:
                    continue
                g = bullet(
                    "B",
                    bullet("B", char_of("B", b_lab), ind_A_to_B(char_of("A", mu))),
                    ind_A_to_B(char_of("A", nu)),
                )
                assert any(c >= 2 for c in g.coeffs.values()), (b_lab, mu, nu)
                checked_b += 1
    assert checked_b >= 500
    # type D two-step products, computed through the type B lift: the B
    # coefficient at (lam, mu) with lam != mu equals the D coefficient at
    # the unordered pair, and at (lam, lam) it is the sum of the two
    # degenerate halves, so >= 4 forces a repeated degenerate constituent
    checked_d = 0
    for d_rank in range(2, 6):
        for d_lab in irr_universe("D", d_rank):
            for mu, nu in product(_nonempty_partitions(7 - d_rank), repeat=2):
                if d_rank + sum(mu) + sum(nu) > 7:
                    continue
                g = bullet(
                    "B",
                    bullet(
                        "B",
                        induce_D_to_B(char_of("D", d_lab)),
                        ind_A_to_B(char_of("A", mu)),
                    ),
                    ind_A_to_B(char_of("A", nu)),
                )
                ok = any(
                    c >= (4 if lam == m else 2)
                    for (lam, m), c in g.coeffs.items()
                )
                assert ok, (d_lab, mu, nu)
                checked_d += 1
    assert checked_d >= 300


def _parabolic_inductions(group, corank):
    """(J, sigma, is multiplicity-free) for Ind_{W_J}^W sigma, corank(J) >= `corank`.

    The triple (J, identity, identity automorphism, sigma) has all of W_J
    as its twisted centralizer, so it induces sigma from W_J; the
    induction is MF exactly when its norm equals its pairing with the
    square-root count.
    """
    k = len(group.gens)
    r2 = oc.sqrt_count(group)
    for mask in range(1 << k):
        J = tuple(i for i in range(k) if mask >> i & 1)
        if k - len(J) < corank:
            continue
        for sigma in oc.linear_characters(group.subgroup(J)):
            triple = {"J": J, "min": group.identity, "theta": tuple(range(len(J))), "sigma": sigma}
            chi = oc.triple_character(group, triple)
            norm, with_r2 = oc.pairs(group, oc.weigh(group, chi), (chi, r2))
            yield J, sigma, norm == with_r2


# the number of inductions checked per group
PARABOLIC_INDUCTIONS = {
    ("A", 4): 7, ("A", 5): 27, ("A", 6): 81,
    ("B", 3): 7, ("B", 4): 29, ("B", 5): 93,
    ("D", 4): 27, ("D", 5): 83, ("H3", 3): 7,
    ("I2", 5): 1, ("I2", 6): 1, ("I2", 7): 1, ("I2", 8): 1,
}


def test_corank_two_parabolic_inductions_are_never_multiplicity_free():
    # the paper's technical result: no linear character of a standard
    # parabolic of corank >= 2 induces multiplicity-freely
    for (ctype, n), count in PARABOLIC_INDUCTIONS.items():
        found = list(_parabolic_inductions(oc.get_group(ctype, n), corank=2))
        assert [(J, sigma) for J, sigma, mf in found if mf] == [], (ctype, n)
        assert len(found) == count, (ctype, n)
    # the check can fail: at corank 1 the trivial character of
    # S_{n-1} x S_1 induces trivial + standard, which is MF
    for n in range(4, 7):
        group = oc.get_group("A", n)
        J = tuple(range(n - 2))
        found = {(j, sigma): mf for j, sigma, mf in _parabolic_inductions(group, corank=1)}
        assert found[J, (1,) * len(J)] is True


# inventories frozen from the oracle after checking the published class
# tables entry by entry: (generator permutation, minimal element, size)
INVENTORIES = {
    ("A", 2): [((0,), (1, 2), 1), ((0,), (2, 1), 1)],
    ("A", 3): [((0, 1), (1, 2, 3), 1), ((1, 0), (3, 2, 1), 1)],
    ("A", 4): [
        ((0, 1, 2), (1, 2, 3, 4), 1),
        ((0, 1, 2), (2, 1, 4, 3), 3),
        ((2, 1, 0), (1, 2, 3, 4), 3),
        ((2, 1, 0), (4, 3, 2, 1), 1),
    ],
    ("A", 5): [
        ((0, 1, 2, 3), (1, 2, 3, 4, 5), 1),
        ((3, 2, 1, 0), (5, 4, 3, 2, 1), 1),
    ],
    ("A", 6): [
        ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5, 6), 1),
        ((0, 1, 2, 3, 4), (2, 1, 4, 3, 6, 5), 15),
        ((4, 3, 2, 1, 0), (1, 2, 3, 4, 5, 6), 15),
        ((4, 3, 2, 1, 0), (6, 5, 4, 3, 2, 1), 1),
    ],
    ("B", 2): [
        ((0, 1), (-1, -2), 1),
        ((0, 1), (-1, 2), 2),
        ((0, 1), (1, 2), 1),
        ((0, 1), (2, 1), 2),
    ],
    ("B", 3): [
        ((0, 1, 2), (-1, -2, -3), 1),
        ((0, 1, 2), (-1, -2, 3), 3),
        ((0, 1, 2), (-1, 2, 3), 3),
        ((0, 1, 2), (1, 2, 3), 1),
    ],
    ("B", 4): [
        ((0, 1, 2, 3), (-1, -2, -3, -4), 1),
        ((0, 1, 2, 3), (-1, -2, -3, 4), 4),
        ((0, 1, 2, 3), (-1, -2, 3, 4), 6),
        ((0, 1, 2, 3), (-1, 2, 3, 4), 4),
        ((0, 1, 2, 3), (1, 2, 3, 4), 1),
        ((0, 1, 2, 3), (2, 1, 4, 3), 12),
    ],
    ("B", 5): [
        ((0, 1, 2, 3, 4), (-1, -2, -3, -4, -5), 1),
        ((0, 1, 2, 3, 4), (-1, -2, -3, -4, 5), 5),
        ((0, 1, 2, 3, 4), (-1, -2, -3, 4, 5), 10),
        ((0, 1, 2, 3, 4), (-1, -2, 3, 4, 5), 10),
        ((0, 1, 2, 3, 4), (-1, 2, 3, 4, 5), 5),
        ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5), 1),
    ],
    ("D", 2): [
        ((0, 1), (-2, -1), 1),
        ((0, 1), (-1, -2), 1),
        ((0, 1), (1, 2), 1),
        ((0, 1), (2, 1), 1),
        ((1, 0), (1, 2), 2),
    ],
    ("D", 3): [
        ((0, 1, 2), (-1, -2, 3), 3),
        ((0, 1, 2), (1, 2, 3), 1),
        ((1, 0, 2), (1, -2, -3), 1),
        ((1, 0, 2), (1, 2, 3), 3),
    ],
    ("D", 4): [
        ((0, 1, 2, 3), (-2, -1, 4, 3), 6),
        ((0, 1, 2, 3), (-1, -2, -3, -4), 1),
        ((0, 1, 2, 3), (-1, -2, 3, 4), 6),
        ((0, 1, 2, 3), (1, 2, 3, 4), 1),
        ((0, 1, 2, 3), (2, 1, 4, 3), 6),
        ((0, 3, 2, 1), (1, 2, 3, 4), 4),
        ((0, 3, 2, 1), (4, 3, 2, 1), 4),
        ((1, 0, 2, 3), (1, -2, -3, 4), 4),
        ((1, 0, 2, 3), (1, 2, 3, 4), 4),
        ((3, 1, 2, 0), (-4, 3, 2, -1), 4),
        ((3, 1, 2, 0), (1, 2, 3, 4), 4),
    ],
    ("D", 5): [
        ((0, 1, 2, 3, 4), (-1, -2, -3, -4, 5), 5),
        ((0, 1, 2, 3, 4), (-1, -2, 3, 4, 5), 10),
        ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5), 1),
        ((1, 0, 2, 3, 4), (1, -2, -3, -4, -5), 1),
        ((1, 0, 2, 3, 4), (1, -2, -3, 4, 5), 10),
        ((1, 0, 2, 3, 4), (1, 2, 3, 4, 5), 5),
    ],
}


def test_criterion_8_oracle_consistency():
    for (ctype, n), want in INVENTORIES.items():
        group = oc.get_group(ctype, n)
        got = sorted(
            ((c["theta"], c["min"], len(c["elements"])) for c in oc.perfect_classes(group)),
            key=lambda t: (t[0], t[1]),
        )
        assert got == want, (ctype, n)
    # the degree sum equals the involution count in every oracle group
    groups = [oc.get_group(ctype, n) for (ctype, n) in INVENTORIES] + [
        oc.get_group("I2", 7),
        oc.get_group("I2", 8),
        oc.get_group("H3", 3),
    ]
    for group in groups:
        _, reps, _ = group.conjugacy_classes()
        counts = oc.sqrt_count(group)
        invol = sum(
            1 for w in group.elements if group.mult(w, w) == group.identity
        )
        assert counts[reps.index(group.identity)] == invol
    # the four rotation-class characters at rank 4 decompose as claimed,
    # confirmed inside the group
    from coxmodel.model_index import ModelIndex

    for pq in ((3, 1), (1, 3)):
        for d in ("cw", "ccw"):
            idx = ModelIndex(
                "D", [(4, ("tri", pq[0], pq[1], d), "triv"), (0, "id", "triv")]
            )
            assert oc.check_index_against_oracle(idx)
