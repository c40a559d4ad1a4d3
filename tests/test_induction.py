"""Induction products, type-changing inductions, and closed-form columns."""

import pytest

from coxmodel import induction
from coxmodel import oracle as oc
from coxmodel import partitions as pt
from coxmodel.char_ring import (
    VirtualCharacter,
    char_of,
    d_deg,
    d_set,
    degree,
    irr_universe,
    twist,
)
from coxmodel.induction import (
    bullet,
    column_char,
    ind_A_to_B,
    ind_A_to_D,
    induce_D_to_B,
    project,
    restrict_B_to_D,
)
from coxmodel.lr import lr_coefficient


def test_bullet_a_is_lr_expansion():
    f = bullet("A", char_of("A", (2, 1)), char_of("A", (1,)))
    assert f == (
        char_of("A", (3, 1)).add((2, 2)).add((2, 1, 1))
    )


def test_bullet_degrees_multiply_with_binomial():
    from math import comb

    for ctype in ("A", "B"):
        f = char_of(ctype, irr_universe(ctype, 2)[1])
        g = char_of(ctype, irr_universe(ctype, 3)[2])
        prod = bullet(ctype, f, g)
        scale = comb(5, 2)
        assert prod.degree() == scale * f.degree() * g.degree()


def test_bullet_commutes():
    f = char_of("B", ((1,), (1,)))
    g = char_of("B", ((2,), ()))
    assert bullet("B", f, g) == bullet("B", g, f)


def test_bullet_of_virtual_characters_cancels_termwise():
    # (2) - (1,1) times (1): the two (2,1) terms cancel and leave no key
    f = char_of("A", (2,)).add((1, 1), -1)
    prod = bullet("A", f, char_of("A", (1,)))
    assert list(prod.coeffs.items()) == [((3,), 1), ((1, 1, 1), -1)]
    for ctype, n, m in [("A", 3, 2), ("B", 2, 2), ("D", 4, 2)]:
        f = VirtualCharacter(ctype, n, zip(irr_universe(ctype, n)[:3], (2, -1, 1)))
        g = VirtualCharacter(ctype, m, zip(irr_universe(ctype, m)[:2], (1, -3)))
        want = VirtualCharacter(ctype, n + m)
        for lab1, c1 in f.coeffs.items():
            for lab2, c2 in g.coeffs.items():
                prod = bullet(ctype, char_of(ctype, lab1), char_of(ctype, lab2))
                for lab, d in prod.coeffs.items():
                    want = want.add(lab, c1 * c2 * d)
        assert bullet(ctype, f, g) == want


def test_ind_a_to_b_hook_expansion():
    # the six constituents of the rank-3 staircase, all multiplicity one
    got = ind_A_to_B(char_of("A", (2, 1)))
    want = VirtualCharacter("B", 3)
    for lab in [((2, 1), ()), ((2,), (1,)), ((1, 1), (1,)), ((1,), (2,)), ((1,), (1, 1)), ((), (2, 1))]:
        want = want.add(lab)
    assert got == want


def test_ind_a_to_d_staircase():
    got = ind_A_to_D(char_of("A", (2, 1)))
    want = VirtualCharacter("D", 3)
    want = want.add(d_set((2, 1), ())).add(d_set((2,), (1,))).add(d_set((1, 1), (1,)))
    assert got == want


def test_ind_a_to_d_extreme_cores_are_resolved():
    # trivial: the split follows the inducing side
    plus = ind_A_to_D(char_of("A", (4,)), side="plus")
    minus = ind_A_to_D(char_of("A", (4,)), side="minus")
    assert plus.coeffs[d_deg((2,), "+")] == 1
    assert minus.coeffs[d_deg((2,), "-")] == 1
    # sign character: flips when the half-rank is odd
    sp = ind_A_to_D(char_of("A", (1, 1)), side="plus")
    assert sp.coeffs[d_deg((1,), "-")] == 1


def test_ind_a_to_d_middle_core_tracks_mass():
    # c^{(3,1)}_{(2),(2)} = 1 and c^{(3,1)}_{(1,1),(1,1)} = 0, so only the
    # core (2) occurs.  The difference character restricted to S_4 pairs
    # with chi^(3,1) to -1, so the one copy is [(2),-] from S_4 and
    # [(2),+] from its diamond image.
    for side, sign in (("plus", "-"), ("minus", "+")):
        got = ind_A_to_D(char_of("A", (3, 1)), side=side)
        degenerate = {lab: c for lab, c in got.coeffs.items() if lab[0] == "deg"}
        assert degenerate == {d_deg((2,), sign): 1}


def _scan_A_to_B(nu):
    # reference: every bipartition of |nu| through lr_coefficient
    out = VirtualCharacter("B", sum(nu))
    for lam, mu in pt.bipartitions_of(sum(nu)):
        d = lr_coefficient(lam, mu, nu)
        if d:
            out = out.add((lam, mu), d)
    return out


def _scan_A_to_D(nu, side):
    # reference: every unordered bipartition of |nu|, met in
    # `bipartitions_of` order, through lr_coefficient; then the split
    # of each degenerate pair
    n = sum(nu)
    out = VirtualCharacter("D", n)
    seen = set()
    for lam, mu in pt.bipartitions_of(n):
        if lam == mu or pt.unordered_pair(lam, mu) in seen:
            continue
        seen.add(pt.unordered_pair(lam, mu))
        d = lr_coefficient(lam, mu, nu)
        if d:
            out = out.add(d_set(lam, mu), d)
    if n % 2 == 0:
        for core in pt.partitions_of(n // 2):
            c = lr_coefficient(core, core, nu)
            s = induction._restricted_difference(nu, core)
            if side == "minus":
                s = -s
            out = out.add(d_deg(core, "+"), (c + s) // 2)
            out = out.add(d_deg(core, "-"), (c - s) // 2)
    return out


def test_inductions_from_s_n_match_the_full_scan():
    # values and key order, so every output built on them keeps its bytes
    for n in range(1, 10):
        for nu in pt.partitions_of(n):
            chi = char_of("A", nu)
            got = ind_A_to_B(chi)
            assert list(got.coeffs.items()) == list(_scan_A_to_B(nu).coeffs.items()), nu
            for side in ("plus", "minus"):
                got = ind_A_to_D(chi, side)
                want = _scan_A_to_D(nu, side)
                assert list(got.coeffs.items()) == list(want.coeffs.items()), (nu, side)


def test_taylor_coefficient_matches_the_lr_coefficient_table(monkeypatch):
    labels = {n: irr_universe("D", n) for n in range(1, 7)}
    cases = [
        (lab1, lab2, out)
        for p in range(1, 6)
        for q in range(1, 7 - p)
        for lab1 in labels[p]
        for lab2 in labels[q]
        for out in labels[p + q]
    ]
    got = [induction.taylor_coefficient(*case) for case in cases]

    def by_coefficient(lam, mu):
        size = sum(lam) + sum(mu)
        return {nu: lr_coefficient(lam, mu, nu) for nu in pt.partitions_of(size)}

    monkeypatch.setattr(induction, "lr_expand", by_coefficient)
    assert got == [induction.taylor_coefficient(*case) for case in cases]
    assert sum(map(bool, got)) > 1000


@pytest.mark.parametrize(
    "lab1, lab2",
    [
        (d_set((1,), ()), d_set((1,), ())),
        (d_deg((1,), "+"), d_deg((1,), "-")),
        (d_set((2,), (1,)), d_deg((1,), "+")),
    ],
)
def test_type_b_lift_check_catches_a_wrong_taylor_coefficient(monkeypatch, lab1, lab2):
    right = induction.taylor_coefficient
    monkeypatch.setattr(
        induction, "taylor_coefficient", lambda *args: right(*args) + 1
    )
    induction._bullet_d_labels.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="type-B lift disagrees"):
            induction._bullet_d_labels(lab1, lab2)
    finally:
        induction._bullet_d_labels.cache_clear()


def test_restrict_b_to_d():
    got = restrict_B_to_D(char_of("B", ((2,), (1,))))
    assert got == char_of("D", d_set((2,), (1,)))
    split = restrict_B_to_D(char_of("B", ((2,), (2,))))
    assert split.coeffs[d_deg((2,), "+")] == 1
    assert split.coeffs[d_deg((2,), "-")] == 1


def test_induce_d_to_b():
    got = induce_D_to_B(char_of("D", d_set((2,), (1,))))
    assert got == char_of("B", ((2,), (1,))).add(((1,), (2,)))
    deg = induce_D_to_B(char_of("D", d_deg((2,), "+")))
    assert deg == char_of("B", ((2,), (2,)))


def test_b_lift_of_d_product():
    # induce to B, multiply there, restrict: the result is the D product
    # plus its diamond twist
    f = char_of("D", d_set((2,), ()))
    g = char_of("D", d_set((1,), ()))
    prod = bullet("D", f, g)
    assert prod == (
        char_of("D", d_set((3,), ()))
        .add(d_set((2, 1), ()))
        .add(d_set((2,), (1,)))
    )
    lifted = restrict_B_to_D(bullet("B", induce_D_to_B(f), induce_D_to_B(g)))
    doubled = VirtualCharacter("D", 3)
    for lab, c in prod.coeffs.items():
        doubled = doubled.add(lab, c)
    for lab, c in twist(prod, "diamond").coeffs.items():
        doubled = doubled.add(lab, c)
    assert lifted == doubled


def test_degenerate_product_resolved_by_case_table():
    fp = char_of("D", d_deg((1,), "+"))
    fm = char_of("D", d_deg((1,), "-"))
    pm = bullet("D", fp, fm)
    assert pm == (
        char_of("D", d_set((2,), (1, 1)))
        .add(d_deg((2,), "-"))
        .add(d_deg((1, 1), "-"))
    )
    # the diamond twist acts on the left factor, so twisting the product
    # matches swapping one sign
    pp = bullet("D", fp, fp)
    assert twist(pp, "diamond") == pm
    assert bullet("D", fm, fm) == pp
    # independent check through type B: restriction of the lifted product
    # is the D product plus its diamond twist
    lifted = restrict_B_to_D(bullet("B", induce_D_to_B(fp), induce_D_to_B(fm)))
    doubled = VirtualCharacter("D", 4)
    for src in (pm, twist(pm, "diamond")):
        for lab, c in src.coeffs.items():
            doubled = doubled.add(lab, c)
    assert lifted == doubled


def test_projections():
    f = char_of("B", ((2, 1), ())).add(((2,), (1,))).add(((), (2, 1)))
    assert project("piL", f) == char_of("A", (2, 1))
    assert project("piR", f) == char_of("A", (2, 1))
    g = char_of("D", d_set((4,), ())).add(d_set((3,), (1,))).add(d_deg((2,), "+"))
    assert project("piD", g) == char_of("A", (4,))


def test_column_char_a():
    assert column_char("A", (3, "id", "triv")) == char_of("A", (3,))
    assert column_char("A", (3, "id", "sgn")) == char_of("A", (1, 1, 1))
    fpf = column_char("A", (4, "fpf", "triv"))
    assert fpf == char_of("A", (4,)).add((2, 2))
    cols = column_char("A", (4, "fpf", "sgn"))
    assert set(cols.coeffs) == {pt.transpose(p) for p in fpf.coeffs}


def test_column_char_b_identity_class():
    assert column_char("B", (3, "id", "triv")) == char_of("B", ((3,), ()))
    assert column_char("B", (3, "id", "sgn")) == char_of("B", ((), (1, 1, 1)))
    assert column_char("B", (3, "id", "pm")) == char_of("B", ((1, 1, 1), ()))
    assert column_char("B", (3, "id", "mp")) == char_of("B", ((), (3,)))


def test_column_char_b_fpf_takes_only_triv_and_sgn():
    # the mixed characters would restrict to triv and sgn on the centralizer,
    # so the table has no fpf column for them, as validate has no such index
    for gamma in ("mp", "pm"):
        with pytest.raises(ValueError, match="no type B column"):
            column_char("B", (4, "fpf", gamma))
    f = column_char("B", (4, "fpf", "triv"))
    assert set(f.coeffs) == {((lam), (mu)) for lam, mu in pt.erows_b(4)}


def test_column_char_b_split_class_shapes():
    # one-row staircase shapes: lambda has max+r, min-r rows pattern
    f = column_char("B", (3, ("pq", 2, 1), "triv"))
    assert all(mu == () for _, mu in f.coeffs)
    g = column_char("B", (3, ("pq", 2, 1), "mp"))
    assert all(lam == () for lam, _ in g.coeffs)
    assert {mu for _, mu in g.coeffs} == {lam for lam, _ in f.coeffs}
    h = column_char("B", (3, ("pq", 2, 1), "sgn"))
    assert {mu for _, mu in h.coeffs} == {pt.transpose(lam) for lam, _ in f.coeffs}


def test_column_char_d_triality():
    f = column_char("D", (4, ("tri", 3, 1, "cw"), "triv"))
    assert f.coeffs == {d_set((4,), ()): 1, d_deg((2,), "+"): 1}
    g = column_char("D", (4, ("tri", 3, 1, "ccw"), "triv"))
    assert g.coeffs == {d_set((4,), ()): 1, d_deg((2,), "-"): 1}


def test_column_char_d_fpf_pair():
    f = column_char("D", (4, "fpf", "triv"))
    g = column_char("D", (4, "fpfdiamond", "triv"))
    # diamond twins: same nondegenerate part, opposite signs
    assert {k: v for k, v in f.coeffs.items() if k[0] == "set"} == {
        k: v for k, v in g.coeffs.items() if k[0] == "set"
    }
    fd = {k[1:] for k in f.coeffs if k[0] == "deg"}
    gd = {k[1:] for k in g.coeffs if k[0] == "deg"}
    assert {c for c, _ in fd} == {c for c, _ in gd}
    assert fd != gd


def test_column_char_d_rank_two_fpf_mixed_characters():
    # D2 is abelian: an fpf column of size 2 induces nothing, so its
    # mixed characters are gamma's own linear characters of D2
    group = oc.build_group("D", 2)
    _, reps, _ = group.conjugacy_classes()
    for gamma, signs in (("pm", (1, -1)), ("mp", (-1, 1))):
        values = group.linear_values(signs)
        linear = oc.decompose(group, "D", 2, [values[group.index[w]] for w in reps])
        for beta in ("fpf", "fpfdiamond"):
            f = column_char("D", (2, beta, gamma))
            assert f == column_char("D", (2, "id", gamma))
            assert f == linear
