"""Character tables against hardcoded known tables and classical identities."""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest

from fscat.chartab import (
    Character,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    is_ambivalent,
    nu_classical,
)
from fscat.cosets import stabilizer
from fscat.cyclo import ZERO, Cyclotomic
from fscat.indicators import index_two_overgroup
from fscat.perm import (Permutation, PermGroup, _inv, _mul, alt, cyclic, sym,
                        tilde_sym, trivial)

P = Permutation.from_text
q = Cyclotomic.from_rational
z = Cyclotomic.zeta


def _labels(table):
    """(class size, element order) labels in table column order."""
    cd = table.classes
    return [(cd.sizes[j], cd.rep_order(j)) for j in range(len(cd))]


def _rows_by_label(table):
    labels = _labels(table)
    assert len(set(labels)) == len(labels), "labels must identify classes"
    return {tuple(sorted(zip(labels, chi.values))): chi for chi in table.characters}


def _expected_row(spec: dict) -> tuple:
    return tuple(sorted((lab, v) for lab, v in spec.items()))


def test_s3_table_matches_known_values():
    tab = character_table(sym(3))
    rows = _rows_by_label(tab)
    e, three, two = (1, 1), (2, 3), (3, 2)
    expected = [
        {e: q(1), three: q(1), two: q(1)},
        {e: q(1), three: q(1), two: q(-1)},
        {e: q(2), three: q(-1), two: q(0)},
    ]
    assert set(rows) == {_expected_row(s) for s in expected}


def test_s4_table_matches_known_values():
    tab = character_table(sym(4))
    rows = _rows_by_label(tab)
    e, dbl, swap, four, three = (1, 1), (3, 2), (6, 2), (6, 4), (8, 3)
    expected = [
        {e: q(1), dbl: q(1), swap: q(1), four: q(1), three: q(1)},
        {e: q(1), dbl: q(1), swap: q(-1), four: q(-1), three: q(1)},
        {e: q(2), dbl: q(2), swap: q(0), four: q(0), three: q(-1)},
        {e: q(3), dbl: q(-1), swap: q(1), four: q(-1), three: q(0)},
        {e: q(3), dbl: q(-1), swap: q(-1), four: q(1), three: q(0)},
    ]
    assert set(rows) == {_expected_row(s) for s in expected}
    assert [chi.degree for chi in tab.characters] == [1, 1, 2, 3, 3]


def test_a4_table_shape():
    tab = character_table(alt(4))
    degrees = [chi.degree for chi in tab.characters]
    assert degrees == [1, 1, 1, 3]
    linear = [chi for chi in tab.characters if chi.degree == 1]
    triv = [chi for chi in linear if all(v == 1 for v in chi.values)]
    assert len(triv) == 1
    omega_rows = [chi for chi in linear if chi not in triv]
    assert omega_rows[0].conj() == omega_rows[1]
    flat = [v for chi in omega_rows for v in chi.values]
    assert z(3) in flat and z(3, 2) in flat
    cube = character_table(alt(4)).characters[3]
    assert cube.values[0] == 3 and sum(1 for v in cube.values if v == 0) == 2


def test_cyclic_tables_are_root_of_unity_rows():
    for n in (2, 3, 4, 6, 12):
        grp = cyclic(n)
        tab = character_table(grp)
        cd = tab.classes
        gen = grp.generators[0]
        # column t corresponds to some power of the generator
        exps = []
        for rep in cd.reps:
            t = next(i for i in range(n) if gen ** i == rep)
            exps.append(t)
        expected = {tuple(z(n, k * t) for t in exps) for k in range(n)}
        assert {chi.values for chi in tab.characters} == expected


def test_klein_four_group():
    grp = PermGroup(4, [Permutation.from_text("(1,2)(3,4)"),
                       Permutation.from_text("(1,3)(2,4)")])
    tab = character_table(grp)
    assert [chi.degree for chi in tab.characters] == [1, 1, 1, 1]
    for chi in tab.characters:
        assert all(v == 1 or v == -1 for v in chi.values)
        assert nu_classical(chi) == 1


def test_quaternion_regular_representation_has_negative_indicator():
    a = Permutation.from_text("(1,3,2,4)(5,7,6,8)")
    b = Permutation.from_text("(1,5,2,6)(3,8,4,7)")
    q8 = PermGroup(8, [a, b])
    assert q8.order() == 8
    tab = character_table(q8)
    indicators = sorted(str(nu_classical(chi)) for chi in tab.characters)
    assert indicators == ["-1", "1", "1", "1", "1"]
    two_dim = [chi for chi in tab.characters if chi.degree == 2]
    assert len(two_dim) == 1 and nu_classical(two_dim[0]) == -1


def test_symmetric_group_characters_are_rational():
    tab = character_table(sym(5))
    for chi in tab.characters:
        assert all(v.is_rational() for v in chi.values)
        assert chi.conj() == chi
        assert nu_classical(chi) == 1


def test_second_orthogonality_columns():
    tab = character_table(sym(5))
    cd = tab.classes
    n = cd.group.order()
    for j in range(len(cd)):
        s = sum(chi.values[j] * chi.values[j].conj() for chi in tab.characters)
        assert s == Fraction(n, cd.sizes[j])


def test_ambivalence():
    expect = {1: True, 2: True, 3: False, 4: False, 5: True, 6: True,
              7: False, 8: False}
    for n, want in expect.items():
        assert is_ambivalent(alt(n)) == want, n
    for n in range(1, 7):
        assert is_ambivalent(sym(n))
    assert not is_ambivalent(cyclic(5))


def test_frobenius_reciprocity_at_index_two():
    for small, big in [(alt(3), sym(3)), (alt(4), sym(4))]:
        small_tab = character_table(small)
        big_tab = character_table(big)
        for chi in small_tab.characters:
            ind = induce(chi, big)
            for psi in big_tab.characters:
                left = inner_product(ind, psi)
                right = inner_product(chi, psi.restrict(small))
                assert left == right


def test_induction_from_a3_gives_two_dimensional_character():
    a3 = alt(3)
    s3 = sym(3)
    omega_chi = next(chi for chi in character_table(a3).characters
                     if not all(v.is_rational() for v in chi.values))
    ind = induce(omega_chi, s3)
    std = next(chi for chi in character_table(s3).characters if chi.degree == 2)
    assert ind == std


def induced_by_definition(sub, big):
    """Ind chi(y) = (1/|S|) sum over x in big with x^-1 y x in S of
    chi(x^-1 y x), for every character chi of S, as a class census of the
    conjugates x^-1 y x per class representative y of big."""
    cd = conjugacy_classes(sub)
    pairs = [(x, _inv(x)) for x in big.element_tuples()]
    censuses = []
    for y in conjugacy_classes(big).reps:
        counts = [0] * len(cd)
        for x, x_inv in pairs:
            j = cd.index_of(_mul(_mul(x_inv, y._img), x))
            if j is not None:
                counts[j] += 1
        censuses.append(counts)
    out = []
    for chi in character_table(sub).characters:
        vals = []
        for counts in censuses:
            total = ZERO
            for c, v in zip(counts, chi.values):
                if c:
                    total = total + v.scaled(c)
            vals.append(total.scaled(Fraction(1, sub.order())))
        out.append(Character(conjugacy_classes(big), vals))
    return out


def stabilizer_overgroup():
    # S(g) of order 12 for g = (1,3)(2,4) over tilde S7; S + gS is
    # generated by the generators of S, then g
    g = P("(1,3)(2,4)", 7)
    stab = stabilizer(g, tilde_sym(7))
    return stab, index_two_overgroup(g, stab)


@pytest.mark.parametrize("case", ["A4", "A5", "A6", "overgroup"])
def test_induce_matches_the_defining_sum(case):
    if case == "overgroup":
        sub, big = stabilizer_overgroup()
        assert sub.member(big.generators[0])
    else:
        n = int(case[1:])
        sub, big = alt(n), sym(n)
    want = induced_by_definition(sub, big)
    got = [induce(chi, big) for chi in character_table(sub).characters]
    assert got == want


def test_induce_rejects_larger_index():
    chi = character_table(alt(3)).characters[0]
    with pytest.raises(ValueError):
        induce(chi, sym(4))


def test_conjugated_by_permutes_omega_characters():
    tab = character_table(alt(4))
    omega_rows = [chi for chi in tab.characters
                  if chi.degree == 1 and not all(v.is_rational() for v in chi.values)]
    u = Permutation.from_text("(1,2)", degree=4)
    assert omega_rows[0].conjugated_by(u) == omega_rows[1]
    triv = tab.characters[0]
    assert triv.conjugated_by(u) == triv


def test_conjugated_by_requires_normalizing_element():
    from fscat.perm import sym_embed
    grp = sym_embed(3, 5)
    chi = character_table(grp).characters[0]
    with pytest.raises(ValueError):
        chi.conjugated_by(Permutation.from_text("(3,4)", degree=5))


def test_restriction_of_standard_character():
    s4 = sym(4)
    a4 = alt(4)
    std = next(chi for chi in character_table(s4).characters if chi.degree == 3)
    res = std.restrict(a4)
    assert inner_product(res, res) == 1
    assert res in character_table(a4).characters


def test_indicator_of_cyclic_characters_detects_order():
    n = 6
    tab = character_table(cyclic(n))
    gen = tab.classes.group.generators[0]
    for chi in tab.characters:
        k = next(t for t in range(n) if chi.value(gen) == z(n, t))
        for m in range(1, 2 * n + 1):
            want = 1 if (k * m) % n == 0 else 0
            assert nu_classical(chi, m) == want


CLASS_MAP_GROUPS = {
    "S4": lambda: sym(4),
    "A5": lambda: alt(5),
    "C8": lambda: cyclic(8),
    "S(g) over tilde S7": lambda: stabilizer(P("(1,3)(2,4)", 7), tilde_sym(7)),
}


@pytest.mark.parametrize("name", list(CLASS_MAP_GROUPS))
def test_class_map_members_index_and_census(name):
    group = CLASS_MAP_GROUPS[name]()
    cd = conjugacy_classes(group)
    elems = group.element_tuples()
    assert cd.census(elems) == list(cd.sizes)
    assert [len(m) for m in cd.members] == list(cd.sizes)
    assert [min(m) for m in cd.members] == [rep._img for rep in cd.reps]
    for j, m in enumerate(cd.members):
        assert all(cd.index_of(x) == j for x in m)
    for x in elems:
        assert cd.index_of(x) == cd.class_of(Permutation._from_raw(x))
    inside = group.element_set()
    outside = next((x for x in permutations(range(group.degree))
                    if x not in inside), tuple(range(group.degree + 1)))
    assert cd.index_of(outside) is None
    with pytest.raises(ValueError):
        cd.class_of(Permutation._from_raw(outside))
    with pytest.raises(KeyError):
        cd.census([outside])


def test_power_and_inverse_class_maps():
    cd = conjugacy_classes(sym(4))
    four = next(j for j in range(len(cd)) if cd.rep_order(j) == 4)
    dbl = next(j for j in range(len(cd))
               if cd.rep_order(j) == 2 and cd.sizes[j] == 3)
    assert cd.power_class(four, 2) == dbl
    assert all(cd.inverse_class(j) == j for j in range(len(cd)))


CLASS_ALGEBRA_GROUPS = {
    "trivial(3)": lambda: trivial(3),
    "C2": lambda: cyclic(2),
    "C2^3": lambda: PermGroup(6, [P("(1,2)", 6), P("(3,4)", 6), P("(5,6)", 6)]),
    "C3^2": lambda: PermGroup(6, [P("(1,2,3)", 6), P("(4,5,6)", 6)]),
    "C8": lambda: cyclic(8),
    "A6": lambda: alt(6),
    "C2xS6": lambda: PermGroup(10, [P("(1,2)(3,4)", 10), P("(5,6)", 10),
                                    P("(5,6,7,8,9,10)", 10)]),
}


@pytest.mark.parametrize("name", list(CLASS_ALGEBRA_GROUPS))
def test_rows_are_central_characters_of_the_full_class_algebra(name):
    # a[i][j][k] = #{(x, y) in C_i x C_j : x y = z_k}, by brute force over G;
    # every row must give w_i w_j = sum_k a[i][j][k] w_k exactly, where
    # w_i = |C_i| chi(g_i) / chi(1) is the central character of chi
    group = CLASS_ALGEBRA_GROUPS[name]()
    table = character_table(group)
    cd = table.classes
    r = len(cd)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x in group.element_tuples():
        rows, ix = a[cd.index_of(x)], _inv(x)
        for k, rep in enumerate(cd.reps):
            rows[cd.index_of(_mul(ix, rep._img))][k] += 1
    assert all(sum(a[i][j][k] for i in range(r) for j in range(r)) == group.order()
               for k in range(r))
    assert len(table) == r
    for chi in table.characters:
        w = [v.scaled(Fraction(h, chi.degree))
             for h, v in zip(cd.sizes, chi.values)]
        for i in range(r):
            for j in range(i, r):
                total = ZERO
                for k in range(r):
                    if a[i][j][k]:
                        total = total + w[k].scaled(a[i][j][k])
                assert w[i] * w[j] == total, (name, i, j)


def test_dump_format():
    text = character_table(alt(4)).dump()
    assert "group of order 12 with 4 classes" in text
    assert "chi0:" in text and "E(3)" in text
