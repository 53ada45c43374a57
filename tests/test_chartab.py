"""Character tables against hardcoded known tables and classical identities."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fscat import chartab, config
from fscat.chartab import (
    Character,
    ClassData,
    YoungClasses,
    _column_count,
    _dixon,
    _sqrt_terms,
    _verify_table,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    nu_classical,
)
from fscat.cosets import stabilizer
from fscat.cyclo import ZERO, Cyclotomic
from fscat.indicators import category_scan, index_two_overgroup
from fscat.perm import (BoundExceeded, Permutation, PermGroup, _inv, _mul, alt,
                        cyclic, sym, tilde_sym, trivial)

P = Permutation.from_text
q = Cyclotomic.from_rational
z = Cyclotomic.zeta


def _labels(table):
    """(class size, element order) labels in table column order."""
    cd = table.classes
    return list(zip(cd.sizes, cd.orders))


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
    first, second = (chi.values for chi in omega_rows)
    assert tuple(v.conj() for v in first) == second
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
        assert all(v.n == 1 for v in chi.values)
        assert all(v.conj() == v for v in chi.values)
        assert nu_classical(chi) == 1


def test_second_orthogonality_columns():
    tab = character_table(sym(5))
    cd = tab.classes
    n = cd.group.order()
    for j in range(len(cd)):
        s = sum(chi.values[j] * chi.values[j].conj() for chi in tab.characters)
        assert s == Fraction(n, cd.sizes[j])


def test_ambivalence():
    def ambivalent(group):
        cd = conjugacy_classes(group)
        return all(cd.power_class(j, -1) == j for j in range(len(cd)))

    expect = {1: True, 2: True, 3: False, 4: False, 5: True, 6: True,
              7: False, 8: False}
    for n, want in expect.items():
        assert ambivalent(alt(n)) == want, n
    for n in range(1, 7):
        assert ambivalent(sym(n))
    assert not ambivalent(cyclic(5))


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
                     if not all(v.n == 1 for v in chi.values))
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
                  if chi.degree == 1 and not all(v.n == 1 for v in chi.values)]
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
    # the class object a group keeps (read off partitions for S4, A5 and the
    # stabilizer, by the BFS for C8) and the BFS's own ClassData agree on
    # every element, and the BFS members list each class
    group = CLASS_MAP_GROUPS[name]()
    bfs = ClassData(group)
    routed = conjugacy_classes(group)
    assert isinstance(routed, ClassData) == (name == "C8")
    elems = group.element_tuples()
    assert [len(m) for m in bfs.members] == list(bfs.sizes)
    assert [min(m) for m in bfs.members] == [rep._img for rep in bfs.reps]
    for j, m in enumerate(bfs.members):
        assert all(bfs.index_of(x) == j for x in m)
    inside = group.element_set()
    outside = next((x for x in permutations(range(group.degree))
                    if x not in inside), tuple(range(group.degree + 1)))
    for cd in (bfs, routed):
        assert cd.reps == bfs.reps and cd.sizes == bfs.sizes
        assert cd.census(elems) == list(cd.sizes)
        chi = Character(cd, range(len(cd)))
        for x in elems:
            assert chi.value(Permutation._from_raw(x)) == cd.index_of(x) \
                == bfs.index_of(x)
        assert cd.index_of(outside) is None
        with pytest.raises(ValueError, match="is not in the group"):
            chi.value(Permutation._from_raw(outside))
        with pytest.raises(KeyError):
            cd.census([outside])


def test_power_and_inverse_class_maps():
    cd = conjugacy_classes(sym(4))
    assert cd.orders == tuple(rep.order for rep in cd.reps)
    four = cd.orders.index(4)
    dbl = next(j for j in range(len(cd))
               if cd.orders[j] == 2 and cd.sizes[j] == 3)
    assert cd.power_class(four, 2) == dbl
    assert all(cd.power_class(j, -1) == j for j in range(len(cd)))


def test_class_data_public_names():
    # the names every source of class data provides; each class fact has one.
    # Only the BFS lists members, which only Dixon's method reads
    shared = {"group", "reps", "sizes", "orders", "index_of", "census",
              "square_census", "power_class"}
    for cd, extra in ((ClassData(sym(4)), {"members"}),
                      (conjugacy_classes(sym(4)), set())):
        public = {name for name in dir(cd) if not name.startswith("_")}
        assert public == shared | extra


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
    assert len(table.characters) == r
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


# -- the structural route: Young and signed-Young groups --------------------


def _same_classes(cd, bfs):
    """The class object read off partitions against the class BFS of the
    same elements: columns, every element's class and every power map."""
    assert cd.reps == bfs.reps
    assert cd.sizes == bfs.sizes
    assert cd.orders == bfs.orders
    for x in bfs.group.element_tuples():
        assert cd.index_of(x) == bfs.index_of(x)
    for j in range(len(bfs)):
        for t in range(-1, bfs.orders[j] + 1):
            assert cd.power_class(j, t) == bfs.power_class(j, t)


@pytest.mark.parametrize("family, n", [("S", n) for n in range(1, 9)]
                         + [("A", n) for n in range(3, 9)])
def test_partition_tables_of_symmetric_and_alternating_groups(family, n):
    # Murnaghan-Nakayama rows of S_n and the split rows of A_n, against
    # Dixon's method on a fresh group object of the same elements
    make = sym if family == "S" else alt
    group, fresh = make(n), make(n)
    assert isinstance(conjugacy_classes(group), YoungClasses)
    bfs = ClassData(fresh)
    _same_classes(conjugacy_classes(group), bfs)
    rows = [chi.values for chi in character_table(group).characters]
    assert rows == [chi.values for chi in _dixon(bfs).characters]


def young_case(orbits, signed, n):
    """(generators, degree, order) of the Young subgroup of the orbits (lists
    of 0-based points), or of the kernel of the product of the signs on the
    orbits at the positions signed: 3-cycles for the alternating groups, a
    transposition on each unsigned orbit, and products of two on signed
    ones."""
    def perm(*cycles):
        return Permutation.from_cycles([[p + 1 for p in c] for c in cycles], n)

    gens = []
    for j, o in enumerate(orbits):
        gens += [perm((o[0], o[1], o[k])) for k in range(2, len(o))]
        if len(o) > 1 and j not in signed:
            gens.append(perm(o[:2]))
    gens += [perm(orbits[signed[0]][:2], orbits[j][:2]) for j in signed[1:]]
    young = math.prod(math.factorial(len(o)) for o in orbits)
    return gens, n, young // 2 if signed else young


@st.composite
def young_groups(draw):
    """A Young or signed-Young group on at most 8 points, by young_case."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    while sum(sizes) > 8:
        sizes.pop()
    n = sum(sizes) or 1
    points = draw(st.permutations(range(n)))
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    orbits = [sorted(points[a:b]) for a, b in zip(cuts, cuts[1:])]
    big = [j for j, o in enumerate(orbits) if len(o) > 1]
    signed = []
    if big and draw(st.booleans()):
        signed = sorted(draw(st.sets(st.sampled_from(big), min_size=1)))
    return young_case(orbits, signed, n)


@settings(max_examples=60, deadline=None)
@given(young_groups())
@example(young_case([[0, 1, 2], [3, 4, 5]], [0, 1], 6))
@example(young_case([[0, 2, 4, 6, 7], [1, 3, 5]], [0, 1], 8))
@example(young_case([[5, 6, 7], [0, 1, 3, 4], [2]], [0, 1], 8))
@example(young_case([[0, 1, 2], [3, 4, 5], [6, 7]], [0, 1, 2], 8))
@example(young_case([[0, 3, 4], [1, 2], [5, 6, 7]], [0, 2], 8))
def test_young_and_signed_young_groups_match_the_bfs_and_dixon(case):
    # a lone signed orbit of two points makes the group Young on the rest
    gens, n, order = case
    group, fresh = PermGroup(n, gens), PermGroup(n, gens)
    assert group.order() == order
    cd = conjugacy_classes(group)
    assert isinstance(cd, YoungClasses)
    assert len(cd) == _column_count(*group.young_shape())
    bfs = ClassData(fresh)
    _same_classes(cd, bfs)
    table, oracle = character_table(group), _dixon(bfs)
    assert len(table.characters) == len(oracle.characters)
    for chi, psi in zip(table.characters, oracle.characters):
        assert chi.values == psi.values


def test_routes_of_the_stabilizers():
    # every distinct stabilizer of C(S11, tilde S8) has index 2 in its
    # Young subgroup; C(S8, C8)'s nontrivial ones and an index-two
    # overgroup of S(g) fit neither shape and go to the class BFS
    from fscat.indicators import _stabilizer_classes
    from fscat.cosets import double_cosets
    from fscat.perm import sym_embed

    deep = _stabilizer_classes(double_cosets(sym(11), tilde_sym(10, degree=11)))
    assert len(deep) == 15
    for stab, _ in deep:
        cd = conjugacy_classes(stab)
        assert isinstance(cd, YoungClasses) and cd._signed
    c8 = _stabilizer_classes(double_cosets(sym(8), cyclic(8)))
    assert sorted(stab.order() for stab, _ in c8) == [1, 2, 4, 8]
    for stab, _ in c8:
        assert isinstance(conjugacy_classes(stab), ClassData) == (stab.order() > 1)
    sub, hat = stabilizer_overgroup()
    assert isinstance(conjugacy_classes(sub), YoungClasses)
    assert isinstance(conjugacy_classes(hat), ClassData)
    assert isinstance(conjugacy_classes(sym_embed(5, 7)), YoungClasses)


def test_both_routes_refuse_the_same_bound(monkeypatch):
    # the class BFS lists the group, the partition route its columns, and
    # a table of r classes lists r^2 entries on either route
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 100)
    with pytest.raises(BoundExceeded) as exc:
        ClassData(sym(5))
    assert (exc.value.bound_name, exc.value.limit, exc.value.needed) == (
        "enumeration bound", 100, 120)
    assert isinstance(conjugacy_classes(sym(5)), YoungClasses)
    # 11 classes each: S_6 on the partition route, C_11 by extension
    for group in (sym(6), cyclic(11)):
        with pytest.raises(BoundExceeded) as exc:
            character_table(group)
        assert (exc.value.bound_name, exc.value.limit, exc.value.needed) == (
            "enumeration bound", 100, 121)
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 121)
    for group in (sym(6), cyclic(11)):
        assert len(character_table(group).characters) == 11


def test_partition_route_counts_its_columns_before_listing_any(monkeypatch):
    def no_listing(*args):
        raise AssertionError("partitions listed")

    monkeypatch.setattr(chartab, "_partitions", no_listing)
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 1000)
    # S_25 has p(25) = 1958 classes, A_27 (p(27) + 3 d(27))/2 = (3010 +
    # 3 * 14)/2, with d(27) the partitions of 27 into distinct odd parts
    for group, needed in ((sym(25), 1958), (alt(27), 1526)):
        with pytest.raises(BoundExceeded) as exc:
            conjugacy_classes(group)
        assert (exc.value.bound_name, exc.value.limit, exc.value.needed) == (
            "enumeration bound", 1000, needed)
    # the first stabilizer whose table the scan of C(S16, tilde S14) builds
    # has orbits of 2, 2 and 12 points, all signed, and 154 columns
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 100)
    with pytest.raises(BoundExceeded) as exc:
        category_scan(sym(16), tilde_sym(16), 2)
    assert (exc.value.limit, exc.value.needed) == (100, 154)


@pytest.mark.parametrize("q", [1, 5, -3, -7, 9, 21, -15, 45, 105, -11 * 9])
def test_square_roots_from_gauss_sums(q):
    d, terms = _sqrt_terms(q)
    root = Cyclotomic.from_exponents(d, terms)
    assert root * root == q


@pytest.mark.parametrize("irrational", [False, True])
def test_verify_table_rejects_one_altered_value(irrational):
    # A5 has rational rows and two rows with (1 +- sqrt 5)/2 values; one
    # changed value in either kind breaks orthonormality
    chars = list(character_table(alt(5)).characters)
    _verify_table(60, chars)
    i = next(i for i, chi in enumerate(chars)
             if irrational != all(v.as_rational_integer() is not None
                                  for v in chi.values))
    vals = list(chars[i].values)
    vals[-1] = vals[-1] + 1
    chars[i] = Character(chars[i].classes, vals)
    with pytest.raises(RuntimeError, match="orthonormal"):
        _verify_table(60, chars)


# -- square censuses of a coset wS ------------------------------------------


def _coset_case(orbits, signed, n, w_text):
    """young_case's group with a raw w given as cycles (1-based)."""
    return young_case(orbits, signed, n) + (P(w_text, n)._img,)


@st.composite
def young_cosets(draw):
    """(generators, degree, order, w) for a Young or signed-Young group on at
    most 8 points and a w that normalizes it with w^2 in it.

    w pairs some orbits of equal size, both signed or both not (fixed
    points included), maps each pair's orbits onto each other by two random
    bijections and every other orbit onto itself by a random permutation.
    Then w^2 lies in the Young group, with an even sign on the signed orbits
    together, and w normalizes the kernel because it keeps them together.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    while sum(sizes) > 8:
        sizes.pop()
    n = sum(sizes)
    points = draw(st.permutations(range(n)))
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    orbits = [sorted(points[a:b]) for a, b in zip(cuts, cuts[1:])]
    big = [j for j, o in enumerate(orbits) if len(o) > 1]
    signed = []
    if big and draw(st.booleans()):
        signed = sorted(draw(st.sets(st.sampled_from(big), min_size=1)))
    # a lone signed orbit of two points is fixed pointwise by the group
    fixed = (set(signed) if len(signed) == 1 and len(orbits[signed[0]]) == 2
             else set())
    images = list(range(n))
    free = list(range(len(orbits)))
    while free:
        j = free.pop(0)
        mates = [k for k in free if len(orbits[k]) == len(orbits[j])
                 and (k in signed) == (j in signed) and j not in fixed]
        k = draw(st.sampled_from([j] + mates))
        if k == j:
            for p, q in zip(orbits[j], draw(st.permutations(orbits[j]))):
                images[p] = q
            continue
        free.remove(k)
        for a, b in ((j, k), (k, j)):
            for p, q in zip(orbits[a], draw(st.permutations(orbits[b]))):
                images[p] = q
    return young_case(orbits, signed, n) + (tuple(images),)


@settings(max_examples=80, deadline=None)
@given(young_cosets())
# a swapped pair of signed orbits, with split classes (3)(3)
@example(_coset_case([[0, 1, 2], [3, 4, 5]], [0, 1], 6, "(1,4)(2,5)(3,6)"))
# a swapped pair outside I = {Sym{5,6,7}}, whose 3-cycles split
@example(_coset_case([[0, 1], [2, 3], [4, 5, 6]], [2], 7, "(1,3)(2,4)(5,6)"))
# a swapped pair in I with w^2 odd on each of its orbits
@example(_coset_case([[0, 1], [2, 3], [4, 5, 6, 7]], [0, 1, 2], 8,
                     "(1,3,2,4)(5,6)"))
# a swapped pair in I, and two swapped fixed points
@example(_coset_case([[0, 1, 2], [3, 4, 5], [6], [7]], [0, 1], 8,
                     "(1,4,2,5)(3,6)(7,8)"))
# two swapped pairs, one in I and one not
@example(_coset_case([[0, 1], [2, 3], [4, 5], [6, 7]], [0, 1], 8,
                     "(1,3)(2,4)(5,7,6,8)"))
def test_square_census_from_cycle_types_matches_the_listed_coset(case):
    # the census read off cycle types against the class BFS, which lists
    # (w s)^2 for every s in a fresh group object of the same elements
    gens, n, order, w = case
    group = PermGroup(n, gens)
    assert group.order() == order
    cd = conjugacy_classes(group)
    assert isinstance(cd, YoungClasses)
    bfs = ClassData(PermGroup(n, gens))
    assert cd.reps == bfs.reps
    counts = cd.square_census(w)
    assert counts == bfs.square_census(w)
    assert sum(counts) == order


def test_square_census_rejects_a_w_outside_the_normalizer():
    # each failed precondition is a ValueError, on both class objects
    cases = [
        # an orbit onto a set that is not an orbit, or onto fixed points
        (young_case([[0, 1, 2], [3, 4]], [], 6), "(3,4)", "onto an orbit"),
        (young_case([[0, 1, 2]], [], 6), "(1,4)(2,5)(3,6)", "onto an orbit"),
        # Alt{1,2,3} x Sym{4,5,6}: the signed orbit onto an unsigned one
        (young_case([[0, 1, 2], [3, 4, 5]], [0], 6), "(1,4)(2,5)(3,6)",
         "signed orbits"),
        # orbits in a 3-cycle, and a 3-cycle of fixed points: w^2 outside
        (young_case([[0, 1], [2, 3], [4, 5]], [], 6), "(1,3,5)(2,4,6)",
         r"w\^2"),
        (young_case([[0, 1]], [], 5), "(3,4,5)", r"w\^2"),
    ]
    for (gens, n, _), w_text, message in cases:
        cd = conjugacy_classes(PermGroup(n, gens))
        assert isinstance(cd, YoungClasses)
        with pytest.raises(ValueError, match=message):
            cd.square_census(P(w_text, n)._img)
    c4 = ClassData(cyclic(4))
    with pytest.raises(ValueError, match="normalize"):
        c4.square_census(P("(1,2)", 4)._img)
    with pytest.raises(ValueError, match=r"w\^2"):
        c4.square_census(P("(1,2,4,3)", 4)._img)


# -- abelian tables by character extension -----------------------------------


def _abelian_groups():
    yield from (cyclic(k) for k in range(1, 13))
    yield PermGroup(4, [P("(1,2)(3,4)"), P("(1,3)(2,4)")])
    yield PermGroup(6, [P("(1,2)", 6), P("(3,4,5,6)", 6)])
    yield PermGroup(6, [P("(1,2,3)", 6), P("(4,5,6)", 6)])
    yield PermGroup(6, [P("(1,2)", 6), P("(3,4)", 6), P("(5,6)", 6)])


@pytest.mark.parametrize("group", list(_abelian_groups()),
                         ids=lambda g: " ".join(x.to_text() for x in g.generators))
def test_abelian_route_matches_dixon(group):
    # the extension along the generators against Dixon's method, row by
    # row, both on a fresh class BFS of the group
    got = chartab._abelian_table(ClassData(group)).characters
    want = _dixon(ClassData(group)).characters
    assert [chi.values for chi in got] == [chi.values for chi in want]


def test_cyclic_tables_do_not_run_dixon(monkeypatch):
    def no_dixon(*args):
        raise AssertionError("Dixon's method ran")

    monkeypatch.setattr(chartab, "_dixon", no_dixon)
    table = character_table(cyclic(7))
    assert len(table.characters) == 7
    assert {chi.values[1] for chi in table.characters} == {
        z(7, k) for k in range(7)}


def test_dixon_builds_the_table_of_a_nonabelian_group(monkeypatch):
    # D4 on four points fits no Young shape and its generators do not
    # commute, so it is the one route left
    calls = []
    dixon = chartab._dixon

    def counting(cd):
        calls.append(cd)
        return dixon(cd)

    monkeypatch.setattr(chartab, "_dixon", counting)
    d4 = PermGroup(4, [P("(1,2,3,4)"), P("(1,3)", 4)])
    table = character_table(d4)
    assert len(calls) == 1
    assert [chi.degree for chi in table.characters] == [1, 1, 1, 1, 2]
    assert all(nu_classical(chi) == 1 for chi in table.characters)


def _inner_product_by_terms(a, b):
    """The old per-term sum: one canonical Cyclotomic per class."""
    total = ZERO
    for h, x, y in zip(a.classes.sizes, a.values, b.values):
        total = total + (x * y.conj()).scaled(h)
    return total.scaled(Fraction(1, a.classes.group.order()))


def _quaternion():
    return PermGroup(8, [P("(1,3,2,4)(5,7,6,8)"), P("(1,5,2,6)(3,8,4,7)")])


@pytest.mark.parametrize("build", [lambda: alt(5), lambda: alt(6),
                                   lambda: alt(7), lambda: cyclic(5),
                                   lambda: cyclic(7), _quaternion],
                         ids=["A5", "A6", "A7", "C5", "C7", "Q8"])
def test_inner_product_in_one_field_matches_the_per_term_sum(build):
    chars = character_table(build()).characters
    for a in chars:
        for b in chars:
            assert inner_product(a, b) == _inner_product_by_terms(a, b)
    # a class function that is no character, with values in two fields
    a = chars[-1]
    mixed = Character(a.classes, [v * z(4) + Fraction(1, 3)
                                  for v in a.values])
    for b in chars:
        for x, y in ((mixed, b), (b, mixed), (mixed, mixed)):
            assert inner_product(x, y) == _inner_product_by_terms(x, y)
