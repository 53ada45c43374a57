"""Coset decompositions, stabilizers, and the double coset census."""
from __future__ import annotations

import math
from itertools import combinations, permutations

from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fscat import config, cosets
from fscat.indicators import category_scan
from test_chartab import young_case, young_groups
from test_indicators import gens_pairs
from fscat.cosets import (
    BoundExceeded,
    DoubleCoset,
    _BlockCounts,
    _pack,
    _swaps,
    _canonical_form,
    _raw_normal_form,
    double_cosets,
    is_null_coset,
    left_coset_reps,
    normal_form_census,
    stabilizer,
    sym_census,
)
from fscat.perm import (
    Permutation,
    _inv,
    _mul,
    PermGroup,
    alt,
    alt_embed,
    cyclic,
    embedded,
    sym,
    sym_embed,
    tilde_sym,
)

P = Permutation.from_text


def brute_left_cosets(group, sub):
    seen = set()
    cosets = []
    members = [Permutation._from_raw(t) for t in sub.element_tuples()]
    for raw in group.element_tuples():
        if raw in seen:
            continue
        g = Permutation._from_raw(raw)
        coset = {(g * h)._img for h in members}
        seen |= coset
        cosets.append(frozenset(coset))
    return set(cosets)


def brute_double_cosets(group, sub):
    members = [Permutation._from_raw(t) for t in sub.element_tuples()]
    seen = set()
    blocks = []
    for raw in group.element_tuples():
        if raw in seen:
            continue
        g = Permutation._from_raw(raw)
        block = {(a * g * b)._img for a in members for b in members}
        seen |= block
        blocks.append(frozenset(block))
    return blocks


def test_left_cosets_partition_the_group():
    for group, sub in [(sym(3), alt(3)), (sym(4), sym_embed(2, 4)),
                       (sym(4), cyclic(4))]:
        reps = left_coset_reps(group, sub)
        assert len(reps) == group.order() // sub.order()
        members = [Permutation._from_raw(t) for t in sub.element_tuples()]
        expected = brute_left_cosets(group, sub)
        got = {frozenset((r * h)._img for h in members) for r in reps}
        assert got == expected


def test_left_reps_are_lex_minimal_in_their_coset():
    group, sub = sym(4), sym_embed(2, 4)
    members = [Permutation._from_raw(t) for t in sub.element_tuples()]
    for r in left_coset_reps(group, sub):
        assert r._img == min((r * h)._img for h in members)


def test_right_transversal_covers_disjointly():
    group, sub = sym(4), sym_embed(3, 4)
    reps = [p.inverse() for p in left_coset_reps(group, sub)]
    covered = set()
    for r in reps:
        coset = {(Permutation._from_raw(t) * r)._img for t in sub.element_tuples()}
        assert not (covered & coset)
        covered |= coset
    assert len(covered) == group.order()


def test_index_bound_is_enforced(monkeypatch):
    monkeypatch.setattr(config, "INDEX_BOUND", 10)
    with pytest.raises(BoundExceeded):
        left_coset_reps(sym(5), sym_embed(2, 5))


def test_rejects_non_subgroup():
    with pytest.raises(ValueError):
        left_coset_reps(alt(4), cyclic(4))


def test_double_cosets_match_brute_partition():
    # Each block a*rep*b is a double coset; blocks with distinct least
    # elements are disjoint, and sizes summing to |G| cover G.  C4 in S7
    # fixes three letters and is walked, so the walk is checked where it
    # would have letters to fold along; Alt{1..5} in A9 is listed.
    for group, sub in [(sym(4), sym_embed(2, 4)), (sym(5), sym_embed(3, 5)),
                       (sym(5), sym_embed(2, 5)), (sym(5), cyclic(5)),
                       (sym(9), tilde_sym(7, degree=9)),
                       (alt(9), alt_embed(5, 9)),
                       (sym(7), embedded(cyclic(4), 7))]:
        dec = double_cosets(group, sub)
        members = sub.element_tuples()
        for dc in dec:
            left = [_mul(dc.rep._img, b) for b in members]
            block = {_mul(a, y) for a in members for y in left}
            assert min(block) == dc.rep._img
            assert len(block) == dc.size == dc.n_left * sub.order()
            assert dc.self_inverse == (_inv(dc.rep._img) in block)
        assert len({dc.rep for dc in dec}) == len(dec)
        assert sum(dc.size for dc in dec) == group.order()
        assert_orbit_stabilizers(dec)


def brute_stabilizer(g, sub):
    """S(g) = sub & g*sub*g^-1 by a filter over all of sub."""
    members = sub.element_set()
    gi = g.inverse()
    return {x for x in sub.element_tuples()
            if (gi * Permutation._from_raw(x) * g)._img in members}


def assert_orbit_stabilizers(dec):
    """The recorded generators of each S(rep) give the filtered stabilizer."""
    sub = dec.sub
    for dc in dec:
        grp = PermGroup(sub.degree,
                        [Permutation._from_raw(x) for x in dc.stab_gens])
        assert grp.order() == sub.order() // dc.n_left
        assert grp.element_set() == brute_stabilizer(dc.rep, sub)


def test_orbit_stabilizers_beyond_initial_symmetric_subgroups():
    dec = double_cosets(sym(8), cyclic(8))
    assert len(dec) == 640
    assert_orbit_stabilizers(dec)
    for group, sub in [(sym(7), tilde_sym(7)), (alt(7), alt_embed(4, 7)),
                       (sym(6), alt(6)), (sym(7), tilde_sym(5, degree=7))]:
        assert_orbit_stabilizers(double_cosets(group, sub))


# builder, (double cosets, fold roots)
FOLD_CASES = {
    "S8-Sym4": (lambda: (sym(8), sym_embed(4, 8)), (209, 20)),
    "S10-Sym7": (lambda: (sym(10), sym_embed(7, 10)), (34, 10)),
    "A7-Alt4": (lambda: (alt(7), alt_embed(4, 7)), (35, 10)),
    "A7-tildeS5": (lambda: (alt(7), tilde_sym(5, degree=7)), (80, 45)),
    "S7-tildeS5": (lambda: (sym(7), tilde_sym(5, degree=7)), (160, 90)),
    "S6-Sym2..5": (lambda: (sym(6), PermGroup(6, [P("(2,3)", 6),
                                                   P("(2,3,4,5)", 6)])),
                   (7, 5)),
    "S9-tildeS7": (lambda: (sym(9), tilde_sym(7, degree=9)), (136, 80)),
    "A9-Alt5": (lambda: (alt(9), alt_embed(5, 9)), (210, 20)),
}


def free_letter_group(group, sub):
    """All of U = Sym(Fix sub) & Y, Y the Young group of group's orbits, as
    raw tuples, by brute force: the permutations of the letters sub fixes
    that keep each letter in its orbit of group."""
    n = sub.degree
    fixed = [p for p in range(n)
             if all(x[p] == p for x in sub.element_tuples())]
    orbit = []
    for p in range(n):
        orbit.append([p])
        for q in orbit[p]:
            orbit[p] += {g._img[q] for g in group.generators} - {*orbit[p]}
    out = []
    for images in permutations(fixed):
        img = list(range(n))
        for a, b in zip(fixed, images):
            img[a] = b
        if all(img[p] in orbit[p] for p in range(n)):
            out.append(tuple(img))
    return out


def brute_fold_orbits(dec):
    """The orbits of the double cosets under conjugation by all of U, as
    sets of positions; each left coset is placed in its double coset by a
    search over H's generators from the double coset's representative.  The
    transpositions of U generate it, so the union runs over those alone."""
    sub = dec.sub
    block_of = {}
    for i, dc in enumerate(dec):
        queue = [dc.rep]
        block_of[dc.rep._img] = i
        for y in queue:
            for s in sub.generators:
                c = Permutation._from_raw(sub.coset_min((s * y)._img))
                if c._img not in block_of:
                    block_of[c._img] = i
                    queue.append(c)
    assert len(block_of) == len(left_coset_reps(dec.group, sub))
    parent = list(range(len(dec)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u in free_letter_group(dec.group, sub):
        if sum(p != q for p, q in enumerate(u)) != 2:
            continue
        u_p = Permutation._from_raw(u)
        for i, dc in enumerate(dec):
            moved = (u_p * dc.rep * u_p.inverse())._img
            parent[find(i)] = find(block_of[sub.coset_min(moved)])
    orbits = {}
    for i in range(len(dec)):
        orbits.setdefault(find(i), set()).add(i)
    return sorted(map(frozenset, orbits.values()), key=min)


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_fold_roots_are_the_orbits_under_the_free_letters(case):
    build, counts = FOLD_CASES[case]
    dec = double_cosets(*build())
    sub = dec.sub
    by_root = {}
    for i, dc in enumerate(dec):
        by_root.setdefault(dc.root, set()).add(i)
    assert (len(dec), len(by_root)) == counts
    assert all(dec.cosets[r].root == r for r in by_root)
    assert sorted(map(frozenset, by_root.values()), key=min) == \
        brute_fold_orbits(dec)
    for dc in dec:
        # rep*H = k*root*k^-1*H, with k normalizing H
        k = Permutation._from_raw(dc.conj)
        root = dec.cosets[dc.root]
        assert sub.coset_min((k * root.rep * k.inverse())._img) == dc.rep._img
        assert all(sub.member(k * s * k.inverse()) for s in sub.generators)
        assert dc.n_left == root.n_left
        assert dc.self_inverse == root.self_inverse
    assert_orbit_stabilizers(dec)


@pytest.mark.parametrize("group, sub", [
    (sym(8), cyclic(8)),                   # no letter fixed
    (sym(7), tilde_sym(7)),
    (sym(6), alt(6)),
    (sym(9), tilde_sym(8, degree=9)),      # one letter fixed
    (alt(7), tilde_sym(6, degree=7)),      # one letter fixed, in A_7
])
def test_trivial_free_letter_group_folds_nothing(group, sub):
    idt = tuple(range(group.degree))
    for i, dc in enumerate(double_cosets(group, sub)):
        assert dc.root == i
        assert dc.conj == idt


def count_calls(monkeypatch, owner, name):
    """The calls of owner.name, one entry each: its arguments."""
    calls = []
    f = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_walks(monkeypatch):
    """The calls of coset_min, of the orbit walk and of the left coset
    listing."""
    return [count_calls(monkeypatch, PermGroup, "coset_min"),
            count_calls(monkeypatch, cosets, "_coset_orbit"),
            count_calls(monkeypatch, cosets, "left_coset_reps")]


def test_young_h_in_a_signed_young_g_is_listed_not_walked(monkeypatch):
    # A9 is the kernel of the sign on S9, and every double coset of
    # Alt{1..5} in S9 lies in A9 or outside it, so A9's 210 are listed
    # among S9's, with no left coset walked or listed and no coset_min.
    # U = Sym{6..9} is not inside A9, and it folds them onto 20 roots; each
    # of the 190 others is checked by one sift in H that its rep*H is
    # conj*root*conj^-1*H
    for group, sub, counts in [
            (alt(9), alt_embed(5, 9), (210, 20)),
            # tilde S5 in A7 fixes 6 and 7, and the odd (6,7) folds
            (alt(7), tilde_sym(5, degree=7), (80, 45)),
            # Sym{1..5} is a Young group in the Young group S10
            (sym(10), sym_embed(5, 10), (1546, 36))]:
        group.order(), sub.order()
        calls, walks, listings = count_walks(monkeypatch)
        checks = count_calls(monkeypatch, PermGroup, "member")
        dec = double_cosets(group, sub)
        assert (len(dec), len({dc.root for dc in dec})) == counts
        assert calls == walks == listings == []
        assert sum(args[0] is sub for args in checks) == \
            counts[0] - counts[1] == \
            sum(dc.root != i for i, dc in enumerate(dec))
        monkeypatch.undo()


def test_a_wrong_conjugator_trips_the_coset_check(monkeypatch):
    # with h the identity, conj = u only carries the root into the double
    # coset of rep, not onto rep*H, and the listing refuses it
    group, sub = sym(7), sym_embed(3, 7)
    assert any(dc.root != i for i, dc in enumerate(double_cosets(group, sub)))
    monkeypatch.setattr(_BlockCounts, "conjugator",
                        lambda self, y, rep: tuple(range(self.n)))
    with pytest.raises(AssertionError):
        double_cosets(group, sub)


def test_the_walk_visits_each_left_coset_once(monkeypatch):
    # C4 in S7 has no Young shape, so it is walked: one listing of the 1260
    # left cosets (a coset_min per coset and generator of G, and one for the
    # start), then one walk per double coset, which takes a coset_min per
    # coset and generator of H, and one for rep^-1.  Every walked double
    # coset is its own root, though C4 fixes three letters
    group, sub = sym(7), embedded(cyclic(4), 7)
    group.order(), sub.order()
    calls, walks, listings = count_walks(monkeypatch)
    dec = double_cosets(group, sub)
    idt = tuple(range(7))
    assert len(dec) == len(walks) == 324
    assert all(dc.root == i and dc.conj == idt for i, dc in enumerate(dec))
    assert len(listings) == 1
    assert len(calls) == 1 + 1260 * (2 + 1) + 324
    # tilde S8 in S11 is a signed Young group in a Young group: its 12
    # block-count matrices split into 24 double cosets, and with U trivial
    # nothing is folded, walked, listed or canonicalized
    group, sub = sym(11), tilde_sym(10, degree=11)
    group.order(), sub.order()
    calls, walks, listings = count_walks(monkeypatch)
    assert len(double_cosets(group, sub)) == 24
    assert calls == walks == listings == []


def test_double_cosets_check_the_index_of_h_not_of_h_times_u(monkeypatch):
    # [S8 : Sym{1..4}] = 1680 but [S8 : Sym{1..4} x Sym{5..8}] = 70
    monkeypatch.setattr(config, "INDEX_BOUND", 1000)
    for run in (double_cosets, lambda g, h: category_scan(g, h, 2)):
        with pytest.raises(BoundExceeded) as exc:
            run(sym(8), sym_embed(4, 8))
        assert (exc.value.bound_name, exc.value.limit, exc.value.needed) == \
            ("index bound", 1000, 1680)


def test_double_cosets_beyond_byte_sized_letters():
    # letters past 255 do not fit a byte, so placed cosets take another key
    group = PermGroup(300, [P("(1,2,3)", 300), P("(4,5)", 300)])
    sub = PermGroup(300, [P("(1,2,3)", 300)])
    dec = double_cosets(group, sub)
    assert [dc.rep.to_text() for dc in dec] == ["()", "(4,5)"]


def test_young_double_cosets_beyond_byte_sized_blocks():
    # Sym{1,2} in Sym{1..4} at degree 300: the letters group fixes are left
    # out of the blocks, but the keys of 300 letters are tuples, and the
    # decomposition is that of degree 4, padded
    group, sub = sym_embed(4, 300), sym_embed(2, 300)
    assert _pack(300) is tuple
    assert _BlockCounts(group, sub).blocks == [(0, 1), (2,), (3,)]
    small = double_cosets(sym(4), sym_embed(2, 4))
    dec = double_cosets(group, sub)
    assert [dc.rep.to_text() for dc in dec] == \
        [dc.rep.to_text() for dc in small] == \
        ["()", "(3,4)", "(2,3)", "(2,3,4)", "(2,4,3)", "(2,4)", "(1,3)(2,4)"]
    pad = tuple(range(4, 300))
    for dc, sm in zip(dec, small):
        assert (dc.n_left, dc.self_inverse) == (sm.n_left, sm.self_inverse)
        assert dc.stab_gens == tuple(x + pad for x in sm.stab_gens)
        assert (dc.root, dc.conj) == (sm.root, sm.conj + pad)


def brute_double_coset_ids(n, sub_gens):
    """The double coset of each element of S_n, as the least element of
    its component under y -> s*y and y -> y*s for s in sub_gens."""
    comp = {}
    for y in permutations(range(n)):
        if y in comp:
            continue
        members = [y]
        comp[y] = y
        for z in members:
            for s in sub_gens:
                for w in (_mul(s, z), _mul(z, s)):
                    if w not in comp:
                        comp[w] = y
                        members.append(w)
        least = min(members)
        for z in members:
            comp[z] = least
    return comp


def block_matrix(bc, y):
    """M(y) over bc's blocks, flat, and its rows as dicts of the counts
    that are not 0, as _BlockCounts.matrices gives them."""
    a = len(bc.blocks)
    flat = [0] * (a * a)
    for p in bc.letters:
        flat[bc.block[p] * a + bc.block[y[p]]] += 1
    rows = [{j: m for j, m in enumerate(flat[i * a:i * a + a]) if m}
            for i in range(a)]
    return flat, rows


@settings(max_examples=40, deadline=None)
@given(young_groups())
def test_block_counts_name_each_double_coset_and_its_least_element(case):
    # by brute force over S_n, with Y the Young group of H's orbits: equal
    # block counts exactly when YyY = YzY, and least gives min(YyY); equal
    # block counts and classes modulo I exactly when HyH = HzH
    gens, n, _ = case
    assume(n <= 7)
    sub = PermGroup(n, gens)
    orbits, signed = sub.young_shape()
    bc = _BlockCounts(sym(n), sub)
    young = [_swaps([(o[0], p)], n) for o in orbits for p in o[1:]]
    least_y = brute_double_coset_ids(n, young)
    least_h = brute_double_coset_ids(n, [g._img for g in sub.generators])
    by_matrix, by_class = {}, {}
    for y in least_y:
        flat, rows = block_matrix(bc, y)
        z = bc.least(rows)
        assert z == least_y[y]
        c = min(bc.cls(y, z) ^ x for x in bc.parities(z)[0])
        assert (c == 0) == (not signed or least_h[y] == least_h[z])
        assert by_matrix.setdefault(tuple(flat), least_y[y]) == least_y[y]
        assert by_class.setdefault((tuple(flat), c), least_h[y]) == least_h[y]
    assert len(by_matrix) == len(set(least_y.values()))
    assert len(by_class) == len(set(least_h.values()))


# builder
YOUNG_PAIRS = {
    "C(S10, Sym{1..5})": lambda: (sym(10), sym_embed(5, 10)),
    "C(S10, Sym{1..7})": lambda: (sym(10), sym_embed(7, 10)),
    "C(S8, Sym{1..4})": lambda: (sym(8), sym_embed(4, 8)),
    "Sym{1..3} in Sym{1..7} x Sym{8,9}": lambda: (
        PermGroup(9, [*sym_embed(7, 9).generators, P("(8,9)", 9)]),
        sym_embed(3, 9)),
    "Sym{1,2} x Sym{3..5} in S9": lambda: (
        sym(9), PermGroup(9, [P("(1,2)", 9), P("(3,4)", 9), P("(3,4,5)", 9)])),
}


def same_group(degree, gens, other):
    """Whether two generator lists give one group: equal orders and each
    list's generators in the other's group."""
    a = PermGroup(degree, [Permutation._from_raw(x) for x in gens])
    b = PermGroup(degree, [Permutation._from_raw(x) for x in other])
    return a.order() == b.order() and \
        all(b.member(x) for x in a.generators) and \
        all(a.member(x) for x in b.generators)


def fold_orbits(dec):
    by_root = {}
    for i, dc in enumerate(dec):
        by_root.setdefault(dc.root, set()).add(i)
    return sorted(map(frozenset, by_root.values()), key=min)


def assert_listing_matches_the_walk(dec, walked):
    """The listing against the walk of the same pair: the same reps, sizes
    and self-inverse flags, the same stabilizers as groups, and every conj
    normalizing H and carrying the root's left coset onto rep*H."""
    sub = dec.sub
    assert [(dc.rep, dc.n_left, dc.size, dc.self_inverse) for dc in dec] == \
        [(dc.rep, dc.n_left, dc.size, dc.self_inverse) for dc in walked]
    for i, (dc, other) in enumerate(zip(dec, walked)):
        assert same_group(sub.degree, dc.stab_gens, other.stab_gens)
        k = Permutation._from_raw(dc.conj)
        root = dec.cosets[dc.root]
        assert root.root == dc.root <= i
        assert sub.coset_min((k * root.rep * k.inverse())._img) == dc.rep._img
        assert all(sub.member(k * s * k.inverse()) for s in sub.generators)


def walk_of(group, sub):
    """double_cosets of the pair with young_shape hidden, so by the walk."""
    with patch.object(PermGroup, "young_shape", lambda self: None):
        return double_cosets(PermGroup(group.degree, group.generators),
                             PermGroup(sub.degree, sub.generators))


@pytest.mark.parametrize("name", YOUNG_PAIRS)
def test_block_count_placement_matches_the_left_coset_path(name):
    # the matrices list every double coset as the walk with young_shape
    # hidden does, which folds none of them; the listing folds them along
    # the orbits of U, found by brute force
    group, sub = YOUNG_PAIRS[name]()
    assert sub.young_shape()[1] == () and group.young_shape()[1] == ()
    dec = double_cosets(group, sub)
    walked = walk_of(group, sub)
    assert_listing_matches_the_walk(dec, walked)
    assert len(fold_orbits(walked)) == len(walked)
    assert fold_orbits(dec) == brute_fold_orbits(dec)


def young_pairs():
    """(G, H) with H from young_groups(), signed ones included, fixing some
    more letters up to degree 7, and G one of: S_n; A_n, when it holds H;
    the Young group Y of a partition into unions of H's orbits and fixed
    letters, or the kernel in Y of a product of signs on some unions that
    holds H."""
    @st.composite
    def build(draw):
        gens, n, _ = draw(young_groups())
        assume(n <= 7)
        n_fixed = draw(st.integers(0, 7 - n))
        sub = embedded(PermGroup(n, gens), n + n_fixed)
        n += n_fixed
        parts = [list(o) for o in sub.young_shape()[0]]
        seen = {p for o in parts for p in o}
        parts += [[p] for p in range(n) if p not in seen]
        if draw(st.booleans()):
            return sym(n), sub
        if all(g.sign == 1 for g in sub.generators) and draw(st.booleans()):
            return alt(n), sub
        labels = draw(st.lists(st.integers(0, 2), min_size=len(parts),
                               max_size=len(parts)))
        unions = [sorted(p for part, c in zip(parts, labels) if c == k
                         for p in part) for k in sorted(set(labels))]
        # each generator of H maps every union onto itself, and the product
        # of its signs on the unions at J is its sign on their letters
        big = [j for j, u in enumerate(unions) if len(u) > 1]
        holds = []
        for size in range(1, len(big) + 1):
            for signed in combinations(big, size):
                letters = {p for j in signed for p in unions[j]}
                if all(Permutation._from_raw(tuple(
                        g._img[p] if p in letters else p for p in range(n))
                        ).sign == 1 for g in sub.generators):
                    holds.append(list(signed))
        signed = draw(st.sampled_from([[], *holds]))
        return PermGroup(n, young_case(unions, signed, n)[0]), sub
    return build()


@settings(max_examples=30, deadline=None)
@given(young_pairs())
@example((sym(7), tilde_sym(5, degree=7)))
@example((PermGroup(7, [P("(1,2,3,4)", 7), P("(1,2)", 7), P("(5,6,7)", 7),
                        P("(5,6)", 7)]), tilde_sym(4, degree=7)))
@example((PermGroup(7, [P("(1,2,3,4,5)", 7), P("(1,2)", 7), P("(6,7)", 7)]),
          alt_embed(3, 7)))
# a signed orbit and an unsigned one whose letters interleave: some folds
# need the parity correction of _BlockCounts.conjugator
@example((sym(7), PermGroup(7, young_case([[1, 3, 5], [0, 4]], [0], 7)[0])))
# signed G: A_7, and the kernel of the product of the signs on {1..4} and
# {5,6,7}, where U = Sym{5,6,7} holds (5,6), which is not in G
@example((alt(7), tilde_sym(5, degree=7)))
@example((PermGroup(7, young_case([[0, 1, 2, 3], [4, 5, 6]], [0, 1], 7)[0]),
          tilde_sym(4, degree=7)))
def test_listing_matches_brute_force_and_the_walk(pair):
    # each rep is min(HyH) by brute force over S_n, the reps are those of
    # the double cosets meeting G, which lie in G, n_left, self_inverse and S(rep) agree
    # with the walk, the roots are the orbits of all of U and every conj is
    # valid, as in test_fold_roots_are_the_orbits_under_the_free_letters
    group, sub = pair
    n = group.degree
    dec = double_cosets(group, sub)
    least = brute_double_coset_ids(n, [g._img for g in sub.generators])
    assert [dc.rep._img for dc in dec] == \
        sorted({least[y] for y in group.element_tuples()})
    assert all(least[dc.rep._img] == dc.rep._img for dc in dec)
    assert_listing_matches_the_walk(dec, walk_of(group, sub))
    assert fold_orbits(dec) == brute_fold_orbits(dec)
    for dc in dec:
        root = dec.cosets[dc.root]
        assert (dc.n_left, dc.self_inverse) == (root.n_left, root.self_inverse)
    assert_orbit_stabilizers(dec)


def test_double_coset_reps_are_minimal_and_sorted():
    dec = double_cosets(sym(5), sym_embed(3, 5))
    reps = [dc.rep._img for dc in dec]
    assert reps == sorted(reps)
    members = [Permutation._from_raw(t) for t in dec.sub.element_tuples()]
    for dc in dec.cosets[:6]:
        block = {(a * dc.rep * b)._img for a in members for b in members}
        assert dc.rep._img == min(block)


def test_transversal_indices_partition_the_transversal():
    # every left coset lies in exactly one double coset, and each double
    # coset holds n_left of them
    dec = double_cosets(sym(5), sym_embed(2, 5))
    blocks = {min(b): b for b in brute_double_cosets(dec.group, dec.sub)}
    left_reps = left_coset_reps(dec.group, dec.sub)
    for dc in dec:
        inside = [r for r in left_reps if r._img in blocks[dc.rep._img]]
        assert len(inside) == dc.n_left
    assert sum(dc.n_left for dc in dec) == len(left_reps)


# subgroup, {g: |S(g)|}; the first g of each lies in the subgroup
STABILIZER_CASES = [
    (sym_embed(3, 6), {"(1,2)": 6, "(1,4)": 2, "(4,5)": 6, "(1,4)(2,5)": 1,
                       "(1,4,2,5)": 1}),
    (cyclic(8), {"(1,2,3,4,5,6,7,8)": 8, "(1,5)(3,7)": 8, "(1,2)": 1,
                 "(1,2,3)": 1}),
    (tilde_sym(7), {"(1,2)(3,4)": 120, "(3,4)": 120, "(1,3)(2,4)": 12,
                    "(1,3,5)(2,6)": 12}),
    (alt(6), {"(1,2,3)": 360, "(1,2)": 360}),   # normal: S(g) is all of it
    (sym(1), {"()": 1}),
    (PermGroup(5, []), {"()": 1, "(1,2,3)": 1}),
]


def test_stabilizer_against_brute_filter():
    for sub, orders in STABILIZER_CASES:
        assert sub.member(P(next(iter(orders)), sub.degree))
        for text, order in orders.items():
            g = P(text, sub.degree)
            stab = stabilizer(g, sub)
            assert stab.order() == order
            assert stab.element_set() == brute_stabilizer(g, sub)


@settings(max_examples=100, deadline=None)
@given(gens_pairs(), st.data())
def test_stabilizer_matches_the_filter_on_random_pairs(pair, data):
    group, sub, _ = pair
    raws = group.element_tuples()
    g = Permutation._from_raw(raws[data.draw(st.integers(0, len(raws) - 1))])
    assert stabilizer(g, sub).element_set() == brute_stabilizer(g, sub)


def test_coset_orbit_grows_one_chain_and_builds_no_group(monkeypatch):
    sub = tilde_sym(8, degree=9)
    g = P("(1,3)(2,4)(8,9)", 9)
    expect = brute_stabilizer(g, sub)
    built = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    orbit, stab_gens, _ = cosets._coset_orbit(
        sub.coset_min(g._img), sub, [x._img for x in sub.generators])
    assert built == []
    monkeypatch.undo()
    assert len(orbit) * len(expect) == sub.order()
    grown = PermGroup(9, [Permutation._from_raw(x) for x in stab_gens])
    assert grown.element_set() == expect


def test_stabilizer_keeps_the_enumeration_bound(monkeypatch):
    # the walk would visit at most |H| cosets, but H is over the bound
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 23)
    with pytest.raises(BoundExceeded) as exc:
        stabilizer(P("(1,5)", 5), sym_embed(4, 5))
    assert str(exc.value) == "enumeration bound exceeded: need 24, limit is 23"
    assert stabilizer(P("(4,5)", 5), sym_embed(3, 5)).order() == 6


def test_stabilizer_examples():
    # swapping one guarded letter into the subgroup's support leaves the
    # point stabilizer; a deeper shuffle can cut the group to triviality
    assert stabilizer(P("(3,4)", 5), sym_embed(3, 5)).order() == 2
    assert stabilizer(P("(1,2)", 5), sym_embed(3, 5)).order() == 6
    assert stabilizer(P("(1,4,2,5)", 5), sym_embed(2, 5)).order() == 1
    assert stabilizer(P("(1,2)", 4), alt(4)).order() == 12


def test_stabilizer_conjugation_witness():
    # S(a g b) = b^-1 S(g) b for a, b in the subgroup
    sub = sym_embed(3, 6)
    g = P("(1,4,2,5)", 6)
    a, b = P("(1,3)", 6), P("(1,2,3)", 6)
    lhs = stabilizer(a * g * b, sub).element_set()
    base = stabilizer(g, sub)
    rhs = {(b.inverse() * Permutation._from_raw(x) * b)._img
           for x in base.element_tuples()}
    assert lhs == rhs


def normal_form(sigma, l):
    return Permutation._from_raw(_raw_normal_form(sigma._img, l))


def test_normal_form_tracks_its_multiplier():
    for text, l in [("(1,4,2,5)", 3), ("(1,2,3)", 3), ("(1,2)(3,4)", 2),
                    ("(1,5,2,6,3,7)", 4)]:
        sigma = P(text, 8)._img
        form = _raw_normal_form(sigma, l)
        h = _mul(_inv(sigma), form)
        assert all(h[p] == p for p in range(l, 8))
        for cyc in Permutation._from_raw(form).cycles():
            assert sum(1 for p in cyc if p <= l) <= 1


def rewriting_oracle(sigma, l):
    """The rewriting loop on Permutation objects: split the first cycle, in
    cycles() order, that holds two letters from 1..l at its two least ones."""
    g = sigma
    h = Permutation.identity(sigma.degree)
    while True:
        pair = None
        for cyc in g.cycles():
            small = sorted(p for p in cyc if p <= l)
            if len(small) >= 2:
                pair = (small[0], small[1])
                break
        if pair is None:
            return g, h
        t = Permutation.from_cycles([pair], sigma.degree)
        g = g * t
        h = h * t


def canonical_oracle(form, l):
    """Rotate, sort and rename the cycles of a normal form as documented."""
    rotated = []
    for cyc in form.cycles():
        anchor = min(p for p in cyc if p > l)
        i = cyc.index(anchor)
        rotated.append(cyc[i:] + cyc[:i])
    rotated.sort(key=lambda c: c[0])
    rename: dict[int, int] = {}
    for cyc in rotated:
        for p in cyc:
            if p <= l and p not in rename:
                rename[p] = len(rename) + 1
    for p in range(1, l + 1):
        if p not in rename:
            rename[p] = len(rename) + 1
    h = Permutation([rename.get(p, p) for p in range(1, form.degree + 1)])
    return h * form * h.inverse()


@pytest.mark.parametrize("n, ls", [(6, range(1, 7)), (7, (3, 4, 5))])
def test_per_cycle_kernel_matches_the_rewriting_loop(n, ls):
    for l in ls:
        for raw in sym(n).element_tuples():
            form, h = rewriting_oracle(Permutation._from_raw(raw), l)
            assert _raw_normal_form(raw, l) == form._img
            assert _canonical_form(raw, l) == canonical_oracle(form, l)._img


def test_normal_form_rejects_l_out_of_range():
    for l in (0, 7):
        with pytest.raises(ValueError, match="l out of range"):
            is_null_coset(P("(1,2)", 6), l)
        with pytest.raises(ValueError, match="l out of range"):
            normal_form_census(l, 6)


def test_normal_form_examples():
    assert normal_form(P("(1,4,2,5)", 5), 3) == P("(1,5)(2,4)", 5)
    assert normal_form(P("(1,2,3)", 5), 3).is_identity()
    assert normal_form(P("(5,6)", 6), 4) == P("(5,6)", 6)
    assert normal_form(P("(1,2)", 6), 3).is_identity()


def test_null_coset_examples():
    # a 4-cycle through two guarded letters rewrites to a double transposition
    assert not is_null_coset(P("(1,4,2,5)", 5), 3)
    # and this one through a 3-cycle, which no involution represents
    assert normal_form(P("(1,2,4,5)", 6), 3) == P("(1,4,5)", 6)
    assert is_null_coset(P("(1,2,4,5)", 6), 3)
    assert is_null_coset(P("(4,5,6)", 6), 3)
    assert not is_null_coset(P("(4,5)", 6), 3)
    assert not is_null_coset(P("(1,2,3)", 6), 3)


def test_self_inverse_cosets_are_the_non_null_ones():
    for n in range(2, 8):
        for l in range(1, n):
            for dc in double_cosets(sym(n), sym_embed(l, n)):
                assert dc.self_inverse == (not is_null_coset(dc.rep, l))


def test_canonical_form_relabels_by_first_appearance():
    got = _canonical_form(P("(1,4,2,5)", 5)._img, 3)
    assert got == P("(1,4)(2,5)", 5)._img
    sigma = P("(2,6)(3,5)", 6)
    assert _canonical_form(sigma._img, 3) == P("(1,5)(2,6)", 6)._img


def test_canonical_form_is_a_double_coset_invariant():
    sub = sym_embed(3, 6)
    members = [Permutation._from_raw(t) for t in sub.element_tuples()]
    sigma = P("(1,4,2,5)", 6)
    base = _canonical_form(sigma._img, 3)
    for a in members[::3]:
        for b in members[::4]:
            assert _canonical_form((a * sigma * b)._img, 3) == base


def test_census_of_corank_two_is_stable():
    for n in range(4, 9):
        assert sym_census(n - 2, n) == (7, 2)


def test_census_small_table():
    assert sym_census(2, 4) == (7, 2)
    assert sym_census(2, 5) == (33, 20)
    assert sym_census(3, 5) == (7, 2)
    assert sym_census(3, 6) == (34, 20)
    assert sym_census(4, 7) == (34, 20)


def test_census_three_six_and_four_eight():
    assert sym_census(3, 6) == (34, 20)
    assert sym_census(4, 8) == (209, 166)


def test_census_stability_for_large_subgroup():
    # once 2l >= n the census depends on n - l alone
    assert sym_census(3, 6) == sym_census(4, 7) == sym_census(5, 8)
    assert sym_census(2, 4) == sym_census(3, 5) == sym_census(4, 6)


def test_normal_form_census_agrees_with_orbit_route(monkeypatch):
    # neither route lists a whole group: the relabeling route lists the
    # left cosets, the orbit route the block-count matrices
    def no_listing(self):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(PermGroup, "element_tuples", no_listing)
    for n in range(1, 9):
        for l in range(1, n + 1):
            assert normal_form_census(l, n) == sym_census(l, n)


@pytest.mark.parametrize("n", [6, 7])
def test_canonical_form_depends_only_on_the_left_coset(n):
    # g*h, h in Sym{1..l}, keeps g's images of the letters above l and
    # permutes the rest, so (that set, those images) names the left coset
    for l in range(1, n + 1):
        forms = {}
        for raw in sym(n).element_tuples():
            form = _canonical_form(raw, l)
            assert forms.setdefault((frozenset(raw[:l]), raw[l:]), form) == form
        assert len(forms) == math.factorial(n) // math.factorial(l)


@st.composite
def sym6_elements(draw):
    return Permutation._from_raw(tuple(draw(st.permutations(range(6)))))


@st.composite
def sym3_in_6(draw):
    small = draw(st.permutations(range(3)))
    return Permutation._from_raw(tuple(small) + (3, 4, 5))


@settings(max_examples=60, deadline=None)
@given(sym6_elements(), sym3_in_6(), sym3_in_6())
def test_null_classification_is_coset_invariant(sigma, a, b):
    assert is_null_coset(a * sigma * b, 3) == is_null_coset(sigma, 3)
    assert (_canonical_form((a * sigma * b)._img, 3)
            == _canonical_form(sigma._img, 3))


@settings(max_examples=40, deadline=None)
@given(sym6_elements())
def test_normal_form_squares_decide_nullity(sigma):
    form = normal_form(sigma, 3)
    assert is_null_coset(sigma, 3) == (not (form * form).is_identity())
