"""Coset decompositions, stabilizers, and the double coset census."""
from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fscat import config, cosets
from fscat.indicators import category_scan
from test_chartab import young_groups
from test_indicators import gens_pairs
from fscat.cosets import (
    BoundExceeded,
    DoubleCoset,
    _BlockCounts,
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
    # elements are disjoint, and sizes summing to |G| cover G.  The last two
    # pairs fix letters, so their roots come from several double cosets of
    # H x U, with U the permutations of those letters.
    for group, sub in [(sym(4), sym_embed(2, 4)), (sym(5), sym_embed(3, 5)),
                       (sym(5), sym_embed(2, 5)), (sym(5), cyclic(5)),
                       (sym(9), tilde_sym(7, degree=9)),
                       (alt(9), alt_embed(5, 9))]:
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
    "A7-Alt4": (lambda: (alt(7), alt_embed(4, 7)), (35, 15)),
    "S7-tildeS5": (lambda: (sym(7), tilde_sym(5, degree=7)), (160, 90)),
    "S6-Sym2..5": (lambda: (sym(6), PermGroup(6, [P("(2,3)", 6),
                                                   P("(2,3,4,5)", 6)])),
                   (7, 5)),
    "S9-tildeS7": (lambda: (sym(9), tilde_sym(7, degree=9)), (136, 80)),
    "A9-Alt5": (lambda: (alt(9), alt_embed(5, 9)), (210, 28)),
}


def free_letter_group(group, sub):
    """All of U = Sym(Fix sub) & group, as raw tuples, by brute force."""
    n = sub.degree
    fixed = [p for p in range(n)
             if all(x[p] == p for x in sub.element_tuples())]
    out = []
    for images in permutations(fixed):
        img = list(range(n))
        for a, b in zip(fixed, images):
            img[a] = b
        if group.member(Permutation._from_raw(tuple(img))):
            out.append(tuple(img))
    return out


def brute_fold_orbits(dec):
    """The orbits of the double cosets under conjugation by all of U, as
    sets of positions; each left coset is placed in its double coset by a
    search over H's generators from the double coset's representative."""
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
            i = parent[i]
        return i

    for u in free_letter_group(dec.group, sub):
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
    (alt(7), tilde_sym(5, degree=7)),      # (6,7) is odd, Alt{6,7} trivial
])
def test_trivial_free_letter_group_folds_nothing(group, sub):
    idt = tuple(range(group.degree))
    for i, dc in enumerate(double_cosets(group, sub)):
        assert dc.root == i
        assert dc.conj == idt


def count_coset_min(monkeypatch):
    calls = []
    coset_min = PermGroup.coset_min

    def counting(self, y):
        calls.append(1)
        return coset_min(self, y)

    monkeypatch.setattr(PermGroup, "coset_min", counting)
    return calls


def test_double_cosets_seed_from_the_cosets_of_h_times_u(monkeypatch):
    # the 6 double cosets of K = Sym{1..5} x Sym{6..10}, from a walk of K's
    # 252 left cosets, seed the walk, not the 30,240 of Sym{1..5}; listing
    # those alone takes about 60,000 calls.  Sym{1..5} is a Young group, so
    # its double cosets are placed by block counts: the 1,510 folds map
    # none of their left cosets (37,190 calls when each took one), but each
    # takes one coset_min for its conjugator and one per moved stabilizer
    # generator, and a right move canonicalizes only a new start
    group, sub = sym(10), sym_embed(5, 10)
    group.order(), sub.order()
    calls = count_coset_min(monkeypatch)
    dec = double_cosets(group, sub)
    assert (len(dec), len({dc.root for dc in dec})) == (1546, 36)
    assert len(calls) == 7688


def test_double_cosets_walk_alone_when_no_letter_is_free(monkeypatch):
    # tilde S8 fixes one letter of 11: U is trivial and H x U is H, so the
    # walk lists the 990 left cosets of H once and takes no second walk
    group, sub = sym(11), tilde_sym(10, degree=11)
    group.order(), sub.order()
    calls = count_coset_min(monkeypatch)
    assert len(double_cosets(group, sub)) == 24
    assert len(calls) == 3985


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
    # Sym{1,2} in degree 300 has 299 blocks, its orbit and 298 fixed
    # letters: block numbers past 255 do not fit a byte, so the keys are
    # tuples, and the decomposition is that of degree 4, padded
    group, sub = sym_embed(4, 300), sym_embed(2, 300)
    blocks = _BlockCounts(sub.young_shape()[0], 300)
    assert blocks.pack is tuple and len(blocks.first) == 299
    small = double_cosets(sym(4), sym_embed(2, 4))
    dec = double_cosets(group, sub)
    assert [dc.rep.to_text() for dc in dec] == \
        [dc.rep.to_text() for dc in small] == \
        ["()", "(3,4)", "(2,3)", "(2,3,4)", "(2,4,3)", "(2,4)", "(1,3)(2,4)"]
    assert [dc.n_left for dc in dec] == [dc.n_left for dc in small]
    swap = P("(1,2)", 300)._img
    for dc in dec:
        assert blocks.least(dc.rep._img) == dc.rep._img
        y = _mul(_mul(swap, dc.rep._img), swap)
        assert blocks.key(y) == blocks.key(dc.rep._img)


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


@settings(max_examples=40, deadline=None)
@given(young_groups())
def test_block_counts_name_each_double_coset_and_its_least_element(case):
    # by brute force over S_n: equal block-count keys exactly when HyH = HzH,
    # and the greedy element is min(HyH)
    gens, n, _ = case
    assume(n <= 7)
    sub = PermGroup(n, gens)
    orbits, signed = sub.young_shape()
    assume(not signed)
    blocks = _BlockCounts(orbits, n)
    least_of = brute_double_coset_ids(n, [g._img for g in sub.generators])
    by_key = {}
    for y, least in least_of.items():
        assert by_key.setdefault(blocks.key(y), least) == least
        assert blocks.least(y) == least
    assert len(by_key) == len(set(least_of.values()))


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


@pytest.mark.parametrize("name", YOUNG_PAIRS)
def test_block_count_placement_matches_the_left_coset_path(monkeypatch, name):
    # with young_shape hidden (and _BlockCounts gone, so that the block
    # route cannot run), double_cosets maps every folded left coset; every
    # field of every double coset comes out the same
    fields = ("rep", "n_left", "size", "stab_gens", "self_inverse", "root",
              "conj")

    def decomposition():
        group, sub = YOUNG_PAIRS[name]()
        return [[getattr(dc, f) for f in fields]
                for dc in double_cosets(group, sub)]

    assert YOUNG_PAIRS[name]()[1].young_shape()[1] == ()
    placed = decomposition()
    monkeypatch.setattr(PermGroup, "young_shape", lambda self: None)
    monkeypatch.setattr(cosets, "_BlockCounts", None)
    assert decomposition() == placed


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
    orbit, _, stab_gens, _ = cosets._coset_orbit(
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


def test_normal_form_census_agrees_with_orbit_route():
    for n in range(2, 8):
        for l in range(1, n):
            assert normal_form_census(l, n) == sym_census(l, n)
    assert normal_form_census(4, 8) == sym_census(4, 8)


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
