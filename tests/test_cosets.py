"""Coset decompositions, stabilizers, and the double coset census."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscat.cosets import (
    BoundExceeded,
    DoubleCoset,
    canonical_normal_form,
    double_cosets,
    is_null_coset,
    left_coset_reps,
    normal_form_census,
    normal_form_with_multiplier,
    stabilizer,
    sym_census,
    sym_normal_form,
)
from fscat.perm import (
    Permutation,
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


def test_index_bound_is_enforced():
    with pytest.raises(BoundExceeded):
        left_coset_reps(sym(5), sym_embed(2, 5), limit=10)


def test_rejects_non_subgroup():
    with pytest.raises(ValueError):
        left_coset_reps(alt(4), cyclic(4))


def test_double_cosets_match_brute_partition():
    for group, sub in [(sym(4), sym_embed(2, 4)), (sym(5), sym_embed(3, 5)),
                       (sym(5), sym_embed(2, 5)), (sym(5), cyclic(5))]:
        dec = double_cosets(group, sub)
        blocks = brute_double_cosets(group, sub)
        assert len(dec) == len(blocks)
        assert sorted(dc.size for dc in dec) == sorted(len(b) for b in blocks)
        assert sum(dc.size for dc in dec) == group.order()
        by_rep = {min(b): b for b in blocks}
        for dc in dec:
            assert dc.size == dc.n_left * sub.order()
            assert len(dc.left_indices) == dc.n_left
            assert dc.self_inverse == (dc.rep.inverse()._img
                                       in by_rep[dc.rep._img])
        assert_orbit_stabilizers(dec)


def assert_orbit_stabilizers(dec):
    """The recorded generators of each S(rep) give the filtered stabilizer."""
    sub = dec.sub
    for dc in dec:
        grp = PermGroup(sub.degree,
                        [Permutation._from_raw(x) for x in dc.stab_gens])
        assert grp.order() == sub.order() // dc.n_left
        assert grp.element_set() == stabilizer(dc.rep, sub).group.element_set()


def test_orbit_stabilizers_beyond_initial_symmetric_subgroups():
    dec = double_cosets(sym(8), cyclic(8))
    assert len(dec) == 640
    assert_orbit_stabilizers(dec)
    for group, sub in [(sym(7), tilde_sym(7)), (alt(7), alt_embed(4, 7)),
                       (sym(6), alt(6)), (sym(7), tilde_sym(5, degree=7))]:
        assert_orbit_stabilizers(double_cosets(group, sub))


def test_double_coset_reps_are_minimal_and_sorted():
    dec = double_cosets(sym(5), sym_embed(3, 5))
    reps = [dc.rep._img for dc in dec]
    assert reps == sorted(reps)
    members = [Permutation._from_raw(t) for t in dec.sub.element_tuples()]
    for dc in dec.cosets[:6]:
        block = {(a * dc.rep * b)._img for a in members for b in members}
        assert dc.rep._img == min(block)


def test_transversal_indices_partition_the_transversal():
    dec = double_cosets(sym(5), sym_embed(2, 5))
    flat = [i for dc in dec for i in dc.left_indices]
    assert sorted(flat) == list(range(len(dec.left_reps)))


def test_stabilizer_against_brute_filter():
    sub = sym_embed(3, 6)
    members = sub.element_set()
    for text in ["(1,4)", "(4,5)", "(1,4)(2,5)", "(1,4,2,5)"]:
        g = P(text, 6)
        st_obj = stabilizer(g, sub)
        brute = {x for x in sub.element_tuples()
                 if (g.inverse() * Permutation._from_raw(x) * g)._img in members}
        assert st_obj.group.element_set() == brute
        assert st_obj.ambient is sub
        assert st_obj.g == g


def test_stabilizer_examples():
    # swapping one guarded letter into the subgroup's support leaves the
    # point stabilizer; a deeper shuffle can cut the group to triviality
    assert stabilizer(P("(3,4)", 5), sym_embed(3, 5)).group.order() == 2
    assert stabilizer(P("(1,2)", 5), sym_embed(3, 5)).group.order() == 6
    assert stabilizer(P("(1,4,2,5)", 5), sym_embed(2, 5)).group.order() == 1
    assert stabilizer(P("(1,2)", 4), alt(4)).group.order() == 12


def test_stabilizer_conjugation_witness():
    # S(a g b) = b^-1 S(g) b for a, b in the subgroup
    sub = sym_embed(3, 6)
    g = P("(1,4,2,5)", 6)
    a, b = P("(1,3)", 6), P("(1,2,3)", 6)
    lhs = stabilizer(a * g * b, sub).group.element_set()
    base = stabilizer(g, sub).group
    rhs = {(b.inverse() * Permutation._from_raw(x) * b)._img
           for x in base.element_tuples()}
    assert lhs == rhs


def test_normal_form_tracks_its_multiplier():
    for text, l in [("(1,4,2,5)", 3), ("(1,2,3)", 3), ("(1,2)(3,4)", 2),
                    ("(1,5,2,6,3,7)", 4)]:
        sigma = P(text, 8)
        form, h = normal_form_with_multiplier(sigma, l)
        assert form == sigma * h
        assert all(h.apply(p) == p for p in range(l + 1, 9))
        for cyc in form.cycles():
            assert sum(1 for p in cyc if p <= l) <= 1


def test_normal_form_examples():
    assert sym_normal_form(P("(1,4,2,5)", 5), 3) == P("(1,5)(2,4)", 5)
    assert sym_normal_form(P("(1,2,3)", 5), 3).is_identity()
    assert sym_normal_form(P("(5,6)", 6), 4) == P("(5,6)", 6)
    assert sym_normal_form(P("(1,2)", 6), 3).is_identity()


def test_null_coset_examples():
    # a 4-cycle through two guarded letters rewrites to a double transposition
    assert not is_null_coset(P("(1,4,2,5)", 5), 3)
    # and this one through a 3-cycle, which no involution represents
    assert sym_normal_form(P("(1,2,4,5)", 6), 3) == P("(1,4,5)", 6)
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
    got = canonical_normal_form(P("(1,4,2,5)", 5), 3)
    assert got == P("(1,4)(2,5)", 5)
    sigma = P("(2,6)(3,5)", 6)
    assert canonical_normal_form(sigma, 3) == P("(1,5)(2,6)", 6)


def test_canonical_form_is_a_double_coset_invariant():
    sub = sym_embed(3, 6)
    members = [Permutation._from_raw(t) for t in sub.element_tuples()]
    sigma = P("(1,4,2,5)", 6)
    base = canonical_normal_form(sigma, 3)
    for a in members[::3]:
        for b in members[::4]:
            assert canonical_normal_form(a * sigma * b, 3) == base


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
    assert normal_form_census(3, 6) == sym_census(3, 6)
    assert normal_form_census(2, 5) == sym_census(2, 5)
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
    assert canonical_normal_form(a * sigma * b, 3) == canonical_normal_form(sigma, 3)


@settings(max_examples=40, deadline=None)
@given(sym6_elements())
def test_normal_form_squares_decide_nullity(sigma):
    form = sym_normal_form(sigma, 3)
    assert is_null_coset(sigma, 3) == (not (form * form).is_identity())
