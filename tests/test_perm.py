"""Permutation arithmetic and group membership tests."""
from __future__ import annotations

import gc
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fscat.perm import (
    BoundExceeded,
    _identity,
    _inv,
    _min_moved,
    _mul,
    _sift,
    PermGroup,
    Permutation,
    alt,
    alt_embed,
    conjugate,
    cyclic,
    embedded,
    sym,
    sym_embed,
    sym_prime,
    tilde_sym,
    trivial,
)
from test_chartab import young_case, young_groups

P = Permutation.from_text


def test_compose_applies_right_factor_first():
    a = P("(1,2)", 3)
    b = P("(2,3)", 3)
    assert a * b == P("(1,2,3)")
    assert b * a == P("(1,3,2)")


def test_identity_and_inverse():
    p = P("(1,4,2,5)", 6)
    assert (p * p.inverse()).is_identity()
    assert p.inverse() * p == Permutation.identity(6)
    assert (p ** 4).is_identity()
    assert p ** -1 == p.inverse()


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        P("(1,2)", 3) * P("(1,2)", 4)
    with pytest.raises(ValueError):
        conjugate(P("(1,2)", 3), P("(1,2)", 4))


def test_images_are_one_based():
    p = P("(1,2,3)", 4)
    assert p.images == (2, 3, 1, 4)
    assert p.apply(3) == 1
    assert Permutation(p.images) == p


def test_cycle_text_round_trip():
    for text in ["(1,2)(3,4)", "(1,2,7,8)(3,11,9,5)(4,12,10,6)", "()"]:
        p = P(text)
        assert P(p.to_text(), p.degree) == p
    q = P("(1,2) deg=6")
    assert q.degree == 6
    assert q.to_text(with_degree=True) == "(1,2) deg=6"


def test_parse_errors():
    with pytest.raises(ValueError):
        P("(1,2)(2,3)")  # repeated point
    with pytest.raises(ValueError):
        P("(1 2)")
    with pytest.raises(ValueError):
        P("(1,5)", 3)
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


def test_sign_and_order():
    assert P("(1,2)", 5).sign == -1
    assert P("(1,2,3)", 5).sign == 1
    assert P("(1,2)(3,4,5)").sign == -1
    assert P("(1,2)(3,4,5)").order == 6
    assert Permutation.identity(4).order == 1


def test_conjugate_example():
    g = P("(1,2)", 3)
    x = P("(1,3)", 3)
    assert conjugate(g, x) == P("(2,3)")


def test_twelve_cycle_conjugation_anchor():
    # g has order 4, g^2 equals the sixth power of the 12-cycle, and the
    # conjugate of t by g^-1 is a specific 12-cycle.
    t = Permutation.from_cycles([range(1, 13)], 12)
    g = P("(1,2,7,8)(3,11,9,5)(4,12,10,6)")
    assert g.degree == 12 and g.order == 4
    assert g * g == P("(1,7)(2,8)(3,9)(4,10)(5,11)(6,12)")
    assert g * g == t ** 6
    assert conjugate(g.inverse(), t) == P("(1,5,6,9,10,2,7,11,12,3,4,8)")


def test_min_moved():
    assert P("(3,5)", 6).min_moved() == 3
    assert Permutation.identity(3).min_moved() is None


# ---------------------------------------------------------------------------
# groups

def test_family_orders():
    assert sym(1).order() == 1
    assert sym(5).order() == 120
    assert alt(5).order() == 60
    assert cyclic(12).order() == 12
    assert sym_embed(3, 6).order() == 6
    assert alt_embed(4, 7).order() == 12
    assert sym_prime(2, 6).order() == 24
    for n in range(4, 10):
        assert tilde_sym(n).order() == math.factorial(n - 2)


def test_big_group_order_without_enumeration():
    for n in range(1, 21):
        assert sym(n).order() == math.factorial(n)
        assert alt(n).order() == max(math.factorial(n) // 2, 1)


M11_GENS = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]
M12_GENS = M11_GENS + ["(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"]


def test_mathieu_orders_from_standard_generators():
    m11 = PermGroup(11, [P(t, 11) for t in M11_GENS])
    m12 = PermGroup(12, [P(t, 12) for t in M12_GENS])
    assert m11.order() == 7920
    assert m12.order() == 95040
    assert m11.is_subgroup_of(alt(11)) and m12.is_subgroup_of(alt(12))


def assert_chain_complete(group):
    # every strong generator of a level fixes the earlier base points, the
    # orbit is closed under them, and every Schreier generator sifts to the
    # identity through the levels below
    levels = group._chain()
    idt = _identity(group.degree)
    for b, lv in enumerate(levels):
        assert lv.orbit[b] == idt
        # each transversal entry's inverse is stored with it
        assert lv.inv.keys() == lv.orbit.keys()
        for p, up in lv.orbit.items():
            assert up[b] == p
            assert lv.inv[p] == _inv(up)
            for s in lv.gens:
                assert _min_moved(s) >= b
                us = lv.orbit[s[p]]
                assert _sift(levels, _mul(_inv(us), _mul(s, up)), b + 1) == idt
    assert all(_sift(levels, g._img) == idt for g in group.generators)
    assert group.order() == math.prod(len(lv.orbit) for lv in levels)


@pytest.mark.parametrize("build", [
    lambda: sym(10), lambda: sym_embed(5, 10), lambda: sym_embed(7, 10),
    lambda: sym(11), lambda: tilde_sym(10, degree=11),
    lambda: PermGroup(12, [P(t, 12) for t in M12_GENS]),
])
def test_stabilizer_chains_are_complete(build):
    assert_chain_complete(build())


def test_cyclic_needs_a_positive_order():
    assert cyclic(1).order() == 1 and cyclic(1).degree == 1
    for n in (0, -3):
        with pytest.raises(ValueError):
            cyclic(n)


def test_membership():
    s5, a5 = sym(5), alt(5)
    assert P("(1,2)", 5) in s5
    assert P("(1,2)", 5) not in a5
    assert P("(1,2,3)", 5) in a5
    assert P("(1,2)", 4) not in s5  # degree mismatch
    t = Permutation.from_cycles([range(1, 13)], 12)
    assert t in cyclic(12)
    assert conjugate(P("(1,2,7,8)(3,11,9,5)(4,12,10,6)").inverse(), t) not in cyclic(12)


def test_tilde_sym_shape():
    h = tilde_sym(7)
    assert h.order() == 120
    assert h.is_subgroup_of(alt(7))
    assert P("(1,2)(3,4)", 7) in h
    assert P("(3,4)", 7) not in h
    assert P("(1,2)", 7) not in h
    # odd permutations of {3..n} enter only together with the front swap
    assert P("(1,2)(4,5,6,7)", 7) in h
    assert P("(4,5,6,7)", 7) not in h


def test_tilde_sym_at_larger_degree():
    h = tilde_sym(10, degree=12)
    assert h.degree == 12
    assert h.order() == math.factorial(8)
    assert h.is_subgroup_of(embedded(sym(10), 12))
    assert h.is_subgroup_of(alt(12))


def test_elements_enumeration():
    g = sym(4)
    elems = g.elements()
    assert len(elems) == 24 == g.order()
    assert len(set(elems)) == 24
    assert all(e in g for e in elems)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded) as exc:
        sym(12).elements()
    assert "enumeration bound" in str(exc.value)
    assert "1000000" in str(exc.value)


def test_dropped_group_leaves_no_cyclic_garbage():
    # the chain build must not leave reference cycles behind, so dropping a
    # group frees its chain and elements without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        grp = sym(7)
        assert len(grp.element_tuples()) == 5040
        del grp
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subgroup_checks():
    assert alt(6).is_subgroup_of(sym(6))
    assert not sym(6).is_subgroup_of(alt(6))
    assert sym_prime(2, 6).is_subgroup_of(sym(6))
    assert trivial(5).is_subgroup_of(alt(5))


def test_coset_min_matches_brute_force():
    h = sym_embed(3, 5)
    hset = h.element_tuples()
    for y in [P("(1,4)", 5), P("(2,5,3)", 5), P("(1,5)(2,4)", 5)]:
        raw = y._img
        expect = min((tuple(raw[i] for i in t) for t in hset))
        assert h.coset_min(raw) == expect


def test_embedded_padding():
    g = embedded(sym(3), 6)
    assert g.degree == 6
    assert g.order() == 6
    assert P("(1,2)", 6) in g
    assert P("(5,6)", 6) not in g


# ---------------------------------------------------------------------------
# properties

@st.composite
def perms(draw, max_degree=8, degree=None):
    n = degree if degree is not None else draw(st.integers(2, max_degree))
    return Permutation._from_raw(tuple(draw(st.permutations(range(n)))))


@given(perms(degree=6), perms(degree=6))
def test_sign_is_multiplicative(a, b):
    assert (a * b).sign == a.sign * b.sign


@given(perms(degree=6), perms(degree=6), perms(degree=6))
def test_conjugation_distributes_over_composition(g, x, y):
    assert conjugate(g, x * y) == conjugate(g, x) * conjugate(g, y)


@given(perms(max_degree=7))
def test_order_annihilates(p):
    assert (p ** p.order).is_identity()
    assert not any((p ** k).is_identity() for k in range(1, p.order))


@given(st.lists(perms(degree=6), min_size=0, max_size=2))
@settings(deadline=None, max_examples=40)
def test_generated_group_closure(gens):
    g = PermGroup(6, gens)
    elems = g.elements()
    assert len(elems) == g.order()
    assert all(e in g for e in elems)
    assert all(a * b in g for a in elems[:6] for b in elems[:6])


def brute_closure(degree, gens):
    idt = _identity(degree)
    seen = {idt}
    queue = [idt]
    for x in queue:
        for s in gens:
            y = _mul(s, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(perms(degree=n), min_size=0, max_size=3)
    .map(lambda gens: (n, gens))))
@settings(deadline=None, max_examples=60)
def test_chain_matches_brute_closure(case):
    n, gens = case
    group = PermGroup(n, gens)
    closure = brute_closure(n, [g._img for g in gens])
    assert group.order() == len(closure)
    assert set(group.element_tuples()) == closure
    assert_chain_complete(group)


@given(perms(degree=5), perms(degree=5))
def test_coset_min_is_coset_invariant(y, h):
    grp = alt(5)
    if h not in grp:
        h = Permutation.identity(5)
    assert grp.coset_min(y._img) == grp.coset_min((y * h)._img)


def _young_coset_case(orbits, signed, n, *ys):
    gens, n, _ = young_case(orbits, signed, n)
    return gens, n, [P(y, n)._img for y in ys]


@st.composite
def young_cosets(draw):
    """(generators, degree, some y) for a Young or signed-Young group on at
    most 8 points, with orbits in any position, fixed points and any set of
    signed orbits (young_groups)."""
    gens, n, _ = draw(young_groups())
    ys = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    return gens, n, [tuple(y) for y in ys]


@settings(max_examples=150, deadline=None)
@given(young_cosets())
# one signed orbit and a fixed point
@example(_young_coset_case([[0, 1, 2, 3]], [0], 5, "(1,2)", "(1,5)", "(3,4,5)"))
# two signed orbits, the first of which holds the last position
@example(_young_coset_case([[0, 1, 7], [2, 3, 4, 5, 6]], [0, 1], 8,
                           "(1,2)", "(6,7)", "(1,8)(3,4,5)", "(2,8,3)"))
# orbits interleaved, an unsigned orbit after the signed ones, fixed points
@example(_young_coset_case([[0, 3, 6], [1, 4], [2, 7]], [0, 1], 8,
                           "(1,4)", "(2,5)(3,8)", "(1,2,3,4,5,6,7,8)"))
@example(_young_coset_case([[1, 2, 4], [5, 6]], [0], 8,
                           "(2,3)", "(1,2)(7,8)", "(3,5,6,7)"))
@example(_young_coset_case([[0, 2, 4, 6, 7], [1, 3, 5]], [], 8,
                           "(1,2,3,4,5,6,7,8)", "(1,8)"))
def test_coset_min_of_a_young_group_matches_brute_force(case):
    gens, n, ys = case
    group = PermGroup(n, gens)
    assert group.young_shape() is not None
    elems = group.element_tuples()
    for y in ys:
        assert group.coset_min(y) == min(tuple(y[i] for i in t) for t in elems)


def test_young_shape_is_computed_once():
    group = tilde_sym(6, degree=7)
    shape = group.young_shape()
    assert shape == (((0, 1), (2, 3, 4, 5)), (0, 1))
    assert group.young_shape() is shape
    assert PermGroup(8, [P("(1,2,3,4,5,6,7,8)")]).young_shape() is None
    assert trivial(3).young_shape() == ((), ())
