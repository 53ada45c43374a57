"""Indicator formulas, their shortcut routes, and the category scan."""
from __future__ import annotations

import csv
import gc
import json
import random
import weakref
from dataclasses import replace
from types import SimpleNamespace

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscat import chartab, config, indicators, perm
from fscat.cli import parse_group_spec
from fscat.chartab import character_table, nu_classical
from fscat.cosets import is_null_coset, double_cosets, stabilizer
from fscat.indicators import (
    category_scan,
    index_two_overgroup,
    invariance_check,
    nu2_extension,
    nu2_induced,
    nu2_squares,
    nu2_stab,
    nu_m,
    nu_twisted,
    reduction_check,
    two_power_rep,
    vanishing_witness,
)
from fscat.perm import (
    PermGroup,
    Permutation,
    alt,
    alt_embed,
    conjugate,
    cyclic,
    sym,
    sym_embed,
    tilde_sym,
    trivial,
)

P = Permutation.from_text


def test_negative_indicator_over_a_twelve_cycle():
    # the order-12 rotation subgroup of S12 against a triple 4-cycle
    H = cyclic(12)
    t = P("(1,2,3,4,5,6,7,8,9,10,11,12)")
    g = P("(1,2,7,8)(3,11,9,5)(4,12,10,6)")
    assert g * g == t ** 6
    gi = g.inverse()
    outside = [
        (conjugate(gi, t), "(1,5,6,9,10,2,7,11,12,3,4,8)"),
        (conjugate(gi, t ** 2), "(1,6,10,7,12,4)(2,11,3,8,5,9)"),
        (conjugate(gi, t ** 3), "(1,9,7,3)(2,12,8,6)(4,5,10,11)"),
        (conjugate(g, t ** 4), "(1,10,12)(2,3,5)(4,6,7)(8,9,11)"),
    ]
    for u, text in outside:
        assert u == P(text)
        assert u not in H
    S = stabilizer(g, H)
    assert S.order() == 2
    assert S.element_set() == {P("()", 12)._img, (t ** 6)._img}
    table = character_table(S)
    nus = sorted(nu_m(g, chi, H, 2) for chi in table.characters)
    assert nus == [-1, 1]
    neg = [chi for chi in table.characters if nu_m(g, chi, H, 2) == -1]
    assert len(neg) == 1
    assert neg[0].value(t ** 6).as_rational_integer() == -1


def test_degree_seven_indicators_vanish_for_outer_transposition():
    H = sym_embed(5, 7)
    g = P("(5,6)", 7)
    assert not vanishing_witness(g, H, 7)
    S = stabilizer(g, H)
    assert S.order() == 24
    table = character_table(S)
    assert all(nu_m(g, chi, H, 7) == 0 for chi in table.characters)


def test_all_degree_two_routes_agree():
    pairs = [(sym(6), sym_embed(3, 6)), (sym(7), tilde_sym(7))]
    for group, sub in pairs:
        members = sub.element_set()
        for dc in double_cosets(group, sub).cosets:
            w = two_power_rep(dc.rep, sub)
            if w is None or w._img in members:
                continue
            S = stabilizer(dc.rep, sub)
            for chi in character_table(S).characters:
                a = nu_m(w, chi, sub, 2)
                assert a == nu2_stab(w, chi, sub)
                assert a == nu2_squares(w, chi, sub)
                assert a == nu2_induced(w, chi, sub)
                assert a == nu2_extension(w, chi, sub)


def test_indicator_does_not_depend_on_the_representative():
    sub = sym_embed(3, 6)
    g = P("(1,4)(2,5)", 6)
    a, b = P("(1,2,3)", 6), P("(2,3)", 6)
    moved = a * g * b
    row = sorted((chi.degree, nu_m(g, chi, sub, 2))
                 for chi in character_table(stabilizer(g, sub)).characters)
    row2 = sorted((chi.degree, nu_m(moved, chi, sub, 2))
                  for chi in character_table(stabilizer(moved, sub)).characters)
    assert row == row2


def test_two_power_rep_shapes():
    sub = sym_embed(3, 6)
    w = two_power_rep(P("(1,4)(2,5)", 6), sub)
    assert w is not None
    o = w.order
    while o % 2 == 0:
        o //= 2
    assert o == 1
    assert (w * w)._img in sub.element_set()
    # a null coset admits no square root of the subgroup at all
    assert two_power_rep(P("(1,2,4,5)", 6), sub) is None
    assert two_power_rep(P("(4,5,6)", 6), sub) is None


def test_raw_pow_matches_repeated_products():
    rng = random.Random(8)
    for degree in (1, 3, 7, 11):
        for _ in range(5):
            images = list(range(degree))
            rng.shuffle(images)
            x = tuple(images)
            p = Permutation._from_raw(x)
            power = tuple(range(degree))
            for m in range(13):
                assert perm._raw_pow(x, m) == power
                assert (p ** m)._img == power
                assert (p ** -m) * (p ** m) == Permutation.identity(degree)
                power = tuple(x[i] for i in power)


PAIR_CASES = {
    "S8-C8": lambda: (sym(8), cyclic(8)),
    "S8-Sym4": lambda: (sym(8), sym_embed(4, 8)),
    "S7-tildeS5": lambda: (sym(7), tilde_sym(5, degree=7)),
    "S6-A6": lambda: (sym(6), alt(6)),
    "A7-Alt4": lambda: (alt(7), alt_embed(4, 7)),
    "S6-Sym3": lambda: (sym(6), sym_embed(3, 6)),
    # fixes 1 and 6, so cosets of one fold orbit have different stabilizers
    "S6-Sym2..5": lambda: (sym(6), PermGroup(6, [P("(2,3)", 6),
                                                  P("(2,3,4,5)", 6)])),
}


@pytest.mark.parametrize("case", ["S8-C8", "S8-Sym4", "S7-tildeS5", "S6-A6",
                                  "A7-Alt4"])
def test_self_inverse_cosets_have_a_two_power_rep(case):
    group, sub = PAIR_CASES[case]()
    for dc in double_cosets(group, sub):
        assert dc.self_inverse == (two_power_rep(dc.rep, sub) is not None)


def test_scan_rejects_a_self_inverse_coset_without_a_square_root(monkeypatch):
    monkeypatch.setattr(indicators, "two_power_rep", lambda g, sub: None)
    with pytest.raises(ArithmeticError):
        category_scan(sym(6), sym_embed(3, 6))


@pytest.mark.parametrize("case", ["S6-Sym3", "S8-C8", "S7-tildeS5", "S6-A6",
                                  "A7-Alt4"])
def test_scan_satisfies_the_global_identities(case):
    # column orthogonality over G: with dim = [H:S(g)] * chi(1), the
    # dimensions square-sum to |G|, and sum dim * nu_m counts the y in G
    # with y^m = e
    group, sub = PAIR_CASES[case]()
    orders = Counter(Permutation._from_raw(y).order
                     for y in group.element_tuples())
    for m in (2, 3, 4):
        report = category_scan(group, sub, m)
        dims = [sub.order() // e.stab_order * e.chi_degree
                for e in report.entries]
        assert sum(d * d for d in dims) == group.order()
        roots = sum(k for o, k in orders.items() if m % o == 0)
        assert sum(d * e.nu for d, e in zip(dims, report.entries)) == roots


def test_overgroup_construction_and_guards():
    H = cyclic(12)
    g = P("(1,2,7,8)(3,11,9,5)(4,12,10,6)")
    S = stabilizer(g, H)
    hat = index_two_overgroup(g, S)
    assert isinstance(hat, PermGroup)
    assert hat.order() == 2 * S.order()
    assert S.is_subgroup_of(hat)
    assert hat.member(g)
    with pytest.raises(ValueError):
        index_two_overgroup(P("(1,7)(2,8)(3,9)(4,10)(5,11)(6,12)"), S)
    with pytest.raises(ValueError):
        index_two_overgroup(P("(1,2,3)", 12), S)


def test_weighted_sum_counts_involutions_in_the_coset():
    # sum of nu_2 * chi(1) equals the number of x in S with (w x)^2 = e
    for group, sub, text in [(sym(6), sym_embed(3, 6), "(1,4)(2,5)"),
                             (sym(6), alt(6), "(1,2)")]:
        w = two_power_rep(P(text, 6), sub)
        S = stabilizer(w, sub)
        table = character_table(S)
        lhs = sum(chi.degree * nu_m(w, chi, sub, 2) for chi in table.characters)
        rhs = sum(1 for x in S.element_tuples()
                  if ((w * Permutation._from_raw(x)) ** 2).is_identity())
        assert lhs == rhs


def test_twisted_indicator_reduces_to_classical_for_central_u():
    table = character_table(alt(4))
    for chi in table.characters:
        classical = nu_classical(chi).as_rational_integer()
        assert nu_twisted(chi, P("()", 4)) == classical


def test_twisted_by_odd_element_stays_in_zero_one():
    for n in (4, 5, 6):
        table = character_table(alt(n))
        u = P("(1,2)", n)
        vals = [nu_twisted(chi, u) for chi in table.characters]
        assert set(vals) <= {0, 1}


def test_twisted_weighted_sum_counts_twisted_involutions():
    group = alt(4)
    u = P("(1,2)", 4)
    table = character_table(group)
    lhs = sum(chi.degree * nu_twisted(chi, u) for chi in table.characters)
    rhs = sum(1 for x in group.element_tuples()
              if (Permutation._from_raw(x) * conjugate(u, Permutation._from_raw(x))).is_identity())
    assert lhs == rhs


def test_twisted_indicator_guards():
    table = character_table(sym_embed(3, 5))
    with pytest.raises(ValueError, match="normalize"):
        nu_twisted(table.characters[0], P("(3,4)", 5))
    with pytest.raises(ValueError, match="centralize"):
        nu_twisted(table.characters[0], P("(1,2,3)", 5))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_one_twisted_census_serves_every_character(n):
    group = alt(n)
    table = character_table(group)
    cd = chartab.conjugacy_classes(group)
    odd_involutions = [u for u in chartab.conjugacy_classes(sym(n)).reps
                       if u.sign == -1 and (u * u).is_identity()]
    assert len(odd_involutions) == (n + 2) // 4
    for u in odd_involutions:
        shared = indicators._census_indicators(
            indicators._twisted_counts(cd, u), table.characters,
            group.order(), "twisted")
        assert shared == [nu_twisted(chi, u) for chi in table.characters]


def test_m_below_one_is_rejected():
    sub = sym_embed(2, 4)
    g = P("(2,3)", 4)
    chi = character_table(stabilizer(g, sub)).characters[0]
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            category_scan(sym(4), sub, m)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            nu_m(g, chi, sub, m)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            vanishing_witness(g, sub, m)


def test_scan_of_small_symmetric_pair():
    report = category_scan(sym(6), sym_embed(3, 6), 2)
    assert len(report.entries) == 64
    assert report.summary == {0: 36, 1: 28}
    by_rep = {}
    for e in report.entries:
        by_rep.setdefault(e.rep, set()).add(e.nu)
    assert len(by_rep) == 34
    for g, vals in by_rep.items():
        assert len(vals) == 1
        assert (vals == {0}) == is_null_coset(g, 3)


def test_scan_handles_odd_degree():
    report = category_scan(sym(7), sym_embed(5, 7), 7,
                           group_label="sym:7", sub_label="sym-embed:5,7")
    assert report.m == 7
    coset_of_transposition = [e for e in report.entries
                              if e.rep == P("(5,6)", 7)]
    assert coset_of_transposition
    assert all(e.nu == 0 for e in coset_of_transposition)


def test_scan_with_trivial_subgroup():
    report = category_scan(sym(3), trivial(3), 2)
    assert report.summary == {0: 2, 1: 4}
    assert all(e.stab_order == 1 and e.chi_degree == 1 for e in report.entries)


def test_scan_report_serialization():
    report = category_scan(sym(4), alt(4), 2,
                           group_label="sym:4", sub_label="alt:4")
    payload = json.loads(report.to_json())
    assert payload["category"] == {"G_spec": "sym:4", "H_spec": "alt:4"}
    assert payload["m"] == 2
    assert set(payload["summary"]) <= {"-1", "0", "1"}
    assert sum(payload["summary"].values()) == len(payload["entries"])
    for row in payload["entries"]:
        assert set(row) == {"rep", "stab_order", "chi_degree", "nu"}
    lines = report.to_csv().splitlines()
    assert lines[0] == "rep,stab_order,chi_degree,nu"
    assert len(lines) == len(report.entries) + 1
    # byte level stability across reruns
    again = category_scan(sym(4), alt(4), 2,
                          group_label="sym:4", sub_label="alt:4")
    assert again.to_json() == report.to_json()
    assert again.to_csv() == report.to_csv()


def test_report_writes_each_rep_text_once(monkeypatch):
    report = category_scan(sym(6), sym_embed(3, 6), 2)
    rows = [(e.rep.to_text(), e.stab_order, e.chi_degree, e.nu)
            for e in report.entries]
    reps = {e.rep for e in report.entries}
    assert len(reps) < len(rows)
    texts = []
    to_text = Permutation.to_text

    def counting_to_text(self, *args):
        texts.append(self)
        return to_text(self, *args)

    monkeypatch.setattr(Permutation, "to_text", counting_to_text)
    payload = json.loads(report.to_json())
    assert len(texts) == len(reps)
    lines = report.to_csv().splitlines()
    assert len(texts) == 2 * len(reps)
    assert [(r["rep"], r["stab_order"], r["chi_degree"], r["nu"])
            for r in payload["entries"]] == rows
    assert list(csv.reader(lines[1:])) == [list(map(str, row)) for row in rows]


def defining_sum_rows(group, sub, m):
    """(rep, |S|, chi(1), nu_m) per simple object, from the filtered
    stabilizer, its table and the defining sum at every double coset."""
    rows = []
    for dc in double_cosets(group, sub):
        stab = stabilizer(dc.rep, sub)
        for chi in character_table(stab).characters:
            rows.append((dc.rep, stab.order(), chi.degree,
                         nu_m(dc.rep, chi, sub, m)))
    return rows


@pytest.mark.parametrize("case, m", [
    ("S6-Sym3", 2), ("S6-Sym3", 3), ("S7-tildeS5", 2), ("S7-tildeS5", 4),
    ("S8-Sym4", 2), ("S8-Sym4", 4), ("A7-Alt4", 2), ("A7-Alt4", 4),
    ("S6-Sym2..5", 2), ("S6-Sym2..5", 3)])
def test_shared_stabilizer_tables_change_no_row(monkeypatch, case, m):
    # every row equals the defining sum over the filtered stabilizer's
    # table, whether computed or moved along the fold; one table is built
    # per distinct stabilizer, by either route (each table is verified once)
    group, sub = PAIR_CASES[case]()
    expected = defining_sum_rows(group, sub, m)
    distinct = {stabilizer(dc.rep, sub).element_set()
                for dc in double_cosets(group, sub)}
    built = []
    verify = chartab._verify_table

    def counting_verify(n_g, chars):
        built.append(n_g)
        return verify(n_g, chars)

    moved = []
    transported = indicators._transported

    def counting_transport(*args):
        moved.append(args)
        return transported(*args)

    monkeypatch.setattr(chartab, "_verify_table", counting_verify)
    monkeypatch.setattr(indicators, "_transported", counting_transport)
    report = category_scan(group, sub, m)
    assert [(e.rep, e.stab_order, e.chi_degree, e.nu)
            for e in report.entries] == expected
    assert len(built) == len(distinct)
    # every case fixes two or more letters, so some rows are moved
    assert moved


def test_scan_rejects_a_wrong_transported_row(monkeypatch):
    # the closing identity sum dim * nu_m = #{y : y^m = e} sees every moved
    # row: zeroing them breaks it
    monkeypatch.setattr(indicators, "_transported",
                        lambda source, conj, cd, chars, what: [0] * len(chars))
    with pytest.raises(ArithmeticError):
        category_scan(sym(6), sym_embed(3, 6), 3)


def test_scan_rejects_a_missing_character(monkeypatch):
    # a table short of one character breaks sum dim^2 = |G|, which is
    # checked for any G (here S_5 acting on 6 letters)
    table_of = indicators.character_table

    def short_table(grp, *args, **kwargs):
        table = table_of(grp, *args, **kwargs)
        return SimpleNamespace(characters=table.characters[:-1])

    group, sub = sym_embed(5, 6), sym_embed(3, 6)
    assert indicators._power_roots(group, 2) is None
    category_scan(group, sub, 2)
    monkeypatch.setattr(indicators, "character_table", short_table)
    with pytest.raises(ArithmeticError):
        category_scan(group, sub, 2)


@st.composite
def gens_pairs(draw):
    """(G, H, m): G from gens: with one to three random generators of
    degree at most 6, H generated by words in G's generators."""
    degree = draw(st.integers(2, 6))
    perm = st.permutations(range(1, degree + 1))
    g_imgs = draw(st.lists(perm, min_size=1, max_size=3))
    g_perms = [Permutation(p) for p in g_imgs]
    words = draw(st.lists(st.lists(st.integers(0, len(g_perms) - 1),
                                   min_size=1, max_size=4), max_size=2))
    h_perms = []
    for word in words:
        x = Permutation.identity(degree)
        for letter in word:
            x = x * g_perms[letter]
        h_perms.append(x)

    def spec(perms):
        body = ";".join(p.to_text() for p in perms) or "()"
        return parse_group_spec(f"gens:{body}@{degree}").build()

    return spec(g_perms), spec(h_perms), draw(st.integers(2, 4))


@settings(max_examples=200, deadline=None)
@given(gens_pairs())
def test_scan_matches_the_defining_sum_on_random_pairs(pair):
    group, sub, m = pair
    report = category_scan(group, sub, m)
    assert [(e.rep, e.stab_order, e.chi_degree, e.nu)
            for e in report.entries] == defining_sum_rows(group, sub, m)
    dims = [sub.order() // e.stab_order * e.chi_degree
            for e in report.entries]
    assert sum(d * d for d in dims) == group.order()
    roots = sum(1 for y in group.element_tuples()
                if perm._raw_pow(y, m) == tuple(range(group.degree)))
    assert sum(d * e.nu for d, e in zip(dims, report.entries)) == roots


def test_power_roots_count_from_cycle_types():
    for n in range(1, 8):
        for group in (sym(n), alt(n)) if n > 1 else (sym(1),):
            orders = Counter(Permutation._from_raw(y).order
                             for y in group.element_tuples())
            for m in range(1, 8):
                roots = sum(k for o, k in orders.items() if m % o == 0)
                assert indicators._power_roots(group, m) == roots
    assert indicators._power_roots(cyclic(5), 5) is None


@pytest.mark.parametrize("name", ["D4", "C8"])
def test_roots_of_any_group_within_the_bound_are_checked(monkeypatch, name):
    # neither group is symmetric or alternating, so sum dim * nu_m is
    # checked against a count over G's elements, which the scan does not
    # keep; a tampered row breaks it, and above the enumeration bound the
    # count is skipped, not raised
    group, sub = {
        "D4": lambda: (PermGroup(4, [P("(1,2,3,4)"), P("(1,3)", 4)]),
                       PermGroup(4, [P("(1,3)", 4)])),
        "C8": lambda: (cyclic(8), PermGroup(8, [P("(1,5)(2,6)(3,7)(4,8)")])),
    }[name]()
    for m in (2, 3, 4):
        assert indicators._power_roots(group, m) is None
        entries = list(category_scan(group, sub, m).entries)
        assert group._elem_tuples is None
        indicators._check_global_identities(group, sub, m, entries)
        entries[-1] = replace(entries[-1], nu=entries[-1].nu + 1)
        with pytest.raises(ArithmeticError, match=f"have y\\^{m} = e"):
            indicators._check_global_identities(group, sub, m, entries)
        monkeypatch.setattr(config, "ENUMERATION_BOUND", group.order() - 1)
        indicators._check_global_identities(group, sub, m, entries)
        monkeypatch.undo()


def test_deep_scan_lists_no_stabilizer(monkeypatch):
    # C(S11, tilde S8): every stabilizer is signed Young, so its square
    # census comes from cycle types, and H is the one group listed
    group, sub = sym(11), tilde_sym(10, degree=11)
    listed = []
    element_tuples = PermGroup.element_tuples

    def watching(self):
        listed.append(self)
        return element_tuples(self)

    monkeypatch.setattr(PermGroup, "element_tuples", watching)
    category_scan(group, sub, 2)
    assert listed and all(grp is sub for grp in listed)


def test_every_square_census_of_a_tilde_scan_matches_the_listed_coset(
        monkeypatch):
    # C(S10, tilde S8): each census the scan reads off cycle types equals
    # the class census of (w s)^2 over the listed stabilizer
    seen = []
    from_cycle_types = chartab.YoungClasses.square_census

    def checked(cd, w):
        counts = from_cycle_types(cd, w)
        products = (perm._mul(w, s) for s in cd.group.element_tuples())
        assert counts == cd.census(perm._mul(ws, ws) for ws in products)
        seen.append(bool(cd._signed))
        return counts

    monkeypatch.setattr(chartab.YoungClasses, "square_census", checked)
    category_scan(sym(10), tilde_sym(10), 2)
    assert len(seen) == 5 and all(seen)


def test_scan_frees_each_stabilizer_without_the_collector(monkeypatch):
    # with the cyclic collector off, reference counting alone must free
    # every stabilizer (with its classes and table) by the time the scan
    # returns
    tabled = []
    table_of = indicators.character_table

    def watching_table(grp, *args, **kwargs):
        tabled.append(weakref.ref(grp))
        return table_of(grp, *args, **kwargs)

    monkeypatch.setattr(indicators, "character_table", watching_table)
    gc.collect()
    gc.disable()
    try:
        report = category_scan(sym(6), sym_embed(3, 6))
        assert report.entries
        assert tabled
        assert all(ref() is None for ref in tabled)
    finally:
        gc.enable()


def test_scan_rejects_non_subgroup():
    with pytest.raises(ValueError):
        category_scan(alt(4), cyclic(4), 2)


def test_invariance_under_disjoint_transposition():
    res = invariance_check(P("(7,8)", 8), P("(1,6)", 8), sym_embed(3, 8), 2)
    assert res.same_stabilizer
    assert res.conjugate_equal
    assert res.product_equal
    assert res.values == (1, 1)


def test_invariance_requires_centralizing_element():
    with pytest.raises(ValueError):
        invariance_check(P("(1,2)", 8), P("(1,6)", 8), sym_embed(3, 8), 2)


def test_reduction_through_tower():
    H = tilde_sym(10, degree=12)
    F = sym_embed(10, 12)
    t = P("(9,11)(10,12)", 12)
    f = P("(1,3)(2,4)", 12)
    res = reduction_check(t, f, H, F)
    assert res.same_stabilizer
    assert res.indicators_equal
    assert res.reduced_sub_order == 720
    assert -1 in res.values


def test_reduction_guards():
    H = sym_embed(3, 6)
    F = sym_embed(5, 6)
    with pytest.raises(ValueError):
        reduction_check(P("(4,5,6)", 6), P("(1,2)", 6), H, F)
    with pytest.raises(ValueError):
        reduction_check(P("(5,6)", 6), P("(4,5)", 6), H, F)
