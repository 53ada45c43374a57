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
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fscat import chartab, config, indicators, perm
from fscat.cli import parse_group_spec
from fscat.chartab import character_table, nu_classical
from fscat.cosets import is_null_coset, double_cosets, stabilizer
from fscat.cyclo import ZERO, Cyclotomic
from fscat.indicators import (
    category_scan,
    index_two_overgroup,
    invariance_check,
    nu2_extension,
    nu2_induced,
    nu2_squares,
    nu2_stab,
    nu_m,
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

from test_chartab import young_case, young_groups

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


@pytest.mark.parametrize("case", list(PAIR_CASES))
def test_self_inverse_cosets_have_a_two_power_rep(case):
    # the square root the decomposition keeps exists exactly where the
    # search over H finds one, and it lies in rep*H and squares into H
    group, sub = PAIR_CASES[case]()
    for dc in double_cosets(group, sub):
        assert (dc.square_root is None) == (two_power_rep(dc.rep, sub) is None)
        assert dc.self_inverse == (dc.square_root is not None)
        if dc.square_root is not None:
            w = Permutation._from_raw(dc.square_root)
            assert sub.member(dc.rep.inverse() * w)
            assert sub.member(w * w)


def _nu2_stab_rows(group, sub):
    """The degree-2 rows of every double coset by nu2_stab at
    two_power_rep's w (the classical indicator where w lies in H), each as
    a sorted list of (chi(1), nu_2)."""
    rows = []
    for dc in double_cosets(group, sub):
        stab = PermGroup(sub.degree, [Permutation._from_raw(x)
                                      for x in dc.stab_gens])
        characters = character_table(stab).characters
        w = two_power_rep(dc.rep, sub)
        if w is None:
            row = [(chi.degree, 0) for chi in characters]
        elif sub.member(w):
            row = [(chi.degree, nu_classical(chi).as_rational_integer())
                   for chi in characters]
        else:
            row = [(chi.degree, nu2_stab(w, chi, sub)) for chi in characters]
        rows.append(sorted(row))
    return rows


def _scan_rows(report):
    rows: dict = {}
    for e in report.entries:
        rows.setdefault(e.rep, []).append((e.chi_degree, e.nu))
    return [sorted(row) for row in rows.values()]


def test_scan_searches_no_square_root_and_both_routes_agree(monkeypatch):
    # the scan reads each w off the decomposition: with two_power_rep made
    # to raise it still runs, and its rows are those of the search route
    expected = {case: _nu2_stab_rows(*make()) for case, make
                in PAIR_CASES.items()}

    def no_search(g, sub):
        raise AssertionError("the scan searched H for a square root")

    monkeypatch.setattr(indicators, "two_power_rep", no_search)
    for case, make in PAIR_CASES.items():
        assert _scan_rows(category_scan(*make(), 2)) == expected[case], case
    report = category_scan(sym(12), tilde_sym(10, degree=12), 2)
    assert sum(report.summary.values()) == len(report.entries)


def test_scan_rejects_a_self_inverse_coset_without_a_square_root(monkeypatch):
    # a square root replaced by the rep itself, which is in rep*H but, for
    # (4,5,6) among others, does not square into H
    group, sub = PAIR_CASES["S7-tildeS5"]()
    real = double_cosets(group, sub)
    assert any(dc.self_inverse and not sub.member(dc.rep * dc.rep)
               for dc in real)
    broken = replace(real, cosets=tuple(
        replace(dc, square_root=dc.rep._img) if dc.self_inverse else dc
        for dc in real))
    monkeypatch.setattr(indicators, "double_cosets", lambda g, h: broken)
    with pytest.raises(ArithmeticError, match="no element squaring into"):
        category_scan(group, sub)


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


def twisted_indicators(group, u):
    """The twisted indicator of every character of group, from one census."""
    table = character_table(group)
    counts = indicators._twisted_counts(chartab.conjugacy_classes(group), u)
    return indicators._census_indicators(counts, table.characters,
                                         group.order(), "twisted")


def test_twisted_indicator_reduces_to_classical_for_central_u():
    table = character_table(alt(4))
    classical = [nu_classical(chi).as_rational_integer()
                 for chi in table.characters]
    assert twisted_indicators(alt(4), P("()", 4)) == classical


def test_twisted_by_odd_element_stays_in_zero_one():
    for n in (4, 5, 6):
        assert set(twisted_indicators(alt(n), P("(1,2)", n))) <= {0, 1}


def test_twisted_weighted_sum_counts_twisted_involutions():
    group = alt(4)
    u = P("(1,2)", 4)
    table = character_table(group)
    lhs = sum(chi.degree * value for chi, value
              in zip(table.characters, twisted_indicators(group, u)))
    rhs = sum(1 for x in group.element_tuples()
              if (Permutation._from_raw(x) * conjugate(u, Permutation._from_raw(x))).is_identity())
    assert lhs == rhs


def test_twisted_indicator_guards():
    cd = chartab.conjugacy_classes(sym_embed(3, 5))
    with pytest.raises(ValueError, match="normalize"):
        indicators._twisted_counts(cd, P("(3,4)", 5))
    with pytest.raises(ValueError, match="centralize"):
        indicators._twisted_counts(cd, P("(1,2,3)", 5))
    # u^2 may centralize the group without being the identity
    cd = chartab.conjugacy_classes(sym_embed(3, 7))
    with pytest.raises(ValueError, match="identity"):
        indicators._twisted_counts(cd, P("(4,5,6,7)", 7))


@pytest.mark.parametrize("n", range(3, 9))
def test_twisted_census_from_cycle_types_matches_the_listed_census(n):
    # x u x u^-1 = (x u)^2 is conjugate in A_n to (u x)^2, so the census
    # is square_census's; listing the twists over A_n is the oracle
    group = alt(n)
    cd = chartab.conjugacy_classes(group)
    odd_involutions = [u for u in chartab.conjugacy_classes(sym(n)).reps
                       if u.sign == -1 and (u * u).is_identity()]
    assert odd_involutions
    for u in odd_involutions:
        listed = cd.census(perm._mul(x, perm._conj(u._img, x))
                           for x in group.element_tuples())
        assert indicators._twisted_counts(cd, u) == listed


@pytest.mark.parametrize("n", [5, 6, 7])
def test_one_twisted_census_serves_every_character(n):
    # against the average of chi(x * u x u^-1) over the group, summed one
    # character at a time
    group = alt(n)
    table = character_table(group)
    odd_involutions = [u for u in chartab.conjugacy_classes(sym(n)).reps
                       if u.sign == -1 and (u * u).is_identity()]
    assert len(odd_involutions) == (n + 2) // 4
    elements = [Permutation._from_raw(x) for x in group.element_tuples()]
    for u in odd_involutions:
        twists = [x * conjugate(u, x) for x in elements]
        averages = []
        for chi in table.characters:
            total = ZERO
            for y in twists:
                total = total + chi.value(y)
            averages.append(total.scaled(Fraction(1, group.order()))
                            .as_rational_integer())
        assert twisted_indicators(group, u) == averages


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


def reference_json(report):
    """The report as the stdlib renders the whole payload."""
    payload = {
        "category": {"G_spec": report.group_label,
                     "H_spec": report.sub_label},
        "m": report.m,
        "entries": [{"rep": e.rep.to_text(), "stab_order": e.stab_order,
                     "chi_degree": e.chi_degree, "nu": e.nu}
                    for e in report.entries],
        "summary": {str(k): v for k, v in report.summary.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("m", [2, 4])
def test_report_rows_from_the_template_match_the_stdlib(m):
    # labels with a quote, a backslash, non-ASCII text and the entries
    # field's own text are escaped by json.dumps, so the rows land once,
    # in the entries field; -1 rows appear at m = 2 on C(S10, tilde S8)
    labels = ('G "sym:10" \\ \u00e9t\u00e9', 'H \u2124/2 "entries": []')
    group, sub = (sym(10), tilde_sym(10)) if m == 2 else \
        (sym(6), sym_embed(3, 6))
    report = category_scan(group, sub, m, *labels)
    assert m != 2 or -1 in report.values()
    assert report.to_json() == reference_json(report)
    assert json.loads(report.to_json())["category"]["H_spec"] == labels[1]
    empty = replace(report, entries=())
    assert empty.to_json() == reference_json(empty)


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

    # PGL(2, 5), transitive on the projective line, has no Young shape
    group = PermGroup(6, [P("(1,2,3,4,5)", 6), P("(2,3,5,4)", 6),
                          P("(1,6)(2,5)", 6)])
    sub = PermGroup(6, [P("(1,2,3,4,5)", 6), P("(2,3,5,4)", 6)])
    assert group.order() == 120
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


def watch_listing(monkeypatch) -> list:
    """The groups whose elements get listed from now on, in call order."""
    listed = []
    element_tuples = PermGroup.element_tuples

    def watching(self):
        listed.append(self)
        return element_tuples(self)

    monkeypatch.setattr(PermGroup, "element_tuples", watching)
    return listed


def test_deep_scan_lists_no_stabilizer(monkeypatch):
    # C(S11, tilde S8): every stabilizer is signed Young, so its square
    # census comes from cycle types; H is walked by sifting, and no group
    # is listed
    group, sub = sym(11), tilde_sym(10, degree=11)
    listed = watch_listing(monkeypatch)
    category_scan(group, sub, 2)
    assert not listed


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
    # five stabilizer sums and the trivial coset's classical indicators
    assert len(seen) == 6 and all(seen)


@pytest.mark.parametrize("name, young", [
    ("C8", False), ("D4", False), ("S6", True), ("tilde S5", True)])
def test_square_census_inside_the_group_gives_the_classical_indicator(
        name, young):
    # the scan's route on its trivial double coset: for w in S, wS = S, so
    # the census of (w s)^2 is the census of s^2, and its sum against chi is
    # the classical indicator, on either class object
    group = {
        "C8": lambda: cyclic(8),
        "D4": lambda: PermGroup(4, [P("(1,2,3,4)"), P("(1,3)", 4)]),
        "S6": lambda: sym(6),
        "tilde S5": lambda: tilde_sym(7),
    }[name]()
    cd = chartab.conjugacy_classes(group)
    assert isinstance(cd, chartab.YoungClasses) == young
    table = character_table(group)
    classical = [nu_classical(chi).as_rational_integer()
                 for chi in table.characters]
    for w in cd.reps:
        counts = cd.square_census(w._img)
        assert indicators._census_indicators(
            counts, table.characters, group.order(), "nu_2") == classical


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


def test_one_defining_census_serves_every_character(monkeypatch):
    # invariance_check, reduction_check and the two worked examples read
    # one census per coset, whatever the number of characters
    from fscat import catalog
    calls = []
    census = indicators._coset_power_counts

    def counting(g, sub, cd, m):
        calls.append(g)
        return census(g, sub, cd, m)

    monkeypatch.setattr(indicators, "_coset_power_counts", counting)
    res = invariance_check(P("(7,8)", 8), P("(1,6)", 8), sym_embed(3, 8), 2)
    assert res.values == (1, 1) and len(calls) == 3
    calls.clear()
    res = reduction_check(P("(9,11)(10,12)", 12), P("(1,3)(2,4)", 12),
                          tilde_sym(10, degree=12), sym_embed(10, 12))
    assert len(res.values) > 2 and len(calls) == 2
    for name in ("ex-nu-p", "ex-minus-one"):
        calls.clear()
        assert catalog._EXAMPLES[name]()[0] == "pass"
        assert len(calls) == 1


def test_reduction_guards():
    H = sym_embed(3, 6)
    F = sym_embed(5, 6)
    with pytest.raises(ValueError):
        reduction_check(P("(4,5,6)", 6), P("(1,2)", 6), H, F)
    with pytest.raises(ValueError):
        reduction_check(P("(5,6)", 6), P("(4,5)", 6), H, F)


@settings(max_examples=40, deadline=None)
@given(young_groups())
@example(young_case([[0, 1, 2, 3, 4, 5, 6, 7]], [], 8))
@example(young_case([[0, 1, 2, 3, 4, 5, 6, 7]], [0], 8))
@example(young_case([[0, 2, 4], [1, 3, 5, 6], [7]], [0, 1], 8))
@example(young_case([[0, 1, 2], [3, 4, 5], [6, 7]], [0, 1, 2], 8))
@example(young_case([[0, 1, 2, 3], [4, 5], [6, 7]], [1], 8))
@example(young_case([[0, 3], [1, 4], [2, 5]], [0, 2], 6))
def test_power_roots_of_young_groups_match_the_listed_counts(case):
    gens, n, order = case
    group = PermGroup(n, gens)
    assert group.order() == order
    orders = Counter(Permutation._from_raw(y).order
                     for y in group.element_tuples())
    for m in range(1, 13):
        roots = sum(k for o, k in orders.items() if m % o == 0)
        assert indicators._power_roots(group, m) == roots


def test_global_identities_list_no_young_group(monkeypatch):
    # C(S8 x Sym{9,10}, Sym{1..7}): G is Young, so its roots come from
    # cycle types, and a scan at m = 2 lists no group at all
    group = PermGroup(10, [P("(1,2)", 10), P("(1,2,3,4,5,6,7,8)", 10),
                           P("(9,10)", 10)])
    sub = sym_embed(7, 10)
    listed = watch_listing(monkeypatch)
    report = category_scan(group, sub, 2)
    assert not listed
    assert indicators._power_roots(group, 2) == 764 * 2
    assert len(report.entries) == 52


def _listed_two_power_rep(g, sub):
    members = sub.element_set()
    for x in sub.element_tuples():
        c = perm._mul(g._img, x)
        if perm._mul(c, c) in members:
            p = Permutation._from_raw(c)
            odd = p.order
            while odd % 2 == 0:
                odd //= 2
            return p ** odd
    return None


@pytest.mark.parametrize("group, sub, tries", [
    (sym(9), tilde_sym(7, degree=9), 61),
    (sym(8), cyclic(8), 8),
    # a chain whose first orbit is not found in increasing order
    (sym(8), PermGroup(8, [P("(1,3,5,7,2,4,6,8)")]), 8),
], ids=["S9-tildeS7", "S8-C8", "S8-C8-unsorted"])
def test_two_power_rep_matches_the_listed_walk(monkeypatch, group, sub, tries):
    # the lazy walk over the chain's transversals visits H in
    # element_tuples order, sifting (g x)^2, so it picks the same w as a
    # walk over the list; the deepest first root of a coset is the
    # tries-th element of H
    listed = sub.element_tuples()
    sifted = []
    sift = indicators._sift

    def recording(levels, g, start=0):
        sifted.append(g)
        return sift(levels, g, start)

    monkeypatch.setattr(indicators, "_sift", recording)
    deepest = 0
    for dc in double_cosets(group, sub):
        sifted.clear()
        w = two_power_rep(dc.rep, sub)
        assert w == _listed_two_power_rep(dc.rep, sub)
        assert (w is not None) == dc.self_inverse
        products = (perm._mul(dc.rep._img, x) for x in listed)
        assert sifted == [perm._mul(c, c) for c in products][:len(sifted)]
        if w is not None:
            deepest = max(deepest, len(sifted))
    assert deepest == tries


def test_scan_meets_the_enumeration_bound_only_where_it_lists_the_subgroup(
        monkeypatch):
    # at m = 2 no element of H is listed, so an H over the bound scans as
    # it does within it; at m = 3 the defining sum lists H
    group, sub = sym(8), sym_embed(7, 8)
    expected = category_scan(group, sub, 2).to_json()
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 5039)
    assert category_scan(group, sub, 2).to_json() == expected
    with pytest.raises(perm.BoundExceeded) as exc:
        category_scan(group, sub, 3)
    assert (exc.value.bound_name, exc.value.limit, exc.value.needed) == (
        "enumeration bound", 5039, 5040)


def test_defining_sum_meets_the_bound_before_it_lists(monkeypatch):
    # nu_m and vanishing_witness raise the scan's BoundExceeded triple on an
    # H over the bound, bytes route or tuple route, before any listing
    cases = []
    for sub in (sym_embed(7, 8), perm.embedded(sym(7), 300)):
        g = Permutation.from_cycles([(7, 8)], sub.degree)
        cases.append((g, character_table(stabilizer(g, sub)).characters[0],
                      sub))
    listed = watch_listing(monkeypatch)
    monkeypatch.setattr(config, "ENUMERATION_BOUND", 5039)
    for g, chi, sub in cases:
        for call in (lambda: nu_m(g, chi, sub, 3),
                     lambda: vanishing_witness(g, sub, 3)):
            with pytest.raises(perm.BoundExceeded) as exc:
                call()
            assert (exc.value.bound_name, exc.value.limit,
                    exc.value.needed) == ("enumeration bound", 5039, 5040)
    # the tuple route asks for H's tuples, which refuse before listing
    assert not any(g.degree == 8 for g in listed)
    assert all(sub._elem_tuples is None for _, _, sub in cases)


def test_higher_scan_lists_no_tuple_of_the_subgroup(monkeypatch):
    # at m = 4 the defining sum lists H as bytes: neither H's tuple list nor
    # its tuple set is built
    group, sub = sym(8), sym_embed(6, 8)
    listed = watch_listing(monkeypatch)
    element_set = PermGroup.element_set

    def watching_set(self):
        listed.append(self)
        return element_set(self)

    monkeypatch.setattr(PermGroup, "element_set", watching_set)
    report = category_scan(group, sub, 4)
    assert not any(g is sub for g in listed)
    assert sub._elem_tuples is None and sub._elem_set is None
    assert len(report.entries) > 0


def _listed_coset_powers(g, sub, m):
    """The (g x)^m in H, x over H's listed tuples, composed by _mul."""
    members = sub.element_set()
    powers = (perm._raw_pow(perm._mul(g._img, x), m)
              for x in sub.element_tuples())
    return [y for y in powers if y in members]


@pytest.mark.parametrize("group, sub", [
    (sym(7), sym_embed(4, 7)),
    (sym(8), tilde_sym(6, degree=8)),
    (sym(8), cyclic(8)),
    (sym(8), sym_embed(7, 8)),
], ids=["S7-Sym4", "S8-tildeS6", "S8-C8", "S8-Sym7"])
def test_coset_powers_match_the_listed_sum(group, sub):
    # the bytes kernel keeps the same values, in the same order, as the
    # tuple sum over element_tuples, at every rep and m = 1..8; Sym7 spans
    # several blocks of the kernel
    for dc in double_cosets(group, sub).cosets:
        g = dc.rep
        cd = chartab.conjugacy_classes(stabilizer(g, sub))
        for m in range(1, 9):
            listed = _listed_coset_powers(g, sub, m)
            assert list(sub._coset_powers(g._img, m)) == listed
            assert indicators._coset_power_counts(g, sub, cd, m) == (
                cd.census(listed))
            assert vanishing_witness(g, sub, m) == bool(listed)


def test_coset_powers_past_degree_256_compose_tuples(monkeypatch):
    # bytes hold no point past 255: at degree 300 the kernel lists H's
    # tuples and gives the census it gives at degree 5
    small = PermGroup(5, [P("(1,2,3)", 5), P("(1,2)", 5)])
    big = perm.embedded(small, 300)
    g_small, g_big = P("(1,4,5)", 5), P("(1,4,5)", 300)
    cd_small = chartab.conjugacy_classes(stabilizer(g_small, small))
    cd_big = chartab.conjugacy_classes(stabilizer(g_big, big))
    listed = watch_listing(monkeypatch)
    for m in (3, 6):
        powers = list(big._coset_powers(g_big._img, m))
        assert powers == _listed_coset_powers(g_big, big, m)
        assert [y[:5] for y in powers] == list(
            small._coset_powers(g_small._img, m))
        assert indicators._coset_power_counts(g_big, big, cd_big, m) == (
            indicators._coset_power_counts(g_small, small, cd_small, m))
        assert vanishing_witness(g_big, big, m) == bool(powers)
    assert any(g is big for g in listed)
    assert not any(g is small for g in listed)


def test_scan_formats_no_error_label(monkeypatch):
    # the labels name their coset only when an error is raised
    texts = []
    to_text = Permutation.to_text

    def counting(self, *args, **kwargs):
        texts.append(self)
        return to_text(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "to_text", counting)
    for m in (2, 3):
        category_scan(sym(6), sym_embed(3, 6), m, "S6", "Sym3")
    assert not texts
    # a label formats its permutation when an error message is built
    stab = sym_embed(3, 6)
    characters = character_table(stab).characters
    g = P("(1,2)(4,5)", 6)
    with pytest.raises(ArithmeticError) as exc:
        indicators._census_indicators(
            [1] + [0] * (len(characters) - 1), characters, stab.order(),
            indicators._Label("nu_3 at", g))
    assert str(exc.value) == "nu_3 at (1,2)(4,5) is not a rational integer: 1/6"
    assert len(texts) == 1


def test_degree_two_routes_test_membership_by_sifting(monkeypatch):
    # nu2_stab and index_two_overgroup test w, w^2 and w's conjugates of the
    # generators by member; neither lists H or S(g)
    sub = tilde_sym(7, degree=9)
    w = P("(1,8)(2,9)", 9)
    stab = stabilizer(w, sub)
    chi = character_table(stab).characters[-1]
    listed = watch_listing(monkeypatch)
    nu2_stab(w, chi, sub)
    index_two_overgroup(w, stab)
    assert not listed


def _census_reference(counts, row, order, what, conj):
    """_census_indicators' value for one row, summed term by term through
    Cyclotomic, or the ArithmeticError text it raises."""
    total = ZERO
    for c, v in zip(counts, row):
        v = Cyclotomic.from_rational(Fraction(v))
        total = total + (v.conj() if conj else v).scaled(c)
    value = total.scaled(Fraction(1, order))
    if value.as_rational_integer() is None:
        return f"{what} is not a rational integer: {value}"
    return value.as_rational_integer()


_S6_CLASSES = chartab.conjugacy_classes(sym(6))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), order=st.integers(1, 12), conj=st.booleans())
@example(data=None, order=720, conj=False)
@example(data=None, order=7, conj=True)
def test_integer_census_route_matches_the_cyclotomic_sum(data, order, conj):
    # random integer rows on S6's 11 classes against random censuses; the
    # integer route builds no Cyclotomic on the way, and its error text is
    # the reference's byte for byte
    r = len(_S6_CLASSES)
    if data is None:
        # S6's table against its class sizes (divisible), and a census
        # that 7 divides for no row (every total is 1 mod 7)
        table = character_table(sym(6))
        rows = [chi.values for chi in table.characters]
        rows = [[v.as_rational_integer() for v in row] for row in rows]
        counts = (list(_S6_CLASSES.sizes) if order == 720
                  else [1] + [0] * (r - 1))
        rows = [row for row in rows if order == 720 or row[0] % 7 == 1]
    else:
        ints = st.lists(st.integers(-30, 30), min_size=r, max_size=r)
        rows = data.draw(st.lists(ints, min_size=1, max_size=4))
        counts = data.draw(st.lists(st.integers(0, 50), min_size=r,
                                    max_size=r))
    what = indicators._Label("nu_3 at", P("(1,2)(4,5)", 6))
    for row in rows:
        want = _census_reference(counts, row, order, what, conj)
        chi = chartab.Character(_S6_CLASSES, row)
        if isinstance(want, str):
            with pytest.raises(ArithmeticError) as exc:
                indicators._census_indicators(counts, [chi], order, what,
                                              conj=conj)
            assert str(exc.value) == want
        else:
            assert indicators._census_indicators(
                counts, [chi], order, what, conj=conj) == [want]


@pytest.mark.parametrize("m", [2, 3])
def test_unsigned_young_scan_builds_no_cyclotomic_sum(monkeypatch, m):
    # every stabilizer of C(S8, Sym{1..4}) is an unsigned Young group, so
    # every row is integer: the tables' checks and the census sums run in
    # plain ints, and the report is the same byte for byte
    want = category_scan(sym(8), sym_embed(4, 8), m).to_json()

    def refuse(*args, **kwargs):
        raise AssertionError("Cyclotomic arithmetic on an integer row")

    for name in ("__add__", "__radd__", "scaled"):
        monkeypatch.setattr(Cyclotomic, name, refuse)
    assert category_scan(sym(8), sym_embed(4, 8), m).to_json() == want
