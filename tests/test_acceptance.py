"""Ten end-to-end acceptance checks, one test and one verdict line each.

Criterion 1 compares the double-coset census of embedded symmetric subgroups
with a closed form counted from the partial injections that a coset induces
on the letters outside the subgroup; the stated tallies (34, 20) and (7, 2)
agree with it, and the stated (197, 154) for four letters in eight does not:
the closed form and the program both give (209, 166).  Criterion 7 checks the
flip-subgroup families: the degree-9 and degree-10 categories stay within
{0, 1} on their even double cosets, and their only -1 sits on the odd coset
of (1,3)(2,4)(n-1,n), which a defining-sum oracle with hardcoded character
values confirms at degree 9.  The stated-versus-computed discrepancies stay
recorded as failing catalogue verdicts (census (4,8) and thm-tilde n = 4, 5,
9, 10), which tests/test_catalog.py asserts; the readme collects the analysis.
"""

import itertools
import math
import time
from fractions import Fraction

from fscat.chartab import (
    Character,
    character_table,
    conjugacy_classes,
    inner_product,
    nu_classical,
)
from fscat.cosets import is_null_coset, stabilizer, sym_census
from fscat.cyclo import Cyclotomic
from fscat.indicators import (
    category_scan,
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
    Permutation,
    PermGroup,
    alt,
    alt_embed,
    conjugate,
    cyclic,
    sym,
    sym_embed,
    tilde_sym,
)
from fscat.cosets import double_cosets

P = Permutation.from_text


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    return detail


def _involutions(k: int) -> int:
    """Involutions of k points, identity included: I(k) = I(k-1) + (k-1) I(k-2)."""
    before, current = 1, 1
    for j in range(2, k + 1):
        before, current = current, current + (j - 1) * before
    return current


def _closed_form_census(l: int, n: int) -> tuple[int, int]:
    """(double coset count, null coset count) for Sym{1..l} in Sym{1..n}.

    A double coset is fixed by the partial injection that its elements induce
    on F = {l+1..n} (i -> g(i) whenever g(i) lies in F); the letters of F left
    out of its domain go into 1..l, so a domain of k letters needs k >= |F| - l.
    The coset is non-null exactly when that injection is an involution of its
    domain.
    """
    f = n - l
    sizes = range(max(0, f - l), f + 1)
    total = sum(math.comb(f, k) ** 2 * math.factorial(k) for k in sizes)
    non_null = sum(math.comb(f, k) * _involutions(k) for k in sizes)
    return total, total - non_null


def test_criterion_01_census_reproduction():
    cases = [(3, 6), (4, 8)] + [(n - 2, n) for n in range(4, 9)]
    start = time.perf_counter()
    got = {case: sym_census(*case) for case in cases}
    elapsed = time.perf_counter() - start
    parts = []
    ok = True
    for case in cases:
        want = _closed_form_census(*case)
        if got[case] != want:
            ok = False
            parts.append(f"census{case} = {got[case]}, closed form {want}")
    stated = {(3, 6): (34, 20), **{(n - 2, n): (7, 2) for n in range(4, 9)}}
    off = {case: pair for case, pair in stated.items()
           if _closed_form_census(*case) != pair}
    if off:
        ok = False
        parts.append(f"stated tallies off the closed form at {off}")
    parts.append(f"census(4,8) = {got[4, 8]}, stated (197, 154)")
    parts.append(f"{elapsed:.1f}s")
    ok = ok and elapsed < 60
    detail = "; ".join(parts)
    assert ok, _verdict(1, "census reproduction", ok, detail)
    _verdict(1, "census reproduction", ok, detail)


def test_criterion_02_explicit_minus_one():
    start = time.perf_counter()
    sub = cyclic(12)
    t = P("(1,2,3,4,5,6,7,8,9,10,11,12)")
    g = P("(1,2,7,8)(3,11,9,5)(4,12,10,6)")
    gi = g.inverse()
    conjugates_outside = all(
        u not in sub for u in (conjugate(gi, t), conjugate(gi, t ** 2),
                               conjugate(gi, t ** 3), conjugate(g, t ** 4)))
    stab = stabilizer(g, sub)
    values = sorted(nu_m(g, chi, sub, 2)
                    for chi in character_table(stab).characters)
    elapsed = time.perf_counter() - start
    ok = (g * g == t ** 6 and conjugates_outside and stab.order() == 2
          and values == [-1, 1] and elapsed < 1)
    detail = (f"stab order {stab.order()}, nu_2 pair {values}, conjugates "
              f"outside: {conjugates_outside}, {elapsed:.2f}s")
    assert ok, _verdict(2, "explicit -1 over the 12-cycle", ok, detail)
    _verdict(2, "explicit -1 over the 12-cycle", ok, detail)


def test_criterion_03_degree_seven_vanishing():
    sub = sym_embed(5, 7)
    g = P("(5,6)", 7)
    witness = vanishing_witness(g, sub, 7)
    values = [nu_m(g, chi, sub, 7)
              for chi in character_table(stabilizer(g, sub)).characters]
    ok = not witness and not any(values)
    detail = f"witness {witness}, nu_7 values {values}"
    assert ok, _verdict(3, "vanishing degree-7 example", ok, detail)
    _verdict(3, "vanishing degree-7 example", ok, detail)


def test_criterion_04_embedded_symmetric_dichotomy():
    bad = []
    pairs = 0
    for n in range(3, 9):
        for l in range(2, n):
            pairs += 1
            report = category_scan(sym(n), sym_embed(l, n), 2)
            per_rep: dict = {}
            for e in report.entries:
                per_rep.setdefault(e.rep, set()).add(e.nu)
            for rep, vals in per_rep.items():
                if not vals <= {0, 1} or len(vals) > 1:
                    bad.append(f"({l},{n}) at {rep.to_text()}: {sorted(vals)}")
                elif (vals == {0}) != is_null_coset(rep, l):
                    bad.append(f"({l},{n}) at {rep.to_text()}: null mismatch")
    ok = not bad
    detail = f"{pairs} pairs checked" if ok else "; ".join(bad[:3])
    assert ok, _verdict(4, "embedded symmetric dichotomy", ok, detail)
    _verdict(4, "embedded symmetric dichotomy", ok, detail)


def test_criterion_05_alternating_subgroups():
    bad = []
    scans = 0
    for n in range(3, 8):
        scans += 1
        values = set(category_scan(sym(n), alt(n), 2).values())
        if not values <= {0, 1}:
            bad.append(f"alt({n}): {sorted(values)}")
    for n in range(4, 8):
        for l in range(2, n):
            scans += 1
            values = set(category_scan(sym(n), alt_embed(l, n), 2).values())
            if not values <= {0, 1}:
                bad.append(f"alt_embed({l},{n}): {sorted(values)}")
    ok = not bad
    detail = f"{scans} scans all within {{0, 1}}" if ok else "; ".join(bad[:3])
    assert ok, _verdict(5, "alternating subgroups", ok, detail)
    _verdict(5, "alternating subgroups", ok, detail)


def test_criterion_06_cyclic_subgroups():
    start = time.perf_counter()
    bad = []
    for n in (3, 5, 6, 7):
        values = set(category_scan(sym(n), cyclic(n), 2).values())
        if not values <= {0, 1}:
            bad.append(f"cyclic({n}): {sorted(values)}")
    big = category_scan(sym(8), cyclic(8), 2)
    if min(big.values()) < 0:
        bad.append(f"cyclic(8) minimum {min(big.values())}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300
    detail = (f"degree-8 summary {big.summary}, {elapsed:.1f}s"
              if ok else "; ".join(bad))
    assert ok, _verdict(6, "cyclic subgroups", ok, detail)
    _verdict(6, "cyclic subgroups", ok, detail)


# chi^(3,1,1) of S_5 by cycle type (parts in decreasing order).
_CHI_311 = {(1, 1, 1, 1, 1): 6, (2, 1, 1, 1): 0, (2, 2, 1): -2, (3, 1, 1): 0,
            (3, 2): 0, (4, 1): 0, (5,): 1}


def _cycle_type(perm: dict, points) -> tuple[int, ...]:
    seen: set = set()
    lengths = []
    for p in points:
        length = 0
        while p not in seen:
            seen.add(p)
            p = perm[p]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _degree_nine_witness_nu() -> Fraction:
    """nu_2 of ((1,3)(2,4)(8,9), sgn x chi^(3,1,1)) in C(S9, tilde S7).

    The defining sum runs over all 5040 elements of tilde S7, built here from
    the permutations of {3..9}.  S(g) is the stabilizer of {3,4}, of order
    240; the character is the sign on {3,4} times chi^(3,1,1) on {5..9}.
    """
    points = range(1, 10)

    def compose(a, b):  # (a o b)(i) = a(b(i)), as in fscat
        return {i: a[b[i]] for i in points}

    g = {i: i for i in points}
    for a, b in ((1, 3), (2, 4), (8, 9)):
        g[a], g[b] = b, a
    sub = []
    for images in itertools.permutations(range(3, 10)):
        x = {1: 1, 2: 2, **dict(zip(range(3, 10), images))}
        inversions = sum(u > v for u, v in itertools.combinations(images, 2))
        if inversions % 2:
            x[1], x[2] = 2, 1
        sub.append(x)
    members = {tuple(x[i] for i in points) for x in sub}
    stab_order = sum(tuple(compose(compose(g, x), g)[i] for i in points)
                     in members for x in sub)
    assert stab_order == 240
    total = 0
    for x in sub:
        gx = compose(g, x)
        y = compose(gx, gx)
        if tuple(y[i] for i in points) not in members:
            continue
        assert {y[3], y[4]} == {3, 4}
        total += (-1 if y[3] == 4 else 1) * _CHI_311[_cycle_type(y, range(5, 10))]
    return Fraction(total, stab_order)


def test_criterion_07_tilde_families():
    parts = []
    ok = True

    def neg_in(group, sub):
        report = category_scan(group, sub, 2)
        return (-1 in set(report.values())), report

    has, _ = neg_in(alt(7), tilde_sym(7))
    ok &= has
    parts.append(f"-1 in C(A7, tilde S5): {has}")
    has, _ = neg_in(alt(8), tilde_sym(8))
    ok &= has
    parts.append(f"-1 in C(A8, tilde S6): {has}")
    # tilde S_{n-2} lies in A_n, so each double coset is all even or all odd;
    # the even ones make up C(A_n, tilde S_{n-2}).
    for n, degree in ((9, 6), (10, 16)):
        report = category_scan(sym(n), tilde_sym(n), 2)
        even = {e.nu for e in report.entries if e.rep.sign == 1}
        inside = even <= {0, 1}
        ok &= inside
        parts.append(f"C(A{n}, tilde S{n - 2}) values {sorted(even)}")
        witness = P(f"(1,3)(2,4)({n - 1},{n})", n)
        negative = {(e.rep, e.chi_degree) for e in report.entries if e.nu == -1}
        where = sorted((rep.to_text(), d) for rep, d in negative)
        if negative == {(witness, degree)}:
            parts.append(f"C(S{n}, tilde S{n - 2}) has -1 only at odd {where}")
        else:
            ok = False
            parts.append(f"C(S{n}, tilde S{n - 2}) has -1 at {where}, expected "
                         f"only ({witness.to_text()}, {degree})")
    oracle = _degree_nine_witness_nu()
    ok &= oracle == -1
    parts.append(f"oracle nu_2 at (1,3)(2,4)(8,9): {oracle}")
    has, _ = neg_in(alt(8), tilde_sym(7, degree=8))
    ok &= has
    parts.append(f"-1 in C(A8, tilde S5): {has}")
    detail = "; ".join(parts)
    assert ok, _verdict(7, "tilde families", ok, detail)
    _verdict(7, "tilde families", ok, detail)


def test_criterion_08_formula_chain_equivalence():
    checked = 0
    for group, sub in [(sym(6), sym_embed(3, 6)), (sym(7), tilde_sym(7))]:
        members = sub.element_set()
        for dc in double_cosets(group, sub).cosets:
            w = two_power_rep(dc.rep, sub)
            if w is None or w._img in members:
                continue
            stab = stabilizer(dc.rep, sub)
            for chi in character_table(stab).characters:
                base = nu_m(w, chi, sub, 2)
                routes = (nu2_stab(w, chi, sub), nu2_squares(w, chi, sub),
                          nu2_induced(w, chi, sub), nu2_extension(w, chi, sub))
                assert all(r == base for r in routes), (
                    f"routes disagree at {w.to_text()}: {base} vs {routes}")
                checked += 1
    ok = checked > 0
    detail = f"{checked} simples, five degree-2 routes each, all equal"
    assert ok, _verdict(8, "formula chain equivalence", ok, detail)
    _verdict(8, "formula chain equivalence", ok, detail)


def _orthonormal(table, group) -> bool:
    chars = table.characters
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            want = 1 if i == j else 0
            if inner_product(a, b) != want:
                return False
    return sum(chi.degree ** 2 for chi in chars) == group.order()


def test_criterion_09_character_tables():
    bad = []

    tab = character_table(sym(3))
    if [c.degree for c in tab.characters] != [1, 1, 2] or not _orthonormal(
            tab, sym(3)):
        bad.append("sym(3) table")
    if any(nu_classical(c) != 1 for c in tab.characters):
        bad.append("sym(3) indicators")

    tab = character_table(sym(4))
    if [c.degree for c in tab.characters] != [1, 1, 2, 3, 3] or not \
            _orthonormal(tab, sym(4)):
        bad.append("sym(4) table")
    if any(nu_classical(c) != 1 for c in tab.characters):
        bad.append("sym(4) indicators")

    tab = character_table(alt(4))
    nus = sorted(int(str(nu_classical(c))) for c in tab.characters)
    if [c.degree for c in tab.characters] != [1, 1, 1, 3] or nus != [0, 0, 1, 1]:
        bad.append("alt(4) table")

    tab = character_table(cyclic(12))
    t = P("(1,2,3,4,5,6,7,8,9,10,11,12)")
    reps = conjugacy_classes(cyclic(12)).reps
    i_t, i_t2 = reps.index(t), reps.index(t * t)
    roots = {chi.values[i_t] for chi in tab.characters}
    if len(roots) != 12 or roots != {Cyclotomic.zeta(12, j) for j in range(12)}:
        bad.append("cyclic(12) root spread")
    if any(chi.values[i_t] * chi.values[i_t] != chi.values[i_t2]
           for chi in tab.characters):
        bad.append("cyclic(12) homomorphism")

    klein = PermGroup(4, [P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
    tab = character_table(klein)
    rows = {tuple(str(v) for v in chi.values) for chi in tab.characters}
    if len(rows) != 4 or any(c.degree != 1 for c in tab.characters) or not \
            _orthonormal(tab, klein):
        bad.append("klein table")

    swept = 0
    for group, sub in [(sym(6), sym_embed(3, 6)), (sym(7), tilde_sym(7))]:
        for dc in double_cosets(group, sub).cosets:
            stab = stabilizer(dc.rep, sub)
            if not _orthonormal(character_table(stab), stab):
                bad.append(f"stabilizer table at {dc.rep.to_text()}")
            swept += 1

    ok = not bad
    detail = (f"5 fixed tables plus {swept} stabilizer tables, orthonormal "
              "with matching degree sums" if ok else "; ".join(bad))
    assert ok, _verdict(9, "character tables", ok, detail)
    _verdict(9, "character tables", ok, detail)


def test_criterion_10_invariance_and_reduction():
    inv = invariance_check(P("(7,8)", 8), P("(1,6)", 8), sym_embed(3, 8), 2)
    red = reduction_check(P("(9,11)(10,12)", 12), P("(1,3)(2,4)", 12),
                          tilde_sym(10, degree=12), sym_embed(10, 12))
    ok = (inv.same_stabilizer and inv.conjugate_equal and inv.product_equal
          and inv.values == (1, 1) and red.same_stabilizer
          and red.indicators_equal and red.reduced_sub_order == 720
          and -1 in red.values)
    detail = (f"invariance values {inv.values}; reduction to order "
              f"{red.reduced_sub_order} with values {sorted(set(red.values))}")
    assert ok, _verdict(10, "invariance and reduction", ok, detail)
    _verdict(10, "invariance and reduction", ok, detail)
