"""Indicators of the simple objects of a group pair category.

For a finite group G with subgroup H, the simple objects of the associated
module category are indexed by pairs (double coset HgH, irreducible character
chi of the stabilizer S(g) = H intersect gHg^-1).  The degree-m indicator of
such a pair is

    nu_m(g, chi) = 1/|S(g)| * sum over x in H with (g x)^m in H
                   of conj(chi)((g x)^m),

which is always a rational integer.  For m = 2 several shortcut routes exist
once the representative is adjusted so that its square lies in H; they are all
implemented here and cross-checked in the test suite:

  * nu2_stab       sums chi((g x)^2) over the stabilizer only,
  * nu2_squares    counts square roots in the index-2 overgroup S(g) + gS(g),
  * nu2_induced    uses the character induced to that overgroup,
  * nu2_extension  uses an extension of chi to that overgroup,
  * nu_twisted     the twisted indicator sum chi(x * u x u^-1) over S.

category_scan walks every double coset and reports one row per simple
object.  For m = 2 the double-coset walk has already decided vanishing: a
coset that is not self-inverse (DoubleCoset.self_inverse) has no element
squaring into H, so all its indicators are zero without a sum.  Otherwise
the scan uses the stabilizer sum at an adjusted representative, or the
classical indicator when that representative lies in H.  The stabilizer sum
reads the class census of the squares of the coset wS(g) from the class
object (chartab's square_census): from cycle types when S(g) is a Young or
signed-Young group, by listing S(g) otherwise.  For m != 2 it uses the
defining sum, which lists H.  Only one coset per orbit under the letters H
fixes is computed (see cosets); the others move its rows along
conjugation, and a check of two global identities at the end sees every
row.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .chartab import (
    Character,
    ClassData,
    YoungClasses,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    nu_classical,
)
from .cosets import DoubleCosetDecomposition, double_cosets, stabilizer
from .cyclo import ZERO, Cyclotomic
from .perm import (PermGroup, Permutation, _conj, _identity, _inv, _mul,
                   _raw_pow, conjugate)


def _check_m(m: int) -> None:
    # _raw_pow never ends for a negative m
    if m < 1:
        raise ValueError("m must be a positive integer")


def _as_int(value: Cyclotomic, what: str) -> int:
    out = value.as_rational_integer()
    if out is None:
        raise ArithmeticError(f"{what} is not a rational integer: {value}")
    return out


def _census_indicators(counts: list[int], characters, order: int, what: str,
                       conj: bool = False) -> list[int]:
    """(1/order) * sum_j counts_j * chi(C_j) for each character chi, with chi
    conjugated when conj is set (the defining sum).

    counts is a class census of the group behind the characters; order is the
    order of that group.
    """
    unit = Fraction(1, order)
    out = []
    for chi in characters:
        total = ZERO
        for c, v in zip(counts, chi.values):
            if c:
                total = total + (v.conj() if conj else v).scaled(c)
        out.append(_as_int(total.scaled(unit), what))
    return out


def _coset_power_counts(g: Permutation, sub: PermGroup,
                        cd: ClassData | YoungClasses, m: int) -> list[int]:
    """Class census in S(g) of the values (g x)^m that land in H, x over H."""
    members = sub.element_set()
    g_raw = g._img
    powers = (_raw_pow(_mul(g_raw, x), m) for x in sub.element_tuples())
    return cd.census(y for y in powers if y in members)


def nu_m(g: Permutation, chi: Character, sub: PermGroup, m: int = 2) -> int:
    """Degree-m indicator of the simple (HgH, chi) by the defining sum.

    chi must be a character of the stabilizer S(g) (any group object carrying
    the same elements works).  The sum runs over all of H.
    """
    _check_m(m)
    cd = chi.classes
    counts = _coset_power_counts(g, sub, cd, m)
    return _census_indicators(counts, [chi], cd.group.order(),
                              f"nu_{m} of {g.to_text()}", conj=True)[0]


def vanishing_witness(g: Permutation, sub: PermGroup, m: int) -> bool:
    """Whether some element of gH has its m-th power back in H.

    When no such witness exists every degree-m indicator on the double coset
    of g vanishes, and the expensive sums can be skipped.
    """
    _check_m(m)
    members = sub.element_set()
    g_raw = g._img
    return any(_raw_pow(_mul(g_raw, x), m) in members
               for x in sub.element_tuples())


def two_power_rep(g: Permutation, sub: PermGroup) -> Permutation | None:
    """A representative of gH whose order is a power of two and whose square
    lies in H, or None when the coset has no element squaring into H.

    Starting from any g' in gH with g'^2 in H, the odd-power g'^(2l+1) stays
    in the coset (its excess factor (g'^2)^l lies in H) and has 2-power order.
    """
    members = sub.element_set()
    g_raw = g._img
    for x in sub.element_tuples():
        c = _mul(g_raw, x)
        if _mul(c, c) in members:
            p = Permutation._from_raw(c)
            odd = p.order
            while odd % 2 == 0:
                odd //= 2
            return p ** odd
    return None


def nu2_stab(g: Permutation, chi: Character, sub: PermGroup) -> int:
    """Degree-2 indicator via the stabilizer-only sum chi((g x)^2) over S(g).

    Requires g outside H with g^2 in H; then (g x)^2 lies in S(g) for every
    x in S(g) and the H-sum collapses to this one, without conjugating chi.
    """
    members = sub.element_set()
    if g._img in members:
        raise ValueError("representative lies in the subgroup")
    if _mul(g._img, g._img) not in members:
        raise ValueError("square of the representative must lie in the subgroup")
    cd = chi.classes
    counts = cd.square_census(g._img)
    return _census_indicators(counts, [chi], cd.group.order(),
                              f"nu_2 of {g.to_text()}")[0]


def index_two_overgroup(g: Permutation, stab: PermGroup) -> PermGroup:
    """S + gS, generated by S and g; g must square into S and normalize it."""
    members = stab.element_set()
    if _mul(g._img, g._img) not in members:
        raise ValueError("g^2 must lie in the stabilizer")
    for s in stab.generators:
        if _conj(g._img, s._img) not in members:
            raise ValueError("g must normalize the stabilizer")
    if g._img in members:
        raise ValueError("g already lies in the stabilizer")
    big = PermGroup(stab.degree, stab.generators + (g,))
    if big.order() != 2 * stab.order():
        raise ValueError("S + gS failed to close up at index two")
    return big


def nu2_squares(g: Permutation, chi: Character, sub: PermGroup) -> int:
    """Degree-2 indicator as a square census over S + gS.

    Every element of the overgroup squares into S, so chi applies; the
    classical indicator of chi over S itself is then subtracted off.
    """
    cd = chi.classes
    hat = index_two_overgroup(g, cd.group)
    what = f"nu_2 of {g.to_text()}"
    counts = cd.census(_mul(x, x) for x in hat.element_tuples())
    total = _census_indicators(counts, [chi], cd.group.order(), what)[0]
    return total - _as_int(nu_classical(chi), what)


def nu2_induced(g: Permutation, chi: Character, sub: PermGroup) -> int:
    """Degree-2 indicator via induction of chi to S + gS."""
    hat = index_two_overgroup(g, chi.classes.group)
    lifted = induce(chi, hat)
    total = nu_classical(lifted) - nu_classical(chi)
    return _as_int(total, f"nu_2 of {g.to_text()}")


def nu2_extension(g: Permutation, chi: Character, sub: PermGroup) -> int:
    """Degree-2 indicator via a constituent of the induced character.

    Any irreducible of S + gS restricting onto chi works; the count doubles
    when chi is fixed by conjugation with g.
    """
    cd = chi.classes
    hat = index_two_overgroup(g, cd.group)
    table = character_table(hat)
    lifted = None
    for cand in table.characters:
        mult = inner_product(cand.restrict(cd.group), chi)
        if mult.as_rational_integer():
            lifted = cand
            break
    if lifted is None:
        raise ArithmeticError("no irreducible constituent found over chi")
    fixed = chi.conjugated_by(g) == chi
    factor = 2 if fixed else 1
    total = nu_classical(lifted).scaled(factor) - nu_classical(chi)
    return _as_int(total, f"nu_2 of {g.to_text()}")


def _twisted_counts(cd: ClassData | YoungClasses, u: Permutation) -> list[int]:
    """Class census of x * u x u^-1 for x over the group behind cd.

    u must normalize that group with u^2 centralizing it.  One census serves
    every character of the group (nu_twisted, catalog's lemma-twisted-An).
    """
    members = cd.group.element_set()
    u_raw = u._img
    uu = _mul(u_raw, u_raw)
    for s in cd.group.generators:
        if _conj(u_raw, s._img) not in members:
            raise ValueError("u must normalize the group of chi")
        if _conj(uu, s._img) != s._img:
            raise ValueError("u^2 must centralize the group of chi")
    u_inv = _inv(u_raw)
    return cd.census(_mul(x, _mul(_mul(u_raw, x), u_inv))
                     for x in cd.group.element_tuples())


def nu_twisted(chi: Character, u: Permutation) -> int:
    """Indicator of chi twisted by conjugation with u.

    u must normalize the group of chi with u^2 acting trivially on it; the sum
    averages chi(x * u x u^-1).  With u centralizing the group this is the
    classical degree-2 indicator.
    """
    cd = chi.classes
    return _census_indicators(_twisted_counts(cd, u), [chi], cd.group.order(),
                              f"twisted indicator by {u.to_text()}")[0]


@dataclass(frozen=True)
class InvarianceCheck:
    """Outcome of comparing indicators at g against u.g.u^-1 (and u*g)."""

    same_stabilizer: bool
    conjugate_equal: bool
    product_equal: bool | None
    values: tuple[int, ...]


def invariance_check(u: Permutation, g: Permutation, sub: PermGroup,
                     m: int = 2) -> InvarianceCheck:
    """Verify that conjugating the representative by a centralizing u changes
    nothing, and likewise replacing g by u*g when u commutes with g and
    u^m = e.  u must centralize the subgroup."""
    for s in sub.generators:
        if _conj(u._img, s._img) != s._img:
            raise ValueError("u must centralize the subgroup")
    moved = conjugate(u, g)
    s_g = stabilizer(g, sub)
    s_moved = stabilizer(moved, sub)
    same = s_g.element_set() == s_moved.element_set()
    table = character_table(s_g)
    base = tuple(nu_m(g, chi, sub, m) for chi in table.characters)
    at_moved = tuple(nu_m(moved, chi, sub, m) for chi in table.characters)
    product: bool | None = None
    if (u * g == g * u) and (u ** m).is_identity():
        shifted = u * g
        s_shifted = stabilizer(shifted, sub)
        same = same and s_g.element_set() == s_shifted.element_set()
        at_shifted = tuple(nu_m(shifted, chi, sub, m)
                           for chi in table.characters)
        product = at_shifted == base
    return InvarianceCheck(same_stabilizer=same,
                           conjugate_equal=at_moved == base,
                           product_equal=product,
                           values=base)


@dataclass(frozen=True)
class ReductionCheck:
    """Outcome of reducing indicators at t*f in H to indicators at f in H'."""

    same_stabilizer: bool
    indicators_equal: bool
    values: tuple[int, ...]
    reduced_sub_order: int


def reduction_check(t: Permutation, f: Permutation, sub: PermGroup,
                    over: PermGroup) -> ReductionCheck:
    """Compare the degree-2 data of t*f over H with that of f over
    H' = Stab_H(tH), under the hypotheses that make them agree.

    Required: t an involution whose conjugate of H meets over only inside H,
    H' centralizing t, f in over with f^2 in H and f*t = t*f.
    """
    members = sub.element_set()
    if not (t * t).is_identity():
        raise ValueError("t must be an involution")
    if not sub.is_subgroup_of(over):
        raise ValueError("sub must sit inside over")
    t_raw, t_inv = t._img, _inv(t._img)
    for x in sub.element_tuples():
        y = _mul(_mul(t_raw, x), t_inv)
        if y not in members and over.member(Permutation._from_raw(y)):
            raise ValueError("conjugation by t pushes part of H into over - H")
    reduced = stabilizer(t, sub)
    for s in reduced.generators:
        if _conj(t._img, s._img) != s._img:
            raise ValueError("the stabilizer of tH must centralize t")
    if not over.member(f):
        raise ValueError("f must lie in over")
    if (f * f)._img not in members:
        raise ValueError("f^2 must lie in the subgroup")
    if f * t != t * f:
        raise ValueError("f must commute with t")
    s_big = stabilizer(t * f, sub)
    s_small = stabilizer(f, reduced)
    same = s_big.element_set() == s_small.element_set()
    table = character_table(s_big)
    big_vals = tuple(nu_m(t * f, chi, sub, 2) for chi in table.characters)
    small_vals = tuple(nu_m(f, chi, reduced, 2) for chi in table.characters)
    return ReductionCheck(same_stabilizer=same,
                          indicators_equal=big_vals == small_vals,
                          values=big_vals,
                          reduced_sub_order=reduced.order())


@dataclass(frozen=True)
class IndicatorEntry:
    """One simple object: coset representative, |S(g)|, chi(e), indicator."""

    rep: Permutation
    stab_order: int
    chi_degree: int
    nu: int


@dataclass(frozen=True)
class IndicatorReport:
    group_label: str
    sub_label: str
    m: int
    entries: tuple[IndicatorEntry, ...]

    @property
    def summary(self) -> dict[int, int]:
        return dict(sorted(Counter(e.nu for e in self.entries).items()))

    def values(self) -> tuple[int, ...]:
        return tuple(e.nu for e in self.entries)

    def _rep_texts(self) -> list[str]:
        """The text of each entry's rep, computed once per distinct rep: the
        rows of one double coset share its rep."""
        texts: dict[Permutation, str] = {}
        for e in self.entries:
            if e.rep not in texts:
                texts[e.rep] = e.rep.to_text()
        return [texts[e.rep] for e in self.entries]

    def to_json(self) -> str:
        payload = {
            "category": {"G_spec": self.group_label, "H_spec": self.sub_label},
            "m": self.m,
            "entries": [{"rep": text, "stab_order": e.stab_order,
                         "chi_degree": e.chi_degree, "nu": e.nu}
                        for e, text in zip(self.entries, self._rep_texts())],
            "summary": {str(k): v for k, v in self.summary.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rep", "stab_order", "chi_degree", "nu"])
        for e, text in zip(self.entries, self._rep_texts()):
            writer.writerow([text, e.stab_order, e.chi_degree, e.nu])
        return out.getvalue()


def _gens_label(group: PermGroup) -> str:
    gens = ";".join(g.to_text() for g in group.generators) or "()"
    return f"gens:{gens}@{group.degree}"


def _stabilizer_classes(decomposition: DoubleCosetDecomposition
                        ) -> list[tuple[PermGroup, list[int]]]:
    """The distinct stabilizers S(g) of a decomposition's double cosets, each
    with the positions of the cosets that have it.

    Two stabilizers are equal when they have the same order and the
    generators of one lie in the other.  Only chains are built; nothing is
    enumerated.
    """
    sub = decomposition.sub
    h_order = sub.order()
    classes: list[tuple[PermGroup, list[int]]] = []
    by_order: dict[int, list[int]] = {}
    for i, dc in enumerate(decomposition.cosets):
        gens = [Permutation._from_raw(x) for x in dc.stab_gens]
        bucket = by_order.setdefault(h_order // dc.n_left, [])
        for k in bucket:
            stab, where = classes[k]
            if all(stab.member(x) for x in gens):
                where.append(i)
                break
        else:
            bucket.append(len(classes))
            classes.append((PermGroup(sub.degree, gens), [i]))
    return classes


def _power_roots(group: PermGroup, m: int) -> int | None:
    """#{y in group : y^m = e} when group is the symmetric or alternating
    group of its degree (recognised by its order), counted from cycle types;
    None for any other group.

    even[k] and odd[k] count the even and odd permutations of k letters with
    y^m = e; the cycle through the first letter has some length d dividing m,
    in (k-1)!/(k-d)! ways, and parity d - 1.
    """
    n = group.degree
    full = math.factorial(n)
    if group.order() not in (full, full // 2):
        return None
    even, odd = [1], [0]
    for k in range(1, n + 1):
        e = o = 0
        for d in range(1, k + 1):
            if m % d:
                continue
            ways = math.perm(k - 1, d - 1)
            if d % 2:
                e, o = e + ways * even[k - d], o + ways * odd[k - d]
            else:
                e, o = e + ways * odd[k - d], o + ways * even[k - d]
        even.append(e)
        odd.append(o)
    return even[n] + (odd[n] if group.order() == full else 0)


def _check_global_identities(group: PermGroup, sub: PermGroup, m: int,
                             entries) -> None:
    """Column orthogonality over G, with dim = [H:S(g)] * chi(1): the
    dimensions square-sum to |G|, and sum dim * nu_m counts the y in G with
    y^m = e.  The count comes from cycle types when G is a symmetric or
    alternating group, from G's elements when G is within the enumeration
    bound, and is skipped otherwise.

    The second identity holds for every G: sum_chi chi(1) conj(chi)(z) =
    |S| delta_{z,e} turns sum dim * nu_m into the sum over the left cosets
    gH of #{y in gH : y^m = e}."""
    h_order = sub.order()
    dims = [h_order // e.stab_order * e.chi_degree for e in entries]
    if sum(d * d for d in dims) != group.order():
        raise ArithmeticError(
            "the squared dimensions do not sum to the group order")
    roots = _power_roots(group, m)
    if roots is None and group.order() <= config.ENUMERATION_BOUND:
        # leave no list of G's elements behind on the caller's group
        listed = group._elem_tuples is not None
        one = _identity(group.degree)
        roots = sum(1 for y in group.element_tuples() if _raw_pow(y, m) == one)
        if not listed:
            group._elem_tuples = None
    total = sum(d * e.nu for d, e in zip(dims, entries))
    if roots is not None and total != roots:
        raise ArithmeticError(
            f"sum of dim * nu_{m} is {total}, but {roots} elements of the "
            f"group have y^{m} = e")


def _transported(source, conj: tuple[int, ...],
                 cd: ClassData | YoungClasses,
                 characters, what: str) -> list[int]:
    """Indicators at a coset whose rows follow from those of a coset j of
    the same orbit under the free letters.

    source holds j's conj k_j, the raw class representatives of S(rep_j) and
    j's indicators keyed by character values.  With c = conj * k_j^-1,
    rep*H = c*rep_j*c^-1*H and S(rep) = c*S(rep_j)*c^-1, so
    nu(rep, chi) = nu(rep_j, psi) with psi = chi o (z -> c*z*c^-1).
    """
    k_src, reps, by_values = source
    c = _mul(conj, _inv(k_src))
    c_inv = _inv(c)
    cols = [cd.index_of(_mul(_mul(c, z), c_inv)) for z in reps]
    if None in cols:
        raise ArithmeticError(f"{what}: conjugation misses the stabilizer")
    out = []
    for chi in characters:
        value = by_values.get(tuple(chi.values[a] for a in cols))
        if value is None:
            raise ArithmeticError(
                f"{what}: a conjugated character is not in the source table")
        out.append(value)
    return out


def category_scan(group: PermGroup, sub: PermGroup, m: int = 2,
                  group_label: str | None = None,
                  sub_label: str | None = None,
                  seed: int | None = None) -> IndicatorReport:
    """Indicators of every simple object of the pair category of (G, H).

    The stabilizers come from the double-coset walk.  Each distinct
    stabilizer has its classes and character table built once for all the
    double cosets that share it, and is dropped before the next.  Per coset,
    m = 2 gives all-zero rows on a double coset that the walk found not
    self-inverse.  Otherwise the first coset the scan reaches of each orbit
    under the free letters (DoubleCoset.root) computes its rows: m = 2 takes
    the stabilizer-only sum at an adjusted representative, every other m the
    defining H-sum.  The stabilizer sum's square census comes from cycle
    types when the stabilizer is a Young or signed-Young group, which is
    then never enumerated, and from a list of its elements otherwise (such
    as C(S8, C8)'s); the defining sum lists H.  The other cosets of that
    orbit move those rows along conjugation (DoubleCoset.conj), and the
    moved data are dropped once the orbit's last coset is done.  Rows are
    emitted in double-coset order, each in its own table's order.

    At the end the global identities are checked: the squared dimensions
    [H:S(g)] * chi(1) sum to |G|, and sum dim * nu_m equals
    #{y in G : y^m = e}, counted from cycle types when G is a symmetric or
    alternating group and from G's elements otherwise.  A G of neither kind
    over the enumeration bound gets only the first check.  A failure raises
    ArithmeticError.  Tables are deterministic; seed is accepted for
    compatibility and affects nothing.  m must be a positive integer.
    """
    _check_m(m)
    if not sub.is_subgroup_of(group):
        raise ValueError("not a subgroup")
    # Enumerate H before the coset walk, so an oversized H trips the
    # enumeration bound at once.
    members = sub.element_set()
    decomposition = double_cosets(group, sub)
    rows: list[list[IndicatorEntry]] = [[] for _ in decomposition.cosets]
    classes = _stabilizer_classes(decomposition)
    # cosets not yet done per orbit, and the rows of the first one done of
    # each orbit that has more
    remaining = Counter(dc.root for dc in decomposition.cosets)
    sources: dict[int, tuple] = {}
    while classes:
        stab, where = classes.pop()
        table = character_table(stab)
        cd = conjugacy_classes(stab)
        for i in where:
            dc = decomposition.cosets[i]
            g = dc.rep
            source = sources.get(dc.root)
            if m == 2 and not dc.self_inverse:
                nus = [0] * len(table.characters)
            elif source is not None:
                nus = _transported(source, dc.conj, cd, table.characters,
                                   f"nu_{m} at {g.to_text()}")
            elif m == 2:
                w = two_power_rep(g, sub)
                if w is None:
                    raise ArithmeticError(
                        f"self-inverse double coset of {g.to_text()} has no "
                        "element squaring into the subgroup")
                if w._img in members:
                    nus = [_as_int(nu_classical(chi), "classical nu_2")
                           for chi in table.characters]
                else:
                    counts = cd.square_census(w._img)
                    nus = _census_indicators(counts, table.characters,
                                             stab.order(),
                                             f"nu_2 at {w.to_text()}")
                for value in nus:
                    if value not in (-1, 0, 1):
                        raise ArithmeticError(
                            f"degree-2 indicator out of range: {value}")
            else:
                counts = _coset_power_counts(g, sub, cd, m)
                nus = _census_indicators(counts, table.characters,
                                         stab.order(),
                                         f"nu_{m} at {g.to_text()}", conj=True)
            remaining[dc.root] -= 1
            if not remaining[dc.root]:
                sources.pop(dc.root, None)
            elif source is None and (m != 2 or dc.self_inverse):
                sources[dc.root] = (
                    dc.conj, [z._img for z in cd.reps],
                    {chi.values: value
                     for chi, value in zip(table.characters, nus)})
            rows[i] = [IndicatorEntry(rep=g, stab_order=stab.order(),
                                      chi_degree=chi.degree, nu=value)
                       for chi, value in zip(table.characters, nus)]
        # Hold no reference to this stabilizer, its classes or its table
        # while the next one is built.  The caches point back at the
        # group, so clear them to let reference counting free all three now.
        stab._class_data = stab._char_table = None
        del stab, table, cd
    entries = [entry for row in rows for entry in row]
    _check_global_identities(group, sub, m, entries)
    return IndicatorReport(
        group_label=group_label or _gens_label(group),
        sub_label=sub_label or _gens_label(sub),
        m=m,
        entries=tuple(entries))
