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
  * nu2_extension  uses an extension of chi to that overgroup.

_twisted_counts gives the class census of the twisted sum chi(x * u x u^-1)
over S for an involution u, read as the square census of the coset uS, from
which _census_indicators reads every twisted indicator at once.

category_scan visits every double coset and reports one row per simple
object.  For m = 2 double_cosets has already decided vanishing: a coset
that is not self-inverse (DoubleCoset.self_inverse) has no element
squaring into H, so all its indicators are zero without a sum.  Otherwise
the scan uses the stabilizer sum at the w in gH with w^2 in H that
double_cosets kept (DoubleCoset.square_root), on the trivial double coset
too: there w lies in H, wS(g) = S(g), and the sum is the classical
indicator.  It reads the class census of the squares of wS(g) from the
class object (chartab's square_census): from cycle types when S(g) is a
Young or signed-Young group, by listing S(g) otherwise; H is only sifted.
For m != 2 it uses the defining sum, which lists H as bytes image strings
and composes the (g x)^m in C, by translate (PermGroup._coset_powers); H's
tuples are not listed.  Only one coset per orbit under the letters H fixes
is computed (see cosets); the others move its rows along conjugation, and
a check of two global identities at the end sees every row.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import product

from . import config
from .chartab import (
    Character,
    ClassData,
    YoungClasses,
    _census_average,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    nu_classical,
)
from .cosets import DoubleCosetDecomposition, double_cosets, stabilizer
from .cyclo import Cyclotomic
from .perm import (PermGroup, Permutation, _conj, _identity, _inv, _mul,
                   _raw_pow, _sift, conjugate)


def _check_m(m: int) -> None:
    # _raw_pow never ends for a negative m
    if m < 1:
        raise ValueError("m must be a positive integer")


class _Label:
    """The error label "what g", as its str; g's text is formatted only when
    an error is raised."""

    __slots__ = ("what", "g")

    def __init__(self, what: str, g: Permutation):
        self.what, self.g = what, g

    def __str__(self) -> str:
        return f"{self.what} {self.g.to_text()}"


def _as_int(value: Cyclotomic, what: str | _Label) -> int:
    out = value.as_rational_integer()
    if out is None:
        raise ArithmeticError(f"{what} is not a rational integer: {value}")
    return out


def _census_indicators(counts: list[int], characters, order: int,
                       what: str | _Label, conj: bool = False) -> list[int]:
    """(1/order) * sum_j counts_j * chi(C_j) for each character chi, with chi
    conjugated when conj is set (the defining sum), each by chartab's
    _census_average.

    counts is a class census of the group behind the characters; order is the
    order of that group.  A row of rational integers is summed in plain ints,
    with no Cyclotomic built, and ends in one exact divmod by order.  Every
    sum must be a rational integer; ArithmeticError names what and the value
    otherwise.
    """
    out = []
    for chi in characters:
        value = _census_average(counts, chi, order, conj)
        out.append(value if isinstance(value, int) else _as_int(value, what))
    return out


def _coset_power_counts(g: Permutation, sub: PermGroup,
                        cd: ClassData | YoungClasses, m: int) -> list[int]:
    """Class census in S(g) of the values (g x)^m that land in H, x over H
    (PermGroup._coset_powers).  Each lies in S(g): it commutes with g x, so
    it lies in g x H (g x)^-1 = g H g^-1 too."""
    return cd.census(sub._coset_powers(g._img, m))


def nu_m(g: Permutation, chi: Character, sub: PermGroup, m: int = 2) -> int:
    """Degree-m indicator of the simple (HgH, chi) by the defining sum.

    chi must be a character of the stabilizer S(g) (any group object carrying
    the same elements works).  The sum runs over all of H.
    """
    return _nu_m_row(g, [chi], sub, m)[0]


def _nu_m_census(g: Permutation, characters, sub: PermGroup, m: int
                 ) -> tuple[list[int], list[int]]:
    """(counts, row): the one census of the defining sum
    (_coset_power_counts), and nu_m(g, chi) read off it for every chi of
    characters, which share one class object.  Every value counted is a
    witness of vanishing_witness."""
    _check_m(m)
    cd = characters[0].classes
    counts = _coset_power_counts(g, sub, cd, m)
    return counts, _census_indicators(counts, characters, cd.group.order(),
                                      _Label(f"nu_{m} of", g), conj=True)


def _nu_m_row(g: Permutation, characters, sub: PermGroup, m: int
              ) -> list[int]:
    """nu_m(g, chi) for every chi of characters, which share one class
    object, from one census of the defining sum."""
    return _nu_m_census(g, characters, sub, m)[1]


def vanishing_witness(g: Permutation, sub: PermGroup, m: int) -> bool:
    """Whether some element of gH has its m-th power back in H.

    When no such witness exists every degree-m indicator on the double coset
    of g vanishes, and the expensive sums can be skipped.
    """
    _check_m(m)
    return next(sub._coset_powers(g._img, m), None) is not None


def two_power_rep(g: Permutation, sub: PermGroup) -> Permutation | None:
    """A representative of gH whose order is a power of two and whose square
    lies in H, or None when the coset has no element squaring into H.

    Starting from any g' in gH with g'^2 in H, the odd-power g'^(2l+1) stays
    in the coset (its excess factor (g'^2)^l lies in H) and has 2-power order.
    g' is the first g x, x in H's element_tuples order, with (g x)^2 in H.
    That order is the product of the chain's sorted transversals, walked
    here one element at a time, with each square sifted: H is not listed.
    """
    levels = sub._chain()
    idt = _identity(sub.degree)
    for us in product(*sub._transversals()):
        c = reduce(_mul, us, g._img)
        if _sift(levels, _mul(c, c)) == idt:
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
    if sub.member(g):
        raise ValueError("representative lies in the subgroup")
    if not sub.member(g * g):
        raise ValueError("square of the representative must lie in the subgroup")
    cd = chi.classes
    counts = cd.square_census(g._img)
    return _census_indicators(counts, [chi], cd.group.order(),
                              f"nu_2 of {g.to_text()}")[0]


def index_two_overgroup(g: Permutation, stab: PermGroup) -> PermGroup:
    """S + gS, generated by S and g; g must square into S and normalize it."""
    if not stab.member(g * g):
        raise ValueError("g^2 must lie in the stabilizer")
    for s in stab.generators:
        if not stab.member(conjugate(g, s)):
            raise ValueError("g must normalize the stabilizer")
    if stab.member(g):
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

    u must normalize that group, and u^2 must be the identity (else
    ValueError).  Then x u x u^-1 = (x u)^2 = x (u x)^2 x^-1 is conjugate in
    the group to (u x)^2, so the census is that of the squares of the coset
    uS: square_census reads it off cycle types, with no element listed, when
    the group is Young or signed Young, as A_n is.  One census
    serves every character: _census_indicators reads the twisted indicators,
    the averages of chi(x * u x u^-1), off it (catalog's lemma-twisted-An).
    With u = e they are the classical degree-2 indicators.
    """
    u_raw = u._img
    for s in cd.group.generators:
        if cd.index_of(_conj(u_raw, s._img)) is None:
            raise ValueError("u must normalize the group of chi")
    if _mul(u_raw, u_raw) != _identity(len(u_raw)):
        raise ValueError("u^2 must be the identity, which centralizes the "
                         "group of chi")
    return cd.square_census(u_raw)


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
    characters = character_table(s_g).characters
    base = tuple(_nu_m_row(g, characters, sub, m))
    at_moved = tuple(_nu_m_row(moved, characters, sub, m))
    product: bool | None = None
    if (u * g == g * u) and (u ** m).is_identity():
        shifted = u * g
        s_shifted = stabilizer(shifted, sub)
        same = same and s_g.element_set() == s_shifted.element_set()
        at_shifted = tuple(_nu_m_row(shifted, characters, sub, m))
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
    characters = character_table(s_big).characters
    big_vals = tuple(_nu_m_row(t * f, characters, sub, 2))
    small_vals = tuple(_nu_m_row(f, characters, reduced, 2))
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


# one entry of IndicatorReport.to_json, as json.dumps(indent=2,
# sort_keys=True) lays it out: chi_degree, nu, quoted rep, stab_order
_JSON_ROW = """    {
      "chi_degree": %d,
      "nu": %d,
      "rep": %s,
      "stab_order": %d
    }"""


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
        """The report as json.dumps(payload, indent=2, sort_keys=True) gives
        it, byte for byte, with entries {"rep", "stab_order", "chi_degree",
        "nu"}.

        The entries are rendered from one row template, in that layout:
        each distinct rep text is quoted once by json.dumps, and the three
        integers are written as json writes them.  The rest of the payload
        goes through json.dumps itself, with an empty entries list whose
        text the rows then replace; inside a JSON string every quote is
        escaped, so that text occurs only as the entries field.
        """
        payload = {
            "category": {"G_spec": self.group_label, "H_spec": self.sub_label},
            "m": self.m,
            "entries": [],
            "summary": {str(k): v for k, v in self.summary.items()},
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if not self.entries:
            return text
        texts = self._rep_texts()
        quoted = {rep: json.dumps(rep) for rep in set(texts)}
        rows = ",\n".join(_JSON_ROW % (e.chi_degree, e.nu, quoted[rep],
                                        e.stab_order)
                           for e, rep in zip(self.entries, texts))
        return text.replace('"entries": []',
                            '"entries": [\n' + rows + '\n  ]', 1)

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
    """#{y in group : y^m = e} when group is a Young or signed-Young group
    (PermGroup.young_shape; S_n and A_n have one orbit), counted from cycle
    types; None for any other group.

    even[k] and odd[k] count the even and odd permutations of k letters with
    y^m = e; the cycle through the first letter has some length d dividing m,
    in (k-1)!/(k-d)! ways, and parity d - 1.  On Y = prod Sym(O_j) the count
    is prod_j (e_j + o_j), with e_j and o_j those of |O_j| letters.  On
    K = ker eps_I the orbits in I take an even total parity, so their factor
    is (prod_{j in I} (e_j + o_j) + prod_{j in I} (e_j - o_j)) / 2.
    """
    shape = group.young_shape()
    if shape is None:
        return None
    orbits, signed = shape
    even, odd = [1], [0]
    for k in range(1, max(map(len, orbits), default=0) + 1):
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
    rest = plus = minus = 1
    for j, orbit in enumerate(orbits):
        e, o = even[len(orbit)], odd[len(orbit)]
        if j in signed:
            plus, minus = plus * (e + o), minus * (e - o)
        else:
            rest *= e + o
    return rest * (plus + minus) // 2


def _check_global_identities(group: PermGroup, sub: PermGroup, m: int,
                             entries) -> None:
    """Column orthogonality over G, with dim = [H:S(g)] * chi(1): the
    dimensions square-sum to |G|, and sum dim * nu_m counts the y in G with
    y^m = e.  The count comes from cycle types when G is a Young or
    signed-Young group (such as S_n and A_n), by a walk over G's chain when
    G is within the enumeration bound, and is skipped otherwise.

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
        # walk G as two_power_rep walks H, listing none of it
        one = _identity(group.degree)
        roots = sum(1 for us in product(*group._transversals())
                    if _raw_pow(reduce(_mul, us, one), m) == one)
    total = sum(d * e.nu for d, e in zip(dims, entries))
    if roots is not None and total != roots:
        raise ArithmeticError(
            f"sum of dim * nu_{m} is {total}, but {roots} elements of the "
            f"group have y^{m} = e")


def _transported(source, conj: tuple[int, ...],
                 cd: ClassData | YoungClasses,
                 characters, what: str | _Label) -> list[int]:
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

    The stabilizers come from double_cosets (DoubleCoset.stab_gens), read
    off block-count matrices or recorded by the orbit walk.  Each distinct
    stabilizer has its classes and character table built once for all the
    double cosets that share it, and is dropped before the next.  Per coset,
    m = 2 gives all-zero rows on a double coset that double_cosets found not
    self-inverse.  Otherwise the first coset the scan reaches of each orbit
    under the free letters (DoubleCoset.root) computes its rows: m = 2 takes
    the stabilizer-only sum at the w = DoubleCoset.square_root that
    double_cosets kept, every other m the defining H-sum.  At m = 2 no
    element of H is listed or searched: two sifts check that w lies in gH
    and w^2 in H.  On the trivial double coset w lies in H, so wS(g) = S(g)
    and the same sum gives the classical indicator.  The stabilizer sum's
    square census comes from cycle types when the stabilizer is a Young or
    signed-Young group, which is then never enumerated, and from a list of
    its elements otherwise (such as C(S8, C8)'s).  The defining sum lists H
    as bytes image strings, composed in C by translate, and keeps the
    (g x)^m that land in H; up to degree 256 no tuple of H is built.  The
    other cosets of that orbit move those rows along conjugation
    (DoubleCoset.conj), and the moved data are dropped once the orbit's
    last coset is done.  Rows are emitted in double-coset order, each in its
    own table's order.

    At the end the global identities are checked: the squared dimensions
    [H:S(g)] * chi(1) sum to |G|, and sum dim * nu_m equals
    #{y in G : y^m = e}, counted from cycle types when G is a Young or
    signed-Young group and from G's elements otherwise.  A G of neither kind
    over the enumeration bound gets only the first check.  A failure raises
    ArithmeticError.  Tables are deterministic; seed is accepted for
    compatibility and affects nothing.  m must be a positive integer.
    """
    _check_m(m)
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
                                   _Label(f"nu_{m} at", g))
            elif m == 2:
                w = dc.square_root
                if not all(sub.member(Permutation._from_raw(x))
                           for x in (_mul(_inv(g._img), w), _mul(w, w))):
                    raise ArithmeticError(
                        f"self-inverse double coset of {g.to_text()} has no "
                        "element squaring into the subgroup")
                counts = cd.square_census(w)
                nus = _census_indicators(counts, table.characters,
                                         stab.order(), _Label("nu_2 at", g))
                for value in nus:
                    if value not in (-1, 0, 1):
                        raise ArithmeticError(
                            f"degree-2 indicator out of range: {value}")
            else:
                counts = _coset_power_counts(g, sub, cd, m)
                nus = _census_indicators(counts, table.characters,
                                         stab.order(), _Label(f"nu_{m} at", g),
                                         conj=True)
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
