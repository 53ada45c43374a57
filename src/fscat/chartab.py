"""Exact character tables of permutation groups.

Tables come from Dixon's method: the class-sum algebra acts on itself through
integer class matrices, their common eigenvectors over a prime field F_p
(p = 1 mod exp(G), p large enough to separate degrees) recover the characters
mod p, and a discrete Fourier transform over each class lifts the mod-p values
to exact cyclotomic integers.  Verification of the degree sum and of row
orthogonality runs on every construction.

The eigenspaces are split as in Schneider, "Dixon's character table algorithm
revisited" (J. Symbolic Comput. 9, 1990): one class matrix at a time, smallest
class first, each splitting every space left by the ones before, until all
spaces are one-dimensional.  The matrix of class C costs |C| * r products for
r classes, against |G| * r for all r^3 structure constants, and the split
often ends after a few small classes (two of the 22 for S_8).  It is
deterministic.

The map from elements to classes is private to this module.  Other modules
read it through ClassData: index_of for one raw element, census for the class
counts of many (every indicator sum reads such a census against a table).
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .cyclo import ZERO, Cyclotomic, _prime_factors
from .perm import Permutation, PermGroup, _inv, _mul


# -- conjugacy classes ------------------------------------------------------


class ClassData:
    """Conjugacy classes of a finite permutation group.

    Classes are sorted by (size, least image tuple of the class), which puts
    the identity first and fixes a reproducible column order for tables.
    reps, sizes and members follow that order; members[j] lists the raw
    image tuples of class j as the class BFS found them, and the BFS's one
    dict from raw element to class serves index_of, census and class_of.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        elems = group.element_tuples()
        gen_pairs = [(g._img, _inv(g._img)) for g in group.generators]
        found: dict[tuple[int, ...], int] = {}
        orbits: list[list[tuple[int, ...]]] = []
        for start in elems:
            if start in found:
                continue
            cid = len(orbits)
            orbit = [start]
            found[start] = cid
            head = 0
            while head < len(orbit):
                x = orbit[head]
                head += 1
                for s, s_inv in gen_pairs:
                    y = _mul(_mul(s, x), s_inv)
                    if y not in found:
                        found[y] = cid
                        orbit.append(y)
            orbits.append(orbit)
        order = sorted(range(len(orbits)), key=lambda c: (len(orbits[c]), min(orbits[c])))
        self.members = tuple(orbits[c] for c in order)
        for j, orbit in enumerate(self.members):
            for x in orbit:
                found[x] = j
        self._index = found
        self.reps = tuple(Permutation._from_raw(min(orbit)) for orbit in self.members)
        self.sizes = tuple(len(orbit) for orbit in self.members)
        self._orders = tuple(rep.order for rep in self.reps)
        self._pow_rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.reps)

    def class_of(self, p: Permutation) -> int:
        try:
            return self._index[p._img]
        except KeyError:
            raise ValueError(f"{p!r} is not in the group") from None

    def index_of(self, raw: tuple[int, ...]) -> int | None:
        """Class of a raw image tuple, or None when it is not in the group."""
        return self._index.get(raw)

    def census(self, raws) -> list[int]:
        """How many of the raw image tuples raws lie in each class.  Every one
        must lie in the group; KeyError names the first that does not."""
        tally = Counter(map(self._index.__getitem__, raws))
        return [tally[j] for j in range(len(self.reps))]

    def rep_order(self, j: int) -> int:
        return self._orders[j]

    def power_class(self, j: int, t: int) -> int:
        """Index of the class containing the t-th power of class j."""
        nj = self._orders[j]
        row = self._pow_rows.get(j)
        if row is None:
            row = []
            cur = self.reps[0]._img
            base = self.reps[j]._img
            for _ in range(nj):
                row.append(self._index[cur])
                cur = _mul(cur, base)
            self._pow_rows[j] = row
        return row[t % nj]

    def inverse_class(self, j: int) -> int:
        return self._index[_inv(self.reps[j]._img)]

    def __repr__(self) -> str:
        return f"ClassData(order={self.group.order()}, classes={len(self.reps)})"


def conjugacy_classes(group: PermGroup) -> ClassData:
    if group._class_data is None:
        group._class_data = ClassData(group)
    return group._class_data


def is_ambivalent(group: PermGroup) -> bool:
    """Whether every element is conjugate to its inverse."""
    cd = conjugacy_classes(group)
    return all(cd.inverse_class(j) == j for j in range(len(cd)))


# -- characters -------------------------------------------------------------


def _as_cyclo(v) -> Cyclotomic:
    return v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)


class Character:
    """A class function given by its values on the classes of a ClassData."""

    __slots__ = ("classes", "values")

    def __init__(self, classes: ClassData, values):
        vals = tuple(_as_cyclo(v) for v in values)
        if len(vals) != len(classes):
            raise ValueError("one value per conjugacy class required")
        self.classes = classes
        self.values = vals

    @property
    def degree(self) -> int:
        d = self.values[0].as_rational_integer()
        assert d is not None
        return d

    def value(self, p: Permutation) -> Cyclotomic:
        return self.values[self.classes.class_of(p)]

    def conj(self) -> "Character":
        return Character(self.classes, tuple(v.conj() for v in self.values))

    def conjugated_by(self, u: Permutation) -> "Character":
        """The class function x -> chi(u^-1 x u); u must normalize the group."""
        ui = u.inverse()
        vals = [self.values[self.classes.class_of(ui * rep * u)]
                for rep in self.classes.reps]
        return Character(self.classes, tuple(vals))

    def restrict(self, sub: PermGroup) -> "Character":
        sub_cd = conjugacy_classes(sub)
        return Character(sub_cd, tuple(self.value(rep) for rep in sub_cd.reps))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Character)
                and self.classes is other.classes
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.values[:6])
        if len(self.values) > 6:
            shown += ", ..."
        return f"Character([{shown}])"


def inner_product(a: Character, b: Character) -> Cyclotomic:
    """Hermitian inner product (1/|G|) sum chi(g) conj(psi(g))."""
    if a.classes is not b.classes:
        raise ValueError("characters live on different class data")
    cd = a.classes
    total = ZERO
    for h, x, y in zip(cd.sizes, a.values, b.values):
        total = total + (x * y.conj()).scaled(h)
    return total.scaled(Fraction(1, cd.group.order()))


def induce(chi: Character, overgroup: PermGroup) -> Character:
    """Induce along an index-2 inclusion; zero outside the subgroup.

    A subgroup of index 2 is normal, so any g outside it gives
    Ind chi(y) = chi(y) + chi(g^-1 y g) on y inside and 0 outside; g is the
    first generator of the overgroup outside the subgroup.
    """
    sub = chi.classes.group
    if overgroup.order() != 2 * sub.order() or not sub.is_subgroup_of(overgroup):
        raise ValueError("induction needs the subgroup at index 2 in the overgroup")
    inside = sub.element_set()
    g_raw = next(t._img for t in overgroup.generators if t._img not in inside)
    gi = Permutation._from_raw(_inv(g_raw))
    g = Permutation._from_raw(g_raw)
    big_cd = conjugacy_classes(overgroup)

    def dot(p: Permutation) -> Cyclotomic:
        return chi.value(p) if p._img in inside else ZERO

    vals = [dot(y) + dot(gi * y * g) for y in big_cd.reps]
    return Character(big_cd, tuple(vals))


def nu_classical(chi: Character, m: int = 2) -> Cyclotomic:
    """Classical degree-m indicator (1/|G|) sum chi(g^m)."""
    cd = chi.classes
    total = ZERO
    for j, h in enumerate(cd.sizes):
        total = total + chi.values[cd.power_class(j, m)].scaled(h)
    return total.scaled(Fraction(1, cd.group.order()))


# -- Dixon's method ---------------------------------------------------------


def _choose_prime(e: int, lower: int, group_order: int) -> int:
    p = e + 1
    while not (p > lower and group_order % p != 0 and _prime_factors(p) == (p,)):
        p += e
    return p


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    fac = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in fac):
        g += 1
    return g


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns nonzero rows and pivot columns."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def _charpoly(a: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p, leading coefficient first.

    Faddeev-LeVerrier; valid because p exceeds the matrix dimension.
    """
    d = len(a)
    coeffs = [1]
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(d)) % p for j in range(d)]
              for i in range(d)]
        tr = sum(am[i][i] for i in range(d)) % p
        c = -tr * pow(k, -1, p) % p
        coeffs.append(c)
        m = [[(am[i][j] + (c if i == j else 0)) % p for j in range(d)]
             for i in range(d)]
    return coeffs


def _poly_roots(coeffs: list[int], p: int) -> list[int]:
    roots = []
    for lam in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace mod p."""
    d = len(mat)
    rref, pivots = _rref(mat, p)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


class CharacterTable:
    """Irreducible characters of a group, rows sorted by degree then values."""

    def __init__(self, group: PermGroup, classes: ClassData,
                 characters: tuple[Character, ...]):
        self.group = group
        self.classes = classes
        self.characters = characters

    def __len__(self) -> int:
        return len(self.characters)

    def __iter__(self):
        return iter(self.characters)

    def dump(self) -> str:
        cd = self.classes
        lines = [f"group of order {self.group.order()} with {len(cd)} classes"]
        for j, rep in enumerate(cd.reps):
            lines.append(f"  class {j}: rep {rep.to_text()}  size {cd.sizes[j]}"
                         f"  order {cd.rep_order(j)}")
        for i, chi in enumerate(self.characters):
            vals = ", ".join(_fmt_value(v) for v in chi.values)
            lines.append(f"chi{i}: {vals}")
        return "\n".join(lines)


def _fmt_value(v: Cyclotomic) -> str:
    if v.is_rational():
        return str(v.as_fraction())
    return v.to_text(var=f"E({v.conductor})")


def character_table(group: PermGroup) -> CharacterTable:
    """Exact character table, built once per group object by Dixon's method."""
    if group._char_table is None:
        group._char_table = _dixon(group)
    return group._char_table


def _dixon(group: PermGroup) -> CharacterTable:
    cd = conjugacy_classes(group)
    r = len(cd)
    n_g = group.order()
    exponent = math.lcm(*cd._orders)
    lower = max(2 * math.isqrt(n_g) + 1, r)
    p = _choose_prime(exponent, lower, n_g)

    reps_raw = [rep._img for rep in cd.reps]
    index = cd._index

    # split the common eigenspaces with one class matrix at a time, smallest
    # class first: mat[j][k] counts x in C_a with x^-1 times the
    # representative of C_k in C_j
    eye = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    spaces: list[tuple[list[list[int]], list[int]]] = [(eye, list(range(r)))]
    for a in range(1, r):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        mat = [[0] * r for _ in range(r)]
        for x in cd.members[a]:
            ix = _inv(x)
            for k, z in enumerate(reps_raw):
                mat[index[_mul(ix, z)]][k] += 1
        next_spaces: list[tuple[list[list[int]], list[int]]] = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                next_spaces.append((basis, pivots))
                continue
            dim = len(basis)
            act = []
            for b in basis:
                w = [sum(mat[j][k] * b[k] for k in range(r) if b[k]) % p
                     for j in range(r)]
                act.append([w[piv] for piv in pivots])
            actt = [[act[t][s] for t in range(dim)] for s in range(dim)]
            for lam in _poly_roots(_charpoly(actt, p), p):
                shifted = [[(actt[i][j] - (lam if i == j else 0)) % p
                            for j in range(dim)] for i in range(dim)]
                coords = _nullspace(shifted, p)
                vecs = [[sum(x[t] * basis[t][c] for t in range(dim)) % p
                         for c in range(r)] for x in coords]
                next_spaces.append(_rref(vecs, p))
        spaces = next_spaces
    if any(len(basis) > 1 for basis, _ in spaces):
        raise RuntimeError("failed to split the class algebra into characters")
    singles = [basis[0] for basis, _ in spaces]
    assert len(singles) == r

    # recover degrees and mod-p character values from each eigenvector
    omega = pow(_primitive_root(p), (p - 1) // exponent, p)
    inv_sizes = [pow(h % p, -1, p) for h in cd.sizes]
    rows_mod = []
    for v in singles:
        if v[0] == 0:
            raise RuntimeError("eigenvector vanishes on the identity class")
        inv0 = pow(v[0], -1, p)
        alpha = [x * inv0 % p for x in v]
        t = sum(alpha[j] * alpha[cd.inverse_class(j)] * inv_sizes[j]
                for j in range(r)) % p
        dd = n_g * pow(t, -1, p) % p
        d = next((c for c in range(1, math.isqrt(n_g) + 1) if c * c % p == dd), None)
        if d is None:
            raise RuntimeError("no integer degree matches the eigenvector")
        rows_mod.append([d * alpha[j] * inv_sizes[j] % p for j in range(r)])

    # lift each class column through a DFT over eigenvalue multiplicities
    chars = []
    for row in rows_mod:
        d = row[0]
        vals: list[Cyclotomic] = [Cyclotomic.from_rational(d)]
        for j in range(1, r):
            nj = cd.rep_order(j)
            wj_inv = pow(pow(omega, exponent // nj, p), -1, p)
            samples = [row[cd.power_class(j, t)] for t in range(nj)]
            nj_inv = pow(nj, -1, p)
            terms = {}
            total = 0
            for k in range(nj):
                mk = sum(s * pow(wj_inv, t * k, p) for t, s in enumerate(samples))
                mk = mk * nj_inv % p
                if mk:
                    terms[k] = mk
                    total += mk
            if total != d:
                raise RuntimeError("eigenvalue multiplicities do not sum to the degree")
            vals.append(Cyclotomic.from_exponents(nj, terms))
        chars.append(Character(cd, tuple(vals)))

    chars.sort(key=lambda c: (c.degree, tuple(v.sort_key() for v in c.values)))
    _verify_table(n_g, chars)
    return CharacterTable(group, cd, tuple(chars))


def _verify_table(n_g: int, chars: list[Character]) -> None:
    if sum(c.degree * c.degree for c in chars) != n_g:
        raise RuntimeError("degree squares do not sum to the group order")
    for i, a in enumerate(chars):
        for b in chars[i:]:
            expect = 1 if a is b else 0
            if inner_product(a, b).as_rational_integer() != expect:
                raise RuntimeError("character rows are not orthonormal")
