"""Exact character tables of permutation groups, by one of three routes.

Young and signed-Young groups.  Let O_1, ..., O_J be the orbits (of two or
more points) of a group S, and Y = Sym(O_1) x ... x Sym(O_J) their Young
subgroup, so S <= Y.  If |S| = prod |O_j|!, then S = Y.  If |S| is half
that, S has index 2 in Y, contains Y's commutator subgroup prod Alt(O_j),
and so is the kernel K of eps_I(y) = prod_{j in I} sgn(y on O_j) for one
nonempty set I of orbits: the one nonzero vector of F_2^J orthogonal to the
orbit-sign vector of every generator.  PermGroup.young_shape recognises
both, from the chain and the generators only.  Every other group goes to
character extension when its generators commute, and to Dixon's method
otherwise.

Classes.  A class of Y is a tuple of partitions mu = (mu_j), the cycle types
on the orbits, of size prod |O_j|!/z_{mu_j}.  K holds the classes with
sum_{j in I} (|O_j| - len(mu_j)) even.  The centralizer of x in Y is the
product of its centralizers in the Sym(O_j), and lies in K exactly when each
of those for j in I lies in Alt(O_j), that is when every mu_j, j in I, has
distinct odd parts (the A_n rule).  Exactly those classes split in K.  The
least element of a class of Y puts, on each orbit's points in increasing
order, cycles of consecutive points with the parts ascending.  Call it r.
x in the class lies in r's half exactly when pi*x*pi^-1 = r for some pi in
Y with eps_I(pi) = +1.  On each j in I, pi sends the cycles of x, shortest
first, onto those of r; an odd cycle may start anywhere.  In one orbit, the
least element of the other half is r with the last two points of its
longest cycle swapped, r conjugated by a transposition; the least of K's
other half flips the one orbit of I whose flip leaves the longest prefix of
r.  Columns are sorted by (size, least element), as the class BFS sorts
them.

Characters.  Irr(Y) is the products chi_lam = (x) chi_{lam_j}, valued
prod_j chi_{lam_j}(mu_j) by Murnaghan-Nakayama (Sagan, The Symmetric Group,
section 4.10).  chi_lam * eps_I = chi_lam* with lam*_j the conjugate
partition for j in I, so by Clifford theory chi_lam|K is irreducible, and
equal to chi_lam*|K, unless lam = lam*.  Then it is psi+ + psi-, with
psi+- = (chi_lam|K +- Delta)/2.  For Delta, let K_0 = prod_{j in I}
Alt(O_j) x prod_{j not in I} Sym(O_j), normal in Y and of index 2^(|I|-1) in
K.  For j in I, chi_{lam_j} restricts to Alt(O_j) as phi_j+ + phi_j-, so
chi_lam|K_0 is the sum over signs s of theta_s = (x)_{j in I} phi_j^{s_j}
(x) (x)_{j not in I} chi_{lam_j}.  K permutes the theta_s through the signs
of even weight, in two orbits of size |K : K_0|: psi+ and psi- are induced
from K_0, vanish off K_0, and
    Delta = prod_{j in I} (phi_j+ - phi_j-) * prod_{j not in I} chi_{lam_j}.
By Frobenius' rule for A_n (James and Kerber, section 2.5), phi_j+ - phi_j-
vanishes off the class h(lam_j) of diagonal hook lengths and is
+-sqrt(e_j * prod h(lam_j)) on its two halves, e_j = (-1)^((|O_j| -
len h(lam_j))/2).  So Delta is zero off the classes mu with mu_j = h(lam_j)
for all j in I; on them it is +-R * prod_{j not in I} chi_{lam_j}(mu_j),
with R^2 = prod_{j in I} e_j * prod h(lam_j) and the sign of the half.
Changing the sign of R only swaps psi+ and psi-, so any square root does.
Every e_j * prod h is 1 mod 4, so R is f times a product of quadratic Gauss
sums.  Each orbit's Murnaghan-Nakayama values are read once per table, as
one integer vector per partition over the table's columns, and a row
chi_lam is the elementwise product of its orbits' vectors, in plain ints.
Only the split rows psi+- can hold values that are not rational integers;
they are built with Cyclotomic.from_rational and from_exponents, so every
value is the canonical one Dixon's method gives.

Square censuses.  The degree-2 indicator sums chi((w s)^2) over s in S for
a w that normalizes S with w^2 in S, so it reads the class counts of the
squares of the coset wS.  For S = Y or K they come from cycle types.  w
permutes the orbits, O_j onto O_tau(j), and tau is an involution because
w^2 lies in S; tau fixes I, because w normalizes K.  The coset wY is every pi
with pi(O_j) = O_tau(j) for all j (and pi = w off the orbits), and the
orbits and the pairs tau swaps contribute independently:
  * on an orbit O of a points that tau fixes, pi|O runs over Sym(O): each
    type lam is taken a!/z_lam times, and pi^2|O has the square type of
    lam, in which a k-cycle gives one k-cycle for odd k and two k/2-cycles
    for even k;
  * on a swapped pair (O, O'), pi^2|O = pi|O' * pi|O takes each value of
    Sym(O) a! times, and pi^2|O' is conjugate to it, of the same type.
For S = K, pi lies in wK exactly when eps_I(w^-1 pi) = +1, a parity summed
over the orbits of I: on an orbit tau fixes it is sgn(w|O) + sgn(pi|O), and
on a swapped pair it is sgn(w^2|O) + sgn(pi^2|O), since (w^-1 pi)|O' carried
onto O by w|O, times (w^-1 pi)|O, is (w^2|O)^-1 pi^2|O.  So the census of
wK is the convolution of the orbits' and pairs' counts, keeping the even
total parity.  A class of Y that splits in K gets half of its count in each
half: any t in Y - K has eps_I(w^-1 t w) = eps_{tau(I)}(t) = eps_I(t), so t
normalizes wK, and conjugation by t swaps the halves.  Before counting,
YoungClasses.square_census checks that w maps orbits onto orbits, that tau
fixes I and that w^2 lies in S, and raises ValueError otherwise; ClassData
checks that w normalizes S with w^2 in S and lists the coset.

Abelian groups.  Each element is a class, and every character takes values
in the e-th roots of unity, e = exp(A), the lcm of the generators' orders.
Along A_i = <g_1, ..., g_i>, let d_i be the least d with g_i^d in A_{i-1}.
Every element of A_i is y * g_i^j for one y in A_{i-1} and one j < d_i, and
a character of A_{i-1} extends to A_i in exactly d_i ways: chi(g_i) is any
root of chi(g_i)^d_i = chi(g_i^d_i).  Writing chi(g_t) = zeta_e^k_t, the
roots are k_i = L/d_i + t*e/d_i for t < d_i, where zeta_e^L = chi(g_i^d_i);
d_i divides L because g_i^d_i has order dividing e/d_i.  Then chi(x) =
zeta_e^(sum a_t k_t) for x = prod g_t^a_t.  The group is listed once, with
each element's exponents a_t; no class matrix is built.

Dixon's method.  The class BFS (ClassData) lists every class, and the
class-sum algebra acts on itself through integer class matrices.  Their
common eigenvectors over a prime field F_p (p = 1 mod exp(G), p large
enough to separate degrees) recover the characters mod p, and a discrete
Fourier transform over each class lifts the mod-p values to exact
cyclotomic integers.  The eigenspaces are split as in Schneider, "Dixon's
character table algorithm revisited" (J. Symbolic Comput. 9, 1990): one
class matrix at a time, smallest class first, each splitting every space
left by the ones before, until all spaces are one-dimensional.  The matrix
of class C costs |C| * r products for r classes, and the split often ends
after a few small classes (two of the 22 for S_8).  It is deterministic.

Every route checks the degree sum and the orthonormality of every pair of
rows, and sorts the rows by degree, then by values.  Each refuses a table
of r^2 entries over the enumeration bound, and refuses to list more than it
allows: the class BFS group elements, the partition route its r columns,
counted before any is listed.  A pair of rows of rational integers is
checked in plain ints, each row weighted by the class sizes once per table;
the orthonormality of an irrational pair is read off inner_product, which
sums in one cyclotomic field.  Every class-census sum (the indicators',
nu_classical's) goes through _census_average, which sums a row of rational
integers in plain ints and ends in one exact divmod, and builds a
Cyclotomic only for any other row.

The map from elements to classes is private to this module.  Other modules
read it through the class object: index_of for one raw element, census for
the class counts of many (every indicator sum reads such a census against a
table), square_census for those of the squares of a coset wS, power_class
for the class of a power.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

from . import config
from .cyclo import (ZERO, Cyclotomic, _normalized, _prime_factors,
                    _reduce_ints)
from .perm import (BoundExceeded, Permutation, PermGroup, _identity, _inv,
                   _mul, _parity)


# -- conjugacy classes ------------------------------------------------------


class _Classes:
    """What both class objects share: the power maps, read through
    index_of."""

    def __len__(self) -> int:
        return len(self.reps)

    def power_class(self, j: int, t: int) -> int:
        """Index of the class containing the t-th power of class j."""
        nj = self.orders[j]
        row = self._pow_rows.get(j)
        if row is None:
            row = []
            cur = self.reps[0]._img
            base = self.reps[j]._img
            for _ in range(nj):
                row.append(self.index_of(cur))
                cur = _mul(cur, base)
            self._pow_rows[j] = row
        return row[t % nj]

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(order={self.group.order()}, "
                f"classes={len(self.reps)})")


class ClassData(_Classes):
    """Conjugacy classes of a finite permutation group, by a BFS over it.

    Classes are sorted by (size, least image tuple of the class), which puts
    the identity first and fixes a reproducible column order for tables.
    reps, sizes, orders (the element order of each class) and members follow
    that order; members[j] lists the raw image tuples of class j as the class
    BFS found them, and the BFS's one dict from raw element to class serves
    index_of, census and power_class.
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
        self.orders = tuple(rep.order for rep in self.reps)
        self._pow_rows: dict[int, list[int]] = {}

    def index_of(self, raw: tuple[int, ...]) -> int | None:
        """Class of a raw image tuple, or None when it is not in the group."""
        return self._index.get(raw)

    def census(self, raws) -> list[int]:
        """How many of the raw image tuples raws lie in each class.  Every one
        must lie in the group; KeyError names the first that does not."""
        tally = Counter(map(self._index.__getitem__, raws))
        return [tally[j] for j in range(len(self.reps))]

    def square_census(self, w: tuple[int, ...]) -> list[int]:
        """Class counts of (w s)^2 over s in the group, for a raw w that
        normalizes it with w^2 in it (else ValueError), by listing the
        group."""
        if self._index.get(_mul(w, w)) is None:
            raise ValueError("w^2 must lie in the group")
        w_inv = _inv(w)
        for s in self.group.generators:
            if _mul(_mul(w, s._img), w_inv) not in self._index:
                raise ValueError("w must normalize the group")
        products = (_mul(w, s) for s in self.group.element_tuples())
        return self.census(_mul(ws, ws) for ws in products)


def _partitions(m: int, most: int | None = None):
    """Partitions of m with parts at most most, largest part first."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, most or m), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > k) for k in range(lam[0] if lam else 0))


def _centralizer_order(mu: tuple[int, ...]) -> int:
    """z_mu = prod_k k^a_k * a_k!, with a_k parts equal to k."""
    return math.prod(k ** a * math.factorial(a) for k, a in Counter(mu).items())


def _splits(mu: tuple[int, ...]) -> bool:
    """Whether the cycle type mu has distinct odd parts."""
    return len(set(mu)) == len(mu) and all(part % 2 for part in mu)


def _column_count(orbits, signed) -> int:
    """How many columns YoungClasses lists, counted without listing them.

    Y has T = prod p(|O_j|) classes, p(a) the partitions of a.  Summed over
    them, (-1)^(a - len) gives d(a), the partitions into distinct odd parts
    (Euler: prod_k 1/(1 - (-1)^(k-1) q^k) = prod_{k odd} (1 + q^k)).  So
    with S = prod_{j in I} d(|O_j|) * prod_{j not in I} p(|O_j|), K keeps
    (T + S)/2 of the T tuples, and S of those split.
    """
    total = split = 1
    for j, o in enumerate(orbits):
        a = len(o)
        p, d = [1] + [0] * a, [1] + [0] * a
        for k in range(1, a + 1):
            for i in range(k, a + 1):
                p[i] += p[i - k]
            for i in range(a, k - 1, -1) if k % 2 else ():
                d[i] += d[i - k]
        total *= p[a]
        split *= d[a] if j in signed else p[a]
    return (total + 3 * split) // 2 if signed else total


class YoungClasses(_Classes):
    """Conjugacy classes of a Young or signed-Young group, read off
    partitions (see the module docstring); no element is listed.

    reps, sizes and orders follow ClassData's column order.  Column j stands
    for the cycle types _labels[j][0], one partition per orbit, and the half
    _labels[j][1]: 0 for an unsplit class or the half of its least element,
    1 for the other half.
    """

    def __init__(self, group: PermGroup, orbits: tuple[tuple[int, ...], ...],
                 signed: tuple[int, ...]):
        # the columns are listed, each with an image tuple
        limit, r = config.ENUMERATION_BOUND, _column_count(orbits, signed)
        if r > limit:
            raise BoundExceeded("enumeration bound", limit, r)
        self.group = group
        self._orbits = orbits
        self._signed = signed
        n = group.degree
        self._orbit_of = [-1] * n
        self._rank = [0] * n
        # a cycle of length k in orbit j adds (n + 1)^(shift_j + k - 1) to
        # an element's key, with shift_j the points of the orbits before j;
        # no orbit has n + 1 cycles of one length, so keys are cycle types
        self._weight = []
        shift = 0
        for j, o in enumerate(orbits):
            for i, p in enumerate(o):
                self._orbit_of[p] = j
                self._rank[p] = i
            self._weight.append([0] + [(n + 1) ** (shift + k - 1)
                                       for k in range(1, len(o) + 1)])
            shift += len(o)
        cols = []
        for mu in product(*(_partitions(len(o)) for o in orbits)):
            if sum(len(orbits[j]) - len(mu[j]) for j in signed) % 2:
                continue
            size = math.prod(math.factorial(len(o)) // _centralizer_order(m)
                             for o, m in zip(orbits, mu))
            least = self._least(mu)
            order = math.lcm(*(part for m in mu for part in m))
            if signed and all(_splits(mu[j]) for j in signed):
                cols.append((size // 2, least, order, mu, 0))
                cols.append((size // 2, self._least_other(least, mu), order, mu, 1))
            else:
                cols.append((size, least, order, mu, 0))
        cols.sort()
        self.reps = tuple(Permutation._from_raw(c[1]) for c in cols)
        self.sizes = tuple(c[0] for c in cols)
        self.orders = tuple(c[2] for c in cols)
        self._labels = tuple((c[3], c[4]) for c in cols)
        # cycle-type keys -> columns, by half
        self._where: dict[int, list[int]] = {}
        for j, (mu, _) in enumerate(self._labels):
            key = sum(w[part] for w, m in zip(self._weight, mu) for part in m)
            self._where.setdefault(key, []).append(j)
        self._pow_rows: dict[int, list[int]] = {}

    def _least(self, mu) -> tuple[int, ...]:
        img = list(range(self.group.degree))
        for o, m in zip(self._orbits, mu):
            start = 0
            for part in reversed(m):
                for i in range(start, start + part):
                    img[o[i]] = o[i + 1 if i + 1 < start + part else start]
                start += part
        return tuple(img)

    def _least_other(self, least, mu) -> tuple[int, ...]:
        out = []
        for j in self._signed:
            o, m = self._orbits[j], len(self._orbits[j])
            img = list(least)
            img[o[m - 3]], img[o[m - 1]], img[o[m - 2]] = (
                o[m - 1], o[m - 2], o[m - mu[j][0]])
            out.append(tuple(img))
        return min(out)

    def index_of(self, raw: tuple[int, ...]) -> int | None:
        """Class of a raw image tuple, or None when it is not in the group."""
        orbit_of, weight = self._orbit_of, self._weight
        if len(raw) != len(orbit_of):
            return None
        # p is the least point of its cycle, so the points seen later are
        # all above it
        seen = [False] * len(raw)
        key = 0
        for p, j in enumerate(orbit_of):
            if seen[p]:
                continue
            q = raw[p]
            if j < 0:
                if q != p:
                    return None
                continue
            k = 1
            while q != p:
                if orbit_of[q] != j:
                    return None
                seen[q] = True
                q = raw[q]
                k += 1
            key += weight[j][k]
        cols = self._where.get(key)
        if cols is None or len(cols) == 1:
            return None if cols is None else cols[0]
        half = 0
        rank = self._rank
        for j in self._signed:
            cycles = []
            done = set()
            for p in self._orbits[j]:
                if p not in done:
                    cyc = [p]
                    q = raw[p]
                    while q != p:
                        cyc.append(q)
                        q = raw[q]
                    done.update(cyc)
                    cycles.append(cyc)
            cycles.sort(key=len)
            half ^= _parity([rank[p] for cyc in cycles for p in cyc])
        return cols[half]

    def census(self, raws) -> list[int]:
        """How many of the raw image tuples raws lie in each class.  Every one
        must lie in the group; KeyError names the first that does not."""
        counts = [0] * len(self.reps)
        for x, c in Counter(raws).items():
            j = self.index_of(x)
            if j is None:
                raise KeyError(x)
            counts[j] += c
        return counts

    def square_census(self, w: tuple[int, ...]) -> list[int]:
        """Class counts of (w s)^2 over s in the group, for a raw w that
        normalizes it with w^2 in it (else ValueError), from cycle types (see
        the module docstring); no element is listed."""
        orbits, signed, weight = self._orbits, self._signed, self._weight
        orbit_of, rank = self._orbit_of, self._rank
        tau = []
        for o in orbits:
            k = orbit_of[w[o[0]]]
            if k < 0 or len(orbits[k]) != len(o) or any(
                    orbit_of[w[p]] != k for p in o):
                raise ValueError("w must map each orbit onto an orbit")
            tau.append(k)
        if any(tau[j] not in signed for j in signed):
            raise ValueError("w must map the signed orbits onto signed orbits")
        if self.index_of(_mul(w, w)) is None:
            raise ValueError("w^2 must lie in the group")
        # (cycle-type key of (w s)^2, parity of eps_I(s)) -> count, s over Y
        dist = Counter({(0, 0): 1})
        for j, o in enumerate(orbits):
            k = tau[j]
            if k < j:
                continue
            a = len(o)
            full = math.factorial(a)
            bit = 0
            if j in signed:
                bit = _parity([rank[w[p]] if k == j else rank[w[w[p]]]
                               for p in o])
            terms = []
            for lam in _partitions(a):
                # lam: the type of w s on a fixed orbit, of (w s)^2 on a pair
                size = full // _centralizer_order(lam)
                if k == j:
                    key = sum(weight[j][part] if part % 2
                              else 2 * weight[j][part // 2] for part in lam)
                else:
                    key = sum(weight[j][part] + weight[k][part] for part in lam)
                    size *= full
                odd = (bit + a - len(lam)) % 2 if j in signed else 0
                terms.append((key, odd, size))
            step = Counter()
            for (key, odd), c in dist.items():
                for key2, odd2, c2 in terms:
                    step[key + key2, odd ^ odd2] += c * c2
            dist = step
        counts = [0] * len(self.reps)
        for (key, odd), c in dist.items():
            if odd:
                continue
            cols = self._where[key]
            assert c % len(cols) == 0
            for col in cols:
                counts[col] += c // len(cols)
        return counts


def conjugacy_classes(group: PermGroup) -> ClassData | YoungClasses:
    """The one class object of a group: read off partitions for a Young or
    signed-Young group, by the class BFS otherwise."""
    if group._class_data is None:
        shape = group.young_shape()
        group._class_data = (ClassData(group) if shape is None
                             else YoungClasses(group, *shape))
    return group._class_data


# -- characters -------------------------------------------------------------


def _as_cyclo(v) -> Cyclotomic:
    return v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)


# Character._ints before its first read
_UNREAD = object()


class Character:
    """A class function given by its values on the classes of a class object."""

    __slots__ = ("classes", "values", "_sparse", "_ints")

    def __init__(self, classes, values):
        vals = tuple(_as_cyclo(v) for v in values)
        if len(vals) != len(classes):
            raise ValueError("one value per conjugacy class required")
        self.classes = classes
        self.values = vals
        # inner_product's lift of the values and _integer_values' view of
        # them, each built on first use
        self._sparse = None
        self._ints = _UNREAD

    @property
    def degree(self) -> int:
        d = self.values[0].as_rational_integer()
        assert d is not None
        return d

    def value(self, p: Permutation) -> Cyclotomic:
        j = self.classes.index_of(p._img)
        if j is None:
            raise ValueError(f"{p!r} is not in the group")
        return self.values[j]

    def conjugated_by(self, u: Permutation) -> "Character":
        """The class function x -> chi(u^-1 x u); u must normalize the group."""
        ui = u.inverse()
        vals = [self.value(ui * rep * u) for rep in self.classes.reps]
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


def _lifted(chi: Character) -> list:
    """chi's values as (conductor, denominator, nonzero (exponent,
    numerator) pairs): sparse polynomials in the zeta of each value's own
    field, built once per character."""
    if chi._sparse is None:
        chi._sparse = [(v.n, v.den, [(j, c) for j, c in enumerate(v.num) if c])
                       for v in chi.values]
    return chi._sparse


def _integer_values(chi: Character) -> tuple[int, ...] | None:
    """chi's values as plain ints, or None when one of them is not a rational
    integer; read once per character."""
    if chi._ints is _UNREAD:
        ints = tuple(v.as_rational_integer() for v in chi.values)
        chi._ints = None if None in ints else ints
    return chi._ints


def _census_average(counts: list[int], chi: Character, order: int,
                    conj: bool = False) -> int | Cyclotomic:
    """(1/order) * sum_j counts_j * chi(C_j), with chi conjugated when conj
    is set: the one kernel of every class-census sum.

    A row of rational integers is its own conjugate.  It is summed in plain
    ints and divided by one exact divmod, and the average is that int when
    order divides the sum.  Any other row, and a sum that order does not
    divide, gives the Cyclotomic that summing Cyclotomic terms gives.
    """
    ints = _integer_values(chi)
    if ints is not None:
        total = sum(map(mul, counts, ints))
        quot, rem = divmod(total, order)
        return Cyclotomic.from_rational(Fraction(total, order)) if rem else quot
    total = ZERO
    for c, v in zip(counts, chi.values):
        if c:
            total = total + (v.conj() if conj else v).scaled(c)
    return total.scaled(Fraction(1, order))


def inner_product(a: Character, b: Character) -> Cyclotomic:
    """Hermitian inner product (1/|G|) sum chi(g) conj(psi(g)), summed in
    one field.

    Every value is lifted to the lcm N of the conductors, zeta_n^j becoming
    z^(j N/n) with z = zeta_N, and the terms h * x * conj(y) are summed as
    integer vectors over one denominator in Z[z]/(z^N - 1), where conj sends
    z^i to z^-i.  The total is reduced modulo the N-th cyclotomic polynomial
    and normalized once, so it is the canonical value that summing
    Cyclotomic terms gives.
    """
    if a.classes is not b.classes:
        raise ValueError("characters live on different class data")
    xs, ys = _lifted(a), _lifted(b)
    big = math.lcm(*(t[0] for t in xs), *(t[0] for t in ys))
    den = math.lcm(*(x[1] * y[1] for x, y in zip(xs, ys)))
    acc = [0] * big
    for h, (nx, dx, px), (ny, dy, py) in zip(a.classes.sizes, xs, ys):
        f = h * den // (dx * dy)
        sx, sy = big // nx, big // ny
        for i, c in px:
            i, c = i * sx, c * f
            for j, d in py:
                acc[(i - j * sy) % big] += c * d
    order = a.classes.group.order()
    return Cyclotomic._raw(*_normalized(big, _reduce_ints(big, acc),
                                        den * order))


def induce(chi: Character, overgroup: PermGroup) -> Character:
    """Induce along an index-2 inclusion; zero outside the subgroup.

    A subgroup of index 2 is normal, so any g outside it gives
    Ind chi(y) = chi(y) + chi(g^-1 y g) on y inside and 0 outside; g is the
    first generator of the overgroup outside the subgroup.  Membership is
    read off the subgroup's classes (index_of), so induce lists no group.
    """
    cd = chi.classes
    sub = cd.group
    if overgroup.order() != 2 * sub.order() or not sub.is_subgroup_of(overgroup):
        raise ValueError("induction needs the subgroup at index 2 in the overgroup")
    g_raw = next(t._img for t in overgroup.generators
                 if cd.index_of(t._img) is None)
    gi = Permutation._from_raw(_inv(g_raw))
    g = Permutation._from_raw(g_raw)
    big_cd = conjugacy_classes(overgroup)

    def dot(p: Permutation) -> Cyclotomic:
        j = cd.index_of(p._img)
        return ZERO if j is None else chi.values[j]

    vals = [dot(y) + dot(gi * y * g) for y in big_cd.reps]
    return Character(big_cd, tuple(vals))


def nu_classical(chi: Character, m: int = 2) -> Cyclotomic:
    """Classical degree-m indicator (1/|G|) sum chi(g^m), read off the class
    census of the m-th powers by _census_average."""
    cd = chi.classes
    counts = [0] * len(cd)
    for j, h in enumerate(cd.sizes):
        counts[cd.power_class(j, m)] += h
    return _as_cyclo(_census_average(counts, chi, cd.group.order()))


class CharacterTable:
    """Irreducible characters of a group, rows sorted by degree then values."""

    def __init__(self, group: PermGroup, classes,
                 characters: tuple[Character, ...]):
        self.group = group
        self.classes = classes
        self.characters = characters


def character_table(group: PermGroup) -> CharacterTable:
    """Exact character table, built once per group object: read off
    partitions for a Young or signed-Young group, by character extension
    for any other group whose generators commute, by Dixon's method
    otherwise.  A table of more than config.ENUMERATION_BOUND entries
    raises BoundExceeded before any route runs."""
    if group._char_table is None:
        cd = conjugacy_classes(group)
        limit = config.ENUMERATION_BOUND
        if len(cd) ** 2 > limit:
            raise BoundExceeded("enumeration bound", limit, len(cd) ** 2)
        gens = [g._img for g in group.generators]
        if isinstance(cd, YoungClasses):
            group._char_table = _young_table(cd)
        elif all(_mul(a, b) == _mul(b, a)
                 for i, a in enumerate(gens) for b in gens[:i]):
            group._char_table = _abelian_table(cd)
        else:
            group._char_table = _dixon(cd)
    return group._char_table


def _finish(cd, chars: list[Character]) -> CharacterTable:
    chars.sort(key=lambda c: (c.degree, tuple(v.sort_key() for v in c.values)))
    _verify_table(cd.group.order(), chars)
    return CharacterTable(cd.group, cd, tuple(chars))


def _verify_table(n_g: int, chars: list[Character]) -> None:
    """Degree squares sum to |G|, and every pair of rows is orthonormal:
    when both rows are rational integers (_integer_values), sum_j h_j a_j b_j
    = |G| delta in plain ints, with each row a weighted by the class sizes h
    once per table; else by inner_product."""
    if sum(c.degree * c.degree for c in chars) != n_g:
        raise RuntimeError("degree squares do not sum to the group order")
    sizes = chars[0].classes.sizes
    ints = [_integer_values(c) for c in chars]
    for i, a in enumerate(chars):
        weighted = None if ints[i] is None else list(map(mul, sizes, ints[i]))
        for k in range(i, len(chars)):
            expect = 1 if k == i else 0
            if weighted is not None and ints[k] is not None:
                ok = sum(map(mul, weighted, ints[k])) == n_g * expect
            else:
                ok = inner_product(a, chars[k]).as_rational_integer() == expect
            if not ok:
                raise RuntimeError("character rows are not orthonormal")


# -- characters from partitions ----------------------------------------------

_MN_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi_lam(mu) for partitions of one number, by Murnaghan-Nakayama.

    The rim hooks of length mu[0] of lam are the beads b of the beta-set
    {lam_i + len(lam) - 1 - i} that can move down to an empty b - mu[0];
    the sign counts the beads passed.
    """
    key = (lam, mu)
    if key not in _MN_CACHE:
        if not mu:
            value = 1
        else:
            k, rest = mu[0], mu[1:]
            top = len(lam) - 1
            beta = [part + top - i for i, part in enumerate(lam)]
            value = 0
            for b in beta:
                c = b - k
                if c < 0 or c in beta:
                    continue
                passed = sum(1 for x in beta if c < x < b)
                moved = sorted([x for x in beta if x != b] + [c], reverse=True)
                nu = tuple(x - top + i for i, x in enumerate(moved))
                value += (-1) ** passed * _mn(tuple(p for p in nu if p), rest)
        _MN_CACHE[key] = value
    return _MN_CACHE[key]


def _diagonal_hooks(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Hook lengths on the diagonal of a self-conjugate partition."""
    return tuple(2 * (part - i) - 1 for i, part in enumerate(lam) if part > i)


def _sqrt_terms(q: int) -> tuple[int, dict[int, int]]:
    """(d, terms) with sum_e terms[e] * zeta_d^e a square root of q, for
    q = 1 mod 4: q = f^2 * (+-d) with d squarefree, and the root is f times
    the product of the Gauss sums sum_a (a/p) zeta_p^a, whose squares are
    p* = (-1)^((p-1)/2) p, over the primes p of d."""
    assert q % 4 == 1
    f, d = 1, 1
    rest = abs(q)
    for p in _prime_factors(rest):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        f *= p ** (e // 2)
        d *= p ** (e % 2)
    terms = {0: f}
    for p in _prime_factors(d):
        step = d // p
        legendre = {a: 1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)}
        terms = {(e + a * step) % d: c * s
                 for e, c in terms.items() for a, s in legendre.items()}
    return d, terms


def _young_table(cd: YoungClasses) -> CharacterTable:
    """The table of a Young or signed-Young group from partitions (see the
    module docstring).

    Each orbit's Sym(O_j) values are read once per table, as one vector per
    partition lam_j over the table's columns: chi_{lam_j}(mu_j) at the
    column of cycle types mu.  A row chi_lam is the elementwise product of
    its orbits' vectors, in plain ints; a group with no orbits has the one
    row [1].
    """
    signed = cd._signed
    labels = cd._labels
    vectors: list[dict[tuple[int, ...], list[int]]] = [{} for _ in cd._orbits]

    def vector(j: int, part: tuple[int, ...]) -> list[int]:
        vec = vectors[j].get(part)
        if vec is None:
            vec = vectors[j][part] = [_mn(part, mu[j]) for mu, _ in labels]
        return vec

    chars = []
    for lam in product(*(_partitions(len(o)) for o in cd._orbits)):
        twin = tuple(_conjugate(part) if j in signed else part
                     for j, part in enumerate(lam))
        if twin < lam:
            continue
        values = [1] * len(labels)  # the row of a group with no orbits
        for j, part in enumerate(lam):
            values = (vector(j, part) if j == 0
                      else list(map(mul, values, vector(j, part))))
        if not signed or twin != lam:
            chars.append(Character(cd, values))
            continue
        hooks = {j: _diagonal_hooks(lam[j]) for j in signed}
        q = 1
        for j, h in hooks.items():
            q *= (-1) ** ((sum(h) - len(h)) // 2) * math.prod(h)
        d, root = _sqrt_terms(q)
        for sign in (1, -1):
            row = []
            for col, ((mu, half), v) in enumerate(zip(labels, values)):
                rest = 0
                if all(mu[j] == h for j, h in hooks.items()):
                    rest = math.prod(vector(j, part)[col]
                                     for j, part in enumerate(lam)
                                     if j not in hooks)
                if not rest:
                    row.append(Cyclotomic.from_rational(Fraction(v, 2)))
                    continue
                c = sign * rest * (1 if half == 0 else -1)
                terms: dict[int, Fraction] = {0: Fraction(v, 2)}
                for e, t in root.items():
                    terms[e] = terms.get(e, 0) + Fraction(c * t, 2)
                row.append(Cyclotomic.from_exponents(d, terms))
            chars.append(Character(cd, row))
    assert len(chars) == len(cd)
    return _finish(cd, chars)


# -- abelian groups by character extension -----------------------------------


def _abelian_table(cd) -> CharacterTable:
    """The table of an abelian group, whose classes are its elements, by
    extending characters along the generators (see the module docstring)."""
    group = cd.group
    gens = group.generators
    e = math.lcm(*(g.order for g in gens))
    # words: element -> its exponents over g_1..g_i; logs: one k per
    # character of A_i, with chi(g_t) = zeta_e^k_t
    words = {_identity(group.degree): ()}
    logs = [()]
    for g in (g._img for g in gens):
        power, d = g, 1
        while power not in words:
            power, d = _mul(power, g), d + 1
        below = words[power]
        grown = {}
        for x, word in words.items():
            y = x
            for j in range(d):
                grown[y] = word + (j,)
                y = _mul(y, g)
        words = grown
        # the d roots of chi(g_i)^d = chi(g_i^d) = zeta_e^L; d divides L
        grown_logs = []
        for k in logs:
            root = sum(a * b for a, b in zip(below, k)) % e // d
            grown_logs += [k + (root + t * (e // d),) for t in range(d)]
        logs = grown_logs
    assert len(words) == group.order() == len(logs) == len(cd)
    zetas = [Cyclotomic.from_exponents(e, {s: 1}) for s in range(e)]
    rep_words = [words[rep._img] for rep in cd.reps]
    chars = [Character(cd, [zetas[sum(a * b for a, b in zip(word, k)) % e]
                            for word in rep_words])
             for k in logs]
    return _finish(cd, chars)


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


def _dixon(cd: ClassData) -> CharacterTable:
    """The table of the group behind the class BFS cd, by Dixon's method."""
    group = cd.group
    r = len(cd)
    n_g = group.order()
    exponent = math.lcm(*cd.orders)
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
    inverse = [cd.power_class(j, -1) for j in range(r)]
    rows_mod = []
    for v in singles:
        if v[0] == 0:
            raise RuntimeError("eigenvector vanishes on the identity class")
        inv0 = pow(v[0], -1, p)
        alpha = [x * inv0 % p for x in v]
        t = sum(alpha[j] * alpha[inverse[j]] * inv_sizes[j]
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
            nj = cd.orders[j]
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
    return _finish(cd, chars)
