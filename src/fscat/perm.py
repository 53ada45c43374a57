"""Permutations and permutation groups with stabilizer-chain membership.

Composition is right-to-left: (a * b) applies b first, then a.  All points in
the public interface are 1-based; storage is 0-based image tuples.

A stabilizer chain is a list of levels on the natural base 0, 1, ...; one
kernel, _extend, adds a generator to the group a chain describes and
completes the chain in place (incremental Schreier-Sims).  PermGroup builds
its chain with it, and cosets grows the chain of each coset stabilizer with
it as the orbit walk finds Schreier generators.
"""
from __future__ import annotations

import math
import re
from collections.abc import Iterator
from functools import reduce

from . import config


class BoundExceeded(RuntimeError):
    """A configured size limit would be exceeded by the requested computation."""

    def __init__(self, bound_name: str, limit: int, needed: int):
        self.bound_name = bound_name
        self.limit = limit
        self.needed = needed
        super().__init__(f"{bound_name} exceeded: need {needed}, limit is {limit}")


# ---------------------------------------------------------------------------
# raw image-tuple kernels (0-based), used by the hot loops throughout

def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a o b)(i) = a(b(i))
    return tuple(map(a.__getitem__, b))


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    r = [0] * len(a)
    for i, v in enumerate(a):
        r[v] = i
    return tuple(r)


def _conj(g: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    # g |> x = g o x o g^-1
    return _mul(_mul(g, x), _inv(g))


def _raw_pow(x: tuple[int, ...], m: int, mul=_mul) -> tuple[int, ...]:
    # binary powering from the lowest set bit of m, with no square after the
    # highest: x^4 takes two products.  m must not be negative.  mul
    # composes two values of x's kind; _coset_powers passes blocks of
    # elements, composed pair by pair, with m >= 1.
    if m == 0:
        return _identity(len(x))
    while not m & 1:
        x = mul(x, x)
        m >>= 1
    acc = x
    m >>= 1
    while m:
        x = mul(x, x)
        if m & 1:
            acc = mul(acc, x)
        m >>= 1
    return acc


def _min_moved(a: tuple[int, ...]) -> int | None:
    for i, v in enumerate(a):
        if v != i:
            return i
    return None


def _parity(word: list[int] | tuple[int, ...]) -> int:
    """0 for an even permutation i -> word[i] of range(len(word)), 1 for odd."""
    seen = [False] * len(word)
    moved = 0
    for i in range(len(word)):
        if not seen[i]:
            j = word[i]
            seen[i] = True
            while j != i:
                seen[j] = True
                moved += 1
                j = word[j]
    return moved & 1


def _raw_cycles(img: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(img)
    out = []
    for start in range(len(img)):
        if seen[start] or img[start] == start:
            seen[start] = True
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = img[j]
        out.append(cyc)
    return out


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_DEG_RE = re.compile(r"deg\s*=\s*(\d+)")


class Permutation:
    """An immutable permutation of {1..n}."""

    __slots__ = ("_img",)

    def __init__(self, images):
        img = tuple(int(i) - 1 for i in images)
        n = len(img)
        if n < 1 or sorted(img) != list(range(n)):
            raise ValueError(f"not a permutation of 1..{n}: {list(images)!r}")
        self._img = img

    @classmethod
    def _from_raw(cls, img: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._from_raw(_identity(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles([(1, 2), (3, 4)], 6)."""
        if degree < 1:
            raise ValueError("degree must be positive")
        img = list(range(degree))
        touched = set()
        for cyc in cycles:
            cyc = [int(c) for c in cyc]
            for c in cyc:
                if not 1 <= c <= degree:
                    raise ValueError(f"point {c} outside 1..{degree}")
                if c in touched:
                    raise ValueError(f"point {c} repeated across cycles")
                touched.add(c)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - 1] = b - 1
        return cls._from_raw(tuple(img))

    @classmethod
    def from_text(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like "(1,2)(3,4)" with an optional "deg=n" suffix."""
        s = text.strip()
        m = _DEG_RE.search(s)
        if m:
            explicit = int(m.group(1))
            if degree is not None and degree != explicit:
                raise ValueError(f"degree mismatch: argument {degree}, text says {explicit}")
            degree = explicit
            s = s[: m.start()].strip()
        if not re.fullmatch(r"(?:\s*\(\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\))*\s*", s):
            raise ValueError(f"cannot parse cycle text: {text!r}")
        cycles = []
        for grp in _CYCLE_RE.findall(s.replace(" ", "")):
            if grp == "":
                continue
            cycles.append([int(t) for t in grp.split(",")])
        top = max((max(c) for c in cycles), default=1)
        if degree is None:
            degree = top
        elif degree < top:
            raise ValueError(f"degree {degree} too small for point {top}")
        return cls.from_cycles(cycles, degree)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple[int, ...]:
        """Images of 1..n as a 1-based tuple."""
        return tuple(v + 1 for v in self._img)

    def apply(self, point: int) -> int:
        return self._img[point - 1] + 1

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self._img))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 1-based, each starting at its least point."""
        out = []
        for cyc in _raw_cycles(self._img):
            k = cyc.index(min(cyc))
            out.append(tuple(v + 1 for v in cyc[k:] + cyc[:k]))
        out.sort(key=lambda c: c[0])
        return tuple(out)

    def to_text(self, with_degree: bool = False) -> str:
        cycs = self.cycles()
        body = "".join("(" + ",".join(map(str, c)) + ")" for c in cycs) or "()"
        return f"{body} deg={self.degree}" if with_degree else body

    @property
    def sign(self) -> int:
        return -1 if _parity(self._img) else 1

    @property
    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in _raw_cycles(self._img)), 1)

    def min_moved(self) -> int | None:
        m = _min_moved(self._img)
        return None if m is None else m + 1

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation._from_raw(_mul(self._img, other._img))

    def inverse(self) -> "Permutation":
        return Permutation._from_raw(_inv(self._img))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        return Permutation._from_raw(_raw_pow(self._img, k))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        return (self.degree, self._img) < (other.degree, other._img)

    def __repr__(self) -> str:
        return f"Permutation.from_text({self.to_text(with_degree=True)!r})"


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """g acting on x: g * x * g^-1."""
    if g.degree != x.degree:
        raise ValueError(f"degree mismatch: {g.degree} vs {x.degree}")
    return Permutation._from_raw(_conj(g._img, x._img))


# ---------------------------------------------------------------------------
# groups

class _Level:
    __slots__ = ("point", "orbit", "inv", "gens")

    def __init__(self, point: int, idt: tuple[int, ...]):
        self.point = point
        # orbit point p -> raw transversal element u with u(point) = p
        self.orbit: dict[int, tuple[int, ...]] = {point: idt}
        # orbit point p -> u^-1, stored when u is, for _sift and _extend
        self.inv: dict[int, tuple[int, ...]] = {point: idt}
        # the strong generators fixing every earlier base point
        self.gens: list[tuple[int, ...]] = []


def _trivial_chain(n: int) -> list[_Level]:
    """The stabilizer chain of the trivial group on the natural base."""
    idt = _identity(n)
    return [_Level(b, idt) for b in range(n - 1)]


def _sift(levels: list[_Level], g: tuple[int, ...], start: int = 0
          ) -> tuple[int, ...]:
    """Sift g from levels[start] down: the identity exactly when g is in the group."""
    for lv in levels[start:]:
        p = g[lv.point]
        if p == lv.point:
            continue
        u_inv = lv.inv.get(p)
        if u_inv is None:
            return g
        g = _mul(u_inv, g)
    return g


def _extend(levels: list[_Level], x: tuple[int, ...]) -> None:
    """Add the nonidentity x to the group levels describes and complete the
    chain again (incremental Schreier-Sims; Seress, Permutation Group
    Algorithms, ch. 4).

    x joins every level whose earlier base points it fixes, deepest first.
    On each, the orbit grows with x, and only the Schreier generators of new
    pairs are sifted: an old point with x, or a new point with any
    generator.  Old pairs need no second sift: orbits only grow and
    transversal entries never change, so a Schreier generator that sifted to
    the identity once still does.  A residue that does not sift is added in
    turn; it moves the base point of the level where it stopped outside that
    level's orbit, so each addition grows some orbit and the recursion ends.
    """
    idt = _identity(len(x))
    for b in range(_min_moved(x), -1, -1):
        orbit, inv, gens = levels[b].orbit, levels[b].inv, levels[b].gens
        gens.append(x)
        points = list(orbit)
        n_old = len(points)
        schreier = []
        for i, p in enumerate(points):
            up = orbit[p]
            for s in gens if i >= n_old else (x,):
                q, sup = s[p], _mul(s, up)
                if q not in orbit:
                    orbit[q] = sup
                    inv[q] = _inv(sup)
                    points.append(q)
                elif orbit[q] != sup:
                    schreier.append(_mul(inv[q], sup))
        for y in schreier:
            r = _sift(levels, y, b + 1)
            if r != idt:
                _extend(levels, r)


class PermGroup:
    """Permutation group given by generators; membership via a stabilizer chain.

    The chain uses the full natural base (points 0, 1, ... in storage order),
    so walking it gives the least element of a left coset (coset_min), for
    every group alike.  It is the trivial chain extended by each generator
    that does not sift.
    """

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise ValueError("degree must be positive")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity() and g._img not in seen:
                seen.add(g._img)
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self._elem_tuples: list[tuple[int, ...]] | None = None
        self._elem_set: frozenset | None = None
        # young_shape(), once computed (None is one of its results)
        self._shape = False
        # filled by chartab.conjugacy_classes and chartab.character_table
        self._class_data = None
        self._char_table = None

    # -- stabilizer chain ---------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self) -> None:
        idt = _identity(self.degree)
        levels = _trivial_chain(self.degree)
        for g in self.generators:
            if _sift(levels, g._img) != idt:
                _extend(levels, g._img)
        self._levels = levels
        self._order = math.prod(len(lv.orbit) for lv in levels)

    def order(self) -> int:
        if self._order is None:
            self._build_chain()
        return self._order

    def member(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return _sift(self._chain(), p._img) == _identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return self.member(p)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            return False
        return all(other.member(g) for g in self.generators)

    def young_shape(self
                    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
        """(orbits, signed) when the group is the Young subgroup of its
        orbits (signed empty) or the kernel of eps_I in it (signed lists I),
        else None; computed once.

        orbits holds each orbit of two or more points as a sorted tuple,
        ordered by least point.  The group is Y = prod Sym(O_j) when its
        order is prod |O_j|!.  At half that it has index 2 in Y, so it is the
        kernel of eps_I(y) = prod_{j in I} sgn(y on O_j) for the one nonzero
        I in F_2^J orthogonal to the orbit-sign vector of every generator.
        """
        if self._shape is False:
            self._shape = self._find_young_shape()
        return self._shape

    def _find_young_shape(self):
        n = self.degree
        where = [-1] * n
        orbits = []
        for p in range(n):
            if where[p] >= 0:
                continue
            orbit = [p]
            where[p] = len(orbits)
            for q in orbit:
                for g in self.generators:
                    r = g._img[q]
                    if where[r] < 0:
                        where[r] = len(orbits)
                        orbit.append(r)
            orbits.append(orbit)
        orbits = [tuple(sorted(o)) for o in orbits if len(o) > 1]
        full = math.prod(math.factorial(len(o)) for o in orbits)
        if self.order() == full:
            return tuple(orbits), ()
        if 2 * self.order() != full:
            return None
        # the orbit-sign vectors of the generators span a hyperplane of F_2^J;
        # reduce them (bit j for orbit j) and read off its orthogonal vector
        rank = {p: i for o in orbits for i, p in enumerate(o)}
        rows: dict[int, int] = {}
        for g in self.generators:
            v = 0
            for j, o in enumerate(orbits):
                v |= _parity([rank[g._img[p]] for p in o]) << j
            for b, row in rows.items():
                if v >> b & 1:
                    v ^= row
            if v:
                b = v.bit_length() - 1
                for c in rows:
                    if rows[c] >> b & 1:
                        rows[c] ^= v
                rows[b] = v
        free = [b for b in range(len(orbits)) if b not in rows]
        assert len(free) == 1
        f = free[0]
        signed = sorted([f] + [b for b, row in rows.items() if row >> f & 1])
        return tuple(orbits), tuple(signed)

    # -- enumeration --------------------------------------------------------

    def _transversals(self) -> list[list[tuple[int, ...]]]:
        """The transversal of each level with an orbit of two or more
        points, sorted by orbit point, top level first.  Every element is
        one product u_0 * u_1 * ... of one entry of each; element_tuples
        lists them in itertools.product order."""
        return [[lv.orbit[p] for p in sorted(lv.orbit)]
                for lv in self._chain() if len(lv.orbit) > 1]

    def element_tuples(self) -> list[tuple[int, ...]]:
        """All elements as raw 0-based image tuples, in stabilizer-chain order."""
        if self._elem_tuples is not None:
            return self._elem_tuples
        limit = config.ENUMERATION_BOUND
        if self.order() > limit:
            raise BoundExceeded("enumeration bound", limit, self.order())
        out = [_identity(self.degree)]
        for trans in reversed(self._transversals()):
            out = [_mul(u, g) for u in trans for g in out]
        assert len(out) == self.order()
        self._elem_tuples = out
        return out

    def _coset_powers(self, g: tuple[int, ...], m: int
                      ) -> Iterator[tuple[int, ...]]:
        """The values (g x)^m that lie in the group, x over its elements in
        element_tuples order, as raw tuples, lazily; m must be positive.

        _raw_pow powers a block of 1024 g x at once, with a product that
        composes two lists pair by pair, so at most one block of powers is
        held.  Up to degree 256 the elements are bytes image strings, listed
        from _transversals() as element_tuples lists its tuples, and a o b
        is b.translate(a + tail), with tail the identity on the byte values
        past the degree: every product and membership test runs in C, only
        the values that land become tuples, and the group's tuple list and
        set are not built.  Bytes hold no point past 255, so a larger degree
        composes element_tuples with _mul.  Either way BoundExceeded comes
        before anything is listed.
        """
        n = self.degree
        if n > 256:
            elems, members = self.element_tuples(), self.element_set()

            def mul(xs, ys):
                return list(map(_mul, xs, ys))
        else:
            limit = config.ENUMERATION_BOUND
            if self.order() > limit:
                raise BoundExceeded("enumeration bound", limit, self.order())
            tail = bytes(range(n, 256))

            def mul(xs, ys):
                return [y.translate(x + tail) for x, y in zip(xs, ys)]

            elems = [bytes(range(n))]
            for trans in reversed(self._transversals()):
                tables = [bytes(u) + tail for u in trans]
                elems = [x.translate(t) for t in tables for x in elems]
            members = frozenset(elems)
            g = bytes(g)
        blocks = (elems[i:i + 1024] for i in range(0, len(elems), 1024))
        powers = (_raw_pow(mul([g] * len(xs), xs), m, mul) for xs in blocks)
        return (tuple(y) for ys in powers for y in ys if y in members)

    def elements(self) -> list[Permutation]:
        return [Permutation._from_raw(t) for t in self.element_tuples()]

    def element_set(self) -> frozenset:
        if self._elem_set is None:
            self._elem_set = frozenset(self.element_tuples())
        return self._elem_set

    # -- cosets -------------------------------------------------------------

    def coset_min(self, y: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically least image tuple in the left coset y * self.

        Walks the chain from the top: y * u, for u in a level's transversal,
        holds at the level's base point b the value y takes at u(b), so the
        least value there comes from the orbit point where y is least.  The
        base is 0, 1, ..., so the deeper levels fix every position before b.
        """
        cur = y
        for lv in self._chain():
            if len(lv.orbit) == 1:
                continue
            best = min(lv.orbit, key=cur.__getitem__)
            if best != lv.point:
                cur = _mul(cur, lv.orbit[best])
        return cur

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# named families

def trivial(degree: int) -> PermGroup:
    return PermGroup(degree, [])


def sym(n: int) -> PermGroup:
    return sym_embed(n, n)


def alt(n: int) -> PermGroup:
    return alt_embed(n, n)


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return PermGroup(n, [Permutation.from_cycles([range(1, n + 1)], n)])


def sym_embed(l: int, n: int) -> PermGroup:
    """Permutations of {1..l} inside degree n."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if l == 1:
        return trivial(n)
    gens = [Permutation.from_cycles([(1, 2)], n)]
    if l > 2:
        gens.append(Permutation.from_cycles([range(1, l + 1)], n))
    return PermGroup(n, gens)


def alt_embed(l: int, n: int) -> PermGroup:
    """Even permutations of {1..l} inside degree n."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if l <= 2:
        return trivial(n)
    gens = [Permutation.from_cycles([(1, 2, 3)], n)]
    if l > 3:
        if l % 2:
            gens.append(Permutation.from_cycles([range(1, l + 1)], n))
        else:
            gens.append(Permutation.from_cycles([range(2, l + 1)], n))
    return PermGroup(n, gens)


def sym_prime(k: int, n: int) -> PermGroup:
    """Permutations fixing 1..k pointwise, acting on {k+1..n}."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n - k < 2:
        return trivial(n)
    gens = [Permutation.from_cycles([(k + 1, k + 2)], n)]
    if n - k > 2:
        gens.append(Permutation.from_cycles([range(k + 1, n + 1)], n))
    return PermGroup(n, gens)


def tilde_sym(n: int, degree: int | None = None) -> PermGroup:
    """The even copy of S_{n-2} inside A_n: s for even s on {3..n}, (1 2)s for odd.

    Optional degree embeds the group at a larger ambient degree.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if degree is None:
        degree = n
    if degree < n:
        raise ValueError(f"degree {degree} too small for n={n}")
    gens = [Permutation.from_cycles([(1, 2), (3, 4)], degree)]
    if n > 4:
        long = [(range(3, n + 1))]
        if (n - 2) % 2 == 0:
            gens.append(Permutation.from_cycles([(1, 2)] + long, degree))
        else:
            gens.append(Permutation.from_cycles(long, degree))
    return PermGroup(degree, gens)


def embedded(group: PermGroup, degree: int) -> PermGroup:
    """The same group acting at a larger degree, new points fixed."""
    if degree < group.degree:
        raise ValueError(f"degree {degree} smaller than current {group.degree}")
    if degree == group.degree:
        return group
    gens = [Permutation._from_raw(g._img + tuple(range(group.degree, degree)))
            for g in group.generators]
    return PermGroup(degree, gens)
