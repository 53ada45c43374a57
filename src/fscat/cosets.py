"""Cosets and double cosets of a subgroup, with exact canonical representatives.

Left cosets y*H are identified by the lexicographically least image tuple they
contain.  Double cosets H\\G/H are the orbits of H acting on those canonical
representatives by left multiplication; the stored representative is the least
element of the double coset.  double_cosets finds them by one of two routes.

Listing, when H and G both have a Young shape (the Young group of their
orbits, or the kernel of a product of orbit signs in it,
PermGroup.young_shape), as Sym{1..l} in S_n and Alt{1..l} in A_n do.  Take
as blocks H's orbits and each letter H fixes and G moves, alone: HyH and
HzH of the Young group Y of H's orbits are equal exactly when y and z send
the same number of letters of each block i into each block j (the
block-count matrix; James and Kerber, The Representation Theory of the
Symmetric Group, 1.3), and when H has index 2 in Y, each such double coset
splits into at most four of H, told apart by orbit signs.  _BlockCounts
lists the matrices of the Young group Y_G of G's orbits and reads off each
double coset's least element, its stabilizer S(rep) = H & rep*H*rep^-1 and
whether it is self-inverse, one step per double coset: no left coset is
walked or listed.  When G has index 2 in Y_G, as A_n has in S_n, G is
normal in Y_G and holds H, so each H-double coset of Y_G lies wholly inside
G or wholly outside it, and those whose rep lies in G are kept.

The orbit walk, for every other pair.  The canonical left cosets are taken
in increasing order, and each one not yet placed is the least element of
its double coset, so it is the rep.  The orbit of H on the canonical left
cosets of that double coset yields S(rep).  It has order |H| / |orbit|
(orbit-stabilizer theorem), and the Schreier generators of the walk's
closing edges generate it (Schreier's lemma; Seress, Permutation Group
Algorithms, ch. 4).  So each double coset carries generators of S(rep)
without a pass over H, and stabilizer() takes S(g) for a single coset of any
element from the same walk.  The walk decides whether a double coset is
self-inverse, that is whether rep^-1 lies in H*rep*H: exactly when the
canonical left coset of rep^-1 is in the orbit, one coset_min per double
coset.

Either way, a double coset is self-inverse exactly when some element of
rep*H squares into H.  If rep^-1 = h1*rep*h2, then (rep*h1)^2 = h2^-1*h1
lies in H; conversely, if (rep*x)^2 = h lies in H, then
rep^-1 = x*rep*(x*h^-1).  So on a double coset that is not self-inverse
every degree-2 indicator vanishes; rep*h1 is DoubleCoset.square_root.

Double cosets repeat along the letters H fixes.  Any k normalizing H maps
H*g*H to H*kgk^-1*H, and S(kgk^-1) = k*S(g)*k^-1, since
H & kgk^-1*H*kg^-1k^-1 = k*(H & gHg^-1)*k^-1.  The indicators move along:
substituting x -> k*x*k^-1 in the defining sum gives
nu_m(kgk^-1, chi) = nu_m(g, chi o (z -> k*z*k^-1)), for any k normalizing
H, in G or not.  Each k in U = Sym(Fix H) & Y_G centralizes H, and Y_G
normalizes G, so kgk^-1 stays in G; when G = A_n, U has odd elements.  The
listing records the root of each orbit under U, its least double coset,
and a k (DoubleCoset.root, DoubleCoset.conj), from which
indicators.category_scan moves the root's rows.  The walk folds nothing.

For a symmetric subgroup on an initial segment of letters, a rewriting by
transpositions brings any coset representative to a form where no cycle
holds two moved letters of the subgroup, which decides whether the double
coset supports any nonzero degree-2 indicator.  Each step splits one cycle,
and steps on different cycles commute, so the cycles can be rewritten one
by one.  The form is in fact the only element of its left coset with no two
such letters in a cycle, so it does not depend on the order of the steps;
_raw_normal_form builds it in one pass over the raw image tuple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from operator import add, le

from . import config
from .perm import (BoundExceeded, Permutation, PermGroup, _extend, _identity,
                   _inv, _mul, _parity, _sift, _trivial_chain, sym,
                   sym_embed)


def _check_inclusion(group: PermGroup, sub: PermGroup) -> None:
    if sub.degree != group.degree:
        raise ValueError("subgroup degree differs from group degree")
    if not sub.is_subgroup_of(group):
        raise ValueError("not a subgroup")


def _coset_index(group: PermGroup, sub: PermGroup) -> int:
    """[group : sub], or BoundExceeded when it passes config.INDEX_BOUND."""
    _check_inclusion(group, sub)
    index = group.order() // sub.order()
    if index > config.INDEX_BOUND:
        raise BoundExceeded("index bound", config.INDEX_BOUND, index)
    return index


def left_coset_reps(group: PermGroup, sub: PermGroup) -> list[Permutation]:
    """Canonical representatives of the left cosets of sub, sorted."""
    index = _coset_index(group, sub)
    gen_raws = [g._img for g in group.generators]
    start = sub.coset_min(Permutation.identity(group.degree)._img)
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for s in gen_raws:
            nxt = sub.coset_min(_mul(s, c))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    assert len(queue) == index
    return [Permutation._from_raw(t) for t in sorted(queue)]


@dataclass(frozen=True)
class DoubleCoset:
    """One double coset sub*rep*sub with its size data.

    stab_gens generate the stabilizer S(rep) = sub & rep*sub*rep^-1, as raw
    0-based image tuples.  A root's are read off the cells of its
    block-count matrix when the double coset was listed
    (_BlockCounts.stab_gens), else they are the Schreier generators of the
    orbit walk from rep; every other double coset has the conjugates of its
    root's.
    square_root is a raw w in rep*sub with w^2 in sub, None exactly when
    rep^-1 is not in sub*rep*sub (self_inverse, read off it).
    root is the position, in the sorted list of double cosets, of the root
    of this coset's orbit under U, and conj is a raw k normalizing sub, in
    Y_G but not always in group, with rep*sub = k*root*k^-1*sub.  Then
    S(rep) = k*S(root)*k^-1, and every indicator of rep is an indicator of
    the root, moved along conjugation by k.  A root, and so every walked
    double coset, has root equal to its own position and conj the identity.
    """

    rep: Permutation
    n_left: int
    size: int
    stab_gens: tuple[tuple[int, ...], ...]
    square_root: tuple[int, ...] | None
    root: int
    conj: tuple[int, ...]
    self_inverse = property(lambda self: self.square_root is not None)


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    group: PermGroup
    sub: PermGroup
    cosets: tuple[DoubleCoset, ...]

    def __len__(self) -> int:
        return len(self.cosets)

    def __iter__(self):
        return iter(self.cosets)


def _coset_orbit(start: tuple[int, ...], sub: PermGroup, gens
                 ) -> tuple[list[tuple[int, ...]],
                            tuple[tuple[int, ...], ...],
                            tuple[int, ...] | None]:
    """The canonical left cosets in the sub-orbit of start*sub, raw
    generators of the stabilizer S(start), and start*a with a*start*sub =
    start^-1*sub, or None off the orbit (DoubleCoset.square_root).

    The walk keeps a Schreier transversal: trans[c] in sub carries start*sub
    to c*sub.  An edge c -> s*c of the walk that reaches a coset already
    seen gives the Schreier generator trans[s*c]^-1 * s * trans[c], which
    fixes start*sub; together these generate S(start).  Once the orbit is closed,
    |S(start)| = |sub| / |orbit|, so they are sifted into a growing group
    only until it reaches that order.  The group is one stabilizer chain,
    which perm._extend grows in place by each generator that does not sift.
    """
    idt = _identity(len(start))
    trans = {start: idt}
    orbit = [start]
    closing = []
    for c in orbit:
        t_c = trans[c]
        for s in gens:
            nxt = sub.coset_min(_mul(s, c))
            if nxt not in trans:
                trans[nxt] = _mul(s, t_c)
                orbit.append(nxt)
            else:
                closing.append((s, t_c, nxt))
    target = sub.order() // len(orbit)
    found: list[tuple[int, ...]] = []
    levels = _trivial_chain(len(start))
    order = 1
    for s, t_c, nxt in closing:
        if order == target:
            break
        x = _mul(_inv(trans[nxt]), _mul(s, t_c))
        if _sift(levels, x) != idt:
            found.append(x)
            _extend(levels, x)
            order = math.prod(len(lv.orbit) for lv in levels)
    assert order == target
    a = trans.get(sub.coset_min(_inv(start)))
    return orbit, tuple(found), None if a is None else _mul(start, a)


class _BlockCounts:
    """The double cosets of sub, a Young or signed-Young group, in the
    Young group Y_G of group's orbits, read off block-count matrices; group
    is Y_G, as S_n is, or has index 2 in it, as A_n has.

    Matrices.  Let Y = prod Sym(O_j) be the Young group of sub's orbits, so
    sub = Y or sub = ker eps in Y, eps(y) the product of y's signs on the
    signed orbits (PermGroup.young_shape).  The blocks are sub's orbits,
    then each letter that sub fixes and group moves, alone; a letter group
    fixes is fixed throughout and left out.  M(y)[i][j] counts
    the letters p of block i with y(p) in block j.  Y maps each block onto
    itself, so M(h1*y*h2) = M(y) for h1, h2 in Y.  Conversely, let M(z) =
    M(y).  In each block i the letters that y sends into block j and those
    that z sends there are equally many, for every j, so some h2 in Y maps
    the second set onto the first, for all i and j at once.  Then y*h2 and z
    send each letter into the same block, and in each block j the letters
    y*h2 reaches are those z reaches, all of j; the map y*h2(p) -> z(p) is a
    permutation of every block, some h1 in Y, and h1*y*h2 = z.  So YyY = YzY
    exactly when M(y) = M(z) (James and Kerber, The Representation Theory of
    the Symmetric Group, 1.3).  Y_G holds every permutation of each orbit of
    group, so its Y-double cosets are named by the matrices with the block
    sizes as row and column sums whose nonzero cells join two blocks of one
    orbit of group.

    Signs.  When sub = Y each matrix names one double coset of sub.
    Otherwise let sigma_i be 1 when block i is a signed orbit and 0 if not,
    and give y = a*z*b (a, b in Y, z in YyY fixed) the class
    (eps(a), eps(b)) in F_2^2, eps(a) as bit 0 and eps(b) as bit 1.
    sub x sub is normal in Y x Y with quotient F_2^2, so the double cosets
    of sub in YzY are the classes modulo the image I of the pairs
    (s, z^-1*s*z) with s in Y & zYz^-1: two decompositions of one y differ
    by such a pair, and if y = a*z*b and y' = a'*z*b' have classes that
    differ by that of (s, z^-1*s*z), then
    y' = (a'*s*a^-1) * y * (b^-1*z^-1*s^-1*z*b'), both factors in sub.
    Y & zYz^-1 is the Young group of z's cells {q in block k : z^-1(q) in
    block l}, of M[l][k] letters each, and a transposition in one has the
    class (sigma_k, sigma_l).  So the matrix splits into 4/|I| double
    cosets of sub, I spanned by (sigma_j, sigma_i) over the cells (i, j)
    with M[i][j] >= 2, told apart by the class modulo I.
    """

    def __init__(self, group: PermGroup, sub: PermGroup):
        n = group.degree
        orbits, signed = sub.young_shape()
        g_orbit = [-1] * n
        for k, o in enumerate(group.young_shape()[0]):
            for p in o:
                g_orbit[p] = k
        placed = {p for o in orbits for p in o}
        fixed = [p for p in range(n) if p not in placed and g_orbit[p] >= 0]
        blocks = [*orbits, *((p,) for p in fixed)]
        a = len(blocks)
        self.n, self.blocks, self.signed = n, blocks, bool(signed)
        self.block = [-1] * n
        for i, b in enumerate(blocks):
            for p in b:
                self.block[p] = i
        self.letters = sorted(placed.union(fixed))
        self.sign = [int(i in signed) for i in range(a)]
        self.cols = [[j for j, c in enumerate(blocks)
                      if g_orbit[c[0]] == g_orbit[b[0]]] for b in blocks]
        # a matrix is one flat row-major list; its transpose is read off it
        # at these positions
        self.transpose = [j * a + i for i in range(a) for j in range(a)]
        # a cell {q in block k : w^-1(q) in block l} is numbered k*a + l
        self.base = [self.block[q] * a for q in range(n)]
        # the least letter of each block, and after each letter the next
        # letter of its block (n after the last)
        self.first = [b[0] for b in blocks]
        self.succ = [n] * n
        for b in blocks:
            for p, q in zip(b, b[1:]):
                self.succ[p] = q
        # eps reads the parity on the letters of the signed orbits
        self.odd = [p for j in signed for p in orbits[j]]
        self.rank = {p: r for r, p in enumerate(self.odd)}
        # U = Sym(Fix sub) & Y_G, the symmetric group on the letters sub
        # fixes in each orbit of group, by a transposition and a cycle per
        # orbit.  u maps block i onto a block pi(i), an orbit onto itself,
        # so M(u*y*u^-1)[pi(i)][pi(j)] = M(y)[i][j]: each u comes with the
        # positions of a key, a flat matrix and a class, that the moved key
        # reads
        self.free = []
        for k in sorted({g_orbit[p] for p in fixed}):
            here = [p for p in fixed if g_orbit[p] == k]
            for c in ([here[:2], here] if len(here) > 2 else [here]):
                if len(c) > 1:
                    u = _cycle(c, n)
                    pi = [self.block[u[b[0]]] for b in blocks]
                    src = [a * a] * (a * a + 1)
                    for i in range(a):
                        for j in range(a):
                            src[pi[i] * a + pi[j]] = i * a + j
                    self.free.append((u, src))

    def matrices(self):
        """Every matrix, lazily, as one flat list with its rows as dicts
        {j: M[i][j]} of the counts that are not 0 (the same lists each
        time, refilled).

        Row by row, each way to share the row's letters among its columns
        that leaves every column room for its count is taken.  The rows
        left can always be filled: in each orbit of group their letters and
        the columns' room are equally many, and every cell inside the orbit
        is allowed."""
        a = len(self.blocks)
        sizes = [len(b) for b in self.blocks]
        ways = []
        for i in range(a):
            ways.append([])
            for way in _shares(sizes[i], [sizes[j] for j in self.cols[i]]):
                row = {j: m for j, m in zip(self.cols[i], way) if m}
                ways[i].append((row, tuple(row), tuple(row.values())))
        flat = [0] * (a * a)
        room = sizes.copy()
        if not a:
            yield flat, []
            return
        # one iterator over the ways of each row filled so far, and the way
        # each has taken
        owed = [{}] * a
        rows = [iter(ways[0])]
        while rows:
            i = len(rows) - 1
            for j, m in owed[i].items():
                flat[i * a + j] = 0
                room[j] += m
            owed[i] = {}
            for row, js, ms in rows[i]:
                if all(map(le, ms, map(room.__getitem__, js))):
                    break
            else:
                rows.pop()
                continue
            owed[i] = row
            for j, m in row.items():
                flat[i * a + j] = m
                room[j] -= m
            if i + 1 < a:
                rows.append(iter(ways[i + 1]))
            else:
                yield flat, owed

    def least(self, owed: list[dict[int, int]]) -> tuple[int, ...]:
        """The least element z of the Y-double coset of the matrix with
        the rows owed.

        Each letter p in turn, in block i, takes the least value not yet
        taken from any block j it still owes a count to (M[i][j] less the
        letters of block i already sent into block j).  The owed counts stay
        realizable: row i's sum is the letters of block i still to fill,
        column j's the values of block j not yet taken, so any owed j can
        still be chosen, every such choice extends to an element of YzY,
        and the greedy value at each letter is the least any of them has
        there.
        """
        block, succ = self.block, self.succ
        owed = [row.copy() for row in owed]
        # the least value of each block not yet taken
        least = self.first.copy()
        out = list(range(self.n))
        for p in self.letters:
            row = owed[block[p]]
            j = min(row, key=least.__getitem__)
            v = least[j]
            out[p] = v
            least[j] = succ[v]
            if row[j] == 1:
                del row[j]
            else:
                row[j] -= 1
        return tuple(out)

    def least_in(self, owed: list[dict[int, int]], z: tuple[int, ...],
                 target: int, span: set[int]) -> tuple[int, ...]:
        """The least element of the double coset of sub with class target
        in the Y-double coset of the matrix with the rows owed, whose least
        element is z and whose I is span.

        Each letter p in turn takes the least value from which an element of
        the double coset can still be completed.  Those values are the least
        element's: by induction the values before p are, the least element's
        own value at p can be completed, and a smaller one that could would
        give a smaller element.  The completions of a prefix are A*w0*B,
        with w0 any one of them, A the Young group of the blocks' values not
        yet taken and B that of their letters not yet placed: given another,
        w, some b in B gives w0*b the block of w at every letter, and
        w*(w0*b)^-1 fixes the values taken and maps each block onto itself.
        So the completions reach exactly the classes of w0 plus
        eps(A) x eps(B) plus I, where eps(A) takes both values when a
        signed orbit still has two values free, and eps(B) when one still
        has two letters to place.  For w0 take the greedy completion w, which least shows
        to be the least completion: it starts as z, stays while p takes its
        value w(p), the least p can take, and once its class is the target
        it is the element sought.
        """
        a, block, sign, letters = (len(self.blocks), self.block, self.sign,
                                   self.letters)
        owed = [row.copy() for row in owed]
        taken = [False] * self.n
        free = [len(b) for b in self.blocks]
        todo = free.copy()
        out = list(range(self.n))
        w, cw = z, 0
        for at, p in enumerate(letters):
            row = owed[block[p]]
            todo[block[p]] -= 1
            for v in letters:
                j = block[v]
                if taken[v] or not row.get(j):
                    continue
                out[p] = v
                taken[v] = True
                free[j] -= 1
                row[j] -= 1
                # the classes eps(A) and eps(B) hold besides 0
                left = any(sign[k] and free[k] > 1 for k in range(a))
                right = any(sign[k] and todo[k] > 1 for k in range(a))
                if v == w[p]:
                    u, c = w, cw
                else:
                    u = self._complete(out, letters[at + 1:], owed, taken)
                    c = self.cls(u, z)
                if left and right or target in {
                        min(c ^ x ^ y ^ s for s in span)
                        for x in {0, left} for y in {0, 2 * right}}:
                    w, cw = u, c
                    break
                taken[v] = False
                free[j] += 1
                row[j] += 1
            if min(cw ^ s for s in span) == target:
                return w

    def _complete(self, out, rest, owed, taken) -> tuple[int, ...]:
        """out with the letters rest filled greedily from the values not
        taken, as owed."""
        block, letters = self.block, self.letters
        w, taken, owed = out.copy(), taken.copy(), [r.copy() for r in owed]
        for p in rest:
            row = owed[block[p]]
            v = next(v for v in letters if not taken[v] and row.get(block[v]))
            w[p] = v
            taken[v] = True
            row[block[v]] -= 1
        return tuple(w)

    def split(self, w: tuple[int, ...], ref: tuple[int, ...]
              ) -> tuple[int, ...]:
        """Some h in Y with h*w in ref*Y, for w and ref of one matrix.

        h maps the values that w takes in block k from letters of block l
        onto those that ref takes there, in increasing order; then
        ref^-1*h*w maps each block onto itself."""
        base, block, letters = self.base, self.block, self.letters
        out = list(range(self.n))
        for x, y in zip(
                sorted(letters, key=list(map(
                    add, base, map(block.__getitem__, _inv(w)))).__getitem__),
                sorted(letters, key=list(map(
                    add, base, map(block.__getitem__, _inv(ref)))).__getitem__)):
            out[x] = y
        return tuple(out)

    def eps(self, x: tuple[int, ...]) -> int:
        """eps(x) of an x in Y, as a bit."""
        rank = self.rank
        return _parity([rank[x[p]] for p in self.odd])

    def cls(self, w: tuple[int, ...], ref: tuple[int, ...]) -> int:
        """The class of w with ref for z, both of one matrix: w = a*ref*b
        with a = h^-1 and b = ref^-1*h*w, h from split."""
        h = self.split(w, ref)
        return self.eps(h) | self.eps(_mul(_inv(ref), _mul(h, w))) << 1

    def cells(self, rep: tuple[int, ...]):
        """The cells {q in block k : rep^-1(q) in block l} of rep that are
        not empty, each as the class (sigma_k, sigma_l) of a transposition
        in it and its sorted letters."""
        a, block = len(self.blocks), self.block
        cells: dict[int, list[int]] = {}
        for q, p in enumerate(_inv(rep)):
            if block[q] >= 0:
                cells.setdefault(block[q] * a + block[p], []).append(q)
        return [(self.sign[c // a] | self.sign[c % a] << 1, qs)
                for c, qs in cells.items()]

    def parities(self, rep: tuple[int, ...]):
        """(span, even).  span maps each class of I to pairs of letters, one
        transposition s_c in each of some cells c of rep, whose product s
        has (eps(s), eps(rep^-1*s*rep)) that class; even holds one such
        list per vector of the kernel of the map from the parities on the
        cells to F_2^2, a basis of it."""
        span: dict[int, list[tuple[int, int]]] = {0: []}
        even = []
        for v, qs in self.cells(rep):
            if len(qs) > 1:
                t = (qs[0], qs[1])
                if v in span:
                    even.append([t, *span[v]])
                else:
                    span.update({x ^ v: [*ts, t] for x, ts in list(span.items())})
        return span, even

    def stab_gens(self, rep: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Generators of S(rep) = sub & rep*sub*rep^-1.

        S(rep) lies in Y & rep*Y*rep^-1, the Young group of rep's cells.
        An x there has class (eps(x), eps(rep^-1*x*rep)) = the sum over the
        cells of x's parity on the cell times the cell's class, and lies in
        S(rep) exactly when that is 0.  So S(rep) holds the alternating group
        of every cell, and modulo their product it is the kernel of the
        parities: it is generated by the alternating groups' generators (a
        3-cycle and an odd-length cycle) and one product of transpositions
        per vector of a basis of the kernel.  A cell of class 0 gives its
        whole symmetric group, by a transposition and a cycle.
        """
        n = self.n
        gens = []
        for v, qs in self.cells(rep):
            if v == 0 and len(qs) > 2:
                gens.append(_cycle(qs, n))
            elif v and len(qs) > 2:
                gens.append(_cycle(qs[:3], n))
                if len(qs) > 3:
                    gens.append(_cycle(qs if len(qs) % 2 else qs[1:], n))
        gens += [_swaps(ts, n) for ts in self.parities(rep)[1]]
        return tuple(gens)

    def conjugator(self, y: tuple[int, ...], rep: tuple[int, ...]
                   ) -> tuple[int, ...]:
        """An h in sub with h*y*sub = rep*sub, for y in sub*rep*sub.

        split gives h in Y with y = h^-1*rep*b, b in Y.  When sub is signed,
        the class v of y lies in I, and the product s of
        parities(rep)[0][v] gives y = (h^-1*s)*rep*(rep^-1*s*rep*b), both
        factors in sub; s*h is the h sought.
        """
        h = self.split(y, rep)
        if self.signed:
            v = self.eps(h) | self.eps(_mul(_inv(rep), _mul(h, y))) << 1
            if v:
                h = _mul(_swaps(self.parities(rep)[0][v], self.n), h)
        return h


def _shares(total: int, caps: list[int]):
    """The tuples of counts, each at most its cap, that sum to total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for m in range(min(total, caps[0]) + 1):
        for rest in _shares(total - m, caps[1:]):
            yield (m, *rest)


def _cycle(letters, n: int) -> tuple[int, ...]:
    img = list(range(n))
    for p, q in zip(letters, [*letters[1:], letters[0]]):
        img[p] = q
    return tuple(img)


def _swaps(pairs, n: int) -> tuple[int, ...]:
    img = list(range(n))
    for p, q in pairs:
        img[p], img[q] = q, p
    return tuple(img)


# I when sub is a Young group
_NO_SIGNS = frozenset({0})


def _listed(group: PermGroup, sub: PermGroup) -> dict:
    """The double cosets of a Young or signed-Young sub in a Young or
    signed-Young group, by _BlockCounts: rep -> (n_left, stab_gens,
    square_root, root's rep, conj).

    Each matrix M, as it is listed, gives one double coset per class
    modulo I.  rep is its least element (least for the class 0 of z,
    least_in for the others), n_left = |sub| / |S(rep)| with
    |S(rep)| = prod M[i][j]! / |I| (see stab_gens), and self_inverse holds
    when M(rep^-1) = M^T equals M and rep^-1 has rep's class.  A double
    coset is keyed by M and its class.  u in U maps the double coset of y
    to that of u*y*u^-1, whose matrix is M with the rows and columns of the
    fixed letters permuted by u.  The root of each orbit of U is its least
    double coset, its stab_gens are read off its cells, and a self-inverse
    one's square root is rep*h^-1, h*rep^-1*sub = rep*sub by conjugator.
    Every other double coset of the orbit has conj = h*u, u*root*u^-1 in
    it and h from conjugator, and the root's data moved by conj; one sift
    per such double coset checks rep*sub = conj*root*conj^-1*sub.
    When group is signed, the double cosets of the Young group of its
    orbits that lie outside it are dropped before the roots are sought.
    """
    bc = _BlockCounts(group, sub)
    h_order = sub.order()
    fact = [math.factorial(m) for m in range(group.degree + 1)]
    pack = _pack(group.degree)
    # per double coset (rep, n_left, self_inverse, key, I), the key being
    # its flat matrix and then its class, and the position of each key
    pieces = []
    where = {}
    for flat, owed in bc.matrices():
        z = bc.least(owed)
        # I, whose classes the cells of z have
        span = set(bc.parities(z)[0]) if bc.signed else _NO_SIGNS
        n_left = h_order * len(span) // math.prod(map(fact.__getitem__, flat))
        symmetric = flat == list(map(flat.__getitem__, bc.transpose))
        classes = {min(c ^ x for x in span)
                   for c in (range(4) if bc.signed else (0,))}
        for c in sorted(classes):
            rep = z if c == 0 else bc.least_in(owed, z, c, span)
            inverse = symmetric and (not bc.signed or min(
                bc.cls(_inv(rep), z) ^ x for x in span) == c)
            key = pack(flat + [c])
            where[key] = len(pieces)
            pieces.append((rep, n_left, inverse, key, span))
    idt = _identity(group.degree)
    # group is normal in the Young group of its orbits and holds sub, so
    # each double coset listed lies in group or outside it, and so does its
    # orbit under U; only those inside are kept
    signed = bool(group.young_shape()[1])
    order = sorted((i for i, piece in enumerate(pieces) if not signed
                    or group.member(Permutation._from_raw(piece[0]))),
                   key=pieces.__getitem__)
    found = {}
    for r in order:
        rep_r, n_left, inverse, _, _ = pieces[r]
        if rep_r in found:
            continue
        root_gens = bc.stab_gens(rep_r)
        w_r = (_mul(rep_r, _inv(bc.conjugator(_inv(rep_r), rep_r)))
               if inverse else None)
        found[rep_r] = (n_left, root_gens, w_r, rep_r, idt)
        # (position, u) with u*root*u^-1 in the double coset there
        queue = [(r, idt)]
        for q, u_src in queue:
            for g, src in bc.free:
                # the matrix of g*y*g^-1 for y in this double coset, and
                # its class, which only a signed sub must compute anew,
                # with z the rep of the class 0 of that matrix
                key = list(map(pieces[q][3].__getitem__, src))
                if bc.signed:
                    key[-1] = 0
                    z, _, _, _, span = pieces[where[pack(key)]]
                    y = _mul(_mul(g, pieces[q][0]), _inv(g))
                    key[-1] = min(bc.cls(y, z) ^ x for x in span)
                t = where[pack(key)]
                rep, n_left, _, _, _ = pieces[t]
                if rep not in found:
                    u = _mul(g, u_src)
                    moved = _mul(_mul(u, rep_r), _inv(u))
                    k = _mul(bc.conjugator(moved, rep), u)
                    k_inv = _inv(k)
                    # rep*sub = k*root*k^-1*sub, so S(rep) = k*S(root)*k^-1
                    assert sub.member(Permutation._from_raw(
                        _mul(_inv(rep), _mul(_mul(k, rep_r), k_inv))))
                    gens = tuple(_mul(_mul(k, x), k_inv) for x in root_gens)
                    w = None if w_r is None else _mul(_mul(k, w_r), k_inv)
                    found[rep] = (n_left, gens, w, rep_r, k)
                    queue.append((t, u))
    return found


def _pack(degree: int):
    """The key type for a list of letters or counts of this degree: bytes
    hold values below 256 only, and past that the tuple itself is kept.
    A bytes key takes a third of a tuple's memory at degree 10.  The walk
    keeps one key per left coset it places: with tuple keys the scan of
    C(S9, C9) peaked at 32.8 MiB instead of 30.9; the listing's keys, one
    per double coset, left C(S10, Sym{1..5})'s peak where it was."""
    return bytes if degree < 256 else tuple


def _walked(group: PermGroup, sub: PermGroup) -> dict:
    """The double cosets of any sub by orbit walks of its left cosets:
    rep -> (n_left, stab_gens, square_root, rep, identity).

    The canonical left cosets are taken in increasing order, and each one
    not yet placed starts a walk that places its double coset.  The least
    element of a double coset is the least canonical left coset in it, so
    the coset that starts the walk is the rep, the walk gives S(rep) itself,
    and every walked double coset is its own root.
    """
    gens = [g._img for g in sub.generators]
    idt = _identity(group.degree)
    key = _pack(group.degree)
    placed: set = set()
    found: dict[tuple[int, ...], tuple] = {}
    for p in left_coset_reps(group, sub):
        rep = p._img
        if key(rep) in placed:
            continue
        orbit, stab_gens, w = _coset_orbit(rep, sub, gens)
        placed.update(map(key, orbit))
        found[rep] = (len(orbit), stab_gens, w, rep, idt)
    return found


def double_cosets(group: PermGroup, sub: PermGroup) -> DoubleCosetDecomposition:
    """Double cosets of sub in group, sorted by canonical representative.

    The index [group : sub] is checked first, so a skip names that bound.
    When sub and group both have a Young shape, signed orbits included (as
    Sym{1..l} in S_n and Alt{1..l} in A_n have), the double cosets are
    listed from block-count matrices (_BlockCounts, _listed), one step per
    double coset and none per left coset, and only there are they folded
    along U.  Every other pair is walked (_walked), one walk per double
    coset, each its own root.
    """
    _coset_index(group, sub)
    h_order = sub.order()
    if sub.young_shape() is not None and group.young_shape() is not None:
        found = _listed(group, sub)
    else:
        found = _walked(group, sub)
    where = {p: j for j, p in enumerate(sorted(found))}
    out = tuple(DoubleCoset(rep=Permutation._from_raw(p), n_left=n_left,
                            size=n_left * h_order, stab_gens=stab_gens,
                            square_root=w, root=where[root], conj=k)
                for p, (n_left, stab_gens, w, root, k)
                in sorted(found.items()))
    assert sum(dc.size for dc in out) == group.order()
    return DoubleCosetDecomposition(group=group, sub=sub, cosets=out)


def stabilizer(g: Permutation, sub: PermGroup) -> PermGroup:
    """S(g) = sub & g*sub*g^-1: the elements x of sub with g^-1 x g again in
    sub, that is the elements of sub fixing the left coset g*sub.

    Its generators are the Schreier generators of the orbit walk from g*sub,
    as in double_cosets; sub is not enumerated.  The walk visits at most |sub|
    cosets, so sub is held to the enumeration bound all the same.
    """
    if g.degree != sub.degree:
        raise ValueError("degree mismatch")
    if sub.order() > config.ENUMERATION_BOUND:
        raise BoundExceeded("enumeration bound", config.ENUMERATION_BOUND,
                            sub.order())
    gens = [x._img for x in sub.generators]
    stab_gens = _coset_orbit(sub.coset_min(g._img), sub, gens)[1]
    return PermGroup(sub.degree, [Permutation._from_raw(x) for x in stab_gens])


# -- rewriting for a symmetric subgroup on the letters 1..l -----------------


def _raw_normal_form(img: tuple[int, ...], l: int) -> tuple[int, ...]:
    """The normal form of a raw permutation g under Sym{1..l}: the one
    element g*h, h in Sym{1..l}, none of whose cycles holds two letters
    below l (0-based, the small letters).

    h fixes the other letters, so a small letter s is followed in g*h by the
    run g(t), g^2(t), ... from t = h(s) up to the first small letter in it,
    head(t).  The cycle of s holds no other small letter exactly when
    head(h(s)) = s.  So h is the inverse of head, the first-return map of g
    to the small letters, and the form sends head(t) to g(t).
    """
    form = list(img)
    for t in range(l):
        j = img[t]
        while j >= l:
            j = img[j]
        form[j] = img[t]
    return tuple(form)


def is_null_coset(sigma: Permutation, l: int) -> bool:
    """Whether the double coset of sigma under Sym{1..l} is a null coset.

    A double coset is null when its normal form is not an involution; on such
    cosets every degree-2 indicator vanishes.
    """
    if not 1 <= l <= sigma.degree:
        raise ValueError("l out of range")
    f = _raw_normal_form(sigma._img, l)
    return any(f[f[i]] != i for i in range(len(f)))


def sym_census(l: int, n: int) -> tuple[int, int]:
    """(double coset count, null coset count) for Sym{1..l} inside Sym{1..n}."""
    dcs = double_cosets(sym(n), sym_embed(l, n))
    null = sum(1 for dc in dcs if is_null_coset(dc.rep, l))
    return len(dcs), null


def _canonical_form(img: tuple[int, ...], l: int) -> tuple[int, ...]:
    """The normal form of a raw permutation g under Sym{1..l}, with the
    letters 1..l renamed by first appearance.

    Cycles of the normal form are rotated to start at their least letter
    above l and sorted by that letter; the small letters are then renamed
    1, 2, ... in reading order, unused ones filling the remaining slots in
    increasing order.  The renaming acts by conjugation, so the result stays
    inside the double coset of g.

    Each nontrivial cycle of the normal form holds at most one small letter
    and some letter above l.  Walking the cycles from the letters above l in
    increasing order meets each cycle first at the letter it is rotated to
    start at, so the small letters come up in reading order; the ones never
    met are fixed.
    """
    f = _raw_normal_form(img, l)
    n = len(f)
    seen = [False] * n
    order = []
    for q in range(l, n):
        j = q
        while not seen[j]:
            seen[j] = True
            if j < l:
                order.append(j)
            j = f[j]
    order += [p for p in range(l) if not seen[p]]
    rename = list(range(n))
    for new, p in enumerate(order):
        rename[p] = new
    out = [0] * n
    for p in range(n):
        out[rename[p]] = rename[f[p]]
    return tuple(out)


def normal_form_census(l: int, n: int) -> tuple[int, int]:
    """Census of Sym{1..l} double cosets in Sym{1..n} by distinct canonical
    normal forms over the left cosets; an independent route to sym_census.

    The normal form of g is the one element of g*Sym{1..l} with no two small
    letters in a cycle, so it depends only on the left coset.  A left coset
    is fixed by the images of the letters above l, and its member listed
    here sends the small letters to the values left over, in increasing
    order.  So the n!/l! cosets are listed as the arrangements of n - l of
    the n values, with no group element listed and no double coset; the
    index bound is checked first, as sym_census checks it.
    """
    if not 1 <= l <= n:
        raise ValueError("l out of range")
    _coset_index(sym(n), sym_embed(l, n))
    forms = set()
    for big in permutations(range(n), n - l):
        used = set(big)
        small = tuple(v for v in range(n) if v not in used)
        forms.add(_canonical_form(small + big, l))
    null = sum(1 for f in forms if any(f[f[i]] != i for i in range(n)))
    return len(forms), null
