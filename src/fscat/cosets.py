"""Cosets and double cosets of a subgroup, with exact canonical representatives.

Left cosets y*H are identified by the lexicographically least image tuple they
contain.  Double cosets H\\G/H are the orbits of H acting on those canonical
representatives by left multiplication; the stored representative is the least
one in the orbit.

The orbit walk also yields the stabilizer S(rep) = H & rep*H*rep^-1.  It has
order |H| / |orbit| (orbit-stabilizer theorem), and the Schreier generators
of the walk's closing edges generate it (Schreier's lemma; Seress,
Permutation Group Algorithms, ch. 4).  So each double coset carries
generators of S(rep) without a pass over H, and stabilizer() takes S(g) for
a single coset of any element from the same walk.

The same walk decides whether a double coset is self-inverse, that is whether
rep^-1 lies in H*rep*H: exactly when the canonical left coset of rep^-1 is in
the orbit, one coset_min per double coset.  This is the case exactly when
some element of rep*H squares into H.  If rep^-1 = h1*rep*h2, then
(rep*h1)^2 = h2^-1*h1 lies in H; conversely, if (rep*x)^2 = h lies in H, then
rep^-1 = x*rep*(x*h^-1).  So on a double coset that is not self-inverse every
degree-2 indicator vanishes.

Double cosets repeat along the letters sub fixes.  Any k normalizing sub
maps H*g*H to H*kgk^-1*H, and S(kgk^-1) = k*S(g)*k^-1, since
H & kgk^-1*H*kg^-1k^-1 = k*(H & gHg^-1)*k^-1.  The indicators move along:
substituting x -> k*x*k^-1 in the defining sum gives
nu_m(kgk^-1, chi) = nu_m(g, chi o (z -> k*z*k^-1)).  Every permutation of
the letters sub fixes centralizes sub, so U = Sym(Fix sub) & group supplies
such k for free.  double_cosets walks and sifts only one root per orbit of U
on the double cosets.  Each other double coset of the orbit is not walked:
its left cosets are the root's mapped through c -> k*c*k^-1, since
k*h*c*H*k^-1 = (k*h*k^-1)*(k*c*k^-1)*H.  It records its k
(DoubleCoset.root, DoubleCoset.conj), from which indicators.category_scan
moves the root's rows.

When H is a Young group, the full symmetric group on each of its orbits,
a double coset is named without its left cosets.  Take as blocks H's orbits
and each letter H fixes alone; HyH = HzH exactly when y and z send the same
number of letters of each block i into each block j (the block-count
matrix; James and Kerber, The Representation Theory of the Symmetric
Group, 1.3).  So a fold maps no left coset: it keys k*root*k^-1 by its
matrix, and when that double coset is new, reads its least element off the
matrix and its k from one coset_min.  Every other subgroup, a signed-Young
one included, keeps the map through the root's left cosets.

U also tells where the roots are.  It centralizes H and meets it trivially,
so K = H*U is a group, the direct product H x U.  A double coset K*g*K is
the union of the H-double cosets a*(HgH)*b = a*(HgH*ba)*a^-1 over a, b in U:
the U-conjugates of the right translates HgH*u = H*gu*H.  So the walk needs
one seed per double coset of K, not a list of the [G:H] left cosets of H:
the representative double_cosets gives for K, the least left coset of K in
each orbit of K on its [G:K] left cosets.  That coset is canonical for H
too, since its least element is least in its own left coset of H.  U moves
every letter H fixes, so K fixes none, and the call on K takes every left
coset of K as a seed, with nothing to fold.  From a seed, the folds close
the H-double cosets found under conjugation by U, and right moves rep*u by
U's generators close them under right translation, so together they reach
every H-double coset in K*g*K.  On C(S10, Sym{1..5}) the call on K walks
the 252 left cosets of K, not the 30,240 of H, and gives 6 seeds.  When U
is trivial, K is H and every left coset of H is a seed.

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

from . import config
from .perm import (BoundExceeded, Permutation, PermGroup, _extend, _identity,
                   _inv, _mul, _sift, _trivial_chain, sym, sym_embed)


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
    0-based image tuples; they are Schreier generators recorded by the orbit
    walk that found the double coset, moved to rep, or conjugates of a
    root's.
    self_inverse tells whether rep^-1 lies in sub*rep*sub, that is whether
    the left coset rep^-1*sub was reached by the same walk.  It holds exactly
    when some element of rep*sub squares into sub: if rep^-1 = h1*rep*h2
    then (rep*h1)^2 = h2^-1*h1, and if (rep*x)^2 = h then
    rep^-1 = x*rep*(x*h^-1).
    root is the position, in the sorted list of double cosets, of the root
    of this coset's orbit under the free letters, and conj is a raw k
    normalizing sub with rep*sub = k*root*k^-1*sub.  Then
    S(rep) = k*S(root)*k^-1, and every indicator of rep is an indicator of
    the root, moved along conjugation by k.  A root has root equal to its own
    position and conj the identity.
    """

    rep: Permutation
    n_left: int
    size: int
    stab_gens: tuple[tuple[int, ...], ...]
    self_inverse: bool
    root: int
    conj: tuple[int, ...]


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
                 ) -> tuple[list[tuple[int, ...]], dict,
                            tuple[tuple[int, ...], ...], bool]:
    """The canonical left cosets in the sub-orbit of start*sub, a Schreier
    transversal (trans[c] in sub carries start*sub to c*sub), raw generators
    of the stabilizer S(start), and whether start^-1*sub lies in that orbit
    (DoubleCoset.self_inverse).

    An edge c -> s*c of the walk that reaches a coset already seen gives the
    Schreier generator trans[s*c]^-1 * s * trans[c], which fixes start*sub;
    together these generate S(start).  Once the orbit is closed,
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
    return orbit, trans, tuple(found), sub.coset_min(_inv(start)) in trans


def _free_letter_gens(group: PermGroup, sub: PermGroup
                      ) -> list[tuple[int, ...]]:
    """Raw generators of U = Sym(Fix sub) & group, where Fix sub is the set
    of letters sub fixes: those of Sym(Fix sub) when all lie in group, else
    the 3-cycles of Alt(Fix sub) when those do, else none (U is taken to be
    trivial).  Every element of U centralizes sub.
    """
    n = sub.degree
    fixed = [p + 1 for p in range(n)
             if all(g._img[p] == p for g in sub.generators)]
    if len(fixed) < 2:
        return []
    sym_gens = [Permutation.from_cycles([fixed[:2]], n)]
    if len(fixed) > 2:
        sym_gens.append(Permutation.from_cycles([fixed], n))
    alt_gens = [Permutation.from_cycles([fixed[:2] + [p]], n)
                for p in fixed[2:]]
    for gens in (sym_gens, alt_gens):
        if gens and all(group.member(u) for u in gens):
            return [u._img for u in gens]
    return []


class _BlockCounts:
    """The double cosets of a Young group Y = prod Sym(O_j), named by their
    block-count matrices.

    The blocks are Y's orbits, then each letter Y fixes as a block of its
    own, and M(y)[i][j] counts the letters p of block i with y(p) in block
    j.  Y maps each block onto itself, so M(h1*y*h2) = M(y) for h1, h2 in Y.
    Conversely, let M(z) = M(y).  In each block i the letters that y sends
    into block j and those that z sends there are equally many, for every
    j, so some h2 in Y maps the second set onto the first, for all i and j
    at once.  Then y*h2 and z send each letter into the same block, and in
    each block j the letters y*h2 reaches are those z reaches, all of j; the
    map y*h2(p) -> z(p) is a permutation of every block, some h1 in Y, and
    h1*y*h2 = z.  So HyH = HzH exactly when M(y) = M(z).
    """

    def __init__(self, orbits: tuple[tuple[int, ...], ...], degree: int):
        block = [-1] * degree
        for j, o in enumerate(orbits):
            for p in o:
                block[p] = j
        count = len(orbits)
        for p in range(degree):
            if block[p] < 0:
                block[p] = count
                count += 1
        self.orbits = orbits
        self.block = block
        # the least letter of each block, and after each letter the next
        # letter of its block (degree after the last)
        self.first = [-1] * count
        self.succ = [degree] * degree
        for v in range(degree - 1, -1, -1):
            j = block[v]
            if self.first[j] >= 0:
                self.succ[v] = self.first[j]
            self.first[j] = v
        # a bytes key takes a third of a tuple's memory at degree 10, but
        # holds block numbers only below 256: a trivial H of degree 300 has
        # 300 blocks
        self.pack = bytes if count <= 256 else tuple

    def key(self, y: tuple[int, ...]) -> bytes | tuple[int, ...]:
        """M(y), encoded as the block of each y(p), sorted within each
        orbit's letters: those of orbit i list row i's counts, and a fixed
        letter's entry is its row."""
        block = self.block
        out = [block[v] for v in y]
        for o in self.orbits:
            for p, j in zip(o, sorted([out[p] for p in o])):
                out[p] = j
        return self.pack(out)

    def least(self, y: tuple[int, ...]) -> tuple[int, ...]:
        """The least element of HyH, read off M(y).

        Each letter p in turn, in block i, takes the least value not yet
        taken from any block j it still owes a count to (M[i][j] less the
        letters of block i already sent into block j).  The owed counts stay
        realizable: row i's sum is the letters of block i still to fill,
        column j's the values of block j not yet taken, so any owed j can
        still be chosen, every such choice extends to an element of HyH,
        and the greedy value at each letter is the least any of them has
        there.
        """
        block, succ = self.block, self.succ
        owed: list[dict[int, int]] = [{} for _ in self.first]
        for p, v in enumerate(y):
            row = owed[block[p]]
            row[block[v]] = row.get(block[v], 0) + 1
        # the least value of each block not yet taken
        least = self.first.copy()
        out = []
        for i in block:
            row = owed[i]
            j = min(row, key=least.__getitem__)
            v = least[j]
            out.append(v)
            least[j] = succ[v]
            if row[j] == 1:
                del row[j]
            else:
                row[j] -= 1
        return tuple(out)


def double_cosets(group: PermGroup, sub: PermGroup) -> DoubleCosetDecomposition:
    """Double cosets of sub in group, sorted by canonical representative.

    The index [group : sub] is checked first, so a skip names that bound.
    The seeds are the representatives of double_cosets(group, K), with
    K = sub x U, one least left coset of K per double coset K*g*K, or every
    left coset of sub when U is trivial.  Each seed starts a work list
    of candidate roots.  A candidate whose double coset is already placed is
    skipped.  Otherwise its orbit walk sifts generators of S(start) and
    decides self_inverse, and the orbit's least coset becomes the root:
    t = trans[root] carries start to it, so S(root) = t*S(start)*t^-1.  The
    root's images under the free-letter generators u (and their images in
    turn) are folded: with k = u*k_src, the double coset of k*root*k^-1, if
    not placed, has the root's data conjugated by conj = k*trans[c]*t^-1,
    where c is the canonical left coset of k^-1*rep*k, rep the new double
    coset's least element: trans[c]*t^-1 carries root*sub to c*sub, and k
    carries c*sub to rep*sub.  Every double coset placed, root or folded,
    adds its right moves rep*u to the work list.  A seed's work ends once
    every left coset of K*seed*K is placed.

    What "placed" holds depends on sub.  For a Young sub it is one
    block-count key per double coset (_BlockCounts proves that the matrix
    names the double coset and that its greedy element is the least): a
    candidate is keyed raw, and canonicalized only when its double coset is
    new; a fold keys k*root*k^-1 raw, and rep is read off its matrix, so
    one coset_min finds c and no left coset is mapped.  For every other sub
    (a signed-Young one included) it is the left cosets of each double
    coset placed: a candidate is canonicalized first, and a fold maps the
    root's orbit through c -> coset_min(k*c*k^-1), one coset_min per left
    coset, rep being the least image.
    """
    _coset_index(group, sub)
    h_order = sub.order()
    gens = [g._img for g in sub.generators]
    free = _free_letter_gens(group, sub)
    idt = _identity(group.degree)
    if free:
        hu = PermGroup(group.degree,
                       [*sub.generators, *map(Permutation._from_raw, free)])
        scale = hu.order() // h_order
        seeds = [(dc.rep._img, dc.n_left * scale)
                 for dc in double_cosets(group, hu).cosets]
    else:
        # K = sub: every left coset is a seed, and with nothing to fold or
        # move, no seed's work needs a count
        seeds = [(p._img, math.inf) for p in left_coset_reps(group, sub)]
    shape = sub.young_shape()
    blocks = (_BlockCounts(shape[0], group.degree)
              if shape is not None and not shape[1] else None)
    # placed keys: a Young sub's block counts, else the left cosets placed,
    # as bytes up to 256 letters and past that as the tuples themselves.
    # Keeping the tuples scatters them among the long-lived objects the walk
    # creates, which raised the scan's peak RSS
    key = bytes if group.degree <= 256 else tuple
    placed: set = set()
    # rep -> (n_left, stab_gens, self_inverse, root's rep, conj)
    found: dict[tuple[int, ...], tuple] = {}
    for seed, left in seeds:
        # left: the left cosets of K*seed*K not yet placed; work: the seed,
        # then the right moves (rep, u) of each double coset placed
        work = [(seed, None)]
        for y, right in work:
            if left <= 0:
                break
            if blocks is not None:
                start = y if right is None else _mul(y, right)
                start_key = blocks.key(start)
                if start_key in placed:
                    continue
                placed.add(start_key)
                if right is not None:
                    start = sub.coset_min(start)
            else:
                start = y if right is None else sub.coset_min(_mul(y, right))
                if key(start) in placed:
                    continue
            orbit, trans, stab_gens, self_inverse = _coset_orbit(start, sub,
                                                                 gens)
            if blocks is None:
                placed.update(map(key, orbit))
            left -= len(orbit)
            root = min(orbit)
            # t in sub carries start*sub to root*sub, so trans[c]*t^-1
            # carries root*sub to c*sub and S(root) = t*S(start)*t^-1
            t = trans[root]
            t_inv = _inv(t)
            stab_gens = tuple(_mul(_mul(t, x), t_inv) for x in stab_gens)
            found[root] = (len(orbit), stab_gens, self_inverse, root, idt)
            work += [(root, u) for u in free]
            at_root = orbit.index(root)
            queue = [idt]
            for k_src in queue:
                for u in free:
                    if left <= 0:
                        break
                    k = _mul(u, k_src)
                    k_inv = _inv(k)
                    moved_root = _mul(_mul(k, root), k_inv)
                    if blocks is not None:
                        moved_key = blocks.key(moved_root)
                        if moved_key in placed:
                            continue
                        placed.add(moved_key)
                        rep = blocks.least(moved_root)
                        c = sub.coset_min(_mul(_mul(k_inv, rep), k))
                    else:
                        moved_root = sub.coset_min(moved_root)
                        if key(moved_root) in placed:
                            continue
                        image = [moved_root if i == at_root
                                 else sub.coset_min(_mul(_mul(k, c), k_inv))
                                 for i, c in enumerate(orbit)]
                        placed.update(map(key, image))
                        rep = min(image)
                        c = orbit[image.index(rep)]
                    conj = _mul(k, _mul(trans[c], t_inv))
                    conj_inv = _inv(conj)
                    moved = tuple(_mul(_mul(conj, x), conj_inv)
                                  for x in stab_gens)
                    assert all(sub.coset_min(_mul(x, rep)) == rep
                               for x in moved)
                    left -= len(orbit)
                    found[rep] = (len(orbit), moved, self_inverse, root, conj)
                    queue.append(conj)
                    work += [(rep, u) for u in free]
    where = {p: j for j, p in enumerate(sorted(found))}
    out = tuple(DoubleCoset(rep=Permutation._from_raw(p), n_left=n_left,
                            size=n_left * h_order, stab_gens=stab_gens,
                            self_inverse=self_inverse, root=where[root],
                            conj=k)
                for p, (n_left, stab_gens, self_inverse, root, k)
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
    stab_gens = _coset_orbit(sub.coset_min(g._img), sub, gens)[2]
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
    normal forms over the whole group; an independent route to sym_census."""
    if not 1 <= l <= n:
        raise ValueError("l out of range")
    forms = {_canonical_form(raw, l) for raw in sym(n).element_tuples()}
    null = sum(1 for f in forms if any(f[f[i]] != i for i in range(n)))
    return len(forms), null
