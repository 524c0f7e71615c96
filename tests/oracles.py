"""Brute-force oracles, straight from definitions and independent of the
library's algorithms.  Used to freeze expected values and to cross-check the
production implementations on small inputs."""
from __future__ import annotations

import itertools

from slimlat import iso
from slimlat import lattice as _lattice
from slimlat.extract import NotSlimSemimodular, SourceCellDuplicated, SourceCellMissing
from slimlat.grid import (Grid, GridCongruence, HypothesisViolated, _cell_pairs,
                          _closure_labels)
from slimlat.iso import automorphisms, interval_sublattice
from slimlat.lattice import dual, is_slim, join_irreducibles, narrows


def closed(images, lo, hi):
    """Interval {lo..hi} (1-based, empty when lo > hi) closed under the map."""
    return all(lo <= images[i - 1] <= hi for i in range(lo, hi + 1))


def sections(images):
    """All (lo, hi) with the interval and both flanks closed, by enumeration."""
    n = len(images)
    return [
        (lo, hi)
        for lo in range(1, n + 1)
        for hi in range(lo, n + 1)
        if closed(images, lo, hi) and closed(images, 1, lo - 1) and closed(images, hi + 1, n)
    ]


def segments(images):
    """Minimal sections, by enumeration."""
    secs = sections(images)
    return sorted(
        (lo, hi)
        for (lo, hi) in secs
        if not any((lo2, hi2) != (lo, hi) and lo <= lo2 and hi2 <= hi
                   for (lo2, hi2) in secs)
    )


def restriction(images, lo, hi):
    return tuple(images[i - 1] for i in range(lo, hi + 1))


def restriction_inverse(images, lo, hi):
    inv = {images[i - 1]: i for i in range(1, len(images) + 1)}
    return tuple(inv[i] for i in range(lo, hi + 1))


def rho(a, b):
    """Decomposition-based check: some tiling of {1..n} by consecutive
    a-sections on which b restricts to a or its inverse."""
    n = len(a)
    if len(b) != n:
        return False
    secs = set(sections(a))

    def rec(start):
        if start == n + 1:
            return True
        for hi in range(start, n + 1):
            if (start, hi) in secs:
                rb = restriction(b, start, hi)
                if rb in (restriction(a, start, hi), restriction_inverse(a, start, hi)):
                    if rec(hi + 1):
                        return True
        return False

    return rec(1)


def count_classes(n):
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    seen = set()
    classes = 0
    for p in perms:
        if p in seen:
            continue
        classes += 1
        for q in perms:
            if q not in seen and rho(p, q):
                seen.add(q)
    return classes


def naive_join_closure(n, pairs):
    """Smallest join-compatible equivalence on the (n+1)x(n+1) grid containing
    the pairs, as a frozenset of frozenset blocks.  Fixpoint over the full
    relation; deliberately nothing like union-find."""
    elems = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    rel = {(x, x) for x in elems}
    rel |= {(x, y) for (x, y) in pairs} | {(y, x) for (x, y) in pairs}
    changed = True
    while changed:
        changed = False
        add = set()
        for (x, y) in rel:
            for (u, v) in rel:
                if y == u and (x, v) not in rel:
                    add.add((x, v))
            for z in elems:
                xz = (max(x[0], z[0]), max(x[1], z[1]))
                yz = (max(y[0], z[0]), max(y[1], z[1]))
                if (xz, yz) not in rel:
                    add.add((xz, yz))
        if add:
            rel |= add
            changed = True
    return frozenset(frozenset(y for y in elems if (x, y) in rel) for x in elems)


def worklist_join_closure(n, pairs):
    """Canonical labels (blocks numbered by first occurrence in flat order)
    of the join-congruence generated by pairs of flat indices
    e = i*(n+1) + j, by union-find with a worklist: whenever a pair merges
    two blocks, its translates by the 2n join-irreducibles (k, 0) and (0, k)
    are enqueued."""
    side = n + 1
    parent = list(range(side * side))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = list(pairs)
    while stack:
        x, y = stack.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        ix, jx = divmod(x, side)
        iy, jy = divmod(y, side)
        for k in range(1, side):
            stack.append((max(ix, k) * side + jx, max(iy, k) * side + jy))
            stack.append((ix * side + max(jx, k), iy * side + max(jy, k)))
    canon = {}
    return tuple(canon.setdefault(find(e), len(canon)) for e in range(side * side))


def congruence_blocks(kappa):
    """The library congruence's partition in the oracle's format."""
    return frozenset(frozenset(block) for block in kappa.blocks())


def join_compatible_by_scan(kappa):
    """True iff a ~ b implies a v z ~ b v z, straight from the definition:
    every member of each block against the block's first member, joined
    with every grid element."""
    g = kappa.grid
    for block in kappa.blocks():
        first = block[0]
        for other in block[1:]:
            for z in g.elements():
                if not kappa.collapses(g.join(first, z), g.join(other, z)):
                    return False
    return True


def cell_generators(cell):
    """The two upper edges of a 4-cell, as pairs of grid coordinates."""
    i, j = cell
    return [((i - 1, j), (i, j)), ((i, j - 1), (i, j))]


def cell_labels(kappa, cell):
    """Block labels of the bottom, the two sides and the top of a 4-cell."""
    i, j = cell
    return (kappa.label_of((i - 1, j - 1)), kappa.label_of((i - 1, j)),
            kappa.label_of((i, j - 1)), kappa.label_of((i, j)))


def forbidden_cells_by_walk(kappa):
    """Forbidden cells by walking every GridCell of the grid: bottom and
    sides in pairwise distinct blocks, the top in a side block."""
    out = []
    for cell in Grid(kappa.n).cells():
        w, a, b, t = cell_labels(kappa, cell)
        if w != a and w != b and a != b and t in (a, b):
            out.append(cell)
    return frozenset(out)


def source_cells_by_walk(kappa):
    """Source cells by walking every GridCell of the grid: both sides in the
    top's block, the bottom outside it."""
    out = []
    for cell in Grid(kappa.n).cells():
        w, a, b, t = cell_labels(kappa, cell)
        if a == b == t != w:
            out.append(cell)
    return frozenset(out)


def regenerate_by_three_scans(kappa):
    """grid.regenerate by three passes, as the library once made them: the
    boundary edges, then the forbidden cells, then the source cells, whose
    generators are closed.  Raises the same HypothesisViolated messages."""
    side = kappa.n + 1
    labels = kappa.labels
    for i in range(1, side):
        if labels[(i - 1) * side] == labels[i * side]:
            raise HypothesisViolated(f"left boundary edge {i - 1}->{i} collapsed")
        if labels[i - 1] == labels[i]:
            raise HypothesisViolated(f"right boundary edge {i - 1}->{i} collapsed")
    if forbidden_cells_by_walk(kappa):
        raise HypothesisViolated("congruence has a forbidden cell")
    pairs = _cell_pairs(kappa.n, sorted(source_cells_by_walk(kappa)))
    return GridCongruence(kappa.n, _closure_labels(kappa.n, pairs))


def naive_quotient_covers(kappa):
    """Covers of the quotient by a join-congruence, by the triple loop over
    blocks: X <= Y iff joining their tops lands in Y, and X is covered by Y
    iff no third block lies strictly between them."""
    g = kappa.grid
    tops = kappa.block_tops()
    nblocks = kappa.num_blocks

    def leq(x, y):
        return kappa.labels[g.index(g.join(tops[x], tops[y]))] == y

    return frozenset(
        (x, y)
        for x in range(nblocks)
        for y in range(nblocks)
        if x != y and leq(x, y)
        and not any(z != x and z != y and leq(x, z) and leq(z, y) for z in range(nblocks))
    )


def quotient_by_reduction(kappa):
    """Upper covers and strict up-sets of the quotient by a join-congruence,
    by the bitmask route: the quotient order is the reflexive-transitive
    closure of the images of the uncollapsed grid edges, and its covers are
    their transitive reduction, found by taking blocks in decreasing rank of
    their tops and uniting the strict up-sets of each block's targets."""
    n, labels = kappa.n, kappa.labels
    side = n + 1
    tops = kappa.block_tops()
    targets = [0] * len(tops)
    for e, lab in enumerate(labels):
        i, j = divmod(e, side)
        for f, inside in ((e + side, i < n), (e + 1, j < n)):
            if inside and labels[f] != lab:
                targets[lab] |= 1 << labels[f]
    above = [0] * len(tops)
    covers_up = [[] for _ in tops]
    for x in sorted(range(len(tops)), key=lambda x: -sum(tops[x])):
        reach = 0
        for y in set_bits(targets[x]):
            reach |= above[y]
        above[x] = targets[x] | reach
        covers_up[x] = list(set_bits(targets[x] & ~reach))
    return covers_up, above


def set_bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def eager_order_data(lattice):
    """The cones, heights and cover set of a lattice, built from its upper
    covers and linear extension alone by one pass down the extension and
    one up it: (up, down, height, covers)."""
    size, order, covers_up = lattice.size, lattice._order, lattice.covers_up
    downs = [[] for _ in range(size)]
    covers = []
    for x, ys in enumerate(covers_up):
        for y in ys:
            downs[y].append(x)
            covers.append((x, y))
    up, down, height = ([0] * size for _ in range(3))
    for x in order:
        mask, h = 1 << x, 0
        for y in downs[x]:
            mask |= down[y]
            if height[y] >= h:
                h = height[y] + 1
        down[x], height[x] = mask, h
    for x in reversed(order):
        mask = 1 << x
        for y in covers_up[x]:
            mask |= up[y]
        up[x] = mask
    return tuple(up), tuple(down), tuple(height), frozenset(covers)


def naive_bound_tables(lattice):
    """Join and meet tables by scanning the common bounds of every pair for
    the one whose up-set (down-set) equals them; None marks a missing bound."""
    def bound(cone, i, j):
        common = cone[i] & cone[j]
        for u in range(lattice.size):
            if common >> u & 1 and cone[u] == common:
                return u
        return None

    elems = range(lattice.size)
    joins = tuple(tuple(bound(lattice.up, i, j) for j in elems) for i in elems)
    meets = tuple(tuple(bound(lattice.down, i, j) for j in elems) for i in elems)
    return joins, meets


def order_data(lattice):
    """What a lattice exposes of its order: cones, heights, bounds, cover
    lists, and the join and meet of every pair."""
    pairs = list(itertools.product(range(lattice.size), repeat=2))
    return (lattice.up, lattice.down, lattice.height, lattice.bottom, lattice.top,
            lattice.covers, lattice.covers_up, lattice.covers_down,
            [lattice.join(x, y) for x, y in pairs], [lattice.meet(x, y) for x, y in pairs])


def bounds_by_scan(size, covers):
    """The least and the greatest element of an acyclic cover relation, by
    scanning every element for an up-set (down-set) that holds everything.
    Raises NotALattice, with FiniteLattice's message, unless both exist."""
    upper = [[b for a, b in covers if a == x] for x in range(size)]
    up: dict[int, set[int]] = {}

    def up_set(x):
        if x not in up:
            up[x] = {x}.union(*map(up_set, upper[x]))
        return up[x]

    bottoms = [x for x in range(size) if len(up_set(x)) == size]
    tops = [x for x in range(size) if all(x in up_set(y) for y in range(size))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise _lattice.NotALattice("order must have a least and a greatest element")
    return bottoms[0], tops[0]


def has_three_antichain(lattice, elems):
    """True iff three of the elements are pairwise incomparable, by the
    cubic scan over pairs and a third element."""
    comp = [lattice.up[x] | lattice.down[x] for x in range(lattice.size)]
    for a, b in itertools.combinations(elems, 2):
        if comp[a] >> b & 1:
            continue
        for c in elems:
            if c != a and c != b and not comp[c] >> a & 1 and not comp[c] >> b & 1:
                return True
    return False


def covering_condition_scan(lattice):
    """Upper semimodularity straight from its definition: for every cover
    a < b and every c, a∨c equals b∨c or is covered by it."""
    for a, b in lattice.covers:
        for c in range(lattice.size):
            x = lattice.join(a, c)
            y = lattice.join(b, c)
            if x != y and not lattice.is_cover(x, y):
                return False
    return True


def maximal_chains(lattice, lo, hi):
    """All cover-by-cover chains from lo to hi, in lexicographic order, by
    depth-first search; exponential in the interval's length."""
    out = []

    def walk(x, acc):
        if x == hi:
            out.append(tuple(acc))
            return
        for y in lattice.covers_up[x]:
            if lattice.leq(y, hi):
                acc.append(y)
                walk(y, acc)
                acc.pop()

    if lattice.leq(lo, hi):
        walk(lo, [lo])
    return out


def is_slim_dual(lattice):
    """Dual slimness by building the dual lattice and asking whether it is
    slim."""
    return is_slim(dual(lattice))


def chain_pair_by_search(lattice, lo, hi):
    """The boundary chain pair of the component [lo, hi] by enumerating every
    maximal chain and keeping the one pair that covers the component's
    join-irreducibles; exponential in the component's length."""
    chains = maximal_chains(lattice, lo, hi)
    if len(chains) == 1:
        return chains[0], chains[0]
    sub, elems = interval_sublattice(lattice, lo, hi)
    ji = {elems[x] for x in join_irreducibles(sub)}
    pairs = [(u, v) for u, v in itertools.combinations(chains, 2)
             if ji <= set(u) | set(v)]
    if len(pairs) != 1:
        raise RuntimeError(
            f"component [{lo}, {hi}] has {len(pairs)} boundary chain pairs")
    return pairs[0]


def chain_pair_by_component_colouring(lattice, lo, hi):
    """The boundary chain pair of the component [lo, hi], from a 2-colouring
    of its own join-irreducibles: breadth-first from the atom with the
    smallest id, which takes colour 0, over pairs that lattice.comparable
    calls incomparable.  Each colour class lies on exactly one maximal chain
    from lo to hi; the pair is (chain of class 0, chain of class 1), and
    both are the one chain when hi covers lo.  Raises RuntimeError when the
    join-irreducibles are not two chains or their graph is disconnected."""
    sub, elems = interval_sublattice(lattice, lo, hi)
    ji = sorted((elems[x] for x in join_irreducibles(sub)),
                key=lambda x: (lattice.height[x], x))
    colour = {ji[0]: 0}
    queue = [ji[0]]
    for x in queue:
        for y in ji:
            if lattice.comparable(x, y):
                continue
            if y not in colour:
                colour[y] = 1 - colour[x]
                queue.append(y)
            elif colour[y] == colour[x]:
                raise RuntimeError(f"join-irreducibles of [{lo}, {hi}] are not two chains")
    if len(colour) != len(ji):
        raise RuntimeError(f"component [{lo}, {hi}] has more than one boundary chain pair")
    chains = maximal_chains(lattice, lo, hi)
    pair = []
    for c in (0, 1):
        members = {x for x in ji if colour[x] == c}
        through = [ch for ch in chains if members <= set(ch)]
        if len(through) != 1:
            raise RuntimeError(f"{len(through)} chains of [{lo}, {hi}] carry colour {c}")
        pair.append(through[0])
    return tuple(pair)


def isomorphisms_by_backtracking(l1, l2, pinned=None, limit=1):
    """Order isomorphisms l1 -> l2 by backtracking over the classes of
    iso._joint_refinement, singleton classes included: elements in
    order of (height, class size, id), each tried against the members of
    its class (or its pinned image) in ascending order, and kept when its
    lower covers map onto lower covers of the candidate."""
    if l1.size != l2.size or sorted(l1.height) != sorted(l2.height):
        return
    refined = iso._joint_refinement(l1, l2)
    if refined is None:
        return
    c1, c2 = refined
    pinned = pinned or {}
    if any(c1[x] != c2[y] for x, y in pinned.items()):
        return
    order = sorted(range(l1.size), key=lambda x: (l1.height[x], c1.count(c1[x]), x))
    candidates = [[pinned[x]] if x in pinned else [y for y in range(l2.size) if c2[y] == c1[x]]
                  for x in order]
    mapping = [-1] * l1.size
    used = [False] * l2.size
    found = 0

    def place(k):
        nonlocal found
        if k == len(order):
            found += 1
            yield tuple(mapping)
            return
        x = order[k]
        for y in candidates[k]:
            if used[y] or any((mapping[u], y) not in l2.covers for u in l1.covers_down[x]):
                continue
            mapping[x], used[y] = y, True
            yield from place(k + 1)
            mapping[x], used[y] = -1, False
            if limit is not None and found >= limit:
                return

    yield from place(0)


def diagram_chains_by_automorphisms(lattice):
    """(left_chain, right_chain) of every diagram of a slim semimodular
    lattice up to boundary similarity: all 2^k orientations of the searched
    component chain pairs, sorted, keeping the first of each orbit under the
    lattice's full automorphism group."""
    nar = narrows(lattice)
    options = []
    for lo, hi in zip(nar, nar[1:]):
        u, v = chain_pair_by_search(lattice, lo, hi)
        options.append([(u, v)] if u == v else [(u, v), (v, u)])
    candidates = sorted(
        (tuple([lattice.bottom] + [x for u, _ in combo for x in u[1:]]),
         tuple([lattice.bottom] + [x for _, v in combo for x in v[1:]]))
        for combo in itertools.product(*options))
    autos = automorphisms(lattice)
    seen = set()
    reps = []
    for left, right in candidates:
        if (left, right) in seen:
            continue
        reps.append((left, right))
        for gamma in autos:
            seen.add((tuple(gamma[x] for x in left), tuple(gamma[x] for x in right)))
    return reps


def naive_divisor_covers(divisors, reverse):
    """Covers of a set of integers under divisibility (reversed on request),
    straight from the definition: the minimal strict upper bounds of x are
    its strict multiples (divisors) that are no strict multiple (divisor)
    of another one."""
    def leq(a, b):
        return a % b == 0 if reverse else b % a == 0

    m = len(divisors)
    above = [{y for y in range(m) if y != x and leq(divisors[x], divisors[y])}
             for x in range(m)]
    covers = set()
    for x in range(m):
        between = set().union(*(above[z] for z in above[x]))
        covers.update((x, y) for y in above[x] - between)
    return frozenset(covers)


def trial_division_is_prime(p):
    """Primality by trying every divisor up to the square root."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def joint_refinement_by_sorted_sweeps(l1, l2):
    """iso._joint_refinement as it was before it skipped sorting short
    cover lists: the same starting keys (height, numbers of lower and of
    upper covers, sizes of the ideal and of the filter), sweeps, palette and
    stopping rule, with every key built from a sorted list of the covers'
    new colours."""
    palette = {}
    lattices = (l1, l2)
    colours = [[palette.setdefault((lat.height[x], len(lat.covers_down[x]),
                                    len(lat.covers_up[x]), bin(lat.down[x]).count("1"),
                                    bin(lat.up[x]).count("1")), len(palette))
                for x in range(lat.size)] for lat in lattices]
    classes, calm, upward = 0, 0, True
    while True:
        c1, c2 = colours
        if sorted(c1) != sorted(c2):
            return None
        count = len(set(c1))
        calm = calm + 1 if count == classes else 0
        if count == len(c1) or calm == 2:
            return c1, c2
        classes = count
        for k, lat in enumerate(lattices):
            old, new = colours[k], colours[k][:]
            nearer = lat.covers_down if upward else lat.covers_up
            for x in (lat._order if upward else reversed(lat._order)):
                new[x] = palette.setdefault(
                    (old[x], *sorted([new[u] for u in nearer[x]])), len(palette))
            colours[k] = new
        upward = not upward


def joint_refinement_by_rounds(l1, l2, start=None):
    """Colour refinement of both lattices in rounds with a shared palette:
    each round recolours every element at once from its colour and the
    sorted colours of its lower and of its upper covers, until neither
    lattice gains a class.  The colours start from start's keys, by default
    (height, number of lower covers, number of upper covers).  Returns the
    two colour vectors, or None as soon as the two histograms differ before
    a round."""
    def seed(lat):
        return [(lat.height[x], len(lat.covers_down[x]), len(lat.covers_up[x]))
                for x in range(lat.size)]

    def histogram(colors):
        out = {}
        for c in colors:
            out[c] = out.get(c, 0) + 1
        return out

    c1, c2 = (seed(l1), seed(l2)) if start is None else map(list, start)
    while True:
        if histogram(c1) != histogram(c2):
            return None
        k1 = [(c1[x],
               tuple(sorted(c1[u] for u in l1.covers_down[x])),
               tuple(sorted(c1[u] for u in l1.covers_up[x])))
              for x in range(l1.size)]
        k2 = [(c2[x],
               tuple(sorted(c2[u] for u in l2.covers_down[x])),
               tuple(sorted(c2[u] for u in l2.covers_up[x])))
              for x in range(l2.size)]
        palette = {key: i for i, key in enumerate(sorted(set(k1) | set(k2)))}
        n1 = [palette[k] for k in k1]
        n2 = [palette[k] for k in k2]
        if len(set(n1)) == len(set(c1)) and len(set(n2)) == len(set(c2)):
            return n1, n2
        c1, c2 = n1, n2


def opposite_edges_by_pair_loop(lattice):
    """extract._opposite_edges as the library once built it, uncached: a
    loop over each square's two pairs of opposite edges."""
    size = lattice.size
    adj = {}
    get = adj.get
    for w, a, b, t in _lattice.covering_squares(lattice):
        for e, f in ((w * size + a, b * size + t), (w * size + b, a * size + t)):
            adj[e] = get(e, ()) + (f,)
            adj[f] = get(f, ()) + (e,)
    if max(map(len, adj.values()), default=0) > 2:
        raise NotSlimSemimodular("edge in more than two covering squares")
    return adj


def source_cell_images_by_lowest_bits(diagram):
    """extract._source_cell_images as the library once computed it: the join
    of c and d is the lowest set bit of their ranked up-sets' intersection,
    the first common upper bound in the linear extension.  The ranked
    up-sets, whose bits are numbered by position in the extension, are built
    here by one pass down it."""
    lattice, left, right = diagram.lattice, diagram.left_chain, diagram.right_chain
    if not _lattice.is_semimodular(lattice):
        raise NotSlimSemimodular("lattice is not semimodular")
    n = diagram.n
    up_ranked = [0] * lattice.size
    for k in range(lattice.size - 1, -1, -1):
        x = lattice._order[k]
        up_ranked[x] = 1 << k
        for y in lattice.covers_up[x]:
            up_ranked[x] |= up_ranked[y]
    right_up = [up_ranked[d] for d in right]
    eta = [[m & -m for m in [up_ranked[c] & up_d for up_d in right_up]] for c in left]
    images = []
    for i in range(1, n + 1):
        below, row = eta[i - 1], eta[i]
        hits = [j for j in range(1, n + 1)
                if below[j] == row[j - 1] == row[j] != below[j - 1]]
        if not hits:
            raise SourceCellMissing(f"no source cell in row {i}")
        if len(hits) > 1:
            raise SourceCellDuplicated(f"multiple source cells {hits} in row {i}")
        images.append(hits[0])
    return tuple(images)


def phi0_mutants(d):
    """(kind, size, covers, left, right) of the mutants of a phi0 diagram:
    the chains swapped, one inner step of the left chain taken from the
    right chain, one cover dropped, and one new element subdividing a cover
    (and every chain through it)."""
    lat, left, right = d.lattice, d.left_chain, d.right_chain
    yield "swapped", lat.size, lat.covers, right, left
    for k in range(1, len(left) - 1):
        yield "swapped step", lat.size, lat.covers, left[:k] + right[k:k + 1] + left[k + 1:], right
    for x, y in sorted(lat.covers):
        yield "dropped cover", lat.size, lat.covers - {(x, y)}, left, right
        z = lat.size

        def subdivided(chain):
            return tuple(v for a, b in zip(chain, chain[1:] + (None,))
                         for v in ((a, z) if (a, b) == (x, y) else (a,)))
        yield ("added element", z + 1, (lat.covers - {(x, y)}) | {(x, z), (z, y)},
               subdivided(left), subdivided(right))
