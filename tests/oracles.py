"""Brute-force oracles, straight from definitions and independent of the
library's algorithms.  Used to freeze expected values and to cross-check the
production implementations on small inputs."""
from __future__ import annotations

import itertools

from slimlat.lattice import (automorphisms, interval_sublattice, join_irreducibles,
                             maximal_chains, narrows)


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


def congruence_blocks(kappa):
    """The library congruence's partition in the oracle's format."""
    return frozenset(frozenset(block) for block in kappa.blocks())


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
