"""Lattice isomorphism: the joint refinement of two lattices, the search for
order isomorphisms it narrows, automorphisms, boundary similarity of
bordered diagrams, and intervals as lattices of their own.

build and extract never compare lattices, so this module stays out of their
runs; slimlat.lattice resolves its public names from here on first use.
"""
from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator

from slimlat.lattice import BorderedDiagram, FiniteLattice, TooLarge, _cached

# The largest lattice size find_isomorphism and is_isomorphic accept.  On a
# 2-vCPU VM they take 0.1-2 ms against a relabelled copy of a phi0 lattice of
# 182 or 191 elements, the 200-chain, M_198, 2^7 or the 14 x 14 grid.  The
# search stays exponential where refinement splits nothing: on two random
# 28-element incidence lattices of 13 points and 13 lines (3 points on each
# line, 3 lines through each point) it ran over 120 s.
ISOMORPHISM_CAP = 200
# The most automorphisms automorphisms lists.  Uncapped, on a 2-vCPU VM, it took
# 0.31 s for the 8! of M_8 (10 elements) and never returned on the 12! of M_12;
# the cap refuses both within 40 ms.  A phi0 lattice with k glued-sum components
# has at most 2^k, and perfbench's traced replay asks for at most 64.
AUTOMORPHISMS_CAP = 4096


def interval_sublattice(lattice: FiniteLattice, lo: int, hi: int
                        ) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The interval [lo, hi] as a lattice of its own.

    Returns (sub, elems) where elems[k] is the original id of sub element k;
    covers restrict because anything between two interval members lies in
    the interval, and the (height, id) order of elems is a linear extension.
    """
    if not lattice.leq(lo, hi):
        raise ValueError(f"{lo} is not below {hi}")
    elems = tuple(lattice.interval(lo, hi))
    index = {x: k for k, x in enumerate(elems)}
    covers_up = [sorted(index[y] for y in lattice.covers_up[x] if y in index)
                 for x in elems]
    return FiniteLattice._from_covers_up(covers_up, range(len(elems))), elems


# -- isomorphism -------------------------------------------------------------

def _joint_refinement(l1: FiniteLattice, l2: FiniteLattice
                      ) -> tuple[list[int], list[int]] | None:
    """The coarsest equitable partition of both lattices together that
    refines (height, number of lower covers, number of upper covers), as
    colour vectors; None once the two sides' class sizes differ.

    Sweeps alternate upward and downward along the linear extension.  A
    sweep recolours each element from its own colour and the new colours of
    its lower covers (upper covers on the way down), through one palette
    shared by both lattices, and stops when two sweeps in a row split no
    class: then every class agrees on the classes of its lower and of its
    upper covers.  Once every class holds one element of each lattice, no
    sweep can split a class further, and the colours are returned as they
    are: pairing them is the one candidate map, which _search_isomorphisms
    checks against the covers.  Cost: O(size + |covers|) per sweep.
    """
    palette: dict = {}
    recolour = palette.setdefault
    lattices = (l1, l2)
    colours = [[recolour(key, len(palette)) for key in zip(
        lat.height, map(len, lat.covers_down), map(len, lat.covers_up))] for lat in lattices]
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
            order = lat._order if upward else lat._order[::-1]
            for x, near in zip(order, map(nearer.__getitem__, order)):
                # the keys of sorting every list, without sorting one or two
                if len(near) == 1:
                    key = (old[x], new[near[0]])
                elif len(near) == 2:
                    a, b = new[near[0]], new[near[1]]
                    key = (old[x], a, b) if a <= b else (old[x], b, a)
                else:
                    key = (old[x], *sorted([new[u] for u in near]))
                new[x] = recolour(key, len(palette))
            colours[k] = new
        upward = not upward


def _search_isomorphisms(l1: FiniteLattice, l2: FiniteLattice,
                         pinned: dict[int, int] | None = None,
                         limit: int | None = 1) -> Iterator[tuple[int, ...]]:
    """Order isomorphisms l1 -> l2 that preserve the joint refinement's
    colours and the pinned pairs.

    When every colour class is a singleton, the one colour-preserving
    bijection is the only candidate: it is built directly and is an
    isomorphism iff the two lattices have equal numbers of covers and it
    maps every cover of l1 to a cover of l2, an O(|covers|) check made here
    whatever the refinement returned.  Otherwise a backtracking search
    assigns elements in height order, so when x is placed all its lower
    covers are already mapped; matching them bijectively onto the
    candidate's lower covers is exactly cover preservation in both
    directions.  Both routes yield the same maps in the same order.
    """
    if l1.size != l2.size or sorted(l1.height) != sorted(l2.height):
        return
    refined = _joint_refinement(l1, l2)
    if refined is None:
        return
    c1, c2 = refined
    if pinned:
        for x, y in pinned.items():
            if c1[x] != c2[y]:
                return
    if len(set(c1)) == l1.size:
        # a pinned x has the one y of its colour, checked above
        image = dict(zip(c2, range(l2.size)))
        mapping = tuple([image.get(c, -1) for c in c1])
        covers = l2.covers
        if (-1 not in mapping and len(l1.covers) == len(covers)
                and all((mapping[a], mapping[b]) in covers for a, b in l1.covers)):
            yield mapping
        return

    class_size = Counter(c1)
    members: dict[int, list[int]] = {}
    for y, c in enumerate(c2):
        members.setdefault(c, []).append(y)
    order = sorted(range(l1.size), key=lambda x: (l1.height[x], class_size[c1[x]], x))
    candidates = [
        [pinned[x]] if pinned and x in pinned else members.get(c1[x], [])
        for x in order
    ]
    mapping = [-1] * l1.size
    used = [False] * l2.size
    found = 0

    def place(k: int) -> Iterator[tuple[int, ...]]:
        nonlocal found
        if k == len(order):
            found += 1
            yield tuple(mapping)
            return
        x = order[k]
        down_x = l1.covers_down[x]
        for y in candidates[k]:
            if used[y]:
                continue
            if any(not l2.is_cover(mapping[u], y) for u in down_x):
                continue
            mapping[x] = y
            used[y] = True
            yield from place(k + 1)
            used[y] = False
            mapping[x] = -1
            if limit is not None and found >= limit:
                return

    yield from place(0)


def find_isomorphism(l1: FiniteLattice, l2: FiniteLattice) -> tuple[int, ...] | None:
    """A witness order isomorphism as a tuple (image of each element), or
    None.  Raises TooLarge above ISOMORPHISM_CAP elements."""
    if max(l1.size, l2.size) > ISOMORPHISM_CAP:
        raise TooLarge(f"size exceeds the isomorphism cap {ISOMORPHISM_CAP}")
    for mapping in _search_isomorphisms(l1, l2, limit=1):
        return mapping
    return None


def is_isomorphic(l1: FiniteLattice, l2: FiniteLattice) -> bool:
    return find_isomorphism(l1, l2) is not None


def automorphisms(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """All order automorphisms (cached on the lattice).  Raises TooLarge
    above ISOMORPHISM_CAP elements, and as soon as the search finds more
    than AUTOMORPHISMS_CAP automorphisms."""
    if lattice.size > ISOMORPHISM_CAP:
        raise TooLarge(f"size exceeds the isomorphism cap {ISOMORPHISM_CAP}")
    def compute():
        search = _search_isomorphisms(lattice, lattice, limit=None)
        autos = tuple(itertools.islice(search, AUTOMORPHISMS_CAP + 1))
        if len(autos) > AUTOMORPHISMS_CAP:
            raise TooLarge(f"more than {AUTOMORPHISMS_CAP} automorphisms")
        return autos
    return _cached(lattice, "automorphisms", compute)


def boundarily_similar(d1: BorderedDiagram, d2: BorderedDiagram) -> bool:
    """True iff some lattice isomorphism maps left chain to left chain and
    right chain to right chain."""
    if len(d1.left_chain) != len(d2.left_chain):
        return False
    pinned: dict[int, int] = {}
    for x, y in itertools.chain(zip(d1.left_chain, d2.left_chain),
                                zip(d1.right_chain, d2.right_chain)):
        if pinned.setdefault(x, y) != y:
            return False
    for _ in _search_isomorphisms(d1.lattice, d2.lattice, pinned=pinned, limit=1):
        return True
    return False
