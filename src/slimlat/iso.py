"""Lattice isomorphism: the joint refinement of two lattices, the
individualization-refinement search for order isomorphisms built on it,
automorphisms, boundary similarity of bordered diagrams, and intervals as
lattices of their own.

build and extract never compare lattices, so this module stays out of their
runs; slimlat.lattice resolves its public names from here on first use.
"""
from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from slimlat.lattice import BorderedDiagram, FiniteLattice, TooLarge

# The most automorphisms automorphisms lists.  Uncapped, on a 2-vCPU VM, it
# takes 0.3 s for the 8! of M_8 (10 elements) and would not return on the 12!
# of M_12; the cap refuses both within 30-40 ms, M_12 after 7,047 nodes.  A phi0
# lattice with k glued-sum components has at most 2^k, and perfbench's traced
# replay asks for at most 64.
AUTOMORPHISMS_CAP = 4096
# The most nodes, the root and one per individualization, that one search
# visits before it raises TooLarge: the least power of two that lists the
# 4,096 automorphisms of the glued sum of 12 squares (8,191 nodes).  Against
# a shuffled copy, on a busy 2-vCPU VM: the cyclic 13_3 configurations take
# 3 nodes (isomorphic) or 14 (not) in 0.4-3 ms, phi0 of the reversal 2 nodes
# in 18-45 ms at n = 96 and 33-60 ms at n = 128, and M_1200 1,200 nodes in
# 8-20 ms.  A node costs at most one refinement, 25-45 ms at the 8,257
# elements lattice_from_json admits, so a search there refuses within about
# 6 minutes; M_8255 refuses in 0.3-0.5 s.
ISOMORPHISM_NODE_CAP = 2 * AUTOMORPHISMS_CAP


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

def _starting_keys(lat: FiniteLattice) -> Iterator[tuple[int, ...]]:
    """Each element's starting colour key: its height, its numbers of lower
    and of upper covers, and the sizes of its ideal and of its filter, all
    kept by every isomorphism.  The sizes make the classes of 69 of 144
    class-mate phi0 pairs (perfbench's classify-mid) singletons before the
    first sweep, where the other three keys alone make none."""
    return zip(lat.height, map(len, lat.covers_down), map(len, lat.covers_up),
               map(int.bit_count, lat.down), map(int.bit_count, lat.up))


def _joint_refinement(l1: FiniteLattice, l2: FiniteLattice, start: Sequence[Iterable] | None = None
                      ) -> tuple[list[int], list[int]] | None:
    """The coarsest equitable partition of both lattices together that
    refines start, as colour vectors; None once the two sides' class sizes
    differ.  start holds one hashable key per element of each lattice, by
    default _starting_keys' (height, number of lower covers, number of upper
    covers, size of the ideal, size of the filter).

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
    if start is None:
        start = map(_starting_keys, lattices)
    colours = [[recolour(key, len(palette)) for key in keys] for keys in start]
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
                         pinned: dict[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """Order isomorphisms l1 -> l2 that map each pinned x to pinned[x], by
    individualization and refinement on an explicit stack.

    The root refines both lattices jointly, each pin a starting colour of its
    own.  At a node whose classes are all singletons, pairing the colours
    gives the one candidate, an isomorphism iff it maps the covers of l1 onto
    those of l2 and keeps the pins, checked whatever the refinement did.  Any
    other node takes the first x in the order (height, class size at the
    root, id) whose class is not a singleton, and for each y of x's colour in
    l2, ascending, gives x and y a fresh colour and refines again, so the maps
    come out in lexicographic order of their images in that order.  When
    every cover of x (and so of y) is a singleton, the colouring stays
    equitable and the refinement is skipped.  Past ISOMORPHISM_NODE_CAP
    nodes (the root and one per individualization) it raises TooLarge.
    """
    size = l1.size
    if size != l2.size or sorted(l1.height) != sorted(l2.height):
        return
    start = None
    if pinned:
        tags = [{x: k for k, x in enumerate(side)} for side in (pinned, pinned.values())]
        start = [[(*key, tag.get(x, -1)) for x, key in enumerate(_starting_keys(lat))]
                 for lat, tag in zip((l1, l2), tags)]
    root = _joint_refinement(l1, l2, start)
    if root is None:
        return
    nodes, order = 1, []

    def children(c1, c2, sizes, k):
        nonlocal nodes, order
        # sorted when the root, the first node to branch, branches
        order = order or sorted(range(size), key=lambda x: (l1.height[x], sizes[c1[x]], x))
        while sizes[c1[order[k]]] == 1:
            k += 1
        x, y = order[k], -1
        colour = c1[x]
        settled = all(sizes[c1[u]] == 1 for u in (*l1.covers_down[x], *l1.covers_up[x]))
        for _ in range(sizes[colour]):
            y = c2.index(colour, y + 1)
            nodes += 1
            if nodes > ISOMORPHISM_NODE_CAP:
                raise TooLarge(f"the isomorphism search exceeds {ISOMORPHISM_NODE_CAP} nodes")
            # split in place, undone once the child's subtree is searched;
            # the refinement's colours are never negative
            fresh = c1[x] = c2[y] = -nodes
            if settled:
                sizes[colour], sizes[fresh] = sizes[colour] - 1, 1
                yield c1, c2, sizes, k
                sizes[colour] += sizes.pop(fresh)
            elif (refined := _joint_refinement(l1, l2, (c1, c2))) is not None:
                yield *refined, Counter(refined[0]), k
            c1[x] = c2[y] = colour

    def leaves():
        if len(set(root[0])) == size:
            # a leaf root needs no class sizes
            yield root
            return
        stack = [iter([(*root, Counter(root[0]), 0)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
            elif len(node[2]) < size:
                stack.append(children(*node))
            else:
                yield node[:2]

    up1, up2 = l1.covers_up, l2.covers_up
    same_count = sum(map(len, up1)) == sum(map(len, up2))
    for c1, c2 in leaves():
        image = dict(zip(c2, range(size)))
        mapping = tuple(map(image.get, c1))
        # a bijection maps the covers of l1 onto those of l2 iff there are
        # as many of each and it maps every cover of l1 to one of l2
        if (None not in mapping and all(mapping[x] == y for x, y in (pinned or {}).items())
                and same_count and all(mapping[b] in up2[mapping[a]]
                                       for a, ups in enumerate(up1) for b in ups)):
            yield mapping


def find_isomorphism(l1: FiniteLattice, l2: FiniteLattice) -> tuple[int, ...] | None:
    """A witness order isomorphism as a tuple (image of each element), or
    None.  Raises TooLarge past ISOMORPHISM_NODE_CAP search nodes."""
    return next(_search_isomorphisms(l1, l2), None)


def is_isomorphic(l1: FiniteLattice, l2: FiniteLattice) -> bool:
    return find_isomorphism(l1, l2) is not None


def automorphisms(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """All order automorphisms.  Raises TooLarge as soon as the search finds
    more than AUTOMORPHISMS_CAP automorphisms or passes ISOMORPHISM_NODE_CAP
    nodes."""
    search = _search_isomorphisms(lattice, lattice)
    autos = tuple(itertools.islice(search, AUTOMORPHISMS_CAP + 1))
    if len(autos) > AUTOMORPHISMS_CAP:
        raise TooLarge(f"more than {AUTOMORPHISMS_CAP} automorphisms")
    return autos


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
    return next(_search_isomorphisms(d1.lattice, d2.lattice, pinned), None) is not None
