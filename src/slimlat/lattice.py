"""Finite lattices given by their cover relations.

Conventions:
    - Elements are the integers ``0..size-1``.
    - ``covers`` holds ordered pairs ``(lower, upper)`` and must be the
      transitive reduction of the reachability order (a Hasse diagram).
    - The reachability order must have a least and a greatest element and
      binary joins and meets everywhere, otherwise construction fails.
    - ``up[x]`` / ``down[x]`` are bitmask encodings of the up-set and
      down-set of ``x``; order queries are bit tests on them, and join and
      meet are computed on demand from the cones.

The module also provides the predicates used throughout the package
(semimodularity, slimness, narrows, covering squares), a brute-force
isomorphism oracle with witness maps, the :class:`BorderedDiagram` wrapper
that fixes a left and a right maximal chain of a lattice, the combinatorial
stand-in for a planar diagram considered up to boundary similarity, and a
test of boundary similarity by the same isomorphism search.
"""
from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from slimlat.perm import _Frozen

# The largest lattice size lattice_from_json accepts.  Construction costs
# O(size^2) bits of masks and an O(size^2) check that every pair has a join
# and a meet, so the size is checked before anything is allocated: a 69-byte
# file claiming 20,000 elements and no covers used to reach 125 MB of peak RSS
# before it was refused.  The cap admits every build output: the largest at
# the permutation size cap 96 is the reversal's, 96 * 97 / 2 + 1 = 4,657
# elements, and extract on it takes 15 s and 30 MB of peak RSS on a 2-vCPU
# VM, nearly all of it in that check.
JSON_SIZE_CAP = 5000


class Cyclic(ValueError):
    """The cover relation has a directed cycle."""


class NotReduced(ValueError):
    """The cover relation contains a transitive (redundant) edge."""


class NotALattice(ValueError):
    """The reachability order is not a lattice."""


class TooLarge(ValueError):
    """Input exceeds a configured size cap."""


class CoverOutOfRange(ValueError, IndexError):
    """A cover names an element outside 0..size-1."""


class InvalidDiagram(ValueError):
    """Chains do not form a valid bordered diagram of the lattice."""


class FiniteLattice:
    """An immutable finite lattice with eagerly computed order data.

    The up-set and down-set masks, the heights and a linear extension cost
    O(size + |covers|) operations on size-bit masks, and take O(size^2)
    bits.  Join and meet are computed on demand: a comparable pair answers
    from the order, and an incomparable one with one lowest or highest set
    bit of the intersection of two cones whose bits are numbered by the
    linear extension.

    The constructor validates its input: the covers must be the transitive
    reduction of a bounded order, and one such bit search per incomparable
    pair checks that every pair has a join and a meet.
    """

    __slots__ = ("size", "covers", "covers_up", "covers_down", "up", "down",
                 "height", "bottom", "top", "_order", "_up_ranked", "_down_ranked",
                 "_cache")

    def __init__(self, size: int, covers: Iterable[tuple[int, int]]):
        if size < 1:
            raise NotALattice("a lattice needs at least one element")
        cover_set = set()
        for pair in covers:
            a, b = pair
            if not (0 <= a < size and 0 <= b < size):
                raise CoverOutOfRange(f"cover {pair} outside 0..{size - 1}")
            if a == b:
                raise Cyclic(f"self-loop at {a}")
            cover_set.add((a, b))
        self.size = size
        self.covers = frozenset(cover_set)
        ups = [[] for _ in range(size)]
        downs = [[] for _ in range(size)]
        for a, b in sorted(cover_set):  # fills every list in ascending order
            ups[a].append(b)
            downs[b].append(a)
        self.covers_up = tuple(map(tuple, ups))
        self.covers_down = tuple(map(tuple, downs))

        order = self._topological_order()
        up = [0] * size
        for x in reversed(order):
            mask = 1 << x
            for y in self.covers_up[x]:
                mask |= up[y]
            up[x] = mask
        self._build_cones(order, up)
        self._check_reduced()
        self._find_bounds()
        self._check_bounds()
        self._cache: dict = {}

    @classmethod
    def _from_closed_blocks(cls, covers_up: Sequence[Sequence[int]],
                            above: Sequence[int], order: Sequence[int]
                            ) -> "FiniteLattice":
        """A lattice its caller already knows to be one, without validation.

        Every caller must guarantee what __init__ would check:
        covers_up[x] lists the upper covers of x in ascending order and the
        covers are the transitive reduction of a lattice order, above[x] is
        the mask of the elements strictly above x, and order is a linear
        extension of the order, so it starts at the bottom and ends at the
        top.  grid.quotient builds the closed elements of a closure
        operator, and groups builds the intersections of two chains of
        divisors; both are lattices by construction.  Cost: that of
        _build_cones.
        """
        self = cls.__new__(cls)
        self.size = size = len(order)
        downs = [[] for _ in range(size)]
        for x, ys in enumerate(covers_up):
            for y in ys:
                downs[y].append(x)  # ascending, as __init__ lists them
        self.covers = frozenset((x, y) for x, ys in enumerate(covers_up) for y in ys)
        self.covers_up = tuple(map(tuple, covers_up))
        self.covers_down = tuple(map(tuple, downs))
        self._build_cones(order, [mask | 1 << x for x, mask in enumerate(above)])
        self.bottom = order[0]
        self.top = order[-1]
        self._cache = {}
        return self

    # -- construction internals -------------------------------------------

    def _topological_order(self) -> list[int]:
        indeg = [len(self.covers_down[x]) for x in range(self.size)]
        queue = [x for x in range(self.size) if indeg[x] == 0]
        order = []
        while queue:
            x = queue.pop()
            order.append(x)
            for y in self.covers_up[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if len(order) != self.size:
            raise Cyclic("cover relation has a cycle")
        return order

    def _build_cones(self, order: Sequence[int], up: list[int]) -> None:
        """Sets up (given), down and height, and keeps the linear extension
        order with the up-set and down-set masks that number every element
        by its position in it."""
        size = self.size
        down = [0] * size
        height = [0] * size
        up_r = [0] * size
        down_r = [0] * size
        for k, x in enumerate(order):
            mask, ranked, h = 1 << x, 1 << k, 0
            for y in self.covers_down[x]:
                mask |= down[y]
                ranked |= down_r[y]
                if height[y] >= h:
                    h = height[y] + 1
            down[x], down_r[x], height[x] = mask, ranked, h
        for k in range(size - 1, -1, -1):
            ranked = 1 << k
            for y in self.covers_up[order[k]]:
                ranked |= up_r[y]
            up_r[order[k]] = ranked
        self.up = tuple(up)
        self.down = tuple(down)
        self.height = tuple(height)
        self._order = tuple(order)
        self._up_ranked = tuple(up_r)
        self._down_ranked = tuple(down_r)

    def _check_reduced(self) -> None:
        for a, b in self.covers:
            if self.up[a] & self.down[b] != (1 << a) | (1 << b):
                raise NotReduced(f"cover ({a}, {b}) is a transitive edge")

    def _find_bounds(self) -> None:
        full = (1 << self.size) - 1
        bottoms = [x for x in range(self.size) if self.up[x] == full]
        tops = [x for x in range(self.size) if self.down[x] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotALattice("order must have a least and a greatest element")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def _check_bounds(self) -> None:
        # Every pair has a join iff, for every incomparable pair, the first
        # common upper bound in the linear extension has exactly the common
        # upper bounds above it; dually for meets.  The pairs are met in
        # i-major order, j ascending.
        full = (1 << self.size) - 1
        order, up, down = self._order, self._up_ranked, self._down_ranked
        for i, (up_i, down_i) in enumerate(zip(up, down)):
            rest = (full ^ (self.up[i] | self.down[i])) >> i << i
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                common = up_i & up[j]
                if up[order[(common & -common).bit_length() - 1]] != common:
                    raise NotALattice(f"elements {i} and {j} have no join")
                common = down_i & down[j]
                if down[order[common.bit_length() - 1]] != common:
                    raise NotALattice(f"elements {i} and {j} have no meet")

    # -- queries ------------------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def join(self, x: int, y: int) -> int:
        if self.down[y] >> x & 1:
            return y
        if self.down[x] >> y & 1:
            return x
        # the join lies below every other common upper bound, so it comes
        # first among them in the linear extension
        common = self._up_ranked[x] & self._up_ranked[y]
        return self._order[(common & -common).bit_length() - 1]

    def meet(self, x: int, y: int) -> int:
        if self.down[y] >> x & 1:
            return x
        if self.down[x] >> y & 1:
            return y
        common = self._down_ranked[x] & self._down_ranked[y]
        return self._order[common.bit_length() - 1]

    def is_cover(self, x: int, y: int) -> bool:
        return (x, y) in self.covers

    def upper_covers(self, x: int) -> tuple[int, ...]:
        return self.covers_up[x]

    @property
    def length(self) -> int:
        return self.height[self.top]

    def elements(self) -> range:
        return range(self.size)

    def interval(self, lo: int, hi: int) -> list[int]:
        """Elements of [lo, hi], ascending by (height, id)."""
        mask = self.up[lo] & self.down[hi]
        out = []
        while mask:
            bit = mask & -mask
            out.append(bit.bit_length() - 1)
            mask ^= bit
        out.sort(key=lambda x: (self.height[x], x))
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteLattice)
                and self.size == other.size and self.covers == other.covers)

    def __hash__(self) -> int:
        return hash((self.size, self.covers))

    def __reduce__(self):
        # through the validating constructor, as _Frozen values are rebuilt
        return self.__class__, (self.size, self.covers)

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size}, covers={sorted(self.covers)})"


def from_covers(size: int, covers: Iterable[tuple[int, int]]) -> FiniteLattice:
    """Validate a Hasse diagram and return the lattice it presents.

    Raises Cyclic, NotReduced, or NotALattice when the input is not the
    transitive reduction of a (bounded) lattice order.
    """
    return FiniteLattice(size, covers)


def chain(n: int) -> FiniteLattice:
    """The chain 0 < 1 < ... < n (length n)."""
    return FiniteLattice(n + 1, [(i, i + 1) for i in range(n)])


def _cached(lattice: FiniteLattice, key: str, compute):
    try:
        return lattice._cache[key]
    except KeyError:
        value = compute()
        lattice._cache[key] = value
        return value


def is_semimodular(lattice: FiniteLattice) -> bool:
    """Upper semimodularity (a covered by b implies a∨c is b∨c or covered by
    it), decided by Birkhoff's condition: any two distinct upper covers of
    an element are both covered by their join.  In a lattice of finite
    length the two are equivalent.  The condition holds exactly when every
    such pair spans one of the covering squares, so this counts them.
    Cost: that of covering_squares."""
    def compute():
        pairs = sum(len(ups) * (len(ups) - 1) // 2 for ups in lattice.covers_up)
        return len(covering_squares(lattice)) == pairs
    return _cached(lattice, "semimodular", compute)


def join_irreducibles(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover (the bottom is excluded)."""
    def compute():
        return tuple(x for x in range(lattice.size)
                     if x != lattice.bottom and len(lattice.covers_down[x]) == 1)
    return _cached(lattice, "ji", compute)


def meet_irreducibles(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover (the top is excluded)."""
    def compute():
        return tuple(x for x in range(lattice.size)
                     if x != lattice.top and len(lattice.covers_up[x]) == 1)
    return _cached(lattice, "mi", compute)


def _two_colouring(lattice: FiniteLattice, elems: Sequence[int]
                   ) -> dict[int, int] | None:
    """A proper 2-colouring of the incomparability graph of the elements, or
    None if it has none.  Its k-th connected component, in the order of
    elems, takes the colours 2k and 2k + 1, the first at its first member.

    The incomparability graph of a poset is perfect, so it has no triangle
    iff it is bipartite: the colouring exists iff the elements contain no
    three-element antichain (equivalently, they are a union of two chains).
    Cost: O(k^2) bitmask operations for k elements.
    """
    members = 0
    for x in elems:
        members |= 1 << x
    colour: dict[int, int] = {}
    base = 0
    for start in elems:
        if start in colour:
            continue
        colour[start] = base
        base += 2
        stack = [start]
        while stack:
            x = stack.pop()
            rest = members & ~(lattice.up[x] | lattice.down[x])
            while rest:
                low = rest & -rest
                rest ^= low
                y = low.bit_length() - 1
                if y not in colour:
                    colour[y] = colour[x] ^ 1
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return None
    return colour


def is_slim(lattice: FiniteLattice) -> bool:
    """True iff the join-irreducibles contain no three-element antichain
    (equivalently, they are a union of two chains), by one 2-colouring of
    their incomparability graph."""
    return _cached(lattice, "slim",
                   lambda: _two_colouring(lattice, join_irreducibles(lattice)) is not None)


def is_dually_slim(lattice: FiniteLattice) -> bool:
    """True iff the dual is slim: the meet-irreducibles contain no
    three-element antichain.  Decided on the lattice itself, by one
    2-colouring of their incomparability graph."""
    return _cached(lattice, "dually_slim",
                   lambda: _two_colouring(lattice, meet_irreducibles(lattice)) is not None)


def narrows(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements comparable with everything, sorted by height.

    Always contains the bottom and the top; the set is a chain, and the
    intervals between consecutive narrows are the glued-sum components.
    """
    def compute():
        full = (1 << lattice.size) - 1
        out = [x for x in range(lattice.size)
               if lattice.up[x] | lattice.down[x] == full]
        out.sort(key=lambda x: lattice.height[x])
        return tuple(out)
    return _cached(lattice, "narrows", compute)


def dual(lattice: FiniteLattice) -> FiniteLattice:
    """The lattice with the reversed order; an involution on the nose."""
    return FiniteLattice(lattice.size, [(b, a) for a, b in lattice.covers])


def covering_squares(lattice: FiniteLattice) -> frozenset[tuple[int, int, int, int]]:
    """All cover-preserving 4-element sublattices of length two.

    Returned as tuples (w, a, b, t) with w covered by a and b, both covered
    by t, and a < b.  An element covering both a and b is their join, so
    each pair of upper covers spans at most one square, and t is the one
    common upper cover of a and b if there is one.  Cost: O(sum of squared
    up-degrees) scans of two cover lists.
    """
    def compute():
        squares = set()
        covers_up = lattice.covers_up
        for w, ups in enumerate(covers_up):
            for a, b in itertools.combinations(ups, 2):
                for t in covers_up[a]:
                    if t in covers_up[b]:
                        squares.add((w, a, b, t))
        return frozenset(squares)
    return _cached(lattice, "squares", compute)


def interval_sublattice(lattice: FiniteLattice, lo: int, hi: int
                        ) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The interval [lo, hi] as a lattice of its own.

    Returns (sub, elems) where elems[k] is the original id of sub element k;
    covers restrict because anything between two interval members lies in
    the interval.
    """
    if not lattice.leq(lo, hi):
        raise ValueError(f"{lo} is not below {hi}")
    elems = tuple(lattice.interval(lo, hi))
    index = {x: k for k, x in enumerate(elems)}
    covers = [(index[a], index[b]) for a, b in lattice.covers
              if a in index and b in index]
    return FiniteLattice(len(elems), covers), elems


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
    upper covers.  Once every class holds one element of each lattice, the
    partition is equitable exactly when pairing them is an isomorphism, and
    otherwise a further sweep would split a class across the two sides, so
    one pass over the covers decides.  Cost: O(size + |covers|) per sweep.
    """
    palette: dict = {}
    lattices = (l1, l2)
    colours = [[palette.setdefault((lat.height[x], len(lat.covers_down[x]),
                                    len(lat.covers_up[x])), len(palette))
                for x in range(lat.size)] for lat in lattices]
    classes, calm, upward = 0, 0, True
    while True:
        c1, c2 = colours
        if sorted(c1) != sorted(c2):
            return None
        count = len(set(c1))
        if count == len(c1):
            # singletons are equitable iff pairing equal colours is an isomorphism
            image = dict(zip(c2, range(l2.size)))
            pairs = ((image[c1[a]], image[c1[b]]) for a, b in l1.covers)
            return (c1, c2) if all(pair in l2.covers for pair in pairs) else None
        calm = calm + 1 if count == classes else 0
        if calm == 2:
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


def _search_isomorphisms(l1: FiniteLattice, l2: FiniteLattice,
                         pinned: dict[int, int] | None = None,
                         limit: int | None = 1) -> Iterator[tuple[int, ...]]:
    """Backtracking search for order isomorphisms l1 -> l2.

    Elements are assigned in height order, so when x is placed all its lower
    covers are already mapped; matching them bijectively onto the candidate's
    lower covers is exactly cover preservation in both directions.
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


def find_isomorphism(l1: FiniteLattice, l2: FiniteLattice,
                     max_size: int = 200) -> tuple[int, ...] | None:
    """A witness order isomorphism as a tuple (image of each element), or None."""
    if max(l1.size, l2.size) > max_size:
        raise TooLarge(f"size exceeds the isomorphism cap {max_size}")
    for mapping in _search_isomorphisms(l1, l2, limit=1):
        return mapping
    return None


def is_isomorphic(l1: FiniteLattice, l2: FiniteLattice, max_size: int = 200) -> bool:
    return find_isomorphism(l1, l2, max_size=max_size) is not None


def automorphisms(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """All order automorphisms (cached on the lattice)."""
    def compute():
        return tuple(_search_isomorphisms(lattice, lattice, limit=None))
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


# -- bordered diagrams --------------------------------------------------------

class BorderedDiagram(_Frozen):
    """A lattice with a distinguished left and right maximal chain.

    Both chains must run from bottom to top through covers and together
    contain every join-irreducible element.  With that much, the chains
    intersect exactly in the narrows, and for slim semimodular lattices the
    pair plays the role of a planar diagram up to boundary similarity.
    """

    __slots__ = ("lattice", "left_chain", "right_chain")

    def __init__(self, lattice: FiniteLattice, left_chain: tuple[int, ...],
                 right_chain: tuple[int, ...]):
        for name, chain_ in (("left", left_chain), ("right", right_chain)):
            _check_maximal_chain(lattice, chain_, name)
        boundary = set(left_chain) | set(right_chain)
        missing = [x for x in join_irreducibles(lattice) if x not in boundary]
        if missing:
            raise InvalidDiagram(f"join-irreducibles {missing} not on either chain")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "left_chain", left_chain)
        object.__setattr__(self, "right_chain", right_chain)

    @property
    def n(self) -> int:
        return self.lattice.length

    def boundary(self) -> frozenset[int]:
        return frozenset(self.left_chain) | frozenset(self.right_chain)

    def reflected(self) -> "BorderedDiagram":
        return BorderedDiagram(self.lattice, self.right_chain, self.left_chain)


def _check_maximal_chain(lattice: FiniteLattice, chain_: Sequence[int], name: str) -> None:
    if not chain_ or chain_[0] != lattice.bottom or chain_[-1] != lattice.top:
        raise InvalidDiagram(f"{name} chain must run from bottom to top")
    for a, b in zip(chain_, chain_[1:]):
        if not lattice.is_cover(a, b):
            raise InvalidDiagram(f"{name} chain step ({a}, {b}) is not a cover")


# -- serialization -------------------------------------------------------------

def lattice_to_json(lattice: FiniteLattice) -> dict:
    return {"size": lattice.size, "covers": sorted(map(list, lattice.covers))}


def _integers(value, what: str) -> tuple[int, ...]:
    """value, a JSON array of integers, as a tuple; anything else (a string,
    a float or a bool among the entries) raises ValueError and is never
    converted."""
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ValueError(f"malformed {what}: {value!r:.80} is not a list of integers")
    return tuple(value)


def lattice_from_json(obj: dict) -> FiniteLattice:
    """The lattice of a parsed JSON object {"size": ..., "covers": ...}.

    The size must be an integer and the covers a list of pairs of integers.
    Raises ValueError on a malformed object and TooLarge, before anything of
    that size is allocated, on a size above JSON_SIZE_CAP.
    """
    try:
        size = obj["size"]
        pairs = obj["covers"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lattice object: {exc}") from exc
    if isinstance(size, bool) or not isinstance(size, int):
        raise ValueError(f"malformed lattice object: size {size!r} is not an integer")
    if size > JSON_SIZE_CAP:
        raise TooLarge(f"lattice size {size} exceeds the cap {JSON_SIZE_CAP}")
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"malformed lattice object: covers {pairs!r:.80} is not a list")
    covers = []
    for pair in pairs:
        cover = _integers(pair, "cover")
        if len(cover) != 2:
            raise ValueError(f"malformed cover: {pair!r:.80} is not a pair")
        covers.append(cover)
    return FiniteLattice(size, covers)


def diagram_to_json(diagram: BorderedDiagram) -> dict:
    out = lattice_to_json(diagram.lattice)
    out["left_chain"] = list(diagram.left_chain)
    out["right_chain"] = list(diagram.right_chain)
    return out


def diagram_from_json(obj: dict) -> BorderedDiagram:
    """The bordered diagram of a parsed JSON object: a lattice object (see
    lattice_from_json) with "left_chain" and "right_chain" lists of integers."""
    lattice = lattice_from_json(obj)
    try:
        left, right = obj["left_chain"], obj["right_chain"]
    except KeyError as exc:
        raise ValueError(f"malformed diagram object: {exc}") from exc
    return BorderedDiagram(lattice, _integers(left, "left chain"),
                           _integers(right, "right chain"))


def to_dot(lattice: FiniteLattice, labels: dict[int, str] | None = None,
           name: str = "lattice") -> str:
    """Graphviz source: one node per element ranked by height, one edge per cover."""
    if labels is None:
        labels = {}
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for x in range(lattice.size):
        lines.append(f'  n{x} [label="{labels.get(x, x)}"];')
    by_height: dict[int, list[int]] = {}
    for x in range(lattice.size):
        by_height.setdefault(lattice.height[x], []).append(x)
    for h in sorted(by_height):
        row = "; ".join(f"n{x}" for x in sorted(by_height[h]))
        lines.append(f"  {{ rank=same; {row}; }}")
    for a, b in sorted(lattice.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
