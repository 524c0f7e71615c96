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
(semimodularity, slimness, narrows, covering squares) and the
:class:`BorderedDiagram` wrapper that fixes a left and a right maximal chain
of a lattice, the combinatorial stand-in for a planar diagram considered up
to boundary similarity.  The isomorphism search, boundary similarity and
interval sublattices live in :mod:`slimlat.iso`; their public names resolve
here on first use (see __getattr__).
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from slimlat.perm import _Frozen

# The largest lattice size lattice_from_json accepts.  Construction costs
# O(size^2) bits of masks, so the size is checked before anything is
# allocated: a 69-byte file claiming 20,000 elements and no covers used to
# reach 125 MB of peak RSS before it was refused.  The cap admits every build
# output: the largest at the permutation size cap 128 is the reversal's,
# 128 * 129 / 2 + 1 = 8,257 elements, and extract on it takes 0.36 s and
# 69 MB of peak RSS on a 2-vCPU VM.  Lattices far from slim cost more: the
# bound check makes k(k - 1)/2 tests for an element with k upper covers, so
# M_8255 at the cap takes 54 s.
JSON_SIZE_CAP = 8257


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

    _fill builds every lattice from its upper covers and a linear extension:
    the up-set and down-set masks, the heights and the bounds cost
    O(size + |covers|) operations on size-bit masks, and take O(size^2)
    bits.  Join and meet are computed on demand: a comparable pair answers
    from the order, and an incomparable one with one lowest or highest set
    bit of the intersection of two cones whose bits are numbered by the
    linear extension.

    The constructor validates its input: the covers must be the transitive
    reduction of a bounded order, and one such bit search per pair of upper
    covers of an element checks that every pair has a join and a meet (see
    _check_bounds).  _from_covers_up builds the lattices known to be
    lattices by construction without that check.
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
        ups: list[list[int]] = [[] for _ in range(size)]
        indeg = [0] * size
        for a, b in sorted(cover_set):  # fills every list in ascending order
            ups[a].append(b)
            indeg[b] += 1
        order = []
        stack = [x for x in range(size) if indeg[x] == 0]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in ups[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    stack.append(y)
        if len(order) != size:
            raise Cyclic("cover relation has a cycle")
        self._fill(ups, order)
        self._check_reduced()
        # a least element is the only source, so every linear extension
        # starts with it; dually for the greatest
        full = (1 << size) - 1
        if self.up[self.bottom] != full or self.down[self.top] != full:
            raise NotALattice("order must have a least and a greatest element")
        self._check_bounds()

    @classmethod
    def _from_covers_up(cls, covers_up: Sequence[Sequence[int]],
                        order: Sequence[int]) -> "FiniteLattice":
        """A lattice its caller already knows to be one, without validation.

        Every caller must guarantee what __init__ would check: covers_up[x]
        lists the upper covers of x in ascending order, the covers are the
        transitive reduction of a lattice order, and order is a linear
        extension of it, so it starts at the bottom and ends at the top.
        grid._lattice_from_tops builds the closed elements of a closure
        operator, groups the intersections of two chains of divisors, and
        dual, chain and iso.interval_sublattice take lattices to lattices; all
        are lattices by construction.  Cost: that of _fill.
        """
        self = cls.__new__(cls)
        self._fill(covers_up, order)
        return self

    # -- construction internals -------------------------------------------

    def _fill(self, covers_up: Sequence[Sequence[int]], order: Sequence[int]) -> None:
        """Sets every attribute from the ascending upper cover lists and a
        linear extension: the cover set and lower cover lists, the cones by
        id and by position in order, the heights, order[0] as the bottom and
        order[-1] as the top."""
        self.size = size = len(order)
        self.covers_up = covers_up = tuple(map(tuple, covers_up))
        downs: list[list[int]] = [[] for _ in range(size)]
        covers = []
        for x, ys in enumerate(covers_up):
            for y in ys:
                downs[y].append(x)
                covers.append((x, y))
        self.covers = frozenset(covers)
        self.covers_down = tuple(map(tuple, downs))
        up, down, height, up_r, down_r = ([0] * size for _ in range(5))
        for k, x in enumerate(order):
            mask, ranked, h = 1 << x, 1 << k, 0
            for y in downs[x]:
                mask |= down[y]
                ranked |= down_r[y]
                if height[y] >= h:
                    h = height[y] + 1
            down[x], down_r[x], height[x] = mask, ranked, h
        for k in range(size - 1, -1, -1):
            x = order[k]
            mask, ranked = 1 << x, 1 << k
            for y in covers_up[x]:
                mask |= up[y]
                ranked |= up_r[y]
            up[x], up_r[x] = mask, ranked
        self.up = tuple(up)
        self.down = tuple(down)
        self.height = tuple(height)
        self.bottom = order[0]
        self.top = order[-1]
        self._order = tuple(order)
        self._up_ranked = tuple(up_r)
        self._down_ranked = tuple(down_r)
        self._cache: dict = {}

    def _check_reduced(self) -> None:
        for a, b in self.covers:
            if self.up[a] & self.down[b] != (1 << a) | (1 << b):
                raise NotReduced(f"cover ({a}, {b}) is a transitive edge")

    def _check_bounds(self) -> None:
        """Raises NotALattice unless every pair has a join and a meet, given
        a bounded order.  It tests the pairs of upper covers of each element
        only, and runs _scan_bounds, which names the first pair without a
        join or a meet, when one of them has no join.

        A pair has a join iff the first of its common upper bounds in the
        linear extension has exactly the common upper bounds above it.  The
        cover pairs decide every pair in a finite poset with a least
        element:
          - Suppose some pair x, y has no join.  Among such pairs take one
            with a common lower bound z of the greatest height h.
          - Take upper covers x1 <= x and y1 <= y of z.  They are distinct,
            or x1 would be a common lower bound of height h + 1.
          - w = x1 v y1 exists by the test.
          - u = x v w exists, since x and w share x1, of height h + 1 > h.
            For the same reason v = u v y exists, since u and y share y1.
          - Every common upper bound of x and y lies above x1, y1, w, u and
            v in turn, and v lies above x and y.  So v = x v y, a
            contradiction.
        Meets follow: in a finite join-semilattice with a least element the
        meet of x and y is the join of their common lower bounds.  A failing
        cover pair has no join, so the scan always raises.  Cost: O(sum of
        squared up-degrees) size-bit mask operations, at most size for a
        slim lattice.
        """
        order, up = self._order, self._up_ranked
        for ups in self.covers_up:
            if len(ups) > 1:
                for a, b in itertools.combinations(ups, 2):
                    common = up[a] & up[b]
                    if up[order[(common & -common).bit_length() - 1]] != common:
                        self._scan_bounds()

    def _scan_bounds(self) -> None:
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
    return FiniteLattice._from_covers_up([(i + 1,) for i in range(n)] + [()], range(n + 1))


def _cached(lattice: FiniteLattice, key: str, compute):
    cache = lattice._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def is_semimodular(lattice: FiniteLattice) -> bool:
    """Upper semimodularity (a covered by b implies a∨c is b∨c or covered by
    it), decided by Birkhoff's condition: any two distinct upper covers of
    an element are both covered by their join.  In a lattice of finite
    length the two are equivalent.  The condition holds exactly when every
    such pair spans one of the covering squares, so this counts them.
    Cost: that of covering_squares."""
    def compute():
        pairs = sum(k * (k - 1) for k in map(len, lattice.covers_up)) // 2
        return len(covering_squares(lattice)) == pairs
    return _cached(lattice, "semimodular", compute)


def join_irreducibles(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover (the bottom has none)."""
    return _cached(lattice, "ji", lambda: tuple(
        x for x, below in enumerate(lattice.covers_down) if len(below) == 1))


def meet_irreducibles(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements with exactly one upper cover (the top has none)."""
    return _cached(lattice, "mi", lambda: tuple(
        x for x, above in enumerate(lattice.covers_up) if len(above) == 1))


def _two_colouring(lattice: FiniteLattice, elems: Sequence[int]
                   ) -> dict[int, int] | None:
    """A proper 2-colouring of the incomparability graph of the elements, or
    None if it has none.  Its k-th connected component, in the order of
    elems, takes the colours 2k and 2k + 1, the first at its first member.

    The incomparability graph of a poset is perfect, so it has no triangle
    iff it is bipartite: the colouring exists iff the elements contain no
    three-element antichain (equivalently, they are a union of two chains).
    A coloured neighbour lies in the element's component, so it clashes iff
    its colour has the same parity.  Cost: O(k) size-bit mask operations.
    """
    up, down = lattice.up, lattice.down
    members = 0
    for x in elems:
        members |= 1 << x
    colour: dict[int, int] = {}
    parity = [0, 0]  # the coloured elements, by the parity of their colour
    base = 0
    for start in elems:
        if start in colour:
            continue
        colour[start] = base
        parity[0] |= 1 << start
        base += 2
        stack = [start]
        while stack:
            x = stack.pop()
            c = colour[x]
            rest = members & ~(up[x] | down[x])
            if rest & parity[c & 1]:
                return None
            fresh = rest & ~(parity[0] | parity[1])
            parity[c & 1 ^ 1] |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                y = low.bit_length() - 1
                colour[y] = c ^ 1
                stack.append(y)
    return colour


def _join_irreducible_colouring(lattice: FiniteLattice) -> dict[int, int] | None:
    """_two_colouring of the join-irreducibles in ascending order (cached)."""
    return _cached(lattice, "ji_colouring",
                   lambda: _two_colouring(lattice, join_irreducibles(lattice)))


def is_slim(lattice: FiniteLattice) -> bool:
    """True iff the join-irreducibles contain no three-element antichain
    (equivalently, they are a union of two chains), by one 2-colouring of
    their incomparability graph.  The colouring is cached on the lattice,
    and extract reads each glued-sum component's boundary chains off it."""
    return _join_irreducible_colouring(lattice) is not None


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
    return FiniteLattice._from_covers_up(lattice.covers_down, lattice._order[::-1])


def covering_squares(lattice: FiniteLattice) -> frozenset[tuple[int, int, int, int]]:
    """All cover-preserving 4-element sublattices of length two.

    Returned as tuples (w, a, b, t) with w covered by a and b, both covered
    by t, and a < b.  An element covering both a and b is their join, so
    each pair of upper covers spans at most one square, and t is the one
    common upper cover of a and b if there is one.  Cost: O(sum of squared
    up-degrees) scans of two cover lists.
    """
    covers_up = lattice.covers_up
    return _cached(lattice, "squares", lambda: frozenset(
        (w, a, b, t) for w, ups in enumerate(covers_up) if len(ups) > 1
        for a, b in itertools.combinations(ups, 2) for t in covers_up[a] if t in covers_up[b]))


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
        _Frozen.__init__(self, lattice, left_chain, right_chain)

    @classmethod
    def _trusted(cls, lattice: FiniteLattice, left_chain: tuple[int, ...],
                 right_chain: tuple[int, ...]) -> "BorderedDiagram":
        """A diagram its caller already knows to be one, without the checks:
        both chains run from bottom to top through covers and together hold
        every join-irreducible, as for the chains extract._assemble walks
        from covers and the grid boundary images grid.phi0 takes."""
        self = cls.__new__(cls)
        _Frozen.__init__(self, lattice, left_chain, right_chain)
        return self

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
    covers = lattice.covers
    for a, b in zip(chain_, chain_[1:]):
        if (a, b) not in covers:
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


# -- names from slimlat.iso ------------------------------------------------------

# The isomorphism section's public names, which resolve from slimlat.iso on
# first use as the package's exports do, so that build and extract, which
# never compare lattices, never compile it.
_ISO_NAMES = frozenset(("ISOMORPHISM_NODE_CAP", "AUTOMORPHISMS_CAP", "interval_sublattice",
                        "find_isomorphism", "is_isomorphic", "automorphisms",
                        "boundarily_similar"))


def __getattr__(name: str):
    if name not in _ISO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from slimlat import iso
    value = globals()[name] = getattr(iso, name)
    return value
