"""Finite lattices given by their cover relations.

Conventions:
    - Elements are the integers ``0..size-1``.
    - ``covers`` holds ordered pairs ``(lower, upper)`` and must be the
      transitive reduction of the reachability order (a Hasse diagram).
      A lattice keeps them as ascending upper cover lists, ``covers_up``,
      which are its identity: equality, hashing, pickling and the repr.
    - The reachability order must have a least and a greatest element and
      binary joins and meets everywhere, otherwise construction fails.
    - ``up[x]`` / ``down[x]`` are bitmask encodings of the up-set and
      down-set of ``x``; order queries are bit tests on them, and join and
      meet are walked to through the covers on demand.
    - A lattice holds O(size + |covers|) data, the cover lists, heights and
      a linear extension, until a cone is first read; the two cones then
      take O(size^2) bits.

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

from slimlat.perm import SIZE_CAP, TooLarge, _Frozen

# The largest lattice size lattice_from_json accepts.  Validation costs
# O(size^2) bits of masks, so the size is checked before anything is
# allocated: a 69-byte file claiming 20,000 elements and no covers used to
# reach 125 MB of peak RSS before it was refused.  The cap admits every build
# output: the largest at the permutation size cap is the reversal's, with
# n(n + 1)/2 + 1 elements, 8,257 at n = 128, and extract on it takes 0.11 s
# and 36 MB of peak RSS on a 2-vCPU VM.  Lattices far from slim cost more:
# the bound check makes k(k - 1)/2 tests for an element with k upper covers,
# so export-dot of M_8255 at the cap takes 8.3 s.  extract refuses M_8255's
# diagram in 0.1 s, as diagram_from_json checks the chains first.
JSON_SIZE_CAP = SIZE_CAP * (SIZE_CAP + 1) // 2 + 1


class Cyclic(ValueError):
    """The cover relation has a directed cycle."""


class NotReduced(ValueError):
    """The cover relation contains a transitive (redundant) edge."""


class NotALattice(ValueError):
    """The reachability order is not a lattice."""


class CoverOutOfRange(ValueError, IndexError):
    """A cover names an element outside 0..size-1."""


class InvalidDiagram(ValueError):
    """Chains do not form a valid bordered diagram of the lattice."""


class FiniteLattice:
    """An immutable finite lattice whose order data is built on demand.

    _fill builds every lattice from its upper covers and a linear extension:
    the lower covers, the heights and the bounds cost O(size + |covers|)
    time and space.  The two cones, up and down, cost O(size + |covers|)
    operations on size-bit masks and O(size^2) bits; the first read of
    either property builds both, so a lattice that is only stored, compared
    by its cover lists or serialized never builds them.  Join and meet
    answer a comparable pair at once, and otherwise walk through the covers
    to the element whose cone is the intersection of two cones (see _walk).

    The constructor validates its input: the covers must be the transitive
    reduction of a bounded order, and one cover test or walk per pair of
    upper covers of an element checks that every pair has a join and a meet (see
    _check_bounds).  _from_covers_up builds the lattices known to be
    lattices by construction without that check.
    """

    __slots__ = ("size", "covers_up", "covers_down", "_up", "_down",
                 "height", "bottom", "top", "_order", "_cache")

    def __init__(self, size: int, covers: Iterable[tuple[int, int]]):
        self._fill_bounded_order(size, covers)
        self._check_bounds()

    @staticmethod
    def _from_covers_up(covers_up: Sequence[Sequence[int]],
                        order: Sequence[int]) -> "FiniteLattice":
        """A lattice its caller already knows to be one, without validation.

        Every caller must guarantee what __init__ would check: covers_up[x]
        lists the upper covers of x in ascending order, the covers are the
        transitive reduction of a lattice order, and order is a linear
        extension of it, so it starts at the bottom and ends at the top.
        grid._lattice_from_tops builds the closed elements of a closure
        operator, groups the intersections of two chains of divisors, and
        dual, chain and iso.interval_sublattice take lattices to lattices; all
        are lattices by construction.  Cost: that of _fill; the cones wait
        for their first read.
        """
        self = FiniteLattice.__new__(FiniteLattice)
        self._fill(covers_up, order)
        return self

    # -- construction internals -------------------------------------------

    def _fill_bounded_order(self, size: int, covers: Iterable[tuple[int, int]]) -> None:
        """Fills self from untrusted covers and checks all that __init__
        checks but the joins and meets: the covers name elements, are
        acyclic and are the transitive reduction of an order with a least
        and a greatest element.  diagram_from_json checks a diagram's chains
        between this and _check_bounds, which may cost far more."""
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

    def _fill(self, covers_up: Sequence[Sequence[int]], order: Sequence[int]) -> None:
        """Sets the linear data from the ascending upper cover lists and a
        linear extension: the lower cover lists, the heights, order[0] as
        the bottom and order[-1] as the top, but not the cones."""
        self._up = self._down = None
        self.size = size = len(order)
        self.covers_up = covers_up = tuple(map(tuple, covers_up))
        downs: list[list[int]] = [[] for _ in range(size)]
        for x, ys in enumerate(covers_up):
            for y in ys:
                downs[y].append(x)
        self.covers_down = tuple(map(tuple, downs))
        height = [0] * size
        for x in order:
            h = height[x] + 1
            for y in covers_up[x]:
                if height[y] < h:
                    height[y] = h
        self.height = tuple(height)
        self.bottom = order[0]
        self.top = order[-1]
        self._order = tuple(order)
        self._cache: dict = {}

    def _fill_cones(self) -> None:
        """Sets the two cones together: the up-set and down-set masks, one
        pass along the linear extension each.  Cost: O(size + |covers|)
        operations on size-bit masks, O(size^2) bits."""
        order, covers_up, covers_down = self._order, self.covers_up, self.covers_down
        up, down = [0] * self.size, [0] * self.size
        for x in order:
            mask = 1 << x
            for y in covers_down[x]:
                mask |= down[y]
            down[x] = mask
        for x in reversed(order):
            mask = 1 << x
            for y in covers_up[x]:
                mask |= up[y]
            up[x] = mask
        self._up = tuple(up)
        self._down = tuple(down)

    def _check_reduced(self) -> None:
        up, down = self.up, self.down
        for a, ups in enumerate(self.covers_up):
            for b in ups:
                if up[a] & down[b] != (1 << a) | (1 << b):
                    raise NotReduced(f"cover ({a}, {b}) is a transitive edge")

    def _check_bounds(self) -> None:
        """Raises NotALattice unless every pair has a join and a meet, given
        a bounded order.  It tests the pairs of upper covers of each element
        only, and names the first of them without a join.

        A pair a, b has a join iff _walk from a reaches the element whose
        up-set is their common upper bounds.  The join of two upper covers
        of one element covers both in a semimodular lattice, so an upper
        cover of a is tried first and the walk runs only when none is the
        join.  The cover pairs decide every pair in a finite poset with a
        least element:
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
        meet of x and y is the join of their common lower bounds.  Cost:
        O(sum of squared up-degrees) size-bit mask operations when the
        lattice is semimodular, at most size for a slim one; the walk adds
        O(height * up-degree) of them for each pair it runs on.
        """
        covers_up, up = self.covers_up, self.up
        for ups in covers_up:
            if len(ups) > 1:
                for a, b in itertools.combinations(ups, 2):
                    common = up[a] & up[b]
                    for t in covers_up[a]:
                        if up[t] == common:
                            break
                    else:
                        if _walk(a, common, covers_up, up) < 0:
                            raise NotALattice(f"elements {a} and {b} have no join")

    # -- queries ------------------------------------------------------------

    @property
    def up(self) -> tuple[int, ...]:
        """The up-set masks: bit y of up[x] is set iff x <= y."""
        if self._up is None:
            self._fill_cones()
        return self._up

    @property
    def down(self) -> tuple[int, ...]:
        """The down-set masks: bit y of down[x] is set iff y <= x."""
        if self._down is None:
            self._fill_cones()
        return self._down

    def _check_ids(self, *ids: int) -> None:
        """Raises IndexError unless every id is an element, so that a public
        query never reads a negative id from the end; internal readers index
        directly."""
        for x in ids:
            if not 0 <= x < self.size:
                raise IndexError(f"element {x} outside 0..{self.size - 1}")

    def leq(self, x: int, y: int) -> bool:
        self._check_ids(x, y)
        return bool(self.down[y] >> x & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def join(self, x: int, y: int) -> int:
        self._check_ids(x, y)
        up = self.up
        common = up[x] & up[y]
        return y if common == up[y] else _walk(x, common, self.covers_up, up)

    def meet(self, x: int, y: int) -> int:
        self._check_ids(x, y)
        down = self.down
        common = down[x] & down[y]
        return y if common == down[y] else _walk(x, common, self.covers_down, down)

    @property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The cover pairs (lower, upper), built on each read."""
        return frozenset(self._pairs())

    def is_cover(self, x: int, y: int) -> bool:
        self._check_ids(x, y)
        return y in self.covers_up[x]

    def upper_covers(self, x: int) -> tuple[int, ...]:
        self._check_ids(x)
        return self.covers_up[x]

    @property
    def length(self) -> int:
        return self.height[self.top]

    def elements(self) -> range:
        return range(self.size)

    def interval(self, lo: int, hi: int) -> list[int]:
        """Elements of [lo, hi], ascending by (height, id)."""
        self._check_ids(lo, hi)
        mask = self.up[lo] & self.down[hi]
        out = []
        while mask:
            bit = mask & -mask
            out.append(bit.bit_length() - 1)
            mask ^= bit
        out.sort(key=lambda x: (self.height[x], x))
        return out

    # -- identity -----------------------------------------------------------

    def _pairs(self) -> list[tuple[int, int]]:
        # ascending cover lists walked by element give the pairs in sorted order
        return [(x, y) for x, ys in enumerate(self.covers_up) for y in ys]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteLattice) and self.covers_up == other.covers_up

    def __hash__(self) -> int:
        return hash(self.covers_up)

    def __reduce__(self):
        # through the validating constructor, as _Frozen values are rebuilt
        return FiniteLattice, (self.size, self._pairs())

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size}, covers={self._pairs()})"


def _walk(x: int, common: int, covers: Sequence[Sequence[int]], cone: Sequence[int]) -> int:
    """The element whose cone is common, or -1 if there is none, walked to
    from x, whose cone must contain common, through covers whose cones
    contain common.  With the upper covers and up-sets and common the
    common upper bounds of x and y, that element is x v y; with the lower
    covers and down-sets, it is x ^ y.

    If that element z exists, it lies in common, so in the cone of every x
    on the walk; an x other than z then has a cover t with z in its cone,
    so that the cone of t contains that of z, which is common.  Cost:
    O(height * degree) size-bit mask operations."""
    while cone[x] != common:
        for t in covers[x]:
            if cone[t] & common == common:
                x = t
                break
        else:
            return -1
    return x


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
    # only for results that production reads again on the same lattice: a
    # result computed once per lattice is not worth the memory it would hold
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
    return tuple(x for x, above in enumerate(lattice.covers_up) if len(above) == 1)


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
    return _two_colouring(lattice, meet_irreducibles(lattice)) is not None


def narrows(lattice: FiniteLattice) -> tuple[int, ...]:
    """Elements comparable with everything, sorted by height.

    Always contains the bottom and the top; the set is a chain, and the
    intervals between consecutive narrows are the glued-sum components.
    """
    def compute():
        size = lattice.size
        full = (1 << size) - 1
        out = [x for x, u, d in zip(range(size), lattice.up, lattice.down) if u | d == full]
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
        _check_chains(lattice, left_chain, right_chain)
        _Frozen.__init__(self, lattice, left_chain, right_chain)

    @classmethod
    def _trusted(cls, lattice: FiniteLattice, left_chain: tuple[int, ...],
                 right_chain: tuple[int, ...]) -> "BorderedDiagram":
        """A diagram its caller already knows to be one, without the checks:
        both chains run from bottom to top through covers and together hold
        every join-irreducible, as for the chains extract._assemble walks
        from covers, the grid boundary images grid.phi0 takes, and the
        chains diagram_from_json has checked."""
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


def _check_chains(lattice: FiniteLattice, left_chain: Sequence[int],
                  right_chain: Sequence[int]) -> None:
    """Raises InvalidDiagram unless both chains run from bottom to top
    through covers and together hold every join-irreducible.  Reads the
    cover lists only, so it needs just a bounded order: O(|covers|)."""
    covers_up = lattice.covers_up
    for name, chain_ in (("left", left_chain), ("right", right_chain)):
        if not chain_ or chain_[0] != lattice.bottom or chain_[-1] != lattice.top:
            raise InvalidDiagram(f"{name} chain must run from bottom to top")
        # each a is the bottom or a checked upper cover, so it is an element
        for a, b in zip(chain_, chain_[1:]):
            if b not in covers_up[a]:
                raise InvalidDiagram(f"{name} chain step ({a}, {b}) is not a cover")
    boundary = set(left_chain) | set(right_chain)
    missing = [x for x in join_irreducibles(lattice) if x not in boundary]
    if missing:
        # the first ten ids: M_k has k - 2 of them, for a k up to the size cap
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise InvalidDiagram(f"join-irreducibles {missing[:10]}{more} not on either chain")


# -- serialization -------------------------------------------------------------

def lattice_to_json(lattice: FiniteLattice) -> dict:
    return {"size": lattice.size, "covers": list(map(list, lattice._pairs()))}


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
    return FiniteLattice(*_lattice_fields(obj))


def _lattice_fields(obj: dict) -> tuple[int, list[tuple[int, ...]]]:
    """The size and the cover pairs of a lattice object, unvalidated as a
    lattice; raises as lattice_from_json does on a malformed object."""
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
    return size, covers


def diagram_to_json(diagram: BorderedDiagram) -> dict:
    out = lattice_to_json(diagram.lattice)
    out["left_chain"] = list(diagram.left_chain)
    out["right_chain"] = list(diagram.right_chain)
    return out


def diagram_from_json(obj: dict) -> BorderedDiagram:
    """The bordered diagram of a parsed JSON object: a lattice object (see
    lattice_from_json) with "left_chain" and "right_chain" lists of integers.

    The chains are checked against the bounded order before its joins: that
    costs O(|covers|), while the join check costs O(k^2) for an element with
    k upper covers, so a lattice such as M_k, whose k atoms cannot lie on
    two chains, is refused as InvalidDiagram at once.
    """
    lattice = FiniteLattice.__new__(FiniteLattice)
    lattice._fill_bounded_order(*_lattice_fields(obj))
    try:
        left, right = obj["left_chain"], obj["right_chain"]
    except KeyError as exc:
        raise ValueError(f"malformed diagram object: {exc}") from exc
    left, right = _integers(left, "left chain"), _integers(right, "right chain")
    _check_chains(lattice, left, right)
    lattice._check_bounds()
    return BorderedDiagram._trusted(lattice, left, right)


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
    for a, ups in enumerate(lattice.covers_up):
        for b in ups:
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
