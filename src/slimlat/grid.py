"""The square grid, its join-congruences, and the quotient construction.

The grid of side n is the direct product of two (n+1)-chains; the element
(i, j) is the join c_i ∨ d_j of the i-th element of the lower-left boundary
chain with the j-th element of the lower-right one, and joins and meets are
coordinatewise maxima and minima.  A join-congruence is an equivalence
compatible with joins; its blocks are automatically convex and join-closed,
so each block carries a unique top element.

For a permutation pi, collapsing for every i the upper edges of the 4-cell
with top (i, pi(i)) generates a cover-preserving join-congruence whose
quotient is a slim semimodular lattice of length n; ``phi0`` returns that
quotient together with the images of the two grid boundary chains.  The
collapsed prime intervals admit a closed form (an edge in the c-direction
with top (i, j) is collapsed iff pi(i) <= j, and dually), and ``phi0``
builds its congruence from that predicate once per call, keeping none:
``_phi0_parts`` hands the labels and block tops to ``build``'s layout and
to a ``verify`` bundle, which regenerates it from its source cells.  The
closure from generating pairs backs ``congruence_closure``, ``jcong_cell``,
``regenerate`` and ``beta_from_perm``, an independent route: it never reads
the edge predicate, and finds the closed elements of the congruence (those
that no generating pair separates) with one bitmask per pair, then maps
each element to the least closed element above it.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from slimlat.lattice import BorderedDiagram, FiniteLattice
from slimlat.perm import LengthMismatch, Permutation, _Frozen, _require_permutation

Coord = tuple[int, int]


class CellOutOfRange(ValueError):
    """A 4-cell index lies outside 1..n."""


class NotAPrimeInterval(ValueError):
    """An edge argument is not a covering pair of the grid."""


class HypothesisViolated(ValueError):
    """A congruence does not satisfy the preconditions of regeneration."""


GridCell = namedtuple("GridCell", "i j")
GridCell.__doc__ = "The 4-cell whose top is the grid element (i, j), 1-based."


class Grid(_Frozen):
    """The square grid of side n (length 2n as a lattice)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if type(n) is not int:
            raise ValueError(f"side {n!r} is not an integer")
        if n < 0:
            raise ValueError("side must be nonnegative")
        object.__setattr__(self, "n", n)

    @property
    def side(self) -> int:
        return self.n + 1

    @property
    def size(self) -> int:
        return self.side * self.side

    def index(self, coord: Coord) -> int:
        i, j = coord
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"{coord} outside the grid of side {self.n}")
        return i * self.side + j

    def coords(self, e: int) -> Coord:
        if not 0 <= e < self.size:
            raise IndexError(f"element {e} outside the grid of side {self.n}")
        return divmod(e, self.side)

    def join(self, x: Coord, y: Coord) -> Coord:
        for coord in (x, y):  # raises IndexError outside the grid
            self.index(coord)
        return (max(x[0], y[0]), max(x[1], y[1]))

    def meet(self, x: Coord, y: Coord) -> Coord:
        for coord in (x, y):
            self.index(coord)
        return (min(x[0], y[0]), min(x[1], y[1]))

    def elements(self) -> Iterator[Coord]:
        return itertools.product(range(self.side), repeat=2)

    def prime_intervals(self) -> Iterator[tuple[Coord, Coord]]:
        """All covering pairs: c-direction ((i-1,j),(i,j)), then d-direction."""
        for i in range(1, self.n + 1):
            for j in range(self.n + 1):
                yield ((i - 1, j), (i, j))
        for i in range(self.n + 1):
            for j in range(1, self.n + 1):
                yield ((i, j - 1), (i, j))

    def cells(self) -> Iterator[GridCell]:
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                yield GridCell(i, j)


class GridCongruence(_Frozen):
    """A partition of the grid elements, normally a join-congruence.

    Labels are canonical: blocks are numbered by first occurrence when
    scanning flat indices upward, so equal congruences compare equal.
    ``from_labels(..., check=False)`` admits raw equivalences, which the
    forbidden-cell detector must be able to inspect.
    """

    __slots__ = ("n", "labels")

    @property
    def grid(self) -> Grid:
        return Grid(self.n)

    @property
    def num_blocks(self) -> int:
        return max(self.labels) + 1

    def label_of(self, coord: Coord) -> int:
        return self.labels[Grid(self.n).index(coord)]

    def collapses(self, x: Coord, y: Coord) -> bool:
        g = Grid(self.n)
        return self.labels[g.index(x)] == self.labels[g.index(y)]

    def blocks(self) -> tuple[tuple[Coord, ...], ...]:
        out: list[list[Coord]] = [[] for _ in range(self.num_blocks)]
        side = self.n + 1
        for e, lab in enumerate(self.labels):
            out[lab].append(divmod(e, side))
        return tuple(tuple(b) for b in out)

    def block_tops(self) -> tuple[Coord, ...]:
        """The coordinatewise maximum of each block; a member whenever the
        partition is join-compatible."""
        return tuple(zip(*_top_coordinates(self.n, self.labels)))

    def generator_pairs(self) -> list[tuple[Coord, Coord]]:
        """Pairs spanning every block (first member to each other member)."""
        firsts: dict[int, Coord] = {}
        pairs = []
        side = self.n + 1
        for e, lab in enumerate(self.labels):
            coord = divmod(e, side)
            if lab in firsts:
                pairs.append((firsts[lab], coord))
            else:
                firsts[lab] = coord
        return pairs

    def is_join_compatible(self) -> bool:
        """True iff the partition is a join-congruence, by the O(n^2) test
        that quotient makes."""
        try:
            _join_congruence_tops(self.n, self.labels)
        except ValueError:
            return False
        return True

    @classmethod
    def identity(cls, n: int) -> "GridCongruence":
        return cls(n, tuple(range(Grid(n).size)))

    @classmethod
    def from_labels(cls, n: int, labels: Iterable[int], check: bool = True
                    ) -> "GridCongruence":
        raw, size = list(labels), Grid(n).size
        if len(raw) != size:
            raise ValueError(f"expected {size} labels, got {len(raw)}")
        canon: dict[int, int] = {}
        result = cls(n, tuple([canon.setdefault(lab, len(canon)) for lab in raw]))
        if check and not result.is_join_compatible():
            raise ValueError("partition is not join-compatible")
        return result


def _top_coordinates(n: int, labels: Sequence[int]) -> tuple[list[int], list[int]]:
    """The largest row and the largest column of each label's members, in
    one pass over the flat indices (-1 for a label with no member)."""
    side = n + 1
    top_i = [-1] * (max(labels) + 1)
    top_j = top_i[:]
    i = j = 0
    for lab in labels:
        top_i[lab] = i  # rows only grow along the flat order
        if j > top_j[lab]:
            top_j[lab] = j
        j += 1
        if j == side:
            i += 1
            j = 0
    return top_i, top_j


# -- constructors ---------------------------------------------------------------

def _closure_labels(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Canonical labels of the join-congruence generated by pairs of flat
    indices e = i*(n+1) + j.

    A join-congruence is the kernel of a closure operator, and the smallest
    one containing the pairs (a, b) has as closed elements exactly the c
    with a <= c <=> b <= c for every pair: these c are meet-closed and
    contain the top, and every closed set of a congruence holding the pairs
    is among them.  On the grid the up-set of (i, j) is a rectangle of bits,
    so one XOR per pair marks the elements that separate it.  The least
    closed element above e = (i, j) is the meet of the closed elements above
    it, so its row is the least row r >= i with a closed element in a column
    >= j, and its column the least column >= j with a closed element in a
    row >= i.  A downward pass over the rows keeps both for every column:
    the first by one slice per row, the second as the closed columns seen so
    far grow, one slice per new column.  Two elements share a block iff they
    share that closure.  Cost: O(|pairs| + (n+1)^2) big-int operations.
    """
    side = n + 1
    size = side * side
    rows = ((1 << size) - 1) // ((1 << side) - 1)  # bit (i, 0) of every row i
    full = (1 << side) - 1
    separating = 0
    for a, b in pairs:
        # the rectangles above a and b, plus bits past the grid that are never read
        ai, aj = divmod(a, side)
        bi, bj = divmod(b, side)
        separating |= ((full >> aj << aj) * rows << ai * side
                       ^ (full >> bj << bj) * rows << bi * side)
    closed = ~separating
    keys = [0] * size  # flat index of the least closed element above e
    # by column j: the flat index of that least row's first element, and
    # that least column; the top is closed, so the top row sets every entry
    row_at = [0] * side
    col_at = [0] * side
    cols = 0  # the columns with a closed element in the rows passed
    for e in range(n * side, -1, -side):
        row = closed >> e & full
        hi = row.bit_length()
        row_at[:hi] = [e] * hi
        new = row & ~cols
        cols |= row
        while new:
            low = new & -new
            new ^= low
            c = low.bit_length()
            below = (cols & low - 1).bit_length()  # past the closed column before it
            col_at[below:c] = [c - 1] * (c - below)
        keys[e:e + side] = map(operator.add, row_at, col_at)
    canon: dict[int, int] = {}
    return tuple([canon.setdefault(key, len(canon)) for key in keys])


def congruence_closure(grid: Grid, pairs: Iterable[tuple[Coord, Coord]]
                       ) -> GridCongruence:
    """Smallest join-congruence containing the given pairs."""
    n = grid.n
    side = n + 1
    flat = []
    for x, y in pairs:
        (xi, xj), (yi, yj) = x, y
        if not (0 <= xi <= n and 0 <= xj <= n and 0 <= yi <= n and 0 <= yj <= n):
            grid.index(x), grid.index(y)  # raises IndexError naming the stray one
        flat.append((xi * side + xj, yi * side + yj))
    return GridCongruence(n, _closure_labels(n, flat))


def _cell_pairs(n: int, cells: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The generators of the cells, as pairs of flat indices."""
    side = n + 1
    out = []
    for i, j in cells:
        e = i * side + j
        out += ((e - side, e), (e - 1, e))
    return out


def jcong_cell(grid: Grid, cell: GridCell) -> GridCongruence:
    """Smallest join-congruence collapsing the upper edges of one 4-cell."""
    i, j = cell
    if not (1 <= i <= grid.n and 1 <= j <= grid.n):
        raise CellOutOfRange(f"cell {tuple(cell)} outside 1..{grid.n}")
    return GridCongruence(grid.n, _closure_labels(grid.n, _cell_pairs(grid.n, [(i, j)])))


def _formula_blocks(n: int, images: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """The canonical labels of pi's congruence by the closed form, and the
    flat index of each block's top."""
    # one downward sweep over the flat indices: a block is convex and holds
    # its top, so an element with no collapsed upper edge is its block's top,
    # and any other one shares the top of the element across such an edge.
    # keys[e] is the flat index of e's block top.
    side = n + 1
    active = sorted(images)  # pi(1..i) in row i: the c = j + 1 with pi^-1(c) <= i
    keys = list(range(side * side))
    for i in range(n, -1, -1):
        row = i * side
        # c-direction edges ((i, j), (i+1, j)) with j >= pi(i+1); none in the top row
        v = images[i] if i < n else side
        keys[row + v:row + side] = keys[row + side + v:row + 2 * side]
        # d-direction edges ((i, j), (i, j+1)) with i >= pi^-1(j+1), for j < v
        for c in reversed(active[:bisect_left(active, v)]):
            keys[row + c - 1] = keys[row + c]
        if i:
            active.remove(images[i - 1])
    canon: dict[int, int] = {}
    labels = tuple([canon.setdefault(key, len(canon)) for key in keys])
    # the keys in order of first occurrence are the block tops by label
    return labels, list(canon)


def beta_from_perm(grid: Grid, pi: Permutation, check: bool = True) -> GridCongruence:
    """The join of the 4-cell congruences at (i, pi(i)), built by closure.

    With check (the default) the result is compared against the closed-form
    route and a mismatch, which means a closure bug, raises RuntimeError.
    """
    if len(_require_permutation(pi)) != grid.n:
        raise LengthMismatch(f"permutation of size {pi.n} on a grid of side {grid.n}")
    kappa = GridCongruence(grid.n, _closure_labels(
        grid.n, _cell_pairs(grid.n, enumerate(pi.images, start=1))))
    if check and kappa.labels != _formula_blocks(grid.n, pi.images)[0]:
        raise RuntimeError(f"closure and closed-form congruences differ for {pi.images}")
    return kappa


def beta_from_formula(grid: Grid, pi: Permutation) -> GridCongruence:
    """The same congruence assembled from the closed-form edge predicate only."""
    if len(_require_permutation(pi)) != grid.n:
        raise LengthMismatch(f"permutation of size {pi.n} on a grid of side {grid.n}")
    return GridCongruence(grid.n, _formula_blocks(grid.n, pi.images)[0])


def beta_formula(n: int, pi: Permutation, edge: tuple[Coord, Coord]) -> bool:
    """Closed-form membership of a prime interval in the congruence of pi."""
    if len(_require_permutation(pi)) != n:
        raise LengthMismatch(f"permutation of size {pi.n}, grid of side {n}")
    (ai, aj), (bi, bj) = edge
    if not (0 <= ai <= n and 0 <= aj <= n and 0 <= bi <= n and 0 <= bj <= n):
        raise NotAPrimeInterval(f"{edge} outside the grid of side {n}")
    if bi == ai + 1 and bj == aj:
        return pi(bi) <= bj
    if bi == ai and bj == aj + 1:
        return pi.inverse()(bj) <= bi
    raise NotAPrimeInterval(f"{edge} is not a covering pair")


# -- cell classification --------------------------------------------------------

def _cell_scan(kappa: GridCongruence) -> tuple[list[Coord], list[Coord]]:
    """The forbidden and the source cells of kappa as (i, j), each in
    row-major order, from one pass over the cells."""
    side = kappa.n + 1
    labels = kappa.labels
    forbidden = []
    sources = []
    e = side  # the flat index of the top (i, j) of the cell
    for i in range(1, side):
        for j in range(1, side):
            e += 1
            # the top t, the sides a and b, and the bottom w
            t, a, b = labels[e], labels[e - side], labels[e - 1]
            if t == a or t == b:
                w = labels[e - side - 1]
                if a == b:
                    if w != t:
                        sources.append((i, j))
                elif w != a and w != b:
                    forbidden.append((i, j))
        e += 1
    return forbidden, sources


def forbidden_cells(kappa: GridCongruence) -> frozenset[GridCell]:
    """Cells whose bottom and side blocks are pairwise distinct while the top
    falls into a side block; witnesses that the quotient map breaks a cover."""
    return frozenset(itertools.starmap(GridCell, _cell_scan(kappa)[0]))


def is_cover_preserving(kappa: GridCongruence) -> bool:
    return not forbidden_cells(kappa)


def source_cells(kappa: GridCongruence) -> frozenset[GridCell]:
    """Cells whose two side elements merge with the top but not the bottom."""
    return frozenset(itertools.starmap(GridCell, _cell_scan(kappa)[1]))


def _regenerate(kappa: GridCongruence) -> tuple[tuple[Coord, ...], GridCongruence]:
    """kappa's source cells as (i, j) in row-major order, and regenerate(kappa).

    The hypotheses are tested in the order left boundary edge i, right
    boundary edge i for i = 1..n, then the forbidden cells, which come
    from the same one pass over the cells as the source cells.
    """
    side = kappa.n + 1
    labels = kappa.labels
    for i in range(1, side):
        if labels[(i - 1) * side] == labels[i * side]:
            raise HypothesisViolated(f"left boundary edge {i - 1}->{i} collapsed")
        if labels[i - 1] == labels[i]:
            raise HypothesisViolated(f"right boundary edge {i - 1}->{i} collapsed")
    forbidden, sources = _cell_scan(kappa)
    if forbidden:
        raise HypothesisViolated("congruence has a forbidden cell")
    return tuple(sources), GridCongruence(
        kappa.n, _closure_labels(kappa.n, _cell_pairs(kappa.n, sources)))


def regenerate(kappa: GridCongruence) -> GridCongruence:
    """Rebuild a congruence as the join of the cell congruences at its source
    cells, found in the pass over the cells that finds the forbidden ones.

    Requires a cover-preserving congruence collapsing no boundary edge; under
    those hypotheses the result equals the input.
    """
    return _regenerate(kappa)[1]


# -- the quotient construction ---------------------------------------------------

def _join_congruence_tops(n: int, labels: Sequence[int]) -> tuple[list[int], list[int]]:
    """The top coordinates of each block, as _top_coordinates.

    Raises ValueError unless the partition is a join-congruence.  It is one
    iff each block contains its top and no uncollapsed edge leads to a block
    with a top not above its own: then x -> top of its block is a closure
    operator, and the fibres of a closure operator form a join-congruence.
    Conversely a join-congruence's blocks are join-closed, and for a <= b in
    blocks A and B the join top(A) v b lies in B, so top(A) <= top(B).
    Cost: O(n^2).
    """
    side = n + 1
    top_i, top_j = _top_coordinates(n, labels)
    for lab, (i, j) in enumerate(zip(top_i, top_j)):
        if labels[i * side + j] != lab:
            raise ValueError("partition is not join-closed; no quotient lattice")
    # the images of the c-direction edges (e, e + side) and, row by row, of
    # the d-direction edges (e, e + 1); most edges share their image
    images = set(zip(labels, labels[side:]))
    for k in range(0, len(labels), side):
        row = labels[k:k + side]
        images.update(zip(row, row[1:]))
    for lab, other in images:
        if top_i[lab] > top_i[other] or top_j[lab] > top_j[other]:
            raise ValueError("partition is not join-compatible; no quotient lattice")
    return top_i, top_j


def quotient(kappa: GridCongruence) -> tuple[FiniteLattice, tuple[Coord, ...]]:
    """The quotient lattice of a join-congruence and the top of each block,
    built by _lattice_from_tops.  Any other partition raises ValueError (see
    _join_congruence_tops).  Cost: O(n^2)."""
    n, labels = kappa.n, kappa.labels
    top_i, top_j = _join_congruence_tops(n, labels)
    return _lattice_from_tops(n, labels, top_i, top_j), tuple(zip(top_i, top_j))


def _lattice_from_tops(n: int, labels: Sequence[int], top_i: Sequence[int],
                       top_j: Sequence[int]) -> FiniteLattice:
    """The quotient of the grid by a join-congruence, given its canonical
    labels and the top coordinates of each block.

    Element ids are the block labels, and block X is below block Y iff
    top(X) <= top(Y).  The upper covers of the block X with top (i, j) are
    the lower of the blocks A and B of (i + 1, j) and (i, j + 1), or both
    when their tops are incomparable: a block above X has a top above
    (i + 1, j) or (i, j + 1), and as a closed element of the closure
    operator x -> top of its block, that top lies above top(A) or top(B).
    This holds for every join-congruence, cover-preserving or not.  By the
    rank i + j of their tops the blocks are a linear extension, and the
    quotient is a lattice by construction, built without FiniteLattice's
    validation; the caller must know the labels to be a join-congruence.
    Cost: O(n^2).
    """
    side = n + 1
    covers_up: list[tuple[int, ...]] = []
    for i, j in zip(top_i, top_j):
        e = i * side + j
        if i == n:
            covers_up.append((labels[e + 1],) if j < n else ())
        elif j == n:
            covers_up.append((labels[e + side],))
        else:
            a, b = labels[e + side], labels[e + 1]
            if top_i[a] <= top_i[b] and top_j[a] <= top_j[b]:
                covers_up.append((a,))
            elif top_i[b] <= top_i[a] and top_j[b] <= top_j[a]:
                covers_up.append((b,))
            else:
                covers_up.append((a, b) if a < b else (b, a))
    rank = list(map(int.__add__, top_i, top_j))
    return FiniteLattice._from_covers_up(covers_up, sorted(range(len(rank)), key=rank.__getitem__))


def _phi0_parts(pi: Permutation) -> tuple[BorderedDiagram, tuple[int, ...], list[int]]:
    """phi0(pi), and the closed form's labels and block tops it was built from."""
    n = pi.n
    side = n + 1
    labels, tops = _formula_blocks(n, pi.images)
    lattice = _lattice_from_tops(n, labels, [t // side for t in tops], [t % side for t in tops])
    return BorderedDiagram._trusted(lattice, labels[::side], labels[:side]), labels, tops


def phi0(pi: Permutation) -> BorderedDiagram:
    """The quotient of the square grid by the congruence of pi, bordered by
    the images of the two grid boundary chains.

    Each call computes the closed form once and keeps nothing.  The closed
    form is the closure of pi's cells (``verify`` checks it), a
    join-congruence, so its block tops give the lattice unvalidated;
    no boundary edge collapses and every join-irreducible lies on the
    boundary, so the boundary images give the diagram unvalidated too.
    The result is a slim semimodular lattice of length n; this map is a
    bijection onto bordered diagrams of such lattices, inverted by
    :func:`slimlat.extract.extract_permutation`.
    """
    _require_permutation(pi)
    return _phi0_parts(pi)[0]


def _layout(diagram: BorderedDiagram, tops: Sequence[int]) -> dict[int, tuple[int, int]]:
    """heuristic_layout of the diagram phi0 built from these block tops,
    whose labels are the element ids of its lattice."""
    side, height = diagram.n + 1, diagram.lattice.height
    return {lab: (top % side - top // side, height[lab]) for lab, top in enumerate(tops)}


def heuristic_layout(pi: Permutation) -> dict[int, tuple[int, int]]:
    """Drawing hints for phi0(pi), which it builds: y is the height, x the
    signed offset j - i of the block top.  Purely cosmetic; nothing
    downstream depends on it."""
    _require_permutation(pi)
    diagram, _, tops = _phi0_parts(pi)
    return _layout(diagram, tops)


# -- rendering -------------------------------------------------------------------

def render_ascii(pi: Permutation) -> str:
    """The n x n cell matrix of pi: row i marks the cell (i, pi(i))."""
    return "\n".join(
        "".join("#" if pi(i) == j else "." for j in range(1, pi.n + 1))
        for i in range(1, pi.n + 1)
    )


def grid_dot(pi: Permutation) -> str:
    """Graphviz source for the grid with the collapsed edges of pi's
    congruence drawn dashed."""
    n = pi.n
    g = Grid(n)
    kappa = GridCongruence(n, _formula_blocks(n, pi.images)[0])
    lines = [f"digraph grid{n} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, j in g.elements():
        lines.append(f'  g{i}_{j} [label="{i},{j}"];')
    for rank in range(2 * n + 1):
        row = "; ".join(f"g{i}_{rank - i}"
                        for i in range(max(0, rank - n), min(rank, n) + 1))
        lines.append(f"  {{ rank=same; {row}; }}")
    for (ai, aj), (bi, bj) in g.prime_intervals():
        style = ' [style=dashed, color=gray]' if kappa.collapses((ai, aj), (bi, bj)) else ""
        lines.append(f"  g{ai}_{aj} -> g{bi}_{bj}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
