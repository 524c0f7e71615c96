"""Recovering the permutation of a bordered diagram, three independent ways.

For a slim semimodular lattice of length n with left chain c_0..c_n and
right chain d_0..d_n, each procedure assigns to every i the index j of a
matching right-chain step:

- ``pi1_trajectories`` follows the edge [c_{i-1}, c_i] across covering
  squares, hopping to the opposite edge each time, until the walk leaves the
  last square on a right-chain edge [d_{j-1}, d_j].  Consecutive-opposite
  adjacency makes this drawing-free: every prime interval lies in at most
  two covering squares, so the walk is forced.
- ``pi2_meet_irreducibles`` takes the largest element u above c_{i-1} but
  not above c_i (a meet-irreducible), and j indexes the smallest d not
  below-or-equal u.
- ``pi3_source_cells`` evaluates the grid-to-lattice join map
  (i, j) -> c_i ∨ d_j and reads j off the unique cell in row i where the two
  side values already agree with the top but not with the bottom.

All three agree on every valid input; ``extract_permutation`` runs the
cheapest one and, by default, cross-checks it against the other two.

``diagrams_of`` lists all bordered diagrams of a lattice up to boundary
similarity, and ``diagram_count`` counts them without building them.  Each
glued-sum component (the interval between consecutive narrows) has one pair
of boundary chains, found by splitting its join-irreducibles into two chains
and walking the forced maximal chain through each.  A component contributes
one orientation if an automorphism of it swaps the two chains and two
otherwise.  Reflecting a component inverts its segment of the permutation,
so the orientation counts are read off one extraction of the diagram the
chain pairs assemble: one where the segment is an involution, two
elsewhere.  Both functions are polynomial in the lattice size and run no
isomorphism search.
"""
from __future__ import annotations

import itertools
import math

from slimlat.lattice import (BorderedDiagram, FiniteLattice, TooLarge, _cached,
                             _join_irreducible_colouring, covering_squares,
                             is_semimodular, is_slim, narrows)
from slimlat.perm import Permutation, _Frozen, is_involution_on

Edge = tuple[int, int]
Chain = tuple[int, ...]

# The most diagrams diagrams_of builds.  The count is a product of per-component
# factors of 1 or 2, so it is exponential in the number of components: a direct
# sum of 32 copies of (2,3,1) (n = 96, 161 elements) has 2^32 diagrams, which
# diagram_count returns in 2 ms.  perfbench's traced replay asks for at most 64
# (its block sums have at most six components; 32 on seeds 1, 1201 and 1202).
# Building 2^12 = 4,096 takes 0.1 s, and refusing 2^13 under 1 ms (2-vCPU VM).
DIAGRAMS_OF_CAP = 4096


class NotSlimSemimodular(ValueError):
    """The lattice is outside the domain of the extraction procedures."""


class TrajectoryAmbiguous(ValueError):
    """An edge walk did not reach a unique right-boundary edge."""


class UniquenessViolated(ValueError):
    """The filter difference above a left-chain step is not a chain with a
    meet-irreducible maximum."""


class SourceCellMissing(ValueError):
    """No source cell in some row of the join map."""


class SourceCellDuplicated(ValueError):
    """More than one source cell in some row of the join map."""


class ExtractorDisagreement(RuntimeError):
    """The three procedures returned different permutations (a bug, or an
    input violating the preconditions in a way that slipped the checks)."""


class Trajectory(_Frozen):
    """A maximal walk through opposite edges of covering squares."""

    __slots__ = ("edges",)


def _require_semimodular(lattice: FiniteLattice) -> None:
    # enough for a diagram: BorderedDiagram puts every join-irreducible on
    # one of two chains, so its lattice is slim
    if not is_semimodular(lattice):
        raise NotSlimSemimodular("lattice is not semimodular")


def _require_slim_semimodular(lattice: FiniteLattice) -> None:
    if not is_slim(lattice):
        raise NotSlimSemimodular("lattice is not slim")
    _require_semimodular(lattice)


def _opposite_edges(lattice: FiniteLattice) -> dict[Edge, tuple[Edge, ...]]:
    def compute():
        adj: dict[Edge, tuple[Edge, ...]] = {}
        for w, a, b, t in covering_squares(lattice):
            for e, f in (((w, a), (b, t)), ((w, b), (a, t))):
                adj[e] = adj.get(e, ()) + (f,)
                adj[f] = adj.get(f, ()) + (e,)
        # planarity of slim lattices: an edge borders at most two squares
        if any(len(v) > 2 for v in adj.values()):
            raise NotSlimSemimodular("edge in more than two covering squares")
        return adj
    return _cached(lattice, "opposite_edges", compute)


def _walk(adj: dict[Edge, tuple[Edge, ...]], start: Edge) -> tuple[Edge, ...]:
    if len(adj.get(start, ())) > 1:
        raise TrajectoryAmbiguous(f"left edge {start} borders two squares")
    path = [start]
    seen = {start}
    prev: Edge | None = None
    cur = start
    while True:
        for nxt in adj.get(cur, ()):
            if nxt != prev:
                break
        else:
            return tuple(path)
        if nxt in seen:
            raise TrajectoryAmbiguous(f"walk from {start} revisits {nxt}")
        path.append(nxt)
        seen.add(nxt)
        prev, cur = cur, nxt


def trajectory(diagram: BorderedDiagram, i: int) -> Trajectory:
    """The walk starting at the i-th left-chain edge (1-based)."""
    _require_semimodular(diagram.lattice)
    return Trajectory(_walk(_opposite_edges(diagram.lattice),
                            (diagram.left_chain[i - 1], diagram.left_chain[i])))


def pi1_trajectories(diagram: BorderedDiagram) -> Permutation:
    """Extraction by trajectories.  Tests semimodularity only: the lattice of
    a bordered diagram is slim by construction."""
    _require_semimodular(diagram.lattice)
    adj = _opposite_edges(diagram.lattice)
    left, right = diagram.left_chain, diagram.right_chain
    left_index = {(left[k - 1], left[k]): k for k in range(1, len(left))}
    right_index = {(right[k - 1], right[k]): k for k in range(1, len(right))}
    images = []
    for i in range(1, diagram.n + 1):
        path = _walk(adj, (left[i - 1], left[i]))
        rights = [right_index[e] for e in path if e in right_index]
        lefts = [left_index[e] for e in path if e in left_index]
        if len(rights) != 1 or len(lefts) != 1 or path[-1] not in right_index:
            raise TrajectoryAmbiguous(
                f"trajectory {i} meets left edges {lefts} and right edges {rights}")
        images.append(rights[0])
    return Permutation(tuple(images))


def pi2_meet_irreducibles(diagram: BorderedDiagram) -> Permutation:
    """Extraction by meet-irreducible witnesses.  Tests semimodularity only:
    the lattice of a bordered diagram is slim by construction."""
    _require_semimodular(diagram.lattice)
    lattice, left, right = diagram.lattice, diagram.left_chain, diagram.right_chain
    up, down, height = lattice.up, lattice.down, lattice.height
    images = []
    for i in range(1, diagram.n + 1):
        mask = up[left[i - 1]] & ~up[left[i]]
        members = []
        while mask:
            bit = mask & -mask
            members.append(bit.bit_length() - 1)
            mask ^= bit
        # a chain iff each member lies below the next one by height
        members.sort(key=height.__getitem__)
        for x, y in zip(members, members[1:]):
            if not down[y] >> x & 1:
                raise UniquenessViolated(f"filter difference at step {i} is not a chain")
        u = members[-1]
        if len(lattice.upper_covers(u)) != 1:
            raise UniquenessViolated(f"witness {u} at step {i} is not meet-irreducible")
        below_u = down[u]
        images.append(next(j for j, d in enumerate(right) if not below_u >> d & 1))
    return Permutation(tuple(images))


def pi3_source_cells(diagram: BorderedDiagram) -> Permutation:
    """Extraction through the join map from the grid onto the lattice.  Tests
    semimodularity only: the lattice of a bordered diagram is slim by
    construction."""
    _require_semimodular(diagram.lattice)
    lattice, left, right = diagram.lattice, diagram.left_chain, diagram.right_chain
    n = diagram.n
    join = lattice.join
    eta = [[join(c, d) for d in right] for c in left]
    images = []
    for i in range(1, n + 1):
        hits = [j for j in range(1, n + 1)
                if eta[i - 1][j] == eta[i][j - 1] == eta[i][j] != eta[i - 1][j - 1]]
        if not hits:
            raise SourceCellMissing(f"no source cell in row {i}")
        if len(hits) > 1:
            raise SourceCellDuplicated(f"multiple source cells {hits} in row {i}")
        images.append(hits[0])
    return Permutation(tuple(images))


def extract_permutation(diagram: BorderedDiagram, verify: bool = True) -> Permutation:
    """The permutation of a bordered diagram.

    Runs the meet-irreducible procedure; with verify (the default) the other
    two run as well and any disagreement raises, which must never happen on
    valid input.
    """
    result = pi2_meet_irreducibles(diagram)
    if verify:
        p1 = pi1_trajectories(diagram)
        p3 = pi3_source_cells(diagram)
        if not (p1 == result == p3):
            raise ExtractorDisagreement(
                f"trajectories {p1.images}, meet-irreducibles {result.images}, "
                f"source cells {p3.images}")
    return result


# -- enumerating diagrams ---------------------------------------------------------

def _component_chain_pair(lattice: FiniteLattice, lo: int, hi: int
                          ) -> tuple[Chain, Chain]:
    """The two boundary chains of the glued-sum component between the
    consecutive narrows lo and hi, lexicographically smaller first (equal
    when hi covers lo).

    The join-irreducibles in (lo, hi] split into two chains, one per colour
    class of their incomparability graph; the class of the atom with the
    smaller id gives the smaller chain.  The classes come from the lattice's
    one cached 2-colouring of all its join-irreducibles (see is_slim): a
    narrow lies between two join-irreducibles of different components, so
    they are comparable, and the colouring restricted to a component is its
    own, unique up to swapping the colours when the component's graph is
    connected.  A member joins the chain of the component's first member iff
    their colours are equal.  The walk from lo through one class to hi is
    forced: two upper covers of the current element below the next target
    would both be its join with a member of the other chain, hence
    comparable, hence equal.
    """
    # lo is a narrow, so no lower cover of an element above lo lies outside
    # [lo, hi], and these are the join-irreducibles of the interval
    ji = [x for x in lattice.interval(lo, hi)[1:] if len(lattice.covers_down[x]) == 1]
    colour = _join_irreducible_colouring(lattice)
    if colour is None:
        raise NotSlimSemimodular(
            f"join-irreducibles of [{lo}, {hi}] are not two chains")
    first = colour[ji[0]]
    if any(colour[x] >> 1 != first >> 1 for x in ji):
        raise RuntimeError(
            f"component [{lo}, {hi}] has more than one boundary chain pair")

    def walk(targets: list[int]) -> Chain:
        out = [lo]
        for t in targets + [hi]:
            while out[-1] != t:
                steps = [y for y in lattice.covers_up[out[-1]] if lattice.leq(y, t)]
                if len(steps) != 1:
                    raise NotSlimSemimodular(
                        f"boundary walk in [{lo}, {hi}] forks at {out[-1]}")
                out.append(steps[0])
        return tuple(out)

    return (walk([x for x in ji if colour[x] == first]),
            walk([x for x in ji if colour[x] != first]))


def _assemble(lattice: FiniteLattice, pairs) -> BorderedDiagram:
    """The diagram whose left (right) chain runs through the first (second)
    chain of each component's (left, right) pair, bottom to top."""
    left: list[int] = [lattice.bottom]
    right: list[int] = [lattice.bottom]
    for u, v in pairs:
        left.extend(u[1:])
        right.extend(v[1:])
    return BorderedDiagram(lattice, tuple(left), tuple(right))


def _orientation_options(lattice: FiniteLattice) -> list[tuple[tuple[Chain, Chain], ...]]:
    """Per glued-sum component, its (left, right) boundary pairs up to
    boundary similarity: one when an automorphism of the component swaps
    its two chains, both orientations otherwise.

    Reflecting a component inverts its segment of the permutation, and
    diagrams are boundarily similar iff their permutations are equal, so an
    automorphism swaps the chains iff that segment is an involution.  One
    extraction of the diagram assembled from the lexicographically smaller
    orientations gives every segment: the component between the narrows lo
    and hi owns the positions height(lo) + 1 .. height(hi).
    """
    _require_slim_semimodular(lattice)
    nar = narrows(lattice)
    pairs = [_component_chain_pair(lattice, lo, hi) for lo, hi in zip(nar, nar[1:])]
    pi = pi2_meet_irreducibles(_assemble(lattice, pairs))
    height = lattice.height
    options = []
    for (u, v), lo, hi in zip(pairs, nar, nar[1:]):
        if is_involution_on(pi, height[lo] + 1, height[hi]):
            options.append(((u, v),))
        else:
            options.append(((u, v), (v, u)))
    return options


def diagrams_of(lattice: FiniteLattice) -> tuple[BorderedDiagram, ...]:
    """All bordered diagrams of a slim semimodular lattice up to boundary
    similarity, in lexicographic order of (left chain, right chain).

    An automorphism fixes every narrow, so it acts on each glued-sum
    component separately, and two diagrams are boundarily similar iff they
    agree on every component up to an automorphism of that component.  The
    diagrams are therefore the products of the per-component orientation
    choices; a component whose segment of the permutation is an involution
    keeps only the lexicographically smaller orientation.  The orientations
    are read off one extraction, so this is polynomial in the lattice size
    up to the output, which is capped: above DIAGRAMS_OF_CAP diagrams it
    raises TooLarge before building any.
    """
    options = _orientation_options(lattice)
    count = math.prod(map(len, options))
    if count > DIAGRAMS_OF_CAP:
        raise TooLarge(f"{count} diagrams exceed the cap {DIAGRAMS_OF_CAP}")
    return tuple(_assemble(lattice, combo) for combo in itertools.product(*options))


def diagram_count(lattice: FiniteLattice) -> int:
    """|diagrams_of(lattice)|, without building the diagrams: the product of
    the per-component orientation counts, read off one extraction.  Equals
    the class size of any of the lattice's permutations."""
    return math.prod(len(choices) for choices in _orientation_options(lattice))
