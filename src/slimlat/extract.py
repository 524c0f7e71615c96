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
from collections.abc import Iterator

from slimlat.lattice import (BorderedDiagram, FiniteLattice, TooLarge,
                             _join_irreducible_colouring, covering_squares,
                             is_semimodular, is_slim, join_irreducibles, narrows)
from slimlat.perm import RHO_CLASS_CAP, Permutation, _Frozen, is_involution_on

Chain = tuple[int, ...]

# The most diagrams diagrams_of builds.  The count is a product of per-component
# factors of 1 or 2, so it is exponential in the number of components: a direct
# sum of 32 copies of (2,3,1) (n = 96, 161 elements) has 2^32 diagrams, which
# diagram_count returns in 2 ms.  perfbench's traced replay asks for at most 64
# (its block sums have at most six components; 32 on seeds 1, 1201 and 1202).
# Building 2^12 = 4,096 takes 0.1 s, and refusing 2^13 under 1 ms (2-vCPU VM).
# The diagrams of a slim semimodular lattice are as many as the members of its
# permutation's class, so the cap is rho_class's.
DIAGRAMS_OF_CAP = RHO_CLASS_CAP


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


def _opposite_edges(lattice: FiniteLattice) -> dict[int, tuple[int, ...]]:
    """Opposite edges of covering squares, by the edge id x * size + y of (x, y)."""
    size = lattice.size
    adj: dict[int, tuple[int, ...]] = {}
    get = adj.get
    for w, a, b, t in covering_squares(lattice):
        e, f, g, h = w * size + a, b * size + t, w * size + b, a * size + t
        adj[e] = get(e, ()) + (f,)
        adj[f] = get(f, ()) + (e,)
        adj[g] = get(g, ()) + (h,)
        adj[h] = get(h, ()) + (g,)
    # planarity of slim lattices: an edge borders at most two squares
    if max(map(len, adj.values()), default=0) > 2:
        raise NotSlimSemimodular("edge in more than two covering squares")
    return adj


def _walk(adj: dict[int, tuple[int, ...]], start: int, size: int) -> Iterator[int]:
    """The edge ids met by the walk from start that never steps back, in
    order.  It revisits none either: the graph has degree at most 2 and the
    start at most 1, so the neighbours of a vertex are visited just before
    and just after it, and a first revisit would come from one of them,
    revisited earlier, or from the one just left, a step back."""
    if len(adj.get(start, ())) > 1:
        raise TrajectoryAmbiguous(f"left edge {divmod(start, size)} borders two squares")
    prev, cur = -1, start
    while True:
        yield cur
        for nxt in adj.get(cur, ()):
            if nxt != prev:
                break
        else:
            return
        prev, cur = cur, nxt


def trajectory(diagram: BorderedDiagram, i: int) -> Trajectory:
    """The walk starting at the i-th left-chain edge (1-based); raises
    IndexError unless 1 <= i <= n."""
    lattice, left = diagram.lattice, diagram.left_chain
    if not 1 <= i <= diagram.n:
        raise IndexError(f"left edge {i} outside 1..{diagram.n}")
    _require_semimodular(lattice)
    size = lattice.size
    path = _walk(_opposite_edges(lattice), left[i - 1] * size + left[i], size)
    return Trajectory(tuple(divmod(e, size) for e in path))


def _trajectory_images(diagram: BorderedDiagram) -> tuple[int, ...]:
    """Extraction by trajectories, as unvalidated images.  Tests
    semimodularity only: the lattice of a bordered diagram is slim by
    construction.  Each walk counts the left and right edges it meets, its
    start included, and a failing one is walked again to name them."""
    lattice, left, right = diagram.lattice, diagram.left_chain, diagram.right_chain
    _require_semimodular(lattice)
    adj = _opposite_edges(lattice)
    size = lattice.size
    left_index = {left[k - 1] * size + left[k]: k for k in range(1, len(left))}
    right_index = {right[k - 1] * size + right[k]: k for k in range(1, len(right))}
    images = []
    for i in range(1, diagram.n + 1):
        # _walk, inline: this loop is the hot path of verify's round trips
        start = left[i - 1] * size + left[i]
        if len(adj.get(start, ())) > 1:
            raise TrajectoryAmbiguous(f"left edge {divmod(start, size)} borders two squares")
        lefts = rights = 0
        prev, edge = -1, start
        while True:
            lefts += edge in left_index
            rights += edge in right_index
            for nxt in adj.get(edge, ()):
                if nxt != prev:
                    break
            else:
                break
            prev, edge = edge, nxt
        if rights != 1 or lefts != 1 or edge not in right_index:
            path = [*_walk(adj, start, size)]
            # every index is at least 1
            raise TrajectoryAmbiguous(
                f"trajectory {i} meets left edges {[*filter(None, map(left_index.get, path))]}"
                f" and right edges {[*filter(None, map(right_index.get, path))]}")
        images.append(right_index[edge])
    return tuple(images)


def pi2_meet_irreducibles(diagram: BorderedDiagram) -> Permutation:
    """Extraction by meet-irreducible witnesses.  Tests semimodularity only:
    the lattice of a bordered diagram is slim by construction.  The down-set
    of the witness u meets the right chain in a prefix, so j is its size."""
    lattice, left = diagram.lattice, diagram.left_chain
    _require_semimodular(lattice)
    up, down, height, covers_up = lattice.up, lattice.down, lattice.height, lattice.covers_up
    right_mask = sum(1 << d for d in diagram.right_chain)
    images = []
    for i in range(1, diagram.n + 1):
        mask = up[left[i - 1]] & ~up[left[i]]
        # a chain iff every member is comparable with every other; then u,
        # its highest member, is its maximum
        u, rest = -1, mask
        while rest:
            bit = rest & -rest
            x = bit.bit_length() - 1
            if mask & ~(up[x] | down[x]):
                raise UniquenessViolated(f"filter difference at step {i} is not a chain")
            if u < 0 or height[x] > height[u]:
                u = x
            rest ^= bit
        if len(covers_up[u]) != 1:
            raise UniquenessViolated(f"witness {u} at step {i} is not meet-irreducible")
        images.append((down[u] & right_mask).bit_count())
    return Permutation(tuple(images))


def _source_cell_images(diagram: BorderedDiagram) -> tuple[int, ...]:
    """Extraction through the join map from the grid onto the lattice, as
    unvalidated images.  Tests semimodularity only: the lattice of a
    bordered diagram is slim by construction.  The up-set of x ∨ y is
    up[x] & up[y], so equal masks mean equal joins, and the masks stand for
    the joins in the comparisons."""
    lattice, left, right = diagram.lattice, diagram.left_chain, diagram.right_chain
    _require_semimodular(lattice)
    n = diagram.n
    up = lattice.up
    right_up = [up[d] for d in right]
    # two rows of joins at a time: holding all (n + 1)^2 full masks raised
    # the peak RSS of long runs
    row = [up[left[0]] & up_d for up_d in right_up]
    images = []
    for i in range(1, n + 1):
        up_c = up[left[i]]
        below, row = row, [up_c & up_d for up_d in right_up]
        hits = [j for j in range(1, n + 1)
                if below[j] == row[j - 1] == row[j] != below[j - 1]]
        if not hits:
            raise SourceCellMissing(f"no source cell in row {i}")
        if len(hits) > 1:
            raise SourceCellDuplicated(f"multiple source cells {hits} in row {i}")
        images.append(hits[0])
    return tuple(images)


def pi1_trajectories(diagram: BorderedDiagram) -> Permutation:
    """Extraction by trajectories (see _trajectory_images)."""
    return Permutation(_trajectory_images(diagram))


def pi3_source_cells(diagram: BorderedDiagram) -> Permutation:
    """Extraction through the join map (see _source_cell_images)."""
    return Permutation(_source_cell_images(diagram))


def extract_permutation(diagram: BorderedDiagram, verify: bool = True) -> Permutation:
    """The permutation of a bordered diagram.

    Runs the meet-irreducible procedure; with verify (the default) the other
    two run as well and any disagreement raises, which must never happen on
    valid input.
    """
    result = pi2_meet_irreducibles(diagram)
    if verify:
        # images equal to pi2's are valid; any others raise as pi1_trajectories
        # and then pi3_source_cells would
        p1 = _trajectory_images(diagram)
        if p1 != result.images:
            Permutation(p1)
        p3 = _source_cell_images(diagram)
        if p3 != result.images:
            Permutation(p3)
        if not (p1 == result.images == p3):
            raise ExtractorDisagreement(
                f"trajectories {p1}, meet-irreducibles {result.images}, source cells {p3}")
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
    colour = _join_irreducible_colouring(lattice)
    if colour is None:
        raise NotSlimSemimodular(
            f"join-irreducibles of [{lo}, {hi}] are not two chains")
    # lo is a narrow, so no lower cover of an element above lo lies outside
    # [lo, hi]: these are the interval's join-irreducibles, by (height, id)
    inside = (lattice.up[lo] ^ 1 << lo) & lattice.down[hi]
    ji = [x for x in join_irreducibles(lattice) if inside >> x & 1]
    ji.sort(key=lattice.height.__getitem__)
    first = colour[ji[0]]
    if any(colour[x] >> 1 != first >> 1 for x in ji):
        raise RuntimeError(
            f"component [{lo}, {hi}] has more than one boundary chain pair")

    covers_up, down = lattice.covers_up, lattice.down

    def walk(targets: list[int]) -> Chain:
        out = [lo]
        for t in targets + [hi]:
            below_t = down[t]
            while out[-1] != t:
                steps = [y for y in covers_up[out[-1]] if below_t >> y & 1]
                if len(steps) != 1:
                    raise NotSlimSemimodular(
                        f"boundary walk in [{lo}, {hi}] forks at {out[-1]}")
                out.append(steps[0])
        return tuple(out)

    return (walk([x for x in ji if colour[x] == first]),
            walk([x for x in ji if colour[x] != first]))


def _assemble(lattice: FiniteLattice, pairs) -> BorderedDiagram:
    """The diagram whose left (right) chain runs through the first (second)
    chain of each component's (left, right) pair, bottom to top.  Built
    without BorderedDiagram's checks: the narrows run from bottom to top,
    each pair walks from one narrow to the next through covers, and the two
    chains of a component hold all its join-irreducibles."""
    left: list[int] = [lattice.bottom]
    right: list[int] = [lattice.bottom]
    for u, v in pairs:
        left.extend(u[1:])
        right.extend(v[1:])
    return BorderedDiagram._trusted(lattice, tuple(left), tuple(right))


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
    if not is_slim(lattice):
        raise NotSlimSemimodular("lattice is not slim")
    _require_semimodular(lattice)
    nar = narrows(lattice)
    pairs = [_component_chain_pair(lattice, lo, hi) for lo, hi in zip(nar, nar[1:])]
    pi = pi2_meet_irreducibles(_assemble(lattice, pairs))
    height = lattice.height
    return [((u, v),) if is_involution_on(pi, height[lo] + 1, height[hi]) else ((u, v), (v, u))
            for (u, v), lo, hi in zip(pairs, nar, nar[1:])]


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
