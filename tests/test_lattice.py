import itertools
import random

import pytest

import oracles
from slimlat import grid, lattice
from slimlat.lattice import BorderedDiagram, FiniteLattice
from slimlat.perm import Permutation

# fixtures: 0 = bottom throughout
B2 = FiniteLattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
N5 = FiniteLattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])  # 0<a<c<1, 0<b<1
M3 = FiniteLattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
CHAIN4 = lattice.chain(3)
HEXAGON_POSET = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]


def intersection_closed_family(rng, k):
    """Random subsets of a k-set, closed under intersection and joined by the
    whole set, ordered by inclusion: always a lattice."""
    family = {(1 << k) - 1} | {rng.randrange(1 << k) for _ in range(rng.randrange(1, 7))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    sets = sorted(family)
    index = {s: x for x, s in enumerate(sets)}

    def below(a, b):
        return a != b and a & b == a

    covers = [(index[a], index[b]) for a in sets for b in sets
              if below(a, b) and not any(below(a, c) and below(c, b) for c in sets)]
    return FiniteLattice(len(sets), covers)


def predicate_lattices():
    """M3, every phi0 lattice with n <= 5, their duals, and 300 random
    intersection-closed families."""
    lattices = [M3, lattice.dual(M3)]
    for n in range(0, 6):
        for images in itertools.permutations(range(1, n + 1)):
            built = grid.phi0(Permutation(images)).lattice
            lattices += [built, lattice.dual(built)]
    rng = random.Random(6)
    lattices += [intersection_closed_family(rng, rng.randrange(1, 6)) for _ in range(300)]
    return lattices


class TestFromCovers:
    def test_two_chain(self):
        two = lattice.from_covers(2, [(0, 1)])
        assert two.length == 1 and two.bottom == 0 and two.top == 1

    def test_b2_join(self):
        assert B2.join(1, 2) == 3
        assert B2.meet(1, 2) == 0

    def test_hexagon_is_not_a_lattice(self):
        # 1 and 2 have two minimal common upper bounds
        with pytest.raises(lattice.NotALattice, match="no join"):
            lattice.from_covers(6, HEXAGON_POSET)
        # reversed, 1 and 2 have a join (the new top 0) but two maximal
        # common lower bounds
        with pytest.raises(lattice.NotALattice, match="no meet"):
            lattice.from_covers(6, [(b, a) for a, b in HEXAGON_POSET])

    def test_tables_match_naive_scan(self):
        lattices = []
        for n in range(0, 6):
            for images in itertools.permutations(range(1, n + 1)):
                built = grid.phi0(Permutation(images)).lattice
                lattices += [built, lattice.dual(built)]
        rng = random.Random(16)
        for n in (16, 18, 20, 22, 24):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            lattices.append(grid.phi0(Permutation(tuple(images))).lattice)
        for lat in lattices:
            elems = range(lat.size)
            joins = tuple(tuple(lat.join(i, j) for j in elems) for i in elems)
            meets = tuple(tuple(lat.meet(i, j) for j in elems) for i in elems)
            assert (joins, meets) == oracles.naive_bound_tables(lat)

    def test_transitive_edge_rejected(self):
        with pytest.raises(lattice.NotReduced):
            lattice.from_covers(3, [(0, 1), (1, 2), (0, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(lattice.Cyclic):
            lattice.from_covers(2, [(0, 1), (1, 0)])
        with pytest.raises(lattice.Cyclic):
            lattice.from_covers(1, [(0, 0)])

    def test_cover_out_of_range(self):
        with pytest.raises(lattice.CoverOutOfRange) as info:
            lattice.from_covers(2, [(0, 5)])
        assert isinstance(info.value, ValueError) and isinstance(info.value, IndexError)

    def test_unbounded_rejected(self):
        with pytest.raises(lattice.NotALattice):
            lattice.from_covers(2, [])  # two incomparable points

    def test_singleton(self):
        one = lattice.from_covers(1, [])
        assert one.length == 0 and one.bottom == one.top == 0

    def test_heights(self):
        assert N5.height == (0, 1, 2, 1, 3)
        assert CHAIN4.length == 3


class TestPredicates:
    def test_semimodular(self):
        assert lattice.is_semimodular(B2)
        assert lattice.is_semimodular(M3)
        assert lattice.is_semimodular(CHAIN4)
        assert not lattice.is_semimodular(N5)

    def test_semimodular_matches_covering_condition_scan(self):
        lattices = []
        for n in range(0, 6):
            for images in itertools.permutations(range(1, n + 1)):
                built = grid.phi0(Permutation(images)).lattice
                lattices += [built, lattice.dual(built)]
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            g = grid.Grid(n)
            coords = list(g.elements())
            for _ in range(60):
                pairs = [(rng.choice(coords), rng.choice(coords))
                         for _ in range(rng.randrange(4))]
                lattices.append(grid.quotient(grid.congruence_closure(g, pairs))[0])
        for _ in range(300):
            lattices.append(intersection_closed_family(rng, rng.randrange(1, 5)))
        outcomes = []
        for lat in lattices:
            got = lattice.is_semimodular(lat)
            assert got == oracles.covering_condition_scan(lat)
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_irreducibles_on_chain(self):
        assert lattice.join_irreducibles(CHAIN4) == (1, 2, 3)
        assert lattice.meet_irreducibles(CHAIN4) == (0, 1, 2)

    def test_irreducibles_on_b2(self):
        assert lattice.join_irreducibles(B2) == (1, 2)
        assert lattice.meet_irreducibles(B2) == (1, 2)

    def test_meet_irreducible_count_on_quotient(self):
        lat = grid.phi0(Permutation((2, 3, 1))).lattice
        assert len(lattice.meet_irreducibles(lat)) == 3

    def test_slim(self):
        assert lattice.is_slim(B2)
        assert lattice.is_slim(CHAIN4)
        assert lattice.is_slim(N5)
        assert not lattice.is_slim(M3)  # three pairwise incomparable atoms

    def test_slim_matches_three_antichain_scan(self):
        outcomes = []
        for lat in predicate_lattices():
            got = lattice.is_slim(lat)
            assert got == (not oracles.has_three_antichain(lat, lattice.join_irreducibles(lat)))
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_dually_slim(self):
        assert lattice.is_dually_slim(B2)
        assert not lattice.is_dually_slim(M3)

    def test_dually_slim_matches_slim_dual(self):
        outcomes = []
        for lat in predicate_lattices():
            got = lattice.is_dually_slim(lat)
            assert got == oracles.is_slim_dual(lat)
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_narrows_chain(self):
        assert lattice.narrows(CHAIN4) == (0, 1, 2, 3)
        assert lattice.narrows(lattice.from_covers(1, [])) == (0,)

    def test_narrows_b2(self):
        assert lattice.narrows(B2) == (0, 3)

    def test_narrows_heights_match_segments(self):
        # segments of (2,1,3) are {1,2},{3}, so narrows sit at heights 0, 2, 3
        lat = grid.phi0(Permutation((2, 1, 3))).lattice
        assert sorted(lat.height[x] for x in lattice.narrows(lat)) == [0, 2, 3]

    def test_narrows_is_a_chain(self):
        for images in itertools.permutations((1, 2, 3, 4)):
            lat = grid.phi0(Permutation(images)).lattice
            nar = lattice.narrows(lat)
            assert all(lat.leq(a, b) for a, b in zip(nar, nar[1:]))


class TestDual:
    def test_chain_self_dual(self):
        assert lattice.is_isomorphic(lattice.dual(CHAIN4), CHAIN4)

    def test_involution(self):
        for lat in (B2, N5, M3, CHAIN4):
            assert lattice.dual(lattice.dual(lat)) == lat

    def test_dual_of_dually_slim_is_slim(self):
        assert lattice.is_slim(lattice.dual(B2))
        assert not lattice.is_slim(lattice.dual(M3))


class TestCoveringSquares:
    def test_b2(self):
        assert lattice.covering_squares(B2) == frozenset({(0, 1, 2, 3)})

    def test_chain(self):
        assert lattice.covering_squares(CHAIN4) == frozenset()

    def test_transposition_quotient(self):
        lat = grid.phi0(Permutation((2, 1))).lattice
        assert len(lattice.covering_squares(lat)) == 1


class TestIsomorphism:
    def test_self(self):
        assert lattice.is_isomorphic(N5, N5)

    def test_different_profiles(self):
        assert not lattice.is_isomorphic(lattice.chain(3), B2)
        assert not lattice.is_isomorphic(B2, M3)

    def test_relabeled_b2(self):
        other = FiniteLattice(4, [(2, 0), (2, 1), (0, 3), (1, 3)])
        mapping = lattice.find_isomorphism(B2, other)
        assert mapping is not None
        for a, b in B2.covers:
            assert other.is_cover(mapping[a], mapping[b])

    def test_equivalent_permutations_isomorphic(self):
        l1 = grid.phi0(Permutation((2, 3, 1))).lattice
        l2 = grid.phi0(Permutation((3, 1, 2))).lattice
        assert lattice.is_isomorphic(l1, l2)

    def test_witness_is_order_isomorphism(self):
        l1 = grid.phi0(Permutation((2, 4, 1, 3))).lattice
        l2 = grid.phi0(Permutation((3, 1, 4, 2))).lattice
        mapping = lattice.find_isomorphism(l1, l2)
        assert mapping is not None
        assert sorted(mapping) == list(range(l1.size))
        for x, y in itertools.product(range(l1.size), repeat=2):
            assert l1.leq(x, y) == l2.leq(mapping[x], mapping[y])

    def test_equivalence_on_sample(self):
        sample = [grid.phi0(Permutation(images)).lattice
                  for images in itertools.permutations((1, 2, 3))]
        for a in sample:
            assert lattice.is_isomorphic(a, a)
        for a, b in itertools.combinations(sample, 2):
            assert lattice.is_isomorphic(a, b) == lattice.is_isomorphic(b, a)

    def test_too_large(self):
        big = lattice.chain(201)
        with pytest.raises(lattice.TooLarge):
            lattice.is_isomorphic(big, big)
        assert lattice.is_isomorphic(big, big, max_size=300)

    def test_automorphisms_of_b2(self):
        autos = lattice.automorphisms(B2)
        assert len(autos) == 2  # identity and the atom swap

    def test_automorphisms_of_chain(self):
        assert lattice.automorphisms(CHAIN4) == (tuple(range(4)),)


class TestIntervalAndChains:
    def test_interval_sublattice(self):
        sub, elems = lattice.interval_sublattice(N5, 0, 2)
        assert elems == (0, 1, 2)
        assert sub.length == 2

    def test_maximal_chains(self):
        chains = oracles.maximal_chains(B2, 0, 3)
        assert chains == [(0, 1, 3), (0, 2, 3)]

    def test_maximal_chains_of_n5(self):
        assert oracles.maximal_chains(N5, 0, 4) == [(0, 1, 2, 4), (0, 3, 4)]


class TestBorderedDiagram:
    def test_valid_b2_diagram(self):
        d = BorderedDiagram(B2, (0, 1, 3), (0, 2, 3))
        assert d.n == 2
        assert d.boundary() == frozenset(range(4))

    def test_chain_must_be_maximal(self):
        with pytest.raises(lattice.InvalidDiagram):
            BorderedDiagram(B2, (0, 3), (0, 2, 3))
        with pytest.raises(lattice.InvalidDiagram):
            BorderedDiagram(B2, (1, 3), (0, 2, 3))

    def test_join_irreducibles_must_be_covered(self):
        with pytest.raises(lattice.InvalidDiagram):
            BorderedDiagram(B2, (0, 1, 3), (0, 1, 3))

    def test_chain_intersection_is_narrows(self):
        for images in itertools.permutations((1, 2, 3, 4)):
            d = grid.phi0(Permutation(images))
            meet = set(d.left_chain) & set(d.right_chain)
            assert meet == set(lattice.narrows(d.lattice))

    def test_reflected(self):
        d = grid.phi0(Permutation((2, 1)))
        r = d.reflected()
        assert r.left_chain == d.right_chain and r.right_chain == d.left_chain


class TestSerialization:
    def test_lattice_round_trip(self):
        for lat in (B2, N5, M3, CHAIN4):
            assert lattice.lattice_from_json(lattice.lattice_to_json(lat)) == lat

    def test_diagram_round_trip(self):
        d = grid.phi0(Permutation((2, 3, 1)))
        again = lattice.diagram_from_json(lattice.diagram_to_json(d))
        assert again == d

    def test_malformed(self):
        with pytest.raises(ValueError):
            lattice.lattice_from_json({"covers": [[0, 1]]})
        with pytest.raises(ValueError):
            lattice.diagram_from_json({"size": 2, "covers": [[0, 1]]})

    def test_dot_output(self):
        dot = lattice.to_dot(B2)
        assert dot.startswith("digraph")
        assert "rank=same" in dot
        assert "n0 -> n1;" in dot
        assert dot.count("->") == 4
