import itertools
import random
import re
import sys
import time
from collections import Counter

import pytest

import oracles
from slimlat import extract, grid, groups, iso, lattice
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
        # common lower bounds, 3 and 4, which have no join
        with pytest.raises(lattice.NotALattice, match="elements 3 and 4 have no join"):
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

    def test_comparable_pairs_need_no_walk(self, monkeypatch):
        lattices = [grid.phi0(Permutation(images)).lattice
                    for n in range(6) for images in itertools.permutations(range(1, n + 1))]

        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(lattice, "_walk", walk)
        pairs = 0
        for lat in lattices:
            for x, y in itertools.product(range(lat.size), repeat=2):
                # the bound named second is returned without a walk; named
                # first, the walk stops where it starts
                if lat.leq(x, y):
                    assert lat.join(x, y) == y and lat.meet(y, x) == x
                    pairs += 1
        assert pairs > 7000  # 7,189
        with pytest.raises(AssertionError, match="walked"):
            B2.join(1, 2)

    @pytest.mark.parametrize("query, arity", [
        (FiniteLattice.leq, 2), (FiniteLattice.comparable, 2), (FiniteLattice.join, 2),
        (FiniteLattice.meet, 2), (FiniteLattice.is_cover, 2), (FiniteLattice.upper_covers, 1),
        (FiniteLattice.interval, 2)])
    def test_queries_refuse_ids_that_are_not_elements(self, query, arity):
        for bad in (-1, -B2.size, B2.size):
            for k in range(arity):
                ids = [1] * arity
                ids[k] = bad
                with pytest.raises(IndexError, match=f"element {bad} outside 0..3"):
                    query(B2, *ids)

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


def reduced_dag(rng, size, least, greatest):
    """A random transitively reduced acyclic cover relation on size elements,
    with one more element below every minimal one if least and one above
    every maximal one if greatest."""
    rank = rng.sample(range(size), size)
    less = {(a, b) for a in range(size) for b in range(size)
            if rank[a] < rank[b] and rng.random() < 0.3}
    for c in range(size):  # transitive closure, Warshall's way
        less |= {(a, b) for a, c1 in less if c1 == c for c2, b in less if c2 == c}
    covers = {(a, b) for a, b in less
              if not any((a, c) in less and (c, b) in less for c in range(size))}
    if least:
        covers |= {(size, x) for x in range(size) if not any(b == x for _, b in covers)}
        size += 1
    if greatest:
        covers |= {(x, size) for x in range(size) if not any(a == x for a, _ in covers)}
        size += 1
    return size, sorted(covers)


class TestBounds:
    def test_matches_bounds_scan(self):
        rng = random.Random(15)
        kinds = Counter()
        for _ in range(600):
            size, covers = reduced_dag(rng, rng.randrange(1, 6), rng.random() < 0.5,
                                       rng.random() < 0.5)
            sources = size - len({b for _, b in covers})
            sinks = size - len({a for a, _ in covers})
            kinds[sources == 1, sinks == 1] += 1
            try:
                want = oracles.bounds_by_scan(size, covers)
            except lattice.NotALattice as exc:
                with pytest.raises(lattice.NotALattice) as info:
                    FiniteLattice(size, covers)
                assert type(info.value) is type(exc) and str(info.value) == str(exc)
                continue
            try:
                lat = FiniteLattice(size, covers)
            except lattice.NotALattice as exc:
                assert "no join" in str(exc) or "no meet" in str(exc)
            else:
                assert (lat.bottom, lat.top) == want
        # least and greatest, least only, greatest only, neither
        assert min(kinds[k] for k in itertools.product((True, False), repeat=2)) >= 50

    def test_cover_pairs_decide_like_naive_tables(self):
        rng = random.Random(18)
        rejected = 0
        for _ in range(2000):
            size, covers = reduced_dag(rng, rng.randrange(3, 11), True, True)
            order = FiniteLattice.__new__(FiniteLattice)  # the bounded order, unchecked
            order._fill_bounded_order(size, covers)
            joins, meets = oracles.naive_bound_tables(order)
            is_lattice = not any(None in row for row in joins + meets)
            try:
                FiniteLattice(size, covers)
            except lattice.NotALattice as exc:
                assert not is_lattice, covers
                a, b = map(int, re.fullmatch(r"elements (\d+) and (\d+) have no join",
                                             str(exc)).groups())
                assert joins[a][b] is None, covers
                rejected += 1
            else:
                assert is_lattice, covers
        assert rejected >= 300  # 397

    def test_valid_input_never_runs_the_scan(self):
        built = [grid.phi0(Permutation(images)).lattice
                 for n in range(7) for images in itertools.permutations(range(1, n + 1))]
        reversal = lattice.diagram_to_json(grid.phi0(Permutation(tuple(range(96, 0, -1)))))
        for lat in built:
            for each in (lat, lattice.dual(lat)):
                assert lattice.from_covers(each.size, each.covers) == each
        assert lattice.diagram_from_json(reversal).lattice.size == 96 * 97 // 2 + 1


class TestTrustedBuilders:
    def test_match_validating_constructor(self):
        built = [lattice.chain(k) for k in range(8)]
        for lat in predicate_lattices():
            built.append(lattice.dual(lat))
            for x in range(lat.size):
                built.append(lattice.interval_sublattice(lat, lat.bottom, x)[0])
                built.append(lattice.interval_sublattice(lat, x, lat.top)[0])
        for got in built:
            want = FiniteLattice(got.size, got.covers)
            assert oracles.order_data(got) == oracles.order_data(want)

    def test_run_no_bounds_scan(self, monkeypatch):
        def scan(self):
            raise AssertionError("all-pairs scan")

        sample = predicate_lattices()
        monkeypatch.setattr(FiniteLattice, "_check_bounds", scan)
        with pytest.raises(AssertionError, match="all-pairs scan"):
            FiniteLattice(B2.size, B2.covers)
        assert lattice.chain(5).length == 5
        assert grid.phi0(Permutation((3, 1, 4, 2))).lattice.length == 4
        for lat in sample:
            assert lattice.dual(lat).size == lat.size
            assert lattice.interval_sublattice(lat, lat.bottom, lat.top)[0].size == lat.size


CONES = ("up", "down")


def built(lat):
    """Which of the cones and the cover set a lattice holds, read without
    building them."""
    return [getattr(lat, f"_{name}") is not None for name in CONES] + ["covers" in lat._cache]


class TestConesOnDemand:
    @staticmethod
    def corpus():
        """Every phi0 lattice with n <= 7 and its dual, the interval
        sublattices of those with n <= 4, cyclic-group lattices, and the
        lattices of the phi0 mutants with n <= 4."""
        out = []
        for n in range(0, 8):
            for images in itertools.permutations(range(1, n + 1)):
                lat = grid.phi0(Permutation(images)).lattice
                out += [lat, lattice.dual(lat)]
                if n <= 4:
                    for x in range(lat.size):
                        out.append(iso.interval_sublattice(lat, lat.bottom, x)[0])
                        out.append(iso.interval_sublattice(lat, x, lat.top)[0])
        for primes, images in (((2,), (1,)), ((2, 3), (2, 1)), ((2, 3, 5), (2, 3, 1)),
                               ((2, 3, 5, 7), (4, 1, 3, 2))):
            inst = groups.csl_build(primes, Permutation(images))
            out += [groups.csl_lattice(inst), groups.csl_dual_diagram(inst).lattice]
        for n in range(1, 5):
            for images in itertools.permutations(range(1, n + 1)):
                for _, size, covers, _, _ in oracles.phi0_mutants(grid.phi0(Permutation(images))):
                    try:
                        out.append(FiniteLattice(size, covers))
                    except ValueError:
                        pass
        return out

    def test_built_on_first_read_match_eager_build(self):
        lattices = self.corpus()
        assert len(lattices) > 12_000
        for lat in lattices:
            want = oracles.eager_order_data(lat)
            assert (lat.up, lat.down, lat.height, lat.covers) == want
            assert lattice.lattice_to_json(lat)["covers"] == sorted(map(list, want[-1]))

    def test_read_one_builds_both_cones(self):
        lat = grid.phi0(Permutation((3, 1, 4, 2))).lattice
        assert built(lat) == [False] * 3 and type(lat) is FiniteLattice
        assert lat.is_cover(lat.bottom, lat.covers_up[lat.bottom][0])
        assert not lat.is_cover(lat.bottom, lat.top)
        assert built(lat) == [False] * 3  # is_cover reads the cover lists only
        assert lat.leq(lat.bottom, lat.top)
        assert built(lat) == [True] * 2 + [False]
        assert lat.covers == frozenset(oracles.eager_order_data(lat)[-1])
        assert built(lat) == [True] * 2 + [False]  # no pair set is cached
        for lat in (grid.phi0(Permutation((2, 1))).lattice, lat):  # coneless, then built
            with pytest.raises(AttributeError, match="no attribute 'nothing'"):
                lat.nothing

    def test_build_route_builds_no_cone(self):
        for images in ((), (1,), (3, 1, 4, 2), tuple(range(12, 0, -1))):
            pi = Permutation(images)
            d = grid.phi0(pi)
            lattice.diagram_to_json(d)
            grid.heuristic_layout(pi, d.lattice)
            lattice.to_dot(d.lattice)
            assert built(d.lattice) == [False] * 3, images

    def test_memo_holds_only_results_read_again(self):
        d = grid.phi0(Permutation((3, 1, 4, 2, 6, 5)))
        extract.extract_permutation(d, verify=True)
        extract.trajectory(d, 1)
        assert extract.diagram_count(d.lattice) == 2
        lattice.is_dually_slim(d.lattice)
        lattice.meet_irreducibles(d.lattice)
        lattice.automorphisms(d.lattice)
        assert set(d.lattice._cache) == {"semimodular", "squares", "ji", "ji_colouring",
                                         "narrows"}


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

    def test_matches_join_definition(self):
        lattices = predicate_lattices() + [grid.phi0(Permutation(images)).lattice
                                           for images in itertools.permutations(range(1, 7))]
        for lat in lattices:
            want = frozenset(
                (w, a, b, t)
                for w in range(lat.size)
                for a, b in itertools.combinations(lat.covers_up[w], 2)
                for t in [lat.join(a, b)]
                if lat.is_cover(a, t) and lat.is_cover(b, t))
            assert lattice.covering_squares(lat) == want


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

    def test_automorphisms_of_b2(self):
        autos = lattice.automorphisms(B2)
        assert len(autos) == 2  # identity and the atom swap

    def test_automorphisms_of_chain(self):
        assert lattice.automorphisms(CHAIN4) == (tuple(range(4)),)

    @staticmethod
    def m_n(k):
        """M_k: a bottom, k atoms and a top, with k! automorphisms."""
        return FiniteLattice(k + 2, [(0, a) for a in range(1, k + 1)]
                             + [(a, k + 1) for a in range(1, k + 1)])

    def test_automorphisms_below_the_cap_are_listed(self):
        autos = lattice.automorphisms(self.m_n(6))
        assert len(set(autos)) == 720 <= lattice.AUTOMORPHISMS_CAP

    def test_automorphisms_past_the_cap_refuse_at_once(self):
        started = time.process_time()  # about 40 ms of the search, unslowed by other processes
        with pytest.raises(lattice.TooLarge, match=f"more than {lattice.AUTOMORPHISMS_CAP} "):
            lattice.automorphisms(self.m_n(12))  # 479,001,600 automorphisms
        assert time.process_time() - started < 0.1


class TestSearchBudget:
    """The isomorphism search under a lowered node cap: each test states how
    many nodes (the root and one per individualization) a case needs."""

    @staticmethod
    def relabelled(lat, seed):
        """lat with its elements renumbered by a seeded shuffle."""
        ids = list(range(lat.size))
        random.Random(seed).shuffle(ids)
        covers_up = [()] * lat.size
        for x, ups in enumerate(lat.covers_up):
            covers_up[ids[x]] = sorted(ids[y] for y in ups)
        return FiniteLattice._from_covers_up(covers_up, [ids[x] for x in lat._order])

    @staticmethod
    def configuration(line):
        """A bottom, 13 atoms, 13 coatoms and a top, where coatom i covers
        the atoms i + s mod 13 for s in line.  For line (0, 1, 4) or (0, 1, 3)
        that is a cyclic 13_3 configuration: every atom and every coatom has
        three covers on each side, so refinement alone splits nothing."""
        return FiniteLattice(28, [(0, a) for a in range(1, 14)]
                             + [(1 + (i + s) % 13, 14 + i) for i in range(13) for s in line]
                             + [(c, 27) for c in range(14, 27)])

    @staticmethod
    def assert_witness(l1, l2, mapping):
        assert mapping is not None and sorted(mapping) == list(range(l1.size))
        assert all(l2.is_cover(mapping[a], mapping[b]) for a, b in l1.covers)

    def test_configurations_within_64_nodes(self, monkeypatch):
        # the isomorphic pairs take 3 nodes; the others, told apart by their
        # triangles (13 against 26), fail at the root's 13 children
        monkeypatch.setattr(iso, "ISOMORPHISM_NODE_CAP", 64)
        cyclic = self.configuration((0, 1, 4))
        for seed in range(3):
            copy = self.relabelled(cyclic, seed)
            self.assert_witness(cyclic, copy, lattice.find_isomorphism(cyclic, copy))
            other = self.relabelled(self.configuration((0, 1, 3)), seed)
            assert not lattice.is_isomorphic(cyclic, other)
            assert not lattice.is_isomorphic(other, cyclic)

    def test_isomorphic_configurations_past_the_cap_refuse(self, monkeypatch):
        # a point's stabiliser in the automorphism group has order 3, so
        # one individualization leaves classes to split and a third node is needed
        monkeypatch.setattr(iso, "ISOMORPHISM_NODE_CAP", 2)
        cyclic = self.configuration((0, 1, 4))
        with pytest.raises(lattice.TooLarge, match="exceeds 2 nodes"):
            lattice.find_isomorphism(cyclic, self.relabelled(cyclic, 0))

    def test_reversal_at_n96_in_two_nodes(self, monkeypatch):
        # 4,657 elements; refinement leaves the pairs of the mirror symmetry,
        # and one individualization splits them all
        monkeypatch.setattr(iso, "ISOMORPHISM_NODE_CAP", 2)
        lat = grid.phi0(Permutation(tuple(range(96, 0, -1)))).lattice
        copy = self.relabelled(lat, 96)
        self.assert_witness(lat, copy, lattice.find_isomorphism(lat, copy))

    def test_deeper_than_the_recursion_limit(self, monkeypatch):
        # M_1200 against a shuffled copy: the root and 1,199 individualized atoms
        k = 1200
        assert k > sys.getrecursionlimit()
        monkeypatch.setattr(iso, "ISOMORPHISM_NODE_CAP", k)
        # unvalidated: the validating constructor makes k(k - 1)/2 cover-pair tests
        m_k = FiniteLattice._from_covers_up(
            [list(range(1, k + 1))] + [[k + 1]] * k + [[]], range(k + 2))
        copy = self.relabelled(m_k, k)
        self.assert_witness(m_k, copy, lattice.find_isomorphism(m_k, copy))


def boolean_lattice(k):
    """The subsets of a k-set, ordered by inclusion."""
    return FiniteLattice(1 << k, [(x, x | 1 << i) for x in range(1 << k)
                                  for i in range(k) if not x >> i & 1])


def refinement_corpus():
    """(l1, l2, d1, d2) with diagrams d1, d2 of l1, l2, or None where the
    corpus has none: every pair of phi0 lattices with n <= 4, every pair of
    equal size with n = 5, seeded random phi0 and intersection lattice pairs
    with 5 <= n <= 12, and every pair of B2, M3, N5, the boolean lattice
    2^4 and the chains of length 0..4."""
    small = [grid.phi0(Permutation(images)) for n in range(5)
             for images in itertools.permutations(range(1, n + 1))]
    for d1, d2 in itertools.product(small, repeat=2):
        yield d1.lattice, d2.lattice, d1, d2
    five = [grid.phi0(Permutation(images)) for images in itertools.permutations(range(1, 6))]
    for d1, d2 in itertools.combinations(five, 2):
        if d1.lattice.size == d2.lattice.size:
            yield d1.lattice, d2.lattice, d1, d2
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(5, 12)
        p, q = (Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
        dp, dq = grid.phi0(p), grid.phi0(q)
        cp, cq = (groups.csl_dual_diagram(groups.csl_build(groups.first_primes(n), r))
                  for r in (p, q))
        for d1, d2 in ((dp, grid.phi0(p.inverse())), (dp, dq), (dp, cp), (cp, cq)):
            yield d1.lattice, d2.lattice, d1, d2
    fixtures = [(B2, BorderedDiagram(B2, (0, 1, 3), (0, 2, 3))), (M3, None), (N5, None),
                (boolean_lattice(4), None)]
    fixtures += [(lattice.chain(k), BorderedDiagram(lattice.chain(k), tuple(range(k + 1)),
                                                    tuple(range(k + 1)))) for k in range(5)]
    for (l1, d1), (l2, d2) in itertools.product(fixtures, repeat=2):
        yield l1, l2, d1, d2


def joint_partition(colours):
    """The colour classes of both sides together, numbered by first occurrence."""
    canon: dict = {}
    return tuple(canon.setdefault(c, len(canon)) for c in itertools.chain(*colours))


class TestJointRefinement:
    def test_sweeps_match_rounds(self):
        for l1, l2, _, _ in refinement_corpus():
            rounds = oracles.joint_refinement_by_rounds(l1, l2)
            sweeps = iso._joint_refinement(l1, l2)
            if rounds is not None and Counter(rounds[0]) == Counter(rounds[1]):
                assert sweeps is not None
                assert joint_partition(sweeps) == joint_partition(rounds)
            else:
                # rounds can stop with the sides' class sizes apart; the
                # sweeps then refuse, or stop at singleton classes whose one
                # candidate map the search rejects
                assert sweeps is None or (
                    len(set(sweeps[0])) == l1.size
                    and next(iso._search_isomorphisms(l1, l2), None) is None)

    def test_colours_match_sorting_every_cover_list(self):
        # bit-identical colour vectors, on the corpus and on phi0 lattices
        # with up to six lower covers per element
        pairs = [(l1, l2) for l1, l2, _, _ in refinement_corpus()]
        rng = random.Random(16)
        for n in (8, 12, 16, 20):
            for _ in range(3):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                lat = grid.phi0(Permutation(images)).lattice
                ids = list(range(lat.size))
                rng.shuffle(ids)
                pairs.append((lat, FiniteLattice(lat.size, [(ids[a], ids[b]) for a, b in lat.covers])))
                pairs.append((lat, grid.phi0(Permutation(images).inverse()).lattice))
        assert max(len(below) for l1, _ in pairs for below in l1.covers_down) > 2
        for l1, l2 in pairs:
            assert iso._joint_refinement(l1, l2) == oracles.joint_refinement_by_sorted_sweeps(l1, l2)

    def test_searches_unchanged_with_rounds(self, monkeypatch):
        corpus = list(refinement_corpus())
        distinct = list({id(lat): lat for l1, l2, _, _ in corpus for lat in (l1, l2)}.values())

        def answers():
            out = [lattice.find_isomorphism(l1, l2) for l1, l2, _, _ in corpus]
            out += [lattice.automorphisms(FiniteLattice(lat.size, lat.covers))
                    for lat in distinct]
            out += [lattice.boundarily_similar(d1, d2) for _, _, d1, d2 in corpus
                    if d1 is not None and d2 is not None]
            return out

        sweeps = answers()
        monkeypatch.setattr(iso, "_joint_refinement", oracles.joint_refinement_by_rounds)
        assert answers() == sweeps


class TestStartingColours:
    """The starting keys are order invariants, so against a relabelled copy
    the root of every search gives the copy the original's colours, moved by
    the relabelling."""

    @staticmethod
    def cases():
        """(lattice, diagram or None): phi0 of every permutation with n <= 5
        and of 20 seeded random ones for each 6 <= n <= 10, and every
        lattice of the refinement corpus."""
        perms = [Permutation(images) for n in range(6)
                 for images in itertools.permutations(range(1, n + 1))]
        rng = random.Random(20)
        perms += [Permutation(tuple(rng.sample(range(1, n + 1), n)))
                  for n in range(6, 11) for _ in range(20)]
        cases = [(d.lattice, d) for d in map(grid.phi0, perms)]
        return cases + list({id(l1): (l1, d1) for l1, _, d1, _ in refinement_corpus()}.values())

    def test_relabelled_copies_get_moved_colours(self, monkeypatch):
        roots = []
        refine = iso._joint_refinement

        def recorded(l1, l2, start=None):
            refined = refine(l1, l2, start)
            # copied, as the search splits classes in place
            roots.append(refined and tuple(map(list, refined)))
            return refined

        monkeypatch.setattr(iso, "_joint_refinement", recorded)
        pinned = 0
        for seed, (lat, d) in enumerate(self.cases()):
            ids = list(range(lat.size))
            random.Random(seed).shuffle(ids)
            copy = TestSearchBudget.relabelled(lat, seed)
            roots.clear()
            assert lattice.find_isomorphism(lat, copy) is not None
            c1, c2 = roots[0]
            assert [c2[ids[x]] for x in range(lat.size)] == c1
            if d is None:
                continue
            moved = BorderedDiagram(copy, tuple(ids[x] for x in d.left_chain),
                                    tuple(ids[x] for x in d.right_chain))
            roots.clear()
            assert lattice.boundarily_similar(d, moved)
            c1, c2 = roots[0]
            assert [c2[ids[x]] for x in range(lat.size)] == c1
            # each pin starts in a class of its own
            chains = {*d.left_chain, *d.right_chain}
            assert all(c1.count(c1[x]) == 1 for x in chains)
            pinned += 1
        assert pinned >= 450  # 463


def boundary_pins(d1, d2):
    """boundarily_similar's pinned pairs, or None when the chains conflict."""
    if len(d1.left_chain) != len(d2.left_chain):
        return None
    pinned: dict[int, int] = {}
    for x, y in itertools.chain(zip(d1.left_chain, d2.left_chain),
                                zip(d1.right_chain, d2.right_chain)):
        if pinned.setdefault(x, y) != y:
            return None
    return pinned


class TestSingletonShortcut:
    def test_witnesses_match_backtracking(self):
        singleton = 0
        for l1, l2, d1, d2 in refinement_corpus():
            refined = iso._joint_refinement(l1, l2)
            if refined is not None and len(set(refined[0])) == l1.size:
                singleton += 1
            expected = next(oracles.isomorphisms_by_backtracking(l1, l2), None)
            assert lattice.find_isomorphism(l1, l2) == expected
            if d1 is not None and d2 is not None:
                pinned = boundary_pins(d1, d2)
                expected = pinned is not None and any(
                    oracles.isomorphisms_by_backtracking(l1, l2, pinned=pinned))
                assert lattice.boundarily_similar(d1, d2) == expected
        assert singleton > 100  # 134 pairs take the singleton route

    def test_automorphisms_match_backtracking(self):
        corpus = list(refinement_corpus())
        for lat in {id(lat): lat for l1, l2, _, _ in corpus for lat in (l1, l2)}.values():
            copy = FiniteLattice(lat.size, lat.covers)
            assert lattice.automorphisms(copy) == tuple(
                oracles.isomorphisms_by_backtracking(lat, lat, limit=None))

    def test_stub_singletons_on_non_isomorphic_lattices_yield_nothing(self, monkeypatch):
        # B2 with a top added: the heights of N5, and not isomorphic to it
        b2_top = FiniteLattice(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        monkeypatch.setattr(iso, "_joint_refinement",
                            lambda l1, l2, start=None: (list(range(l1.size)), list(range(l2.size))))
        assert lattice.find_isomorphism(N5, b2_top) is None
        assert lattice.find_isomorphism(b2_top, N5) is None
        # the identity maps every cover of the first onto a cover of the
        # second, and only the cover counts tell the two apart
        hexagon = FiniteLattice(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)])
        braced = FiniteLattice(6, sorted(hexagon.covers | {(1, 4)}))
        assert lattice.find_isomorphism(hexagon, braced) is None
        assert lattice.find_isomorphism(braced, hexagon) is None
        assert lattice.find_isomorphism(B2, B2) == (0, 1, 2, 3)
        d = BorderedDiagram(B2, (0, 1, 3), (0, 2, 3))
        assert not lattice.boundarily_similar(d, d.reflected())

    def test_stub_colours_decide_the_one_candidate(self, monkeypatch):
        stubs = {"swap atoms": [0, 2, 1, 3], "bottom to top": [3, 1, 2, 0],
                 "foreign colours": [4, 5, 6, 7]}
        found = {}
        for name, c2 in stubs.items():
            monkeypatch.setattr(iso, "_joint_refinement",
                                lambda l1, l2, start=None, c2=c2: ([0, 1, 2, 3], list(c2)))
            found[name] = lattice.find_isomorphism(B2, B2)
        assert found == {"swap atoms": (0, 2, 1, 3), "bottom to top": None,
                         "foreign colours": None}


class TestIntervalAndChains:
    def test_interval_sublattice(self):
        sub, elems = lattice.interval_sublattice(N5, 0, 2)
        assert elems == (0, 1, 2)
        assert sub.length == 2
        with pytest.raises(ValueError, match="4 is not below 0"):
            lattice.interval_sublattice(N5, N5.top, N5.bottom)

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

    @pytest.mark.parametrize("name", ["M3", "2^3", "N5 with a third atom",
                                      "N5 with a second long side"])
    def test_no_diagram_of_a_non_slim_lattice(self, name):
        # the extractors test semimodularity only, as a diagram's lattice is slim
        lat = {"M3": M3, "2^3": boolean_lattice(3),
               # 0 < a < c < 1 as in N5, with b and d atoms below 1
               "N5 with a third atom": FiniteLattice(
                   6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 5), (0, 4), (4, 5)]),
               # 0 < a < c < 1 and 0 < b < d < 1, with the atom e below 1
               "N5 with a second long side": FiniteLattice(
                   7, [(0, 1), (1, 2), (2, 6), (0, 3), (3, 4), (4, 6), (0, 5), (5, 6)]),
               }[name]
        assert not lattice.is_slim(lat)
        chains = oracles.maximal_chains(lat, lat.bottom, lat.top)
        assert len(chains) >= 3
        for left, right in itertools.product(chains, repeat=2):
            with pytest.raises(lattice.InvalidDiagram, match="not on either chain"):
                BorderedDiagram(lat, left, right)

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

    def test_m_k_diagram_refused_before_the_join_check(self, monkeypatch):
        # M_k's k atoms are join-irreducible and at most two lie on the
        # chains; the join check would test k(k - 1)/2 pairs of atoms
        def refuse(self):
            raise AssertionError("join check run")

        k = 2000
        obj = {"size": k + 2,
               "covers": [[0, a] for a in range(1, k + 1)] + [[a, k + 1] for a in range(1, k + 1)],
               "left_chain": [0, 1, k + 1], "right_chain": [0, 2, k + 1]}
        monkeypatch.setattr(FiniteLattice, "_check_bounds", refuse)
        with pytest.raises(lattice.InvalidDiagram, match="not on either chain"):
            lattice.diagram_from_json(obj)
        obj["covers"].append([1, 2])  # a transitive edge: the order checks still come first
        with pytest.raises(lattice.NotReduced):
            lattice.diagram_from_json(obj)

    def test_diagram_join_check_follows_the_chains(self):
        # a bounded order with one pair of atoms below two incomparable
        # elements has no join, whatever the chains
        covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
        obj = {"size": 6, "covers": covers, "left_chain": [0, 1, 3, 5],
               "right_chain": [0, 2, 4, 5]}
        with pytest.raises(lattice.NotALattice, match="no join"):
            lattice.diagram_from_json(obj)
        obj["right_chain"] = [0, 1, 4, 5]
        with pytest.raises(lattice.InvalidDiagram, match=r"join-irreducibles \[2\]"):
            lattice.diagram_from_json(obj)

    def test_dot_output(self):
        dot = lattice.to_dot(B2)
        assert dot.startswith("digraph")
        assert "rank=same" in dot
        assert "n0 -> n1;" in dot
        assert dot.count("->") == 4
