import itertools
import random
import re
import time

import pytest

import oracles
from slimlat import extract, grid, groups, lattice, perm
from slimlat.lattice import BorderedDiagram, FiniteLattice
from slimlat.perm import Permutation, rho_class

B2_LEFT_VIA_A = BorderedDiagram(
    FiniteLattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), (0, 1, 3), (0, 2, 3))
CHAIN_D = BorderedDiagram(lattice.chain(3), (0, 1, 2, 3), (0, 1, 2, 3))
N5 = FiniteLattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
M3 = FiniteLattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def all_perms(n):
    return (Permutation(images) for images in itertools.permutations(range(1, n + 1)))


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_block_sum(rng, n):
    """A direct sum of random permutations of sizes 1..6 adding up to n."""
    images = []
    while len(images) < n:
        block = random_perm(rng, min(rng.randint(1, 6), n - len(images))).images
        images += [v + len(images) for v in block]
    return Permutation(tuple(images))


def chains_of(diagrams):
    return [(d.left_chain, d.right_chain) for d in diagrams]


class TestPi1:
    def test_chain_is_identity(self):
        assert extract.pi1_trajectories(CHAIN_D) == Permutation((1, 2, 3))

    def test_b2(self):
        assert extract.pi1_trajectories(B2_LEFT_VIA_A) == Permutation((2, 1))

    def test_round_trip_exhaustive(self):
        for pi in all_perms(4):
            assert extract.pi1_trajectories(grid.phi0(pi)) == pi

    def test_trajectory_structure(self):
        d = grid.phi0(Permutation((3, 1, 4, 2)))
        squares = lattice.covering_squares(d.lattice)
        for i in range(1, 5):
            walk = extract.trajectory(d, i).edges
            assert len(set(walk)) == len(walk)
            for e, f in zip(walk, walk[1:]):
                # consecutive edges must be opposite sides of one square
                assert any({(w, a), (b, t)} == {e, f} or {(w, b), (a, t)} == {e, f}
                           for w, a, b, t in squares)

    def test_trajectory_refuses_edges_off_the_left_chain(self):
        d = grid.phi0(Permutation((2, 3, 1)))
        for i in (0, -1, 4):
            with pytest.raises(IndexError, match=f"left edge {i} outside 1..3"):
                extract.trajectory(d, i)

    def test_requires_slim_semimodular(self):
        d = BorderedDiagram(N5, (0, 1, 2, 4), (0, 3, 4))
        with pytest.raises(extract.NotSlimSemimodular):
            extract.pi1_trajectories(d)

    def test_edge_in_three_squares_rejected(self):
        # in the Boolean lattice 2^4 every edge borders three covering squares;
        # the refusal is a typed error, so it also holds under python -O
        boolean = FiniteLattice(16, [(x, x | 1 << k) for x in range(16) for k in range(4)
                                     if not x >> k & 1])
        with pytest.raises(extract.NotSlimSemimodular, match="more than two"):
            extract._opposite_edges(boolean)


class TestPi2:
    def test_chain_is_identity(self):
        assert extract.pi2_meet_irreducibles(CHAIN_D) == Permutation((1, 2, 3))

    def test_b2(self):
        assert extract.pi2_meet_irreducibles(B2_LEFT_VIA_A) == Permutation((2, 1))

    def test_round_trip_exhaustive(self):
        for pi in all_perms(4):
            assert extract.pi2_meet_irreducibles(grid.phi0(pi)) == pi

    def test_right_to_left_is_inverse(self):
        for pi in all_perms(4):
            d = grid.phi0(pi)
            assert extract.pi2_meet_irreducibles(d.reflected()) == pi.inverse()


class TestPi3:
    def test_chain_is_identity(self):
        assert extract.pi3_source_cells(CHAIN_D) == Permutation((1, 2, 3))

    def test_b2(self):
        assert extract.pi3_source_cells(B2_LEFT_VIA_A) == Permutation((2, 1))

    def test_round_trip_exhaustive(self):
        for pi in all_perms(5):
            assert extract.pi3_source_cells(grid.phi0(pi)) == pi


class TestExtractPermutation:
    def test_agreement_everywhere_small(self):
        for n in range(0, 5):
            for pi in all_perms(n):
                d = grid.phi0(pi)
                assert extract.extract_permutation(d, verify=True) == pi

    def test_verify_false_path(self):
        d = grid.phi0(Permutation((3, 1, 2)))
        assert extract.extract_permutation(d, verify=False) == Permutation((3, 1, 2))

    def test_reflection_inverts(self):
        for pi in all_perms(4):
            d = grid.phi0(pi)
            assert extract.extract_permutation(d.reflected()) == pi.inverse()

    def test_checks_the_other_two_as_permutations_in_order(self, monkeypatch):
        # pi2 gives (3, 1, 2) here; pi1's images, then pi3's, are validated
        # only where they differ from it, and raise what Permutation raises
        d = grid.phi0(Permutation((3, 1, 2)))
        cases = [((3, 1, 2), (3, 1, 2), None),
                 ((3, 3, 2), (3, 1, 2), perm.DuplicateValue),
                 ((3, 1, 2), (0, 1, 2), perm.OutOfRange),
                 ((3, 1), (3, 1, 2), perm.OutOfRange),
                 ((3, 3, 2), (4, 1, 2), perm.DuplicateValue),
                 ((1, 2, 3), (3, 1, 2), extract.ExtractorDisagreement),
                 ((3, 1, 2), (2, 3, 1), extract.ExtractorDisagreement)]
        for p1, p3, raised in cases:
            monkeypatch.setattr(extract, "_trajectory_images", lambda _, p1=p1: p1)
            monkeypatch.setattr(extract, "_source_cell_images", lambda _, p3=p3: p3)
            if raised is None:
                assert extract.extract_permutation(d) == Permutation((3, 1, 2))
            else:
                with pytest.raises(raised):
                    extract.extract_permutation(d)
            assert extract.extract_permutation(d, verify=False) == Permutation((3, 1, 2))
        monkeypatch.setattr(extract, "_trajectory_images", lambda _: (3, 3, 2))
        with pytest.raises(perm.DuplicateValue):
            extract.pi1_trajectories(d)


class TestDiagramsOf:
    def test_chain_has_one_diagram(self):
        assert extract.diagram_count(lattice.chain(4)) == 1

    def test_b2_has_one_diagram(self):
        # the atom swap is an automorphism of the component, so the
        # reflection is identified
        assert extract.diagram_count(B2_LEFT_VIA_A.lattice) == 1

    def test_three_cycle_has_two(self):
        diagrams = extract.diagrams_of(grid.phi0(Permutation((2, 3, 1))).lattice)
        assert len(diagrams) == 2
        extracted = {extract.extract_permutation(d).images for d in diagrams}
        assert extracted == {(2, 3, 1), (3, 1, 2)}

    def test_counts_match_class_sizes(self):
        for n in range(1, 5):
            for pi in all_perms(n):
                lat = grid.phi0(pi).lattice
                assert extract.diagram_count(lat) == len(rho_class(pi))

    def test_extracted_set_is_the_class(self):
        for n in range(1, 5):
            for pi in all_perms(n):
                diagrams = extract.diagrams_of(grid.phi0(pi).lattice)
                got = frozenset(extract.extract_permutation(d) for d in diagrams)
                assert got == rho_class(pi)

    def test_rejects_non_slim(self):
        with pytest.raises(extract.NotSlimSemimodular):
            extract.diagrams_of(M3)

    def test_rejects_non_semimodular(self):
        with pytest.raises(extract.NotSlimSemimodular):
            extract.diagrams_of(N5)

    def test_singleton(self):
        one = lattice.from_covers(1, [])
        assert extract.diagram_count(one) == 1

    @staticmethod
    def three_cycles(k):
        """phi0 of k copies of (2,3,1) summed: 2^k diagrams."""
        return grid.phi0(Permutation(tuple(
            3 * b + v for b in range(k) for v in (2, 3, 1)))).lattice

    def test_refuses_more_than_the_cap(self):
        assert extract.DIAGRAMS_OF_CAP == 4096
        for k in (13, 32):
            lat = self.three_cycles(k)
            start = time.perf_counter()
            with pytest.raises(lattice.TooLarge, match=f"{2 ** k} diagrams exceed the cap 4096"):
                extract.diagrams_of(lat)
            assert time.perf_counter() - start < 0.1
            assert extract.diagram_count(lat) == 2 ** k

    def test_builds_up_to_the_cap(self):
        diagrams = extract.diagrams_of(self.three_cycles(12))
        assert len(diagrams) == 4096 == len(set(chains_of(diagrams)))

    def test_assembles_what_the_validating_constructor_accepts(self):
        # diagrams_of and phi0 build their diagrams without BorderedDiagram's checks
        for n in range(0, 8):
            for pi in all_perms(n):
                built = grid.phi0(pi)
                assert built == BorderedDiagram(built.lattice, built.left_chain,
                                                built.right_chain), pi
                for d in extract.diagrams_of(built.lattice):
                    assert d == BorderedDiagram(d.lattice, d.left_chain, d.right_chain), pi

    def test_matches_search_oracle_exhaustive(self):
        for n in range(0, 7):
            for pi in all_perms(n):
                lat = grid.phi0(pi).lattice
                assert (chains_of(extract.diagrams_of(lat))
                        == oracles.diagram_chains_by_automorphisms(lat)), pi

    def test_matches_search_oracle_random_indecomposable(self):
        rng = random.Random(4)
        for n in (9, 9, 10, 10):
            pi = random_perm(rng, n)
            while len(perm.segments(pi).segments) > 1:
                pi = random_perm(rng, n)
            lat = grid.phi0(pi).lattice
            assert (chains_of(extract.diagrams_of(lat))
                    == oracles.diagram_chains_by_automorphisms(lat)), pi

    def test_count_is_class_size_at_n24(self):
        rng = random.Random(24)
        for _ in range(5):
            pi = random_perm(rng, 24)
            lat = grid.phi0(pi).lattice
            started = time.perf_counter()
            count = extract.diagram_count(lat)
            assert time.perf_counter() - started < 1.0, pi
            assert count == len(rho_class(pi)), pi

    def test_many_symmetric_blocks(self):
        # (2,1) summed 20 times: every component is a square whose
        # automorphism swaps its boundary chains, so there is one diagram
        pi = Permutation(tuple(k + (1 if k % 2 else -1) for k in range(1, 41)))
        assert extract.diagram_count(grid.phi0(pi).lattice) == 1

    def test_chain_pairs_match_per_component_colouring(self):
        lattices = [grid.phi0(pi).lattice for n in range(0, 7) for pi in all_perms(n)]
        rng = random.Random(13)
        for n in range(4, 25):
            lattices.append(grid.phi0(random_block_sum(rng, n)).lattice)
        # phi0 numbers elements upward; shuffled ids start the colouring's
        # components elsewhere
        for lat in lattices[-21:] + [lat for lat in lattices if lat.length == 5]:
            ids = list(range(lat.size))
            rng.shuffle(ids)
            lattices.append(FiniteLattice(lat.size, [(ids[a], ids[b]) for a, b in lat.covers]))
        # two-chain components above the lowest one, where the shared colouring
        # need not use the colours 0 and 1
        later_two_chain = 0
        for lat in lattices:
            nar = lattice.narrows(lat)
            for lo, hi in zip(nar, nar[1:]):
                u, v = extract._component_chain_pair(lat, lo, hi)
                assert (u, v) == oracles.chain_pair_by_component_colouring(lat, lo, hi)
                later_two_chain += u != v and lo != lat.bottom
        assert later_two_chain > 200

    def test_chain_pair_rejects_three_incomparable_join_irreducibles(self):
        with pytest.raises(extract.NotSlimSemimodular, match="two chains"):
            extract._component_chain_pair(M3, 0, 4)


def unchecked_diagram(lat, left, right):
    """A BorderedDiagram built without the constructor's checks, to reach the
    refusals the extractors make themselves."""
    diagram = object.__new__(BorderedDiagram)
    for name, value in (("lattice", lat), ("left_chain", left), ("right_chain", right)):
        object.__setattr__(diagram, name, value)
    return diagram


EXTRACTORS = (extract.pi1_trajectories, extract.pi2_meet_irreducibles, extract.pi3_source_cells)
M3_DIAGRAM = unchecked_diagram(M3, (0, 1, 4), (0, 2, 4))
BOOLEAN_4 = FiniteLattice(16, [(x, x | 1 << k) for x in range(16) for k in range(4)
                               if not x >> k & 1])


def refusal(call):
    try:
        call()
    except Exception as exc:  # the type and message are the data
        return type(exc), str(exc)
    return None


class TestErrorPaths:
    NOT_SEMIMODULAR = (extract.NotSlimSemimodular, "lattice is not semimodular")

    def test_mutated_phi0_diagrams(self):
        # Every mutant is refused by the lattice or diagram constructor, or by
        # all three extractors alike, or extracted alike by all three.  A
        # diagram of a semimodular lattice is a diagram of a slim semimodular
        # one, whose two chains are its boundary chains, so the extractors'
        # own refusals are unreachable here.
        allowed = {
            "lattice": {(lattice.NotALattice,
                         r"order must have a least and a greatest element")},
            "diagram": {(lattice.InvalidDiagram, r"join-irreducibles \[\d+\] not on either chain"),
                        (lattice.InvalidDiagram, r"left chain step \(\d+, \d+\) is not a cover")},
        }
        outcomes = set()
        for n in range(1, 5):
            for pi in all_perms(n):
                for kind, size, covers, left, right in oracles.phi0_mutants(grid.phi0(pi)):
                    got = refusal(lambda: FiniteLattice(size, covers))
                    stage = "lattice"
                    if got is None:
                        lat = FiniteLattice(size, covers)
                        got = refusal(lambda: BorderedDiagram(lat, left, right))
                        stage = "diagram"
                    if got is not None:
                        assert any(got[0] is cls and re.fullmatch(pattern, got[1])
                                   for cls, pattern in allowed[stage]), (kind, got)
                        outcomes.add((kind, got[0]))
                        continue
                    diagram = BorderedDiagram(lat, left, right)
                    refusals = [refusal(lambda: f(diagram)) for f in EXTRACTORS]
                    if refusals[0] is not None:
                        assert refusals == [self.NOT_SEMIMODULAR] * 3, (kind, refusals)
                        outcomes.add((kind, extract.NotSlimSemimodular))
                        continue
                    p1, p2, p3 = (f(diagram) for f in EXTRACTORS)
                    assert p1 == p2 == p3, (kind, p1, p2, p3)
                    if kind == "swapped":
                        assert p1 == pi.inverse()
                    nar = lattice.narrows(lat)
                    for lo, hi in zip(nar, nar[1:]):
                        extract._component_chain_pair(lat, lo, hi)
                    outcomes.add((kind, None))
        assert outcomes == {
            ("swapped", None), ("swapped step", None),
            ("swapped step", lattice.InvalidDiagram),
            ("dropped cover", lattice.NotALattice), ("dropped cover", lattice.InvalidDiagram),
            ("dropped cover", extract.NotSlimSemimodular),
            ("added element", lattice.InvalidDiagram), ("added element", None),
            ("added element", extract.NotSlimSemimodular),
        }

    def test_n5(self):
        d = BorderedDiagram(N5, (0, 1, 2, 4), (0, 3, 4))
        assert [refusal(lambda: f(d)) for f in EXTRACTORS] == [self.NOT_SEMIMODULAR] * 3
        with pytest.raises(extract.NotSlimSemimodular, match="^lattice is not semimodular$"):
            extract.diagrams_of(N5)

    def test_m3(self):
        with pytest.raises(lattice.InvalidDiagram,
                           match=re.escape("join-irreducibles [3] not on either chain")):
            BorderedDiagram(M3, (0, 1, 4), (0, 2, 4))
        with pytest.raises(extract.NotSlimSemimodular,
                           match=re.escape("join-irreducibles of [0, 4] are not two chains")):
            extract._component_chain_pair(M3, 0, 4)
        with pytest.raises(extract.NotSlimSemimodular, match="^lattice is not slim$"):
            extract.diagram_count(M3)

    def test_boolean_4(self):
        with pytest.raises(extract.NotSlimSemimodular,
                           match="^edge in more than two covering squares$"):
            extract._opposite_edges(BOOLEAN_4)
        chain = (0, 1, 3, 7, 15)
        with pytest.raises(extract.NotSlimSemimodular,
                           match="^edge in more than two covering squares$"):
            extract.pi1_trajectories(unchecked_diagram(BOOLEAN_4, chain, chain))
        with pytest.raises(extract.UniquenessViolated,
                           match="^filter difference at step 1 is not a chain$"):
            extract.pi2_meet_irreducibles(unchecked_diagram(BOOLEAN_4, chain, chain))

    def test_refusals_past_the_constructor(self):
        # M3 is semimodular; with a join-irreducible off both chains, the
        # walk from the left edge (0, 1) meets two squares, and the elements
        # above 0 but not above 1 are not a chain.  Edges print as pairs.
        with pytest.raises(extract.TrajectoryAmbiguous,
                           match=re.escape("left edge (0, 1) borders two squares")):
            extract.pi1_trajectories(M3_DIAGRAM)
        with pytest.raises(extract.TrajectoryAmbiguous,
                           match=re.escape("left edge (0, 1) borders two squares")):
            extract.trajectory(M3_DIAGRAM, 1)
        with pytest.raises(extract.UniquenessViolated,
                           match="^filter difference at step 1 is not a chain$"):
            extract.pi2_meet_irreducibles(M3_DIAGRAM)
        # both chains on one side of the square: the trajectory from their
        # shared first edge ends on (2, 3), an edge of neither chain
        square = B2_LEFT_VIA_A.lattice
        with pytest.raises(extract.TrajectoryAmbiguous, match=re.escape(
                "trajectory 1 meets left edges [1] and right edges [1]")):
            extract.pi1_trajectories(unchecked_diagram(square, (0, 1, 3), (0, 1, 3)))


def parity_corpus():
    """Diagrams for the parity of the production extractor routines with
    their former ones in oracles: phi0 for n <= 6, the phi0 mutants for
    n <= 4 that pass the constructors, group diagrams for n <= 8 (every
    permutation up to 6, 60 random ones at 7 and at 8), and two that no
    constructor admits."""
    diagrams = [grid.phi0(pi) for n in range(0, 7) for pi in all_perms(n)]
    for n in range(1, 5):
        for pi in all_perms(n):
            for _, size, covers, left, right in oracles.phi0_mutants(grid.phi0(pi)):
                try:
                    diagrams.append(BorderedDiagram(FiniteLattice(size, covers), left, right))
                except ValueError:
                    pass
    rng = random.Random(8)
    for n in range(1, 9):
        perms = list(all_perms(n)) if n <= 6 else [random_perm(rng, n) for _ in range(60)]
        primes = groups.first_primes(n)
        diagrams += [groups.csl_dual_diagram(groups.csl_build(primes, pi)) for pi in perms]
    chain = (0, 1, 3, 7, 15)
    return diagrams + [M3_DIAGRAM, unchecked_diagram(BOOLEAN_4, chain, chain)]


class TestFormerRoutes:
    def test_source_cells_by_masks_match_lowest_bits(self):
        refused = 0
        for d in parity_corpus():
            want = refusal(lambda: oracles.source_cell_images_by_lowest_bits(d))
            assert refusal(lambda: extract._source_cell_images(d)) == want, d
            if want is None:
                assert (extract._source_cell_images(d)
                        == oracles.source_cell_images_by_lowest_bits(d)), d
            refused += want is not None
        assert refused > 0

    def test_opposite_edges_match_the_pair_loop(self):
        refused = 0
        for d in parity_corpus():
            want = refusal(lambda: oracles.opposite_edges_by_pair_loop(d.lattice))
            assert refusal(lambda: extract._opposite_edges(d.lattice)) == want, d
            if want is None:
                assert (extract._opposite_edges(d.lattice)
                        == oracles.opposite_edges_by_pair_loop(d.lattice)), d
            refused += want is not None
        assert refused > 0


class TestBoundarySimilarity:
    def test_self_similar(self):
        d = grid.phi0(Permutation((2, 3, 1)))
        assert lattice.boundarily_similar(d, d)

    def test_reflection_of_asymmetric_not_similar(self):
        d = grid.phi0(Permutation((2, 3, 1)))
        assert not lattice.boundarily_similar(d, d.reflected())

    def test_reflection_of_b2_similar(self):
        d = grid.phi0(Permutation((2, 1)))
        assert lattice.boundarily_similar(d, d.reflected())

    def test_across_lattices(self):
        d1 = grid.phi0(Permutation((2, 1, 3)))
        d2 = grid.phi0(Permutation((2, 1, 3)))
        assert lattice.boundarily_similar(d1, d2)
        assert not lattice.boundarily_similar(d1, grid.phi0(Permutation((1, 2, 3))))
