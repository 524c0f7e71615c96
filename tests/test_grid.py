import itertools
import json
import random

import pytest

import oracles
from slimlat import cli, grid, lattice, verify
from slimlat.grid import Grid, GridCell, GridCongruence
from slimlat.perm import LengthMismatch, Permutation, segments


def all_perms(n):
    return (Permutation(images) for images in itertools.permutations(range(1, n + 1)))


class TestGrid:
    def test_join_meet(self):
        g = Grid(3)
        assert g.join((1, 2), (2, 0)) == (2, 2)
        assert g.meet((1, 2), (2, 0)) == (1, 0)

    def test_refuses_sides_and_points_outside_the_grid(self):
        for side in (2.5, True, "3", -1):
            with pytest.raises(ValueError, match="side"):
                Grid(side)
        g = Grid(3)
        assert g.coords(15) == (3, 3) and g.join((3, 0), (0, 3)) == (3, 3)
        for e in (16, 99, -1):
            with pytest.raises(IndexError, match=f"element {e} outside the grid of side 3"):
                g.coords(e)
        for x, y in (((9, 0), (0, 0)), ((0, 0), (0, 4)), ((-1, 2), (1, 1))):
            for op in (g.join, g.meet):
                with pytest.raises(IndexError, match="outside the grid of side 3"):
                    op(x, y)

    def test_prime_interval_count(self):
        for n in range(0, 5):
            assert len(list(Grid(n).prime_intervals())) == 2 * n * (n + 1)

    def test_index_round_trip(self):
        g = Grid(4)
        for coord in g.elements():
            assert g.coords(g.index(coord)) == coord
        with pytest.raises(IndexError):
            g.index((5, 0))


class TestJcongCell:
    def test_n1_cell(self):
        kappa = grid.jcong_cell(Grid(1), GridCell(1, 1))
        assert oracles.congruence_blocks(kappa) == frozenset({
            frozenset({(0, 0)}),
            frozenset({(0, 1), (1, 0), (1, 1)}),
        })

    def test_n2_cell_11(self):
        # frozen from the naive fixpoint oracle
        kappa = grid.jcong_cell(Grid(2), GridCell(1, 1))
        assert oracles.congruence_blocks(kappa) == frozenset({
            frozenset({(0, 0)}),
            frozenset({(0, 1), (1, 0), (1, 1)}),
            frozenset({(0, 2), (1, 2)}),
            frozenset({(2, 0), (2, 1)}),
            frozenset({(2, 2)}),
        })

    def test_cell_out_of_range(self):
        with pytest.raises(grid.CellOutOfRange):
            grid.jcong_cell(Grid(2), GridCell(3, 1))

    def test_matches_naive_closure(self):
        for n in (1, 2):
            g = Grid(n)
            for cell in g.cells():
                got = oracles.congruence_blocks(grid.jcong_cell(g, cell))
                pairs = [((cell.i - 1, cell.j), (cell.i, cell.j)),
                         ((cell.i, cell.j - 1), (cell.i, cell.j))]
                assert got == oracles.naive_join_closure(n, pairs)


class TestClosure:
    def test_empty_generators(self):
        g = Grid(2)
        assert grid.congruence_closure(g, []) == GridCongruence.identity(2)

    def test_closure_labels_empty(self):
        assert grid._closure_labels(0, []) == (0,)

    def test_closure_labels_match_naive_oracle(self):
        rng = random.Random(9)
        for n in (1, 2):
            coords = [(i, j) for i in range(n + 1) for j in range(n + 1)]
            for _ in range(6):
                coord_pairs = [(rng.choice(coords), rng.choice(coords))
                               for _ in range(2)]
                flat = [(a[0] * (n + 1) + a[1], b[0] * (n + 1) + b[1])
                        for a, b in coord_pairs]
                labels = grid._closure_labels(n, flat)
                blocks: dict[int, set] = {}
                for e, lab in enumerate(labels):
                    blocks.setdefault(lab, set()).add(divmod(e, n + 1))
                got = frozenset(frozenset(b) for b in blocks.values())
                assert got == oracles.naive_join_closure(n, coord_pairs)

    def test_canonical_labeling(self):
        # (0,1)~(0,0) propagates to (1,1)~(1,0); labels follow first occurrence
        kappa = grid.congruence_closure(Grid(1), [((0, 1), (0, 0))])
        assert kappa.labels == (0, 0, 1, 1)

    def test_merging_top_with_bottom_collapses_everything(self):
        kappa = grid.congruence_closure(Grid(1), [((1, 1), (0, 0))])
        assert kappa.labels == (0, 0, 0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            grid.congruence_closure(Grid(1), [((0, 0), (2, 0))])

    def test_same_generators_as_cell(self):
        g = Grid(1)
        pairs = [((0, 1), (1, 1)), ((1, 0), (1, 1))]
        assert grid.congruence_closure(g, pairs) == grid.jcong_cell(g, GridCell(1, 1))

    def test_join_of_congruences_is_closure_of_union(self):
        g = Grid(2)
        for c1, c2 in itertools.combinations(list(g.cells()), 2):
            k1, k2 = grid.jcong_cell(g, c1), grid.jcong_cell(g, c2)
            joined = grid.congruence_closure(g, k1.generator_pairs() + k2.generator_pairs())
            direct = grid.congruence_closure(
                g, oracles.cell_generators(c1) + oracles.cell_generators(c2))
            assert joined == direct

    def test_random_generators_match_naive_oracle(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            g = Grid(n)
            coords = list(g.elements())
            for _ in range(16):
                pairs = [(rng.choice(coords), rng.choice(coords))
                         for _ in range(rng.randrange(4))]
                got = oracles.congruence_blocks(grid.congruence_closure(g, pairs))
                assert got == oracles.naive_join_closure(n, pairs)

    def test_closure_labels_match_worklist_oracle(self):
        rng = random.Random(13)
        for n in range(0, 9):
            size = (n + 1) * (n + 1)
            for _ in range(40):
                pairs = [(rng.randrange(size), rng.randrange(size))
                         for _ in range(rng.randrange(6))]
                assert grid._closure_labels(n, pairs) == oracles.worklist_join_closure(n, pairs)

    def test_closure_labels_match_worklist_oracle_at_n32(self):
        rng = random.Random(17)
        g = Grid(32)
        for _ in range(3):
            images = list(range(1, 33))
            rng.shuffle(images)
            pairs = [(g.index(x), g.index(y)) for i, j in enumerate(images, start=1)
                     for x, y in oracles.cell_generators(GridCell(i, j))]
            assert grid._closure_labels(32, pairs) == oracles.worklist_join_closure(32, pairs)

    def test_closure_labels_match_formula_on_every_permutation(self):
        for n in range(0, 7):
            g = Grid(n)
            for pi in all_perms(n):
                pairs = [(g.index(x), g.index(y)) for i, j in enumerate(pi.images, start=1)
                         for x, y in oracles.cell_generators(GridCell(i, j))]
                assert grid._closure_labels(n, pairs) == grid._formula_blocks(n, pi.images)[0]

    def test_closure_labels_match_formula_up_to_n96(self):
        rng = random.Random(96)
        for n in [7] * 20 + list(range(8, 97, 4)):
            g = Grid(n)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            pairs = [(g.index(x), g.index(y)) for i, j in enumerate(images, start=1)
                     for x, y in oracles.cell_generators(GridCell(i, j))]
            assert grid._closure_labels(n, pairs) == grid._formula_blocks(n, tuple(images))[0]

    def test_closure_is_join_compatible(self):
        rng = random.Random(5)
        for n in (2, 3):
            g = Grid(n)
            coords = list(g.elements())
            for _ in range(5):
                pairs = [(rng.choice(coords), rng.choice(coords)) for _ in range(3)]
                assert grid.congruence_closure(g, pairs).is_join_compatible()


class TestBeta:
    def test_n1(self):
        kappa = grid.beta_from_perm(Grid(1), Permutation((1,)))
        assert kappa.num_blocks == 2

    def test_transposition_gives_b2(self):
        kappa = grid.beta_from_perm(Grid(2), Permutation((2, 1)))
        assert kappa.num_blocks == 4
        lat, _ = grid.quotient(kappa)
        assert lattice.is_isomorphic(
            lat, lattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))

    def test_identity_gives_chain(self):
        kappa = grid.beta_from_perm(Grid(3), Permutation((1, 2, 3)))
        lat, _ = grid.quotient(kappa)
        assert lat.size == 4 and lat.length == 3
        assert lattice.is_isomorphic(lat, lattice.chain(3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            grid.beta_from_perm(Grid(3), Permutation((2, 1)))
        with pytest.raises(LengthMismatch):
            grid.beta_from_formula(Grid(3), Permutation((2, 1)))
        with pytest.raises(LengthMismatch):
            grid.beta_formula(3, Permutation((2, 1)), ((0, 0), (1, 0)))

    def test_check_is_on_by_default(self, monkeypatch):
        # a closure that drops the last generator, whatever the interpreter's -O
        closure = grid._closure_labels
        monkeypatch.setattr(grid, "_closure_labels", lambda n, pairs: closure(n, pairs[:-1]))
        pi = Permutation((2, 3, 1))
        with pytest.raises(RuntimeError, match="differ"):
            grid.beta_from_perm(Grid(3), pi)
        kappa = grid.beta_from_perm(Grid(3), pi, check=False)
        assert kappa.labels == closure(3, grid._cell_pairs(3, enumerate(pi.images, start=1))[:-1])

    @pytest.mark.parametrize("n", range(0, 6))
    def test_formula_route_agrees(self, n):
        g = Grid(n)
        for pi in all_perms(n):
            assert grid.beta_from_perm(g, pi, check=False) == grid.beta_from_formula(g, pi)

    def test_beta_matches_naive_oracle(self):
        for n in (1, 2):
            for pi in all_perms(n):
                pairs = [pair
                         for i in range(1, n + 1)
                         for pair in oracles.cell_generators(GridCell(i, pi(i)))]
                got = oracles.congruence_blocks(grid.beta_from_perm(Grid(n), pi))
                assert got == oracles.naive_join_closure(n, pairs)

    def test_boundary_chains_stay_injective(self):
        for pi in all_perms(4):
            kappa = grid.beta_from_perm(Grid(4), pi)
            left = [kappa.label_of((i, 0)) for i in range(5)]
            right = [kappa.label_of((0, j)) for j in range(5)]
            assert len(set(left)) == 5 and len(set(right)) == 5


class TestBetaFormula:
    def test_examples(self):
        pi = Permutation((2, 1))
        assert not grid.beta_formula(2, pi, ((0, 1), (1, 1)))
        assert grid.beta_formula(2, pi, ((0, 2), (1, 2)))

    def test_identity_diagonal(self):
        pi = Permutation((1, 2, 3, 4))
        for i in range(1, 5):
            assert grid.beta_formula(4, pi, ((i - 1, i), (i, i)))

    def test_not_a_prime_interval(self):
        pi = Permutation((2, 1))
        with pytest.raises(grid.NotAPrimeInterval):
            grid.beta_formula(2, pi, ((0, 0), (1, 1)))
        with pytest.raises(grid.NotAPrimeInterval):
            grid.beta_formula(2, pi, ((0, 0), (0, 3)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_closure_edgewise(self, n):
        g = Grid(n)
        for pi in all_perms(n):
            kappa = grid.beta_from_perm(g, pi, check=False)
            for lo, hi in g.prime_intervals():
                assert grid.beta_formula(n, pi, (lo, hi)) == kappa.collapses(lo, hi)


def cell_corpus():
    """The congruences of every permutation, every cell, and the closures of
    each pair of cells for n <= 5, and 400 random partitions, most of them
    no join-congruence."""
    kappas = []
    for n in range(0, 6):
        g = Grid(n)
        kappas += [grid.beta_from_formula(g, pi) for pi in all_perms(n)]
        cells = list(g.cells())
        kappas += [grid.jcong_cell(g, c) for c in cells]
        kappas += [grid.congruence_closure(g, k1.generator_pairs() + k2.generator_pairs())
                   for k1, k2 in itertools.combinations(kappas[-len(cells):], 2)]
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randrange(0, 6)
        side = n + 1
        labels = [rng.randrange(side * side // 2 + 1) for _ in range(side * side)]
        kappas.append(GridCongruence.from_labels(n, labels, check=False))
    return kappas


def outcome(call, *args):
    """call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # the type and message are the data
        return type(exc), str(exc)


class TestCellClassification:
    def test_beta_never_forbidden(self):
        for n in range(1, 5):
            for pi in all_perms(n):
                kappa = grid.beta_from_perm(Grid(n), pi)
                assert grid.forbidden_cells(kappa) == frozenset()
                assert grid.is_cover_preserving(kappa)

    def test_identity_congruence_not_forbidden(self):
        assert grid.forbidden_cells(GridCongruence.identity(3)) == frozenset()

    def test_raw_equivalence_detector_fires(self):
        # merge just (0,1)~(1,1) with no closure; the cell (1,1) breaks a cover
        g = Grid(2)
        labels = list(range(9))
        labels[g.index((1, 1))] = labels[g.index((0, 1))]
        raw = GridCongruence.from_labels(2, labels, check=False)
        assert not raw.is_join_compatible()
        assert grid.forbidden_cells(raw) == frozenset({GridCell(1, 1)})

    def test_source_cells_are_the_graph(self):
        for n in range(1, 5):
            for pi in all_perms(n):
                kappa = grid.beta_from_perm(Grid(n), pi)
                expected = frozenset(GridCell(i, pi(i)) for i in range(1, n + 1))
                assert grid.source_cells(kappa) == expected

    def test_identity_congruence_no_sources(self):
        assert grid.source_cells(GridCongruence.identity(3)) == frozenset()

    def test_beta_identity_diagonal_sources(self):
        kappa = grid.beta_from_perm(Grid(3), Permutation((1, 2, 3)))
        assert grid.source_cells(kappa) == frozenset(
            {GridCell(1, 1), GridCell(2, 2), GridCell(3, 3)})

    def test_cells_match_walk_oracles(self):
        flagged = 0
        for kappa in cell_corpus():
            forbidden = grid.forbidden_cells(kappa)
            assert forbidden == oracles.forbidden_cells_by_walk(kappa), kappa
            assert grid.source_cells(kappa) == oracles.source_cells_by_walk(kappa), kappa
            flagged += bool(forbidden)
        assert flagged > 100


class TestRegenerate:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_beta_regenerates(self, n):
        for pi in all_perms(n):
            kappa = grid.beta_from_perm(Grid(n), pi)
            assert grid.regenerate(kappa) == kappa

    def test_identity(self):
        kappa = GridCongruence.identity(2)
        assert grid.regenerate(kappa) == kappa

    def test_one_scan_matches_three_scans(self):
        # the same congruence, source cells and refusals, and each refusal
        # with the message of the first broken hypothesis
        kappas = [grid.beta_from_perm(Grid(n), pi) for n in range(0, 7) for pi in all_perms(n)]
        refusals = set()
        for kappa in kappas + cell_corpus():
            want = outcome(oracles.regenerate_by_three_scans, kappa)
            assert outcome(grid.regenerate, kappa) == want, kappa
            if isinstance(want, GridCongruence):
                cells = tuple(sorted(oracles.source_cells_by_walk(kappa)))
                assert grid._regenerate(kappa) == (cells, want), kappa
            else:
                assert outcome(grid._regenerate, kappa) == want, kappa
                refusals.add(want[1].split(" edge ")[0])
        assert refusals == {"left boundary", "right boundary", "congruence has a forbidden cell"}

    def test_boundary_collapse_rejected(self):
        kappa = grid.congruence_closure(Grid(2), [((0, 0), (1, 0))])
        with pytest.raises(grid.HypothesisViolated):
            grid.regenerate(kappa)

    def test_forbidden_cell_rejected(self):
        g = Grid(2)
        labels = list(range(9))
        labels[g.index((1, 1))] = labels[g.index((0, 1))]
        raw = GridCongruence.from_labels(2, labels, check=False)
        with pytest.raises(grid.HypothesisViolated):
            grid.regenerate(raw)


class TestCongruenceType:
    def test_from_labels_validates(self):
        labels = list(range(9))
        labels[4] = labels[1]
        with pytest.raises(ValueError):
            GridCongruence.from_labels(2, labels)

    def test_from_labels_canonicalizes(self):
        kappa = GridCongruence.from_labels(1, [5, 5, 7, 7], check=False)
        assert kappa.labels == (0, 0, 1, 1)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            GridCongruence.from_labels(2, [0, 1])

    def test_blocks_are_convex_and_join_closed(self):
        g = Grid(3)
        for pi in all_perms(3):
            kappa = grid.beta_from_perm(g, pi)
            for block in kappa.blocks():
                block_set = set(block)
                for x, y in itertools.combinations(block, 2):
                    assert g.join(x, y) in block_set
                top = kappa.block_tops()[kappa.label_of(block[0])]
                assert top in block_set

    def test_block_tops_distinct(self):
        for pi in all_perms(4):
            kappa = grid.beta_from_perm(Grid(4), pi)
            tops = kappa.block_tops()
            assert len(set(tops)) == len(tops)


class TestQuotient:
    def test_raw_partition_has_no_quotient(self):
        # merging the two atoms leaves a block whose coordinatewise maximum
        # (1,1) lies outside it, so no block-top representative exists
        g = Grid(2)
        labels = list(range(9))
        labels[g.index((1, 0))] = labels[g.index((0, 1))]
        raw = GridCongruence.from_labels(2, labels, check=False)
        with pytest.raises(ValueError):
            grid.quotient(raw)

    def test_refuses_exactly_the_partitions_that_are_not_join_congruences(self):
        rng = random.Random(8)
        join_closed_only = 0
        for _ in range(600):
            n = rng.randint(1, 3)
            size = (n + 1) ** 2
            labels = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
            raw = GridCongruence.from_labels(n, labels, check=False)
            if raw.is_join_compatible():
                assert grid.quotient(raw)[0].covers == oracles.naive_quotient_covers(raw)
                continue
            with pytest.raises(ValueError, match="no quotient lattice") as info:
                grid.quotient(raw)
            join_closed_only += "join-compatible" in str(info.value)
        assert join_closed_only > 0

    def test_join_compatible_matches_scan_oracle(self):
        # every permutation congruence with n <= 5, and the raw partitions above
        for n in range(0, 6):
            for pi in all_perms(n):
                kappa = grid.beta_from_formula(Grid(n), pi)
                assert kappa.is_join_compatible() and oracles.join_compatible_by_scan(kappa)
        rng = random.Random(8)
        verdicts = set()
        for _ in range(600):
            n = rng.randint(1, 3)
            size = (n + 1) ** 2
            labels = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
            raw = GridCongruence.from_labels(n, labels, check=False)
            verdict = raw.is_join_compatible()
            assert verdict == oracles.join_compatible_by_scan(raw)
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_lattice_matches_validated_construction(self):
        # the unvalidated constructor quotient uses against from_covers: every
        # permutation with n <= 6, 1,000 of the 5,040 with n = 7 (all of them
        # would add about 2 s on a 2-vCPU VM), and 20 random ones with n <= 64
        names = ("size", "covers", "covers_up", "covers_down", "up", "down", "height",
                 "bottom", "top")
        rng = random.Random(64)
        perms = [pi for n in range(0, 7) for pi in all_perms(n)]
        perms += rng.sample(list(all_perms(7)), 1000)
        for _ in range(20):
            images = list(range(1, rng.randint(8, 64) + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
        for pi in perms:
            lat = grid.phi0(pi).lattice
            ref = lattice.from_covers(lat.size, lat.covers)
            assert [getattr(lat, name) for name in names] == [getattr(ref, name) for name in names]
            # join and meet answer a comparable pair from down, compared
            # above, so the incomparable pairs are the ones left; past n = 7,
            # 1,000 random pairs stand for the O(size^2) of them
            if pi.n <= 7:
                pairs = itertools.combinations(range(lat.size), 2)
            else:
                pairs = (rng.sample(range(lat.size), 2) for _ in range(1000))
            pairs = [(x, y) for x, y in pairs if not (lat.up[x] | lat.down[x]) >> y & 1]
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
            assert list(map(lat.join, xs, ys)) == list(map(ref.join, xs, ys))
            assert list(map(lat.meet, xs, ys)) == list(map(ref.meet, xs, ys))

    def test_permutation_congruences_match_naive_covers(self):
        for n in range(0, 6):
            for pi in all_perms(n):
                kappa = grid.beta_from_formula(Grid(n), pi)
                lat, tops = grid.quotient(kappa)
                assert lat.covers == oracles.naive_quotient_covers(kappa)
                assert tops == kappa.block_tops()

    def test_random_congruences_match_naive_covers(self):
        # general join-congruences, some of them not cover-preserving
        rng = random.Random(3)
        flagged = 0
        for n in (1, 2, 3, 4):
            g = Grid(n)
            coords = list(g.elements())
            for _ in range(40):
                pairs = [(rng.choice(coords), rng.choice(coords))
                         for _ in range(rng.randrange(4))]
                kappa = grid.congruence_closure(g, pairs)
                flagged += bool(grid.forbidden_cells(kappa))
                assert grid.quotient(kappa)[0].covers == oracles.naive_quotient_covers(kappa)
        assert flagged > 0

    @staticmethod
    def assert_matches_reduction(kappa):
        lat, _ = grid.quotient(kappa)
        covers_up, above = oracles.quotient_by_reduction(kappa)
        assert [list(ups) for ups in lat.covers_up] == covers_up, kappa
        # _fill derives the cones along the order quotient passes, so they
        # check that it is a linear extension
        assert list(lat.up) == [up | 1 << x for x, up in enumerate(above)], kappa
        below = [1 << x for x in range(lat.size)]
        for x, up in enumerate(above):
            for y in oracles.set_bits(up):
                below[y] |= 1 << x
        assert list(lat.down) == below, kappa

    def test_neighbour_tops_match_reduction_on_every_phi0_up_to_n7(self):
        # covers read off neighbouring block tops against the transitive
        # reduction of the edge images, with the cones both imply
        for n in range(0, 8):
            g = Grid(n)
            for pi in all_perms(n):
                self.assert_matches_reduction(grid.beta_from_formula(g, pi))

    def test_neighbour_tops_match_reduction_on_random_closures(self):
        # general join-congruences with n <= 9, many not cover-preserving
        rng = random.Random(9)
        flagged = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            g = Grid(n)
            coords = list(g.elements())
            pairs = [(rng.choice(coords), rng.choice(coords)) for _ in range(rng.randrange(1, 6))]
            kappa = grid.congruence_closure(g, pairs)
            flagged += bool(grid.forbidden_cells(kappa))
            self.assert_matches_reduction(kappa)
        assert flagged > 50


class TestPhi0:
    def test_singleton(self):
        d = grid.phi0(Permutation(()))
        assert d.lattice.size == 1

    def test_single(self):
        d = grid.phi0(Permutation((1,)))
        assert d.lattice.size == 2
        assert d.left_chain == d.right_chain

    def test_transposition(self):
        d = grid.phi0(Permutation((2, 1)))
        assert d.lattice.size == 4
        assert d.left_chain[1] != d.right_chain[1]

    def test_identity_chain(self):
        for n in range(1, 5):
            d = grid.phi0(Permutation(tuple(range(1, n + 1))))
            assert d.lattice.size == n + 1
            assert d.left_chain == d.right_chain

    def test_chain_blocks_merge_at_segment_maxima(self):
        for n in range(1, 6):
            for pi in all_perms(n):
                kappa = grid.beta_from_perm(Grid(n), pi)
                maxima = set(segments(pi).maxima())
                for k in range(1, n + 1):
                    merged = kappa.label_of((k, 0)) == kappa.label_of((0, k))
                    assert merged == (k in maxima)

    def test_sections_give_bordered_subdiagrams(self):
        # a section {u+1..v} carves out an interval that is the quotient of the
        # restricted permutation, with the induced chains
        for pi in all_perms(4):
            d = grid.phi0(pi)
            cuts = [0] + list(segments(pi).maxima())
            for a, b in itertools.combinations(cuts, 2):
                sub, elems = lattice.interval_sublattice(
                    d.lattice, d.left_chain[a], d.left_chain[b])
                index = {x: k for k, x in enumerate(elems)}
                inner = lattice.BorderedDiagram(
                    sub,
                    tuple(index[d.left_chain[k]] for k in range(a, b + 1)),
                    tuple(index[d.right_chain[k]] for k in range(a, b + 1)))
                assert lattice.boundarily_similar(inner, grid.phi0(pi.restrict(a + 1, b)))

    def test_layout_shape(self):
        pi = Permutation((2, 3, 1))
        layout = grid.heuristic_layout(pi)
        d = grid.phi0(pi)
        assert set(layout) == set(range(d.lattice.size))
        assert layout[d.lattice.bottom] == (0, 0)

    def test_layout_matches_closure_quotient(self):
        for n in range(0, 6):
            for pi in all_perms(n):
                lat, tops = grid.quotient(grid.beta_from_perm(Grid(n), pi, check=False))
                expected = {x: (tops[x][1] - tops[x][0], lat.height[x]) for x in range(lat.size)}
                assert grid.heuristic_layout(pi) == expected

    def test_images_in_a_list(self):
        # a permutation keeps its images as a tuple, so it hashes
        pi = Permutation([2, 3, 1])
        assert pi.images == (2, 3, 1) and hash(pi) == hash(Permutation((2, 3, 1)))
        assert grid.phi0(pi) == grid.phi0(Permutation((2, 3, 1)))

    def test_matches_the_validated_quotient(self):
        # phi0 skips quotient's join-congruence check on the closed form
        rng = random.Random(17)
        perms = [pi for n in range(0, 8) for pi in all_perms(n)]
        for n in range(8, 97, 4):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        for pi in perms:
            d = grid.phi0(pi)
            labels = grid._formula_blocks(pi.n, pi.images)[0]
            lat, _ = grid.quotient(GridCongruence(pi.n, labels))
            side = pi.n + 1
            assert (d.lattice.covers_up, d.lattice._order) == (lat.covers_up, lat._order), pi
            assert (d.left_chain, d.right_chain) == (labels[::side], labels[:side]), pi

    def test_block_tops_are_the_closed_form_keys(self):
        rng = random.Random(23)
        perms = [pi for n in range(0, 7) for pi in all_perms(n)]
        perms += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for n in range(8, 97, 8)]
        for pi in perms:
            labels, tops = grid._formula_blocks(pi.n, pi.images)
            want = GridCongruence(pi.n, labels).block_tops()
            assert [divmod(t, pi.n + 1) for t in tops] == list(want), pi

    def test_each_call_runs_the_closed_form_once(self, monkeypatch, capsys):
        # nothing is cached: each route below computes pi's closed form once,
        # and once again when it is repeated
        formula, calls = grid._formula_blocks, []
        monkeypatch.setattr(grid, "_formula_blocks",
                            lambda n, images: calls.append(images) or formula(n, images))
        pi = Permutation(tuple(range(9, 0, -1)))
        text = ",".join(map(str, pi.images))
        for route in (lambda: cli.main(["build", "--perm", text]),
                      lambda: cli.main(["build", "--perm", text, "--format", "dot"]),
                      lambda: verify._check_batch([(pi.n, pi.images)]),
                      lambda: grid.phi0(pi),
                      lambda: grid.heuristic_layout(pi),
                      lambda: grid.beta_from_perm(Grid(pi.n), pi)):
            for _ in range(2):
                calls.clear()
                route()
                assert calls == [pi.images]
        capsys.readouterr()

    def test_production_never_runs_the_closure(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("closure called")

        monkeypatch.setattr(grid, "_closure_labels", refuse)
        pi = Permutation((3, 1, 4, 2))
        assert grid.phi0(pi).lattice.size == 8
        assert len(grid.heuristic_layout(pi)) == 8
        assert "style=dashed" in grid.grid_dot(pi)
        assert cli.main(["build", "--perm", "3,1,4,2"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 8
        with pytest.raises(AssertionError):
            grid.jcong_cell(Grid(1), GridCell(1, 1))


class TestRendering:
    def test_ascii_matrix(self):
        assert grid.render_ascii(Permutation((2, 1))) == ".#\n#."
        assert grid.render_ascii(Permutation((1, 2, 3))) == "#..\n.#.\n..#"

    def test_dot_styles_collapsed_edges(self):
        dot = grid.grid_dot(Permutation((2, 1)))
        assert dot.startswith("digraph")
        assert "style=dashed" in dot
        # boundary edges are never collapsed
        assert "g0_0 -> g1_0 [" not in dot
        assert "g0_0 -> g0_1 [" not in dot
