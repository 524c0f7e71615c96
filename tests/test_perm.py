import itertools
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from slimlat import grid, groups, perm
from slimlat.perm import Permutation

SIGMA_THREE_SEGMENTS = Permutation((1, 7, 4, 5, 3, 6, 2, 9, 8))
THREE_CYCLES = Permutation((2, 3, 1, 4, 6, 7, 5))  # (1 2 3)(5 6 7) in S_7

random_perms = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))))


def all_images(n):
    return itertools.permutations(range(1, n + 1))


class TestValidate:
    def test_involution(self):
        p = perm.validate([2, 1])
        assert p.inverse() == p

    def test_nine_point_example_is_valid(self):
        assert SIGMA_THREE_SEGMENTS.n == 9

    def test_duplicate(self):
        with pytest.raises(perm.DuplicateValue):
            perm.validate([1, 1, 3])

    @pytest.mark.parametrize("images", [[0, 1], [3, 1], [1, 2, 4]])
    def test_out_of_range(self, images):
        with pytest.raises(perm.OutOfRange):
            perm.validate(images)

    def test_empty(self):
        assert perm.validate([]).n == 0

    def test_call_and_inverse(self):
        p = Permutation((2, 3, 1))
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
        assert p.inverse().images == (3, 1, 2)
        with pytest.raises(perm.OutOfRange):
            p(4)


class TestIsClosed:
    def test_middle_segment_is_closed(self):
        assert perm.is_closed(SIGMA_THREE_SEGMENTS, range(2, 8))

    def test_singleton_not_closed(self):
        assert not perm.is_closed(Permutation((2, 3, 1)), [1])

    def test_empty_interval(self):
        assert perm.is_closed(Permutation((2, 1)), [])

    def test_out_of_range(self):
        with pytest.raises(perm.IntervalOutOfRange):
            perm.is_closed(Permutation((2, 1)), [2, 3])

    def test_not_an_interval(self):
        with pytest.raises(perm.IntervalOutOfRange):
            perm.is_closed(Permutation((1, 2, 3)), [1, 3])

    def test_agrees_with_oracle(self):
        for images in all_images(5):
            p = Permutation(images)
            for lo in range(1, 6):
                for hi in range(lo, 6):
                    assert (perm.is_closed(p, range(lo, hi + 1))
                            == oracles.closed(images, lo, hi))


class TestSegments:
    def test_three_segment_example(self):
        assert perm.segments(SIGMA_THREE_SEGMENTS).bounds() == ((1, 1), (2, 7), (8, 9))

    def test_identity(self):
        assert perm.segments(Permutation((1, 2, 3))).bounds() == ((1, 1), (2, 2), (3, 3))

    def test_three_cycle(self):
        # frozen from the interval-enumeration oracle
        assert perm.segments(Permutation((2, 3, 1))).bounds() == ((1, 3),)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_oracle_exhaustively(self, n):
        for images in all_images(n):
            got = perm.segments(Permutation(images)).bounds()
            assert list(got) == oracles.segments(images)

    @given(random_perms)
    def test_matches_oracle_random(self, images):
        got = perm.segments(Permutation(tuple(images))).bounds()
        assert list(got) == oracles.segments(tuple(images))

    def test_partition_tiles_domain(self):
        for images in all_images(6):
            segs = perm.segments(Permutation(images))
            flat = [i for seg in segs.segments for i in seg]
            assert flat == list(range(1, 7))


class TestSectionStructure:
    """Closure facts about sections, by exhaustive interval enumeration."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_section_intersections(self, n):
        for images in all_images(n):
            secs = oracles.sections(images)
            for (a, b), (c, d) in itertools.combinations(secs, 2):
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    assert (lo, hi) in secs

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sections_are_unions_of_segments(self, n):
        for images in all_images(n):
            segs = oracles.segments(images)
            cuts = {0} | {hi for _, hi in segs}
            expected = {(lo + 1, hi) for lo in cuts for hi in cuts if lo < hi}
            assert set(oracles.sections(images)) == expected


class TestRhoEquivalent:
    def test_class_of_sigma_is_the_inverse_pair(self):
        assert perm.rho_equivalent(SIGMA_THREE_SEGMENTS, SIGMA_THREE_SEGMENTS.inverse())
        assert perm.rho_class(SIGMA_THREE_SEGMENTS) == frozenset({SIGMA_THREE_SEGMENTS, SIGMA_THREE_SEGMENTS.inverse()})

    def test_three_cycles_class(self):
        members = {p.images for p in perm.rho_class(THREE_CYCLES)}
        assert members == {
            (2, 3, 1, 4, 6, 7, 5),
            (3, 1, 2, 4, 6, 7, 5),
            (2, 3, 1, 4, 7, 5, 6),
            (3, 1, 2, 4, 7, 5, 6),
        }

    def test_identity_vs_transposition(self):
        assert not perm.rho_equivalent(Permutation((1, 2)), Permutation((2, 1)))

    def test_length_mismatch(self):
        with pytest.raises(perm.LengthMismatch):
            perm.rho_equivalent(Permutation((1,)), Permutation((1, 2)))

    @pytest.mark.parametrize("n", range(0, 5))
    def test_matches_decomposition_oracle(self, n):
        for a in all_images(n):
            for b in all_images(n):
                assert (perm.rho_equivalent(Permutation(a), Permutation(b))
                        == oracles.rho(a, b))

    def test_matches_oracle_sampled_n6(self):
        import random
        rng = random.Random(7)
        pool = [tuple(rng.sample(range(1, 7), 6)) for _ in range(40)]
        for a, b in itertools.product(pool[:12], pool[:12]):
            assert (perm.rho_equivalent(Permutation(a), Permutation(b))
                    == oracles.rho(a, b))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_equivalence_relation(self, n):
        perms = [Permutation(images) for images in all_images(n)]
        for a in perms:
            assert perm.rho_equivalent(a, a)
        for a, b in itertools.combinations(perms, 2):
            assert perm.rho_equivalent(a, b) == perm.rho_equivalent(b, a)
        if n <= 4:
            for a, b, c in itertools.product(perms, repeat=3):
                if perm.rho_equivalent(a, b) and perm.rho_equivalent(b, c):
                    assert perm.rho_equivalent(a, c)


class TestRhoClass:
    def test_involution_singleton(self):
        assert perm.rho_class(Permutation((2, 1))) == frozenset({Permutation((2, 1))})

    def test_three_cycle(self):
        got = {p.images for p in perm.rho_class(Permutation((2, 3, 1)))}
        assert got == {(2, 3, 1), (3, 1, 2)}

    @given(random_perms)
    def test_size_divides_power_of_two(self, images):
        p = Permutation(tuple(images))
        segs = perm.segments(p)
        size = len(perm.rho_class(p))
        assert 2 ** len(segs.segments) % size == 0

    def test_size_formula(self):
        for images in all_images(5):
            p = Permutation(images)
            expected = 1
            for lo, hi in perm.segments(p).bounds():
                fwd = oracles.restriction(images, lo, hi)
                if fwd != oracles.restriction_inverse(images, lo, hi):
                    expected *= 2
            assert len(perm.rho_class(p)) == expected

    def test_class_size_matches_enumerated_class(self):
        for n in range(0, 8):
            for images in all_images(n):
                p = Permutation(images)
                assert perm.class_size(p) == len(perm.rho_class(p)), images

    @staticmethod
    def three_cycles(k):
        """k copies of (2,3,1) summed: 2^k members."""
        return Permutation(tuple(3 * b + v for b in range(k) for v in (2, 3, 1)))

    def test_refuses_more_than_the_cap(self):
        assert perm.RHO_CLASS_CAP == 4096
        for k in (13, 32):
            start = time.perf_counter()
            with pytest.raises(perm.TooLarge, match=f"{2 ** k} class members exceed the cap 4096"):
                perm.rho_class(self.three_cycles(k))
            assert time.perf_counter() - start < 0.1
            assert perm.class_size(self.three_cycles(k)) == 2 ** k

    def test_builds_up_to_the_cap(self):
        assert len(perm.rho_class(self.three_cycles(12))) == 4096

    def test_class_members_are_equivalent(self):
        for images in all_images(4):
            p = Permutation(images)
            for q in perm.rho_class(p):
                assert perm.rho_equivalent(p, q)


class TestCanonical:
    @given(random_perms)
    def test_canonical_is_min_of_class(self, images):
        p = Permutation(tuple(images))
        assert perm.canonical_rep(p) == min(perm.rho_class(p), key=lambda q: q.images)

    def test_canonical_idempotent(self):
        for images in all_images(5):
            rep = perm.canonical_rep(Permutation(images))
            assert perm.canonical_rep(rep) == rep


class TestCounting:
    # values frozen from the decomposition-based oracle
    EXPECTED = {0: 1, 1: 1, 2: 2, 3: 5, 4: 17, 5: 73, 6: 397}

    @pytest.mark.parametrize("n,expected", sorted(EXPECTED.items()))
    def test_frozen_values(self, n, expected):
        assert perm.count_classes(n) == expected

    @pytest.mark.parametrize("n", range(0, 5))
    def test_matches_oracle(self, n):
        assert perm.count_classes(n) == oracles.count_classes(n)

    def test_upper_bound(self):
        for n in range(0, 8):
            assert perm.count_classes(n) <= math.factorial(n)

    def test_too_large(self):
        assert perm.count_classes(9) == 181607
        assert perm.count_classes(10) == 1809104
        with pytest.raises(perm.TooLarge):
            perm.enumerate_reps(10)
        with pytest.raises(perm.TooLarge):
            perm.count_classes(perm.COUNT_CAP + 1)

    def test_enumerate_reps(self):
        with pytest.raises(perm.OutOfRange):
            perm.enumerate_reps(-1)
        for n in range(0, 6):
            reps = perm.enumerate_reps(n)
            assert len(reps) == perm.count_classes(n)
            assert all(perm.canonical_rep(p) == p for p in reps)
            assert reps == sorted(reps, key=lambda p: p.images)

    def test_closed_form_matches_enumeration(self):
        counts = perm.class_counts(perm.ENUMERATION_CAP)
        assert counts == [len(perm.enumerate_reps(n))
                          for n in range(perm.ENUMERATION_CAP + 1)]


class TestRestrictionAndCycles:
    def test_restrict_reindexes(self):
        assert SIGMA_THREE_SEGMENTS.restrict(2, 7).images == (6, 3, 4, 2, 5, 1)

    def test_restrict_requires_closed(self):
        with pytest.raises(ValueError):
            Permutation((2, 3, 1)).restrict(1, 2)

    @pytest.mark.parametrize("call", [
        lambda: perm.segments((2, 1)),
        lambda: perm.canonical_rep((2, 1)),
        lambda: perm.class_size((2, 1)),
        lambda: perm.rho_class((2, 1)),
        lambda: perm.rho_equivalent((2, 1), Permutation((2, 1))),
        lambda: perm.rho_equivalent(Permutation((2, 1)), (2, 1)),
        lambda: perm.is_involution_on((2, 1), 1, 2),
        lambda: perm.is_closed((2, 1), [1, 2]),
        lambda: grid.phi0((2, 1)),
        lambda: grid.heuristic_layout((2, 1)),
        lambda: grid.beta_from_perm(grid.Grid(2), (2, 1)),
        lambda: grid.beta_from_formula(grid.Grid(2), (2, 1)),
        lambda: grid.beta_formula(2, (2, 1), ((0, 0), (1, 0))),
        lambda: groups.csl_build((2, 3), (2, 1)),
    ])
    def test_refuses_a_tuple_for_a_permutation(self, call):
        with pytest.raises(TypeError, match="^expected a Permutation, got tuple$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: Permutation((2, 1)).restrict(1.5, 2),
        lambda: Permutation((2, 1)).restrict(1, 2.0),
        lambda: perm.is_involution_on(Permutation((2, 1)), 1.5, 2),
    ])
    def test_refuses_an_interval_bound_that_is_not_an_int(self, call):
        with pytest.raises(perm.IntervalOutOfRange, match="is not a nonempty interval of 1..2$"):
            call()

    def test_involution_on_checks_its_interval(self):
        sigma = Permutation((2, 3, 1))
        for lo, hi in ((0, 1), (-1, 1), (2, 4), (0, 3), (3, 2)):
            with pytest.raises(perm.IntervalOutOfRange,
                               match=rf"^{lo}\.\.{hi} is not a nonempty interval of 1\.\.3$"):
                perm.is_involution_on(sigma, lo, hi)
        # 1..1 is in range, but sigma does not map it onto itself
        assert perm.is_involution_on(sigma, 1, 1) is False
        assert perm.is_involution_on(sigma, 1, 3) is False
        assert perm.is_involution_on(Permutation((2, 1, 3)), 1, 2) is True
        assert perm.is_involution_on(Permutation((2, 1, 3)), 3, 3) is True

    def test_involution_on_matches_restriction_test(self):
        # on every closed interval, the definition: the restriction equals its inverse
        for n in range(1, 6):
            for images in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(images)
                for lo in range(1, n + 1):
                    for hi in range(lo, n + 1):
                        if perm.is_closed(sigma, range(lo, hi + 1)):
                            want = sigma.restrict(lo, hi) == sigma.restrict(lo, hi).inverse()
                        else:
                            want = False
                        assert perm.is_involution_on(sigma, lo, hi) is want, (images, lo, hi)

    def test_cycles(self):
        assert THREE_CYCLES.cycles() == ((1, 2, 3), (5, 6, 7))
        assert Permutation((1, 2)).cycle_string() == "()"
        assert SIGMA_THREE_SEGMENTS.cycle_string() == "(2 7)(3 4 5)(8 9)"
