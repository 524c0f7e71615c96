import itertools
import math
import random

import pytest

import oracles
from slimlat import extract, grid, groups, lattice
from slimlat.groups import csl_build, csl_dual_diagram, first_primes
from slimlat.perm import LengthMismatch, Permutation, rho_class


def all_perms(n):
    return (Permutation(images) for images in itertools.permutations(range(1, n + 1)))


class TestBuild:
    def test_single_prime(self):
        inst = csl_build((2,), Permutation((1,)))
        assert inst.elements == (1, 2)
        assert inst.h_orders == inst.k_orders == (1, 2)

    def test_transposition_divisors_of_six(self):
        inst = csl_build((2, 3), Permutation((2, 1)))
        assert inst.elements == (1, 2, 3, 6)
        assert inst.h_orders == (1, 2, 6)
        assert inst.k_orders == (1, 3, 6)

    def test_three_primes_regression(self):
        inst = csl_build((2, 3, 5), Permutation((2, 3, 1)))
        assert inst.h_orders == (1, 2, 6, 30)
        assert inst.elements == (1, 2, 3, 6, 15, 30)

    def test_downward_steps_pair_by_the_permutation(self):
        # the defining property of the K series: reading both series downward
        # from the whole group, H step i and K step pi(i) carry the same prime
        for n in range(1, 6):
            primes = first_primes(n)
            for pi in all_perms(n):
                inst = csl_build(primes, pi)
                for i in range(1, n + 1):
                    h_prime = inst.h_orders[n + 1 - i] // inst.h_orders[n - i]
                    j = pi(i)
                    k_prime = inst.k_orders[n + 1 - j] // inst.k_orders[n - j]
                    assert h_prime == k_prime

    def test_k_orders_form_a_prime_step_chain(self):
        for pi in all_perms(4):
            inst = csl_build((2, 3, 5, 7), pi)
            steps = sorted(inst.k_orders[j] // inst.k_orders[j - 1] for j in range(1, 5))
            assert steps == [2, 3, 5, 7]

    def test_elements_are_meet_closed(self):
        inst = csl_build((2, 3, 5), Permutation((3, 1, 2)))
        for a, b in itertools.combinations(inst.elements, 2):
            assert math.gcd(a, b) in inst.elements

    def test_duplicate_prime(self):
        with pytest.raises(groups.DuplicatePrime):
            csl_build((2, 2), Permutation((1, 2)))

    def test_not_prime(self):
        with pytest.raises(groups.NotPrime):
            csl_build((2, 9), Permutation((1, 2)))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            csl_build((2, 3), Permutation((1,)))

    def test_overflow(self):
        primes = first_primes(16)
        with pytest.raises(groups.Overflow):
            csl_build(primes, Permutation.identity(16))


class TestDualDiagram:
    def test_b2_bordered_by_prime_chains(self):
        d = csl_dual_diagram(csl_build((2, 3), Permutation((2, 1))))
        assert d.lattice.size == 4
        inst = csl_build((2, 3), Permutation((2, 1)))
        assert [inst.elements[x] for x in d.left_chain] == [6, 2, 1]
        assert [inst.elements[x] for x in d.right_chain] == [6, 3, 1]

    def test_identity_gives_chain(self):
        d = csl_dual_diagram(csl_build((2, 3, 5), Permutation((1, 2, 3))))
        assert d.lattice.size == 4
        assert d.left_chain == d.right_chain

    def test_three_prime_instance_shape(self):
        d = csl_dual_diagram(csl_build((2, 3, 5), Permutation((2, 3, 1))))
        assert d.lattice.size == 6 and d.lattice.length == 3

    def test_dual_is_slim_semimodular(self):
        for pi in all_perms(4):
            d = csl_dual_diagram(csl_build(first_primes(4), pi))
            assert lattice.is_slim(d.lattice)
            assert lattice.is_semimodular(d.lattice)

    def test_csl_itself_is_dually_slim_dually_semimodular(self):
        for pi in all_perms(3):
            lat = groups.csl_lattice(csl_build((2, 3, 5), pi))
            assert lattice.is_slim(lattice.dual(lat))
            assert lattice.is_semimodular(lattice.dual(lat))

    def test_extraction_round_trip(self):
        for n in range(0, 5):
            primes = first_primes(n)
            for pi in all_perms(n):
                d = csl_dual_diagram(csl_build(primes, pi))
                assert extract.extract_permutation(d, verify=True) == pi

    def test_lattice_isomorphic_to_quotient(self):
        for pi in all_perms(4):
            d = csl_dual_diagram(csl_build(first_primes(4), pi))
            assert lattice.is_isomorphic(d.lattice, grid.phi0(pi).lattice)

    def test_equivalent_perms_give_isomorphic_lattices_not_equal_sets(self):
        a = csl_build((2, 3, 5), Permutation((2, 3, 1)))
        b = csl_build((2, 3, 5), Permutation((3, 1, 2)))
        assert lattice.is_isomorphic(csl_dual_diagram(a).lattice,
                                     csl_dual_diagram(b).lattice)
        assert a.elements != b.elements  # only the lattices agree, not the sets

    def test_diagram_count_matches_class_size(self):
        for pi in all_perms(4):
            d = csl_dual_diagram(csl_build(first_primes(4), pi))
            assert extract.diagram_count(d.lattice) == len(rho_class(pi))


def intersection_instances():
    """csl_build on every permutation with n <= 6, then on 200 seeded random
    ones with 7 <= n <= 15 (the first 15 primes multiply to just under
    _ORDER_CAP)."""
    for n in range(0, 7):
        for pi in all_perms(n):
            yield csl_build(first_primes(n), pi)
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(7, 15)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        yield csl_build(first_primes(n), Permutation(tuple(images)))


class TestDivisorLattice:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_triple_loop(self, reverse):
        for inst in intersection_instances():
            got = groups._intersection_lattice(inst, reverse=reverse)
            assert got.covers == oracles.naive_divisor_covers(inst.elements, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_validating_constructor(self, reverse):
        for inst in intersection_instances():
            got = groups._intersection_lattice(inst, reverse=reverse)
            want = lattice.FiniteLattice(got.size, got.covers)
            for name in ("up", "down", "height", "bottom", "top", "covers_up",
                         "covers_down"):
                assert getattr(got, name) == getattr(want, name), name
            pairs = list(itertools.product(range(got.size), repeat=2))
            assert [got.join(x, y) for x, y in pairs] == [want.join(x, y) for x, y in pairs]
            assert [got.meet(x, y) for x, y in pairs] == [want.meet(x, y) for x, y in pairs]


class TestJordanHolder:
    def test_identity(self):
        inst = csl_build((2, 3, 5), Permutation((1, 2, 3)))
        assert groups.jordan_holder_permutation(inst) == Permutation((1, 2, 3))

    def test_transposition(self):
        inst = csl_build((2, 3), Permutation((2, 1)))
        assert groups.jordan_holder_permutation(inst) == Permutation((2, 1))

    def test_exhaustive(self):
        for n in range(0, 5):
            primes = first_primes(n)
            for pi in all_perms(n):
                assert groups.jordan_holder_permutation(csl_build(primes, pi)) == pi


class TestProjectivityWitness:
    def test_divisors_of_six_witness(self):
        inst = csl_build((2, 3), Permutation((2, 1)))
        assert groups.projectivity_witness(inst, 1, 2) == (1, 2)

    def test_identity_same_chain(self):
        inst = csl_build((2, 3, 5), Permutation((1, 2, 3)))
        for i in range(1, 4):
            x, y = groups.projectivity_witness(inst, i, i)
            assert (x, y) == (inst.h_orders[i - 1], inst.h_orders[i])

    def test_factor_mismatch(self):
        inst = csl_build((2, 3), Permutation((2, 1)))
        with pytest.raises(groups.FactorMismatch):
            groups.projectivity_witness(inst, 1, 1)

    def test_out_of_range(self):
        inst = csl_build((2, 3), Permutation((2, 1)))
        with pytest.raises(IndexError):
            groups.projectivity_witness(inst, 0, 1)

    def test_all_matching_pairs_validate(self):
        for pi in all_perms(4):
            inst = csl_build(first_primes(4), pi)
            hits = 0
            for i, j in itertools.product(range(1, 5), repeat=2):
                p = inst.h_orders[i] // inst.h_orders[i - 1]
                q = inst.k_orders[j] // inst.k_orders[j - 1]
                if p != q:
                    continue
                hits += 1
                x, y = groups.projectivity_witness(inst, i, j)
                assert y == p * x
                assert math.lcm(inst.h_orders[i - 1], y) == inst.h_orders[i]
                assert math.lcm(inst.k_orders[j - 1], y) == inst.k_orders[j]
            assert hits == 4  # one matching step per prime


class TestFirstPrimes:
    def test_values(self):
        assert first_primes(0) == ()
        assert first_primes(6) == (2, 3, 5, 7, 11, 13)


class TestIsPrime:
    def test_matches_trial_division(self):
        for p in range(-2, 10 ** 5):
            assert groups._is_prime(p) == oracles.trial_division_is_prime(p), p

    @pytest.mark.parametrize("composite", [561, 3215031751, 3825123056546413051])
    def test_pseudoprimes_rejected(self, composite):
        # a Carmichael number, and the least strong pseudoprimes to the
        # prime bases up to 7 and up to 31
        with pytest.raises(groups.NotPrime):
            csl_build((composite,), Permutation((1,)))

    def test_large_prime_below_the_cap(self):
        p = 2 ** 63 - 25
        assert groups._is_prime(p)
        assert csl_build((p,), Permutation((1,))).elements == (1, p)
