"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Everything here is exact (combinatorial equality, no tolerances);
the stated scales are exhaustive.
"""
import itertools
import json
import math
import time

import pytest

import oracles
from slimlat import cli, extract, grid, groups, lattice, perm
from slimlat.grid import Grid, GridCell
from slimlat.perm import Permutation


def all_perms(n):
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def timed(started):
    return f"{time.perf_counter() - started:.1f}s"


def test_criterion_01_round_trip_bijection():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for pi in all_perms(n):
            assert extract.extract_permutation(grid.phi0(pi), verify=True) == pi, pi
            checked += 1
    report(1, "round-trip bijection", checked == 873,
           f"{checked} permutations, n<=6, {timed(started)}")


def test_criterion_02_rho_iff_isomorphism():
    started = time.perf_counter()
    pairs = 0
    for n in range(1, 6):
        perms = all_perms(n)
        lattices = {pi: grid.phi0(pi).lattice for pi in perms}
        for a, b in itertools.combinations_with_replacement(perms, 2):
            iso = lattice.is_isomorphic(lattices[a], lattices[b])
            assert iso == perm.rho_equivalent(a, b), (a, b)
            pairs += 1
    report(2, "equivalence matches isomorphism", True,
           f"{pairs} pairs, n<=5, {timed(started)}")


def test_criterion_03_extractor_agreement():
    started = time.perf_counter()
    diagrams = 0
    for n in range(1, 6):
        for pi in all_perms(n):
            for d in extract.diagrams_of(grid.phi0(pi).lattice):
                p1 = extract.pi1_trajectories(d)
                p2 = extract.pi2_meet_irreducibles(d)
                p3 = extract.pi3_source_cells(d)
                assert p1 == p2 == p3, (pi, d.left_chain, d.right_chain)
                extract.extract_permutation(d, verify=True)  # zero disagreements
                diagrams += 1
    report(3, "three extractors agree", True,
           f"{diagrams} diagrams, n<=5, {timed(started)}")


def test_criterion_04_formula_oracle():
    started = time.perf_counter()
    edges = 0
    for n in range(1, 7):
        g = Grid(n)
        intervals = list(g.prime_intervals())
        assert len(intervals) == 2 * n * (n + 1)
        for pi in all_perms(n):
            kappa = grid.beta_from_perm(g, pi, check=False)
            assert kappa == grid.beta_from_formula(g, pi), pi
            for lo, hi in intervals:
                assert grid.beta_formula(n, pi, (lo, hi)) == kappa.collapses(lo, hi)
                edges += 1
    report(4, "closed form matches closure", True,
           f"{edges} prime intervals across 873 permutations, n<=6, {timed(started)}")


def test_criterion_05_source_cells_and_regeneration():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        g = Grid(n)
        for pi in all_perms(n):
            kappa = grid.beta_from_perm(g, pi, check=False)
            expected = frozenset(GridCell(i, pi(i)) for i in range(1, n + 1))
            assert grid.source_cells(kappa) == expected, pi
            assert grid.regenerate(kappa) == kappa, pi
            checked += 1
    report(5, "source cells and regeneration", checked == 873,
           f"{checked} congruences, n<=6, {timed(started)}")


def test_criterion_06_structural_postconditions():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for pi in all_perms(n):
            d = grid.phi0(pi)
            lat = d.lattice
            boundary = d.boundary()
            assert lattice.is_slim(lat), pi
            assert lattice.is_semimodular(lat), pi
            assert lat.length == n, pi
            assert len(lattice.meet_irreducibles(lat)) == n, pi
            assert all(len(lat.upper_covers(x)) <= 2 for x in range(lat.size)), pi
            assert all(x in boundary for x in lattice.join_irreducibles(lat)), pi
            checked += 1
    report(6, "structural postconditions", checked == 873,
           f"{checked} lattices, n<=6, {timed(started)}")


def test_criterion_07_narrows_match_segments():
    started = time.perf_counter()
    for n in range(1, 7):
        for pi in all_perms(n):
            lat = grid.phi0(pi).lattice
            heights = {lat.height[x] for x in lattice.narrows(lat)}
            assert heights == {0} | set(perm.segments(pi).maxima()), pi
    report(7, "narrows heights are segment maxima", True, f"n<=6, {timed(started)}")


def test_criterion_08_diagram_counting():
    started = time.perf_counter()
    for n in range(1, 7):
        for pi in all_perms(n):
            assert (extract.diagram_count(grid.phi0(pi).lattice)
                    == len(perm.rho_class(pi))), pi
    sigma = Permutation((1, 7, 4, 5, 3, 6, 2, 9, 8))
    assert extract.diagram_count(grid.phi0(sigma).lattice) == 2
    double_cycle = Permutation((2, 3, 1, 4, 6, 7, 5))  # (1 2 3)(5 6 7)
    assert extract.diagram_count(grid.phi0(double_cycle).lattice) == 4
    report(8, "diagram counts are class sizes", True,
           f"n<=6 plus the two large instances, {timed(started)}")


def test_criterion_09_group_realization():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        primes = groups.first_primes(n)
        for pi in all_perms(n):
            inst = groups.csl_build(primes, pi)
            d = groups.csl_dual_diagram(inst)
            assert lattice.is_slim(d.lattice), pi
            assert lattice.is_semimodular(d.lattice), pi
            assert extract.extract_permutation(d, verify=True) == pi, pi
            assert groups.jordan_holder_permutation(inst) == pi, pi
            assert lattice.is_isomorphic(d.lattice, grid.phi0(pi).lattice), pi
            checked += 1
    report(9, "cyclic-group realization", checked == 153,
           f"{checked} instances, n<=5, first n primes, {timed(started)}")


def test_criterion_10_counting_sanity(capsys):
    started = time.perf_counter()
    # the 1, 2, 5 values are re-derived here by the decomposition oracle
    independents = [oracles.count_classes(n) for n in (1, 2, 3)]
    assert independents == [1, 2, 5]
    code = cli.main(["count", "--n", "9"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["counts"]
    assert [r["classes"] for r in rows[:3]] == independents
    assert all(r["classes"] <= math.factorial(r["n"]) for r in rows)
    assert len(rows) == 9
    report(10, "class counting sanity", True,
           f"counts {[r['classes'] for r in rows]}, n<=9, {timed(started)}")
