"""The gate measured by mutants: each named fault in one routine that a
verify bundle calls must fail the checks listed for it.

Each mutant replaces one production routine by a plausible fault, under
every name the package binds it to, and ``verify.run(5, 0, note)`` runs in
this process and in forked workers, which must give the same failures,
with the same details.  The bundle regenerates the closed form's congruence
with its one closure, so a fault in the closed form or in the cell scan
fails both the closure check and the regeneration check.  The ideas follow
DeMillo, Lipton & Sayward, *Hints on test data selection* (1978).
"""
from __future__ import annotations

import sys

import pytest

from slimlat import extract, grid, groups, iso, lattice, perm, verify  # noqa: F401
from slimlat.perm import Permutation, SegmentPartition

SCALE = 5


def _swap_two(images: tuple[int, ...]) -> tuple[int, ...]:
    return images[1::-1] + images[2:]


def _split_block(formula):
    # the closed form splits the first element that is not its block's top
    # off its block, leaving the collapsed edges at it uncollapsed
    def faulty(n, images):
        labels, tops = formula(n, images)
        keys = [tops[lab] for lab in labels]
        e = next(e for e, key in enumerate(keys) if key != e)
        keys[e] = e
        canon: dict[int, int] = {}
        return tuple([canon.setdefault(key, len(canon)) for key in keys]), list(canon)
    return faulty


def _drop_last_source(scan):
    def faulty(kappa):
        forbidden, sources = scan(kappa)
        return forbidden, sources[:-1]
    return faulty


def _merge_two(segments):
    def faulty(sigma):
        parts = segments(sigma).segments
        return SegmentPartition((parts[0] + parts[1],) + parts[2:] if len(parts) > 1 else parts)
    return faulty


def _raise_on_231(images_of):
    # the trajectories of phi0(2, 3, 1)'s diagram, and of no other diagram
    target = grid.phi0(Permutation((2, 3, 1)))

    def faulty(diagram):
        if diagram == target:
            raise extract.TrajectoryAmbiguous("injected")
        return images_of(diagram)
    return faulty


def _returns_input(regenerate):
    def faulty(kappa):
        return regenerate(kappa)[0], kappa
    return faulty


def _closes_cells(regenerate, moved):
    # regenerate whose closure takes moved(cells) in place of the source cells
    def faulty(kappa):
        cells, _ = regenerate(kappa)
        pairs = grid._cell_pairs(kappa.n, moved(cells))
        return cells, grid.GridCongruence(kappa.n, grid._closure_labels(kappa.n, pairs))
    return faulty


def _lower_cover_only(lattice_from_tops):
    # of two incomparable upper covers, keeps the lower-numbered one
    def faulty(n, labels, top_i, top_j):
        lat = lattice_from_tops(n, labels, top_i, top_j)
        order = sorted(range(lat.size), key=lat.height.__getitem__)
        return lattice.FiniteLattice._from_covers_up([c[:1] for c in lat.covers_up], order)
    return faulty


# name: (module, routine, fault of the routine, the failed checks' details)
MUTANTS = {
    "closure drops its last pair": (
        grid, "_closure_labels", lambda f: lambda n, pairs: f(n, list(pairs)[:-1]), [
            ("formula_oracle", "153 failures, first at (1, (1,))"),
            ("source_cells_regenerate", "153 failures, first at (1, (1,))")]),
    "closed form splits a block": (grid, "_formula_blocks", _split_block, [
        ("round_trip", "153 failures, first at (1, (1,))"),
        ("formula_oracle", "153 failures, first at (1, (1,))"),
        ("source_cells_regenerate", "153 failures, first at (1, (1,))"),
        ("structural", "153 failures, first at (1, (1,))"),
        ("narrows_segments", "153 failures, first at (1, (1,))"),
        ("pairwise_iso", "7 mismatches"),
        ("diagram_count", "raised NotSlimSemimodular: lattice is not semimodular"),
        ("group_realization", "33 failures"),
        ("random_round_trip", "raised NotSlimSemimodular: lattice is not semimodular")]),
    "cell scan drops the last source cell": (grid, "_cell_scan", _drop_last_source, [
        ("formula_oracle", "153 failures, first at (1, (1,))"),
        ("source_cells_regenerate", "153 failures, first at (1, (1,))")]),
    "regenerate closes all but its last source cell": (
        grid, "_regenerate", lambda f: _closes_cells(f, lambda cells: cells[:-1]), [
            ("formula_oracle", "153 failures, first at (1, (1,))"),
            ("source_cells_regenerate", "153 failures, first at (1, (1,))")]),
    "regenerate closes the transposed cells": (
        grid, "_regenerate", lambda f: _closes_cells(f, lambda cells: [c[::-1] for c in cells]), [
            ("formula_oracle", "110 failures, first at (3, (2, 3, 1))"),
            ("source_cells_regenerate", "110 failures, first at (3, (2, 3, 1))")]),
    "cover builder keeps the lower of two incomparable covers": (
        grid, "_lattice_from_tops", _lower_cover_only, [
            ("round_trip", "148 failures, first at (2, (2, 1))"),
            ("structural", "148 failures, first at (2, (2, 1))"),
            ("narrows_segments", "148 failures, first at (2, (2, 1))"),
            ("pairwise_iso", "8 mismatches"),
            ("diagram_count", "raised IndexError: tuple index out of range"),
            ("group_realization", "29 failures"),
            ("random_round_trip", "raised OutOfRange: value 0 outside 1..6")]),
    "trajectories swap two images": (
        extract, "_trajectory_images", lambda f: lambda d: _swap_two(f(d)), [
            ("round_trip", "152 failures, first at (2, (1, 2))"),
            ("group_realization", "raised ExtractorDisagreement: trajectories (2, 1),"
             " meet-irreducibles (1, 2), source cells (1, 2)"),
            ("random_round_trip", "raised ExtractorDisagreement: trajectories"
             " (3, 5, 2, 1, 6, 4), meet-irreducibles (5, 3, 2, 1, 6, 4), source cells"
             " (5, 3, 2, 1, 6, 4)")]),
    "meet-irreducibles swap two images": (
        extract, "_meet_irreducible_images", lambda f: lambda d: _swap_two(f(d)), [
            ("round_trip", "152 failures, first at (2, (1, 2))"),
            ("diagram_count", "76 mismatches"),
            ("group_realization", "raised ExtractorDisagreement: trajectories (1, 2),"
             " meet-irreducibles (2, 1), source cells (1, 2)"),
            ("random_round_trip", "raised ExtractorDisagreement: trajectories"
             " (5, 3, 2, 1, 6, 4), meet-irreducibles (3, 5, 2, 1, 6, 4), source cells"
             " (5, 3, 2, 1, 6, 4)")]),
    "source cells swap two images": (
        extract, "_source_cell_images", lambda f: lambda d: _swap_two(f(d)), [
            ("round_trip", "152 failures, first at (2, (1, 2))"),
            ("group_realization", "raised ExtractorDisagreement: trajectories (1, 2),"
             " meet-irreducibles (1, 2), source cells (2, 1)"),
            ("random_round_trip", "raised ExtractorDisagreement: trajectories"
             " (5, 3, 2, 1, 6, 4), meet-irreducibles (5, 3, 2, 1, 6, 4), source cells"
             " (3, 5, 2, 1, 6, 4)")]),
    "is_semimodular answers False": (lattice, "is_semimodular", lambda f: lambda lat: False, [
        ("round_trip", "153 failures, first at (1, (1,))"),
        ("structural", "153 failures, first at (1, (1,))"),
        ("diagram_count", "raised NotSlimSemimodular: lattice is not semimodular"),
        ("group_realization", "raised NotSlimSemimodular: lattice is not semimodular"),
        ("random_round_trip", "raised NotSlimSemimodular: lattice is not semimodular")]),
    "is_slim answers False": (lattice, "is_slim", lambda f: lambda lat: False, [
        ("structural", "153 failures, first at (1, (1,))")]),
    "narrows drops the top": (lattice, "narrows", lambda f: lambda lat: f(lat)[:-1], [
        ("narrows_segments", "153 failures, first at (1, (1,))"),
        ("diagram_count", "raised IndexError: tuple index out of range")]),
    "segments merge two": (perm, "segments", _merge_two, [
        ("narrows_segments", "64 failures, first at (2, (1, 2))")]),
    "trajectories raise on phi0(2, 3, 1)": (extract, "_trajectory_images", _raise_on_231, [
        ("round_trip", "1 failures, first at (3, (2, 3, 1))")]),
}


def _patch_routine(monkeypatch, module, name: str, fault) -> None:
    """Replace the routine module.name by fault(routine) under every name a
    loaded slimlat module binds it to."""
    original = getattr(module, name)
    wrong = fault(original)
    for key, mod in list(sys.modules.items()):
        if key == "slimlat" or key.startswith("slimlat."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrong)


def _failures(monkeypatch, workers: int) -> list[tuple[str, str]]:
    monkeypatch.setattr(verify, "_usable_cpus", lambda: workers)
    report = verify.run(SCALE, 0, lambda message: None)
    return [(c["name"], c["details"]) for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_its_checks(monkeypatch, mutant, workers):
    module, name, fault, expected = MUTANTS[mutant]
    _patch_routine(monkeypatch, module, name, fault)
    assert _failures(monkeypatch, workers) == expected


def test_forked_map_dropping_the_last_result_is_an_error(monkeypatch):
    # the last job is the one of size 1; a report without it is never a pass
    _patch_routine(monkeypatch, verify, "_forked_map",
                   lambda f: lambda jobs, workers: f(jobs, workers)[:-1])
    with pytest.raises(RuntimeError, match="^152 of 153 permutation bundles were checked$"):
        _failures(monkeypatch, 2)


@pytest.mark.xfail(strict=True, reason=(
    "an equivalent mutant: the bundle regenerates the closed form's congruence,"
    " which is cover-preserving and collapses no boundary edge, and by the"
    " regeneration lemma such a congruence is generated by its source cells,"
    " so the correct routine returns its input too (ROADMAP item 5)"))
def test_regenerate_returning_its_input_is_caught(monkeypatch):
    _patch_routine(monkeypatch, grid, "_regenerate", _returns_input)
    assert _failures(monkeypatch, 1) != []
