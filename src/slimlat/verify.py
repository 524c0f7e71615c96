"""The invariant suite behind ``slimlat verify``.

Every permutation up to size EXHAUSTIVE_CAP gets one bundle of checks
(BUNDLE_CHECKS): the round trip through phi0 and the three extractors, the
closed form against the closure, the source cells and regeneration, the
structural postconditions, and the narrows against the segments.  Five
suite checks follow: isomorphism against the equivalence, diagram counts by
search, group realization, class counts, and random round trips.  Each side
of a check is an independent route, so a fault in one shows as a mismatch.

The command-line front end imports this module only for ``verify``.
"""
from __future__ import annotations

import itertools
import os
import random
import time

# the bundle's modules, imported with this one before the pool forks, so
# that the workers inherit them instead of each importing them again
from slimlat import extract, grid, lattice, perm
from slimlat.perm import Permutation

# per-check scale caps keeping the suite desk-speed at large n; the
# bundles run on every permutation up to EXHAUSTIVE_CAP
EXHAUSTIVE_CAP = 8
PAIRWISE_CAP = 4
DIAGRAMS_CAP = 5
GROUPS_CAP = 4
RANDOM_SIZE_CAP = 32

BUNDLE_CHECKS = ("round_trip", "formula_oracle", "source_cells_regenerate",
                 "structural", "narrows_segments")


def _check_bundle(task: tuple[int, tuple[int, ...]]) -> list[str]:
    """Per-permutation invariant bundle; returns the names of failed checks.

    A check that raises has failed, and so has every check on a diagram or
    congruence that could not be built.
    """
    n, images = task
    pi = Permutation(images)
    g = grid.Grid(n)
    # both None if phi0 raised, which fails formula_oracle as well
    diagram, labels, _ = _built(grid._phi0_parts, pi) or (None, None, None)
    kappa = _built(grid.beta_from_perm, g, pi, check=False)

    def round_trip() -> bool:
        return extract.extract_permutation(diagram, verify=True) == pi

    def formula_oracle() -> bool:
        return kappa.labels == labels

    def source_cells_regenerate() -> bool:
        # one scan of kappa's cells gives both; the cells come in row-major
        # order, so they are the graph of pi iff they equal its (i, pi(i))
        cells, regenerated = grid._regenerate(kappa)
        return cells == tuple(enumerate(images, start=1)) and regenerated == kappa

    def structural() -> bool:
        lat = diagram.lattice
        boundary = diagram.boundary()
        return (lattice.is_slim(lat)
                and lattice.is_semimodular(lat)
                and lat.length == n
                and len(lattice.meet_irreducibles(lat)) == n
                and max(map(len, lat.covers_up)) <= 2
                and all(x in boundary for x in lattice.join_irreducibles(lat)))

    def narrows_segments() -> bool:
        lat = diagram.lattice
        heights = {lat.height[x] for x in lattice.narrows(lat)}
        return heights == {0} | set(perm.segments(pi).maxima())

    checks = ((diagram, round_trip), (kappa, formula_oracle), (kappa, source_cells_regenerate),
              (diagram, structural), (diagram, narrows_segments))
    return [name for name, (built, check) in zip(BUNDLE_CHECKS, checks)
            if built is None or not _passes(check)]


def _built(build, *args, **kwargs):
    """build(*args, **kwargs), or None if it raises."""
    try:
        return build(*args, **kwargs)
    except Exception:
        return None


def _passes(check) -> bool:
    """check(), with an exception counted as a failure."""
    try:
        return check()
    except Exception:
        return False


def _pooled_bundle(task: tuple[int, tuple[int, ...]]) -> list[str]:
    """_check_bundle(task) in a pool worker.  The pool pickles this
    function by name, and the worker looks _check_bundle up only when it
    runs, so a replacement of _check_bundle need not be picklable."""
    return _check_bundle(task)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(n_max: int, seed: int, note) -> dict:
    """The report of the bundles up to size min(n_max, EXHAUSTIVE_CAP), then
    the suite checks, in that order; note(message) is called with the run's
    one progress line.  With more than one usable CPU, the suite and then the
    bundles are submitted to one process pool; with one, all run here."""
    started = time.perf_counter()
    if n_max < 0:
        raise ValueError("--n must be nonnegative")
    checks: list[dict] = []

    bundle_scale = min(n_max, EXHAUSTIVE_CAP)
    tasks = [(k, images) for k in range(1, bundle_scale + 1)
             for images in itertools.permutations(range(1, k + 1))]
    suite = [(name, min(n_max, cap), check, min(n_max, cap)) for name, cap, check in (
        ("pairwise_iso", PAIRWISE_CAP, "_check_pairwise_iso"),
        ("diagram_count", DIAGRAMS_CAP, "_check_diagram_counts"),
        ("group_realization", GROUPS_CAP, "_check_group_realization"),
        ("class_counts", perm.ENUMERATION_CAP, "_check_class_counts"))]
    suite.append(("random_round_trip", min(n_max + 2, RANDOM_SIZE_CAP),
                  "_check_random_round_trip", n_max, seed))
    workers = _usable_cpus()
    note(f"checking {len(tasks)} permutation bundles with {workers} worker(s)")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = [pool.submit(_guarded, *entry) for entry in suite]
            chunk = max(1, len(tasks) // (workers * 8))
            failure_lists = list(pool.map(_pooled_bundle, tasks, chunksize=chunk))
            suite_reports = [future.result() for future in pending]
    else:
        failure_lists = [_check_bundle(task) for task in tasks]
        suite_reports = [_guarded(*entry) for entry in suite]
    for name in BUNDLE_CHECKS:
        bad = [task for task, fails in zip(tasks, failure_lists) if name in fails]
        checks.append({
            "name": name,
            "scale": bundle_scale,
            "passed": not bad,
            "details": (f"{len(tasks)} permutations checked" if not bad
                        else f"{len(bad)} failures, first at {bad[0]}"),
        })
    checks += suite_reports
    return {
        "command": "verify",
        "inputs": {"n": n_max, "seed": seed},
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }


def _guarded(name: str, scale: int, check: str, *args) -> dict:
    """The report of this module's check named check on args, or a failed one if
    it raises; looked up by name when it runs, so a pool pickles only the name."""
    try:
        return globals()[check](*args)
    except Exception as exc:
        return {"name": name, "scale": scale, "passed": False,
                "details": f"raised {type(exc).__name__}: {exc}"}


def _check_pairwise_iso(scale: int) -> dict:
    bad = total = 0
    for k in range(1, scale + 1):
        perms = list(perm.all_permutations(k))
        lattices = {p: grid.phi0(p).lattice for p in perms}
        for p, q in itertools.combinations_with_replacement(perms, 2):
            total += 1
            bad += lattice.is_isomorphic(lattices[p], lattices[q]) != perm.rho_equivalent(p, q)
    return {"name": "pairwise_iso", "scale": scale, "passed": bad == 0,
            "details": f"{total} pairs compared" if bad == 0 else f"{bad} mismatches"}


def _reflection_similar(lat, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True iff some automorphism of [u[0], u[-1]] swaps the chains u and v,
    by a pinned isomorphism search on the interval as a lattice of its own."""
    sub, elems = lattice.interval_sublattice(lat, u[0], u[-1])
    index = {x: k for k, x in enumerate(elems)}
    d = lattice.BorderedDiagram(sub, tuple(index[x] for x in u), tuple(index[x] for x in v))
    return lattice.boundarily_similar(d, d.reflected())


def _searched_diagram_count(lat) -> int:
    """The product over glued-sum components of their orientation counts,
    each decided by isomorphism search instead of by the permutation, so
    that the count does not rest on the theorem it checks."""
    count = 1
    for u, v in extract._component_chain_pairs(lat):
        if not _reflection_similar(lat, u, v):
            count *= 2
    return count


def _check_diagram_counts(scale: int) -> dict:
    # the search side, the production count and the class size must agree
    bad = total = 0
    for k in range(1, scale + 1):
        for p in perm.all_permutations(k):
            total += 1
            lat = grid.phi0(p).lattice
            expected = len(perm.rho_class(p))
            bad += not _searched_diagram_count(lat) == extract.diagram_count(lat) == expected
    return {"name": "diagram_count", "scale": scale, "passed": bad == 0,
            "details": f"{total} lattices counted" if bad == 0 else f"{bad} mismatches"}


def _check_group_realization(scale: int) -> dict:
    from slimlat import groups
    bad = total = 0
    for k in range(1, scale + 1):
        primes = groups.first_primes(k)
        for p in perm.all_permutations(k):
            total += 1
            inst = groups.csl_build(primes, p)
            diagram = groups.csl_dual_diagram(inst)
            bad += not (extract.extract_permutation(diagram, verify=True) == p
                        and groups.jordan_holder_permutation(inst) == p
                        and lattice.is_isomorphic(diagram.lattice, grid.phi0(p).lattice))
    return {"name": "group_realization", "scale": scale, "passed": bad == 0,
            "details": f"{total} instances realized" if bad == 0 else f"{bad} failures"}


def _check_class_counts(scale: int) -> dict:
    # the closed form against the enumeration of canonical representatives
    counts = perm.class_counts(scale)
    ok = all(counts[k] == len(perm.enumerate_reps(k)) for k in range(scale + 1))
    return {"name": "class_counts", "scale": scale, "passed": ok,
            "details": f"counts {counts}"}


def _check_random_round_trip(n_max: int, seed: int) -> dict:
    rng = random.Random(seed)
    sizes = [min(k, RANDOM_SIZE_CAP) for k in (n_max + 1, n_max + 2)]
    bad = total = 0
    for k in sizes:
        for _ in range(5):
            images = list(range(1, k + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            total += 1
            bad += extract.extract_permutation(grid.phi0(p), verify=True) != p
    return {"name": "random_round_trip", "scale": max(sizes),
            "passed": bad == 0,
            "details": f"{total} random permutations (seed {seed})" if bad == 0
                       else f"{bad} failures"}
