"""The invariant suite behind ``slimlat verify``.

Every permutation up to size EXHAUSTIVE_CAP gets one bundle of checks
(BUNDLE_CHECKS): the round trip through phi0 and the three extractors, the
closed form against the closure of its source cells, which must be pi's
cells, the structural postconditions, and the narrows against the segments.
Five suite checks follow: isomorphism against the equivalence, diagram
counts by search, group realization, class counts, and random round trips.
Each side of a check is an independent route, so a fault in one shows as a
mismatch.

The bundles run in jobs, each of which enumerates the permutations of one
size that extend a prefix of images, FREE_SUFFIX values left free, and
checks them as one batch: phi0's parts are built for the whole batch, and
then each check runs over the batch before the next.  A job returns its
count and its failures only, so memory does not grow with n!.  With more
than one usable CPU, forked workers take the suite checks and then the jobs,
those of the largest permutations first, each taking the next job whenever
it is free; the last jobs are the cheapest, so the workers finish together.
The failures are reported in task order either way.

The command-line front end imports this module only for ``verify``.
"""
from __future__ import annotations

import functools
import io
import itertools
import marshal
import math
import os
import random
import select
import sys
import time

# the bundle's modules, imported with this one before the workers fork, so
# that they inherit them instead of each importing them again
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

# The values a job leaves free after its prefix: a job of size 5 or more
# checks 5! = 120 permutations, as one batch.  In-process at n <= 7 on one CPU of a
# 2-vCPU VM, a bundle cost 204 us in batches of 1 and 156-162 us in batches
# of 16 to 256, and a worker's peak RSS in verify --n 8 was 25.4-27.9 MB up
# to 256, 27.2 MB at 512 and 30.0 MB at 1,024: each batch holds its
# lattices, with their cones, until its last check.
FREE_SUFFIX = 5


def _check_prefix(n: int, prefix: tuple[int, ...]) -> tuple[int, list]:
    """The bundles of the permutations of size n that extend prefix, in
    lexicographic order, as one batch: their count, and (images, names of
    the failed checks) for each permutation that failed one."""
    rest = [v for v in range(1, n + 1) if v not in prefix]
    tasks = [(n, prefix + suffix) for suffix in itertools.permutations(rest)]
    return len(tasks), [(images, fails) for (_, images), fails
                        in zip(tasks, _check_batch(tasks)) if fails]


def _check_batch(tasks: list[tuple[int, tuple[int, ...]]]) -> list[list[str]]:
    """The names of the failed BUNDLE_CHECKS of each task (n, images), in
    task order.

    phi0's parts are built for the whole batch, and then each check runs over
    the whole batch before the next.  The closed form's congruence is
    regenerated from its source cells by one closure, which must give it
    back.  A check that raises has failed for its permutation only, and so
    has every check on a diagram or congruence that could not be built
    (None).  Each lattice's semimodularity is tested once, for round_trip
    and structural.
    """
    pis = [Permutation(images) for _, images in tasks]
    parts = [_built(grid._phi0_parts, pi) or (None, None, None) for pi in pis]
    images = [pi.images for pi in pis]
    diagrams = [diagram for diagram, _, _ in parts]
    labels = [labels for _, labels, _ in parts]
    del parts  # the tops are not read again
    # the source cells and regenerate(F) of the closed form F, or None where
    # F was not built or fails the hypotheses
    regenerated = [_built(grid._regenerate, grid.GridCongruence(pi.n, f)) if f is not None
                   else None for pi, f in zip(pis, labels)]
    formula = _each(_formula_oracle, zip(regenerated, labels))
    del labels
    regenerate = _each(_source_cells_regenerate, zip(regenerated, images, formula))
    del regenerated
    # None where phi0 or the test raised, which fails both checks that read it
    semimodular = [_built(lattice.is_semimodular, d.lattice) if d is not None else None
                   for d in diagrams]
    trips = _each(_round_trip, zip(diagrams, images, semimodular))
    structural = _each(_structural, zip(diagrams, [n for n, _ in tasks], semimodular))
    narrows = _each(_narrows_segments, zip(diagrams, pis))
    return [[name for name, ok in zip(BUNDLE_CHECKS, oks) if not ok]
            for oks in zip(trips, formula, regenerate, structural, narrows)]


def _each(check, rows) -> list[bool]:
    """check(*row) for each row, in order, with False where it raises.  Each
    check fails where its diagram or congruence is None."""
    results: list[bool] = []
    rows = iter(rows)
    while True:
        try:
            # resumed after a raising row, so each row is checked once
            for row in rows:
                results.append(check(*row))
            return results
        except Exception:
            results.append(False)


def _round_trip(diagram, images: tuple[int, ...], semimodular: bool) -> bool:
    # extract_permutation(diagram, verify=True) == pi: the semimodularity it
    # tests, then the three extractors' images, each pi's
    return (semimodular and extract._meet_irreducible_images(diagram) == images
            and extract._trajectory_images(diagram) == images
            and extract._source_cell_images(diagram) == images)


def _formula_oracle(regenerated, labels: tuple[int, ...]) -> bool:
    # the closure of F's source cells is F; it never reads the closed form
    return regenerated is not None and regenerated[1].labels == labels


def _source_cells_regenerate(regenerated, images: tuple[int, ...], formula: bool) -> bool:
    # the hypotheses held, regenerate(F) == F, and F's source cells, in
    # row-major order, are the graph of pi: the regeneration lemma on F
    return formula and regenerated[0] == tuple(enumerate(images, start=1))


def _structural(diagram, n: int, semimodular: bool) -> bool:
    if not semimodular:  # None as well where phi0 raised
        return False
    lat = diagram.lattice
    return (lattice.is_slim(lat)
            and lat.length == n
            and len(lattice.meet_irreducibles(lat)) == n
            and max(map(len, lat.covers_up)) <= 2
            and diagram.boundary().issuperset(lattice.join_irreducibles(lat)))


def _narrows_segments(diagram, pi: Permutation) -> bool:
    if diagram is None:
        return False
    lat = diagram.lattice
    heights = {lat.height[x] for x in lattice.narrows(lat)}
    return heights == {0} | set(perm.segments(pi).maxima())


def _built(build, *args, **kwargs):
    """build(*args, **kwargs), or None if it raises."""
    try:
        return build(*args, **kwargs)
    except Exception:
        return None


def _forked_map(jobs: list, workers: int) -> list:
    """[job() for job in jobs], computed in that many forked children.

    The children inherit the jobs and the imported modules, so nothing is
    pickled or imported, and the caller must run no other thread.  Each
    child takes the index of its next job from a pipe they share whenever it
    is free, and writes each result, of the types marshal writes, to a pipe
    of its own.  Raises RuntimeError unless every child ends well.
    """
    if not jobs:
        return []
    # 4-byte indices, fed in writes of 512 bytes at most: a pipe write of at
    # most PIPE_BUF bytes, never under 512, is whole or refused, so each
    # read of 4 bytes takes one index
    tokens = b"".join(k.to_bytes(4, "big") for k in range(len(jobs)))
    tokens_r, tokens_w = os.pipe()
    streams: dict[int, bytearray] = {}  # each child's result pipe, read so far
    pids = []
    for _ in range(min(workers, len(jobs))):
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            for fd in (tokens_w, result_r, *streams):
                os.close(fd)
            _serve(jobs, tokens_r, result_w)
        os.close(result_w)
        streams[result_r] = bytearray()
        pids.append(pid)
    os.close(tokens_r)
    os.set_blocking(tokens_w, False)
    poller = select.poll()
    poller.register(tokens_w, select.POLLOUT)
    for fd in streams:
        poller.register(fd, select.POLLIN)
    outputs = []
    while streams:
        for fd, _ in poller.poll():
            if fd == tokens_w:
                try:
                    tokens = tokens[os.write(tokens_w, tokens[:512]):]
                except BlockingIOError:
                    continue
                if not tokens:  # the children stop at the end of the pipe
                    poller.unregister(tokens_w)
                    os.close(tokens_w)
            else:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    streams[fd] += chunk
                else:
                    poller.unregister(fd)
                    os.close(fd)
                    outputs.append(streams.pop(fd))
    if tokens:  # every child ended before the last job
        os.close(tokens_w)
    statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise RuntimeError(f"a verify worker failed (exit statuses {statuses})")
    # a child that exits 0 has read the pipe of indices to its end, so
    # every job has run
    results: list = [None] * len(jobs)
    for output in outputs:
        stream = io.BytesIO(output)
        while stream.tell() < len(output):
            k, result = marshal.load(stream)
            results[k] = result
    return results


def _serve(jobs: list, tokens_r: int, result_w: int) -> None:
    """A child of _forked_map: runs the jobs whose indices it reads, writes
    each result with its index as it is done, and exits, with status 1 if
    anything raised."""
    status = 1
    try:
        with open(result_w, "wb") as out:
            while token := os.read(tokens_r, 4):
                k = int.from_bytes(token, "big")
                marshal.dump((k, jobs[k]()), out)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:  # never returns into the parent's code
        sys.stderr.flush()
        os._exit(status)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where it cannot
    fork workers."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(n_max: int, seed: int, note) -> dict:
    """The report of the bundles up to size min(n_max, EXHAUSTIVE_CAP), then
    the suite checks, in that order; note(message) is called with the run's
    one progress line.  With more than one usable CPU, the suite checks and
    the batches of bundles run in forked workers (see _forked_map); with
    one, all run here."""
    started = time.perf_counter()
    if n_max < 0:
        raise ValueError("--n must be nonnegative")
    checks: list[dict] = []

    bundle_scale = min(n_max, EXHAUSTIVE_CAP)
    total = sum(math.factorial(k) for k in range(1, bundle_scale + 1))
    # by size, then by prefix: the jobs' permutations in itertools.permutations order
    prefixes = [(k, prefix) for k in range(1, bundle_scale + 1)
                for prefix in itertools.permutations(range(1, k + 1), max(k - FREE_SUFFIX, 0))]
    suite = [(name, min(n_max, cap), check, min(n_max, cap)) for name, cap, check in (
        ("pairwise_iso", PAIRWISE_CAP, _check_pairwise_iso),
        ("diagram_count", DIAGRAMS_CAP, _check_diagram_counts),
        ("group_realization", GROUPS_CAP, _check_group_realization),
        ("class_counts", perm.ENUMERATION_CAP, _check_class_counts))]
    suite.append(("random_round_trip", min(n_max + 2, RANDOM_SIZE_CAP),
                  _check_random_round_trip, n_max, seed))
    workers = _usable_cpus()
    note(f"checking {total} permutation bundles with {workers} worker(s)")
    # the suite first, then the jobs of the largest permutations: the last
    # jobs are the cheapest, so forked workers finish together
    jobs = [functools.partial(_guarded, *entry) for entry in suite]
    jobs += [functools.partial(_check_prefix, *job) for job in reversed(prefixes)]
    results = _forked_map(jobs, workers) if workers > 1 else [job() for job in jobs]
    suite_reports = results[:len(suite)]
    bundle_results = results[len(suite):][::-1]  # back in task order
    checked = sum(count for count, _ in bundle_results)
    if checked != total:
        raise RuntimeError(f"{checked} of {total} permutation bundles were checked")
    failed = {name: 0 for name in BUNDLE_CHECKS}
    first: dict[str, tuple] = {}
    for (k, _), (_, failures) in zip(prefixes, bundle_results):
        for images, fails in failures:
            for name in fails:
                failed[name] += 1
                first.setdefault(name, (k, images))
    for name in BUNDLE_CHECKS:
        checks.append({
            "name": name,
            "scale": bundle_scale,
            "passed": not failed[name],
            "details": (f"{total} permutations checked" if not failed[name]
                        else f"{failed[name]} failures, first at {first[name]}"),
        })
    checks += suite_reports
    return {
        "command": "verify",
        "inputs": {"n": n_max, "seed": seed},
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }


def _guarded(name: str, scale: int, check, *args) -> dict:
    """The report of check(*args), or a failed one if it raises."""
    try:
        return check(*args)
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
    # the closed form against the canonical representatives, counted by
    # enumerate_reps's filter of all of S_k without holding them (181,607
    # at 9, about 29 MB as a list)
    counts = perm.class_counts(scale)
    ok = all(counts[k] == sum(map(perm._images_canonical, itertools.permutations(range(1, k + 1))))
             for k in range(scale + 1))
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
