"""Command-line front end.

Conventions: JSON on stdout, human-readable notes on stderr; exit code 0 on
success, 1 when a verification run fails, 2 on invalid input.  All commands
are deterministic: identical inputs produce byte-identical stdout.

Only :mod:`slimlat.perm` is imported with this module; each command imports
the other modules it runs, so that a run loads nothing it does not use.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys

from slimlat import perm
from slimlat.perm import Permutation

# per-check scale caps keeping `verify` desk-speed at large --n
PAIRWISE_CAP = 4
DIAGRAMS_CAP = 5
GROUPS_CAP = 4
RANDOM_SIZE_CAP = 32
# the largest permutation size build, render-grid and group-realize accept;
# on a 2-vCPU VM, build at n = 96 takes 0.25 s for a random permutation (2,383
# elements) and 0.36 s for the reversal (4,657 elements, the most at n = 96)
SIZE_CAP = 96

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Accepts one-line notation ("2,3,1") or cycles ("(1 2 3)(5 6 7)").

    Cycle input needs --n to mention trailing fixed points; otherwise the
    largest moved point sets the size.  A size above SIZE_CAP raises
    TooLarge before anything of that size is allocated.
    """
    text = text.strip()
    if "(" in text:
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(text):
            elems = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if elems:
                cycles.append(elems)
        flat = [x for c in cycles for x in c]
        if len(set(flat)) != len(flat):
            raise perm.DuplicateValue(f"cycles reuse a point: {text!r}")
        size = n if n is not None else max(flat, default=0)
        _check_size(size)
        if any(not 1 <= x <= size for x in flat):
            raise perm.OutOfRange(f"cycle point outside 1..{size}")
        images = list(range(1, size + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return perm.validate(images)
    images = [int(tok) for tok in re.split(r"[,\s]+", text) if tok]
    if n is not None and n != len(images):
        raise ValueError(f"--n {n} does not match a permutation of size {len(images)}")
    _check_size(len(images))
    return perm.validate(images)


def _check_size(size: int) -> None:
    if size > SIZE_CAP:
        raise perm.TooLarge(f"permutation size {size} exceeds the cap {SIZE_CAP}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- commands --------------------------------------------------------------------

def cmd_build(args) -> int:
    from slimlat import grid, lattice
    pi = parse_permutation(args.perm, args.n)
    diagram = grid.phi0(pi)
    if args.format == "dot":
        print(lattice.to_dot(diagram.lattice), end="")
        return 0
    obj = lattice.diagram_to_json(diagram)
    obj["perm"] = list(pi.images)
    layout = grid.heuristic_layout(pi, diagram.lattice)
    obj["layout"] = [list(layout[x]) for x in range(diagram.lattice.size)]
    _emit(obj)
    _note(f"built a lattice with {diagram.lattice.size} elements, length {diagram.n}")
    return 0


def _load_json(path: str):
    """The parsed JSON file; nesting too deep for the parser is invalid input."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path} nests too deeply") from exc


def cmd_extract(args) -> int:
    from slimlat import extract, lattice
    diagram = lattice.diagram_from_json(_load_json(args.diagram))
    pi = extract.extract_permutation(diagram, verify=True)
    _emit({
        "permutation": list(pi.images),
        "cycles": pi.cycle_string(),
        "segments": [list(seg) for seg in perm.segments(pi).segments],
        "rho_class_size": perm.class_size(pi),
    })
    _note(f"extracted {pi.cycle_string()} from {args.diagram}")
    return 0


def cmd_count(args) -> int:
    counts = perm.class_counts(args.n)
    rows = [{"n": k, "classes": counts[k], "factorial": math.factorial(k)}
            for k in range(1, args.n + 1)]
    _emit({"counts": rows})
    for row in rows:
        _note(f"n={row['n']:>2}  classes={row['classes']:>8}  n!={row['factorial']}")
    return 0


def cmd_group_realize(args) -> int:
    from slimlat import extract, groups, lattice
    pi = parse_permutation(args.perm, args.n)
    primes = (tuple(int(tok) for tok in re.split(r"[,\s]+", args.primes.strip()) if tok)
              if args.primes else groups.first_primes(pi.n))
    inst = groups.csl_build(primes, pi)
    diagram = groups.csl_dual_diagram(inst)
    extracted = extract.extract_permutation(diagram, verify=True)
    if args.format == "dot":
        labels = {k: str(d) for k, d in enumerate(inst.elements)}
        print(lattice.to_dot(groups.csl_lattice(inst), labels, name="csl"), end="")
        print(lattice.to_dot(diagram.lattice, labels, name="csl_dual"), end="")
        return 0
    _emit({
        "primes": list(inst.primes),
        "perm": list(pi.images),
        "h_orders": list(inst.h_orders),
        "k_orders": list(inst.k_orders),
        "elements": list(inst.elements),
        "extracted": list(extracted.images),
        "jordan_holder": list(groups.jordan_holder_permutation(inst).images),
    })
    _note(f"realized {pi.cycle_string()} over the cyclic group of order {inst.group_order}")
    return 0


def cmd_render_grid(args) -> int:
    from slimlat import grid
    pi = parse_permutation(args.perm, args.n)
    if args.format == "dot":
        print(grid.grid_dot(pi), end="")
    elif args.format == "json":
        _emit({"n": pi.n, "cells": [[i, pi(i)] for i in range(1, pi.n + 1)]})
    else:
        print(grid.render_ascii(pi))
    return 0


def cmd_export_dot(args) -> int:
    from slimlat import lattice
    print(lattice.to_dot(lattice.lattice_from_json(_load_json(args.diagram))), end="")
    return 0


# -- the verification suite --------------------------------------------------------

BUNDLE_CHECKS = ("round_trip", "formula_oracle", "source_cells_regenerate",
                 "structural", "narrows_segments")


def _check_bundle(task: tuple[int, tuple[int, ...]]) -> list[str]:
    """Per-permutation invariant bundle; returns the names of failed checks.

    A check that raises has failed, and so has every check on a diagram or
    congruence that could not be built.
    """
    from slimlat import extract, grid, lattice
    n, images = task
    pi = Permutation(images)
    g = grid.Grid(n)
    diagram = _built(grid.phi0, pi)
    kappa = _built(grid.beta_from_perm, g, pi, check=False)

    def round_trip() -> bool:
        return extract.extract_permutation(diagram, verify=True) == pi

    def formula_oracle() -> bool:
        return kappa == grid.beta_from_formula(g, pi)

    def source_cells_regenerate() -> bool:
        expected = frozenset(itertools.starmap(grid.GridCell, enumerate(images, start=1)))
        return grid.source_cells(kappa) == expected and grid.regenerate(kappa) == kappa

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


def cmd_verify(args) -> int:
    """The bundles up to size min(n, 7), then the suite checks, reported in
    that order.  With more than one usable CPU, the suite and then the
    bundles are submitted to one process pool; with one, all run here."""
    import time

    # the bundle's modules, imported before the pool forks so that the
    # workers inherit them instead of each importing them again
    from slimlat import extract, grid, lattice  # noqa: F401
    started = time.perf_counter()
    n_max = args.n
    if n_max < 0:
        raise ValueError("--n must be nonnegative")
    checks: list[dict] = []

    tasks = [(k, images) for k in range(1, min(n_max, 7) + 1)
             for images in itertools.permutations(range(1, k + 1))]
    suite = [(name, min(n_max, cap), check, min(n_max, cap)) for name, cap, check in (
        ("pairwise_iso", PAIRWISE_CAP, "_check_pairwise_iso"),
        ("diagram_count", DIAGRAMS_CAP, "_check_diagram_counts"),
        ("group_realization", GROUPS_CAP, "_check_group_realization"),
        ("class_counts", perm.ENUMERATION_CAP, "_check_class_counts"))]
    suite.append(("random_round_trip", min(n_max + 2, RANDOM_SIZE_CAP),
                  "_check_random_round_trip", n_max, args.seed))
    workers = _usable_cpus()
    _note(f"checking {len(tasks)} permutation bundles with {workers} worker(s)")
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
            "scale": min(n_max, 7),
            "passed": not bad,
            "details": (f"{len(tasks)} permutations checked" if not bad
                        else f"{len(bad)} failures, first at {bad[0]}"),
        })
    checks += suite_reports

    passed = all(check["passed"] for check in checks)
    report = {
        "command": "verify",
        "inputs": {"n": n_max, "seed": args.seed},
        "checks": checks,
        "passed": passed,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    _emit(report)
    for check in checks:
        _note(f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}"
              f" (scale {check['scale']}): {check['details']}")
    return 0 if passed else 1


def _guarded(name: str, scale: int, check: str, *args) -> dict:
    """The report of this module's check named check on args, or a failed one if
    it raises; looked up by name when it runs, so a pool pickles only the name."""
    try:
        return globals()[check](*args)
    except Exception as exc:
        return {"name": name, "scale": scale, "passed": False,
                "details": f"raised {type(exc).__name__}: {exc}"}


def _check_pairwise_iso(scale: int) -> dict:
    from slimlat import grid, lattice
    bad = total = 0
    for k in range(1, scale + 1):
        perms = list(perm.all_permutations(k))
        lattices = {p: grid.phi0(p).lattice for p in perms}
        for p, q in itertools.combinations_with_replacement(perms, 2):
            total += 1
            bad += lattice.is_isomorphic(lattices[p], lattices[q]) != perm.rho_equivalent(p, q)
    return {"name": "pairwise_iso", "scale": scale, "passed": bad == 0,
            "details": f"{total} pairs compared" if bad == 0 else f"{bad} mismatches"}


def _reflection_similar(lat, lo: int, hi: int, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True iff some automorphism of [lo, hi] swaps the chains u and v, by a
    pinned isomorphism search on the interval as a lattice of its own."""
    from slimlat import lattice
    sub, elems = lattice.interval_sublattice(lat, lo, hi)
    index = {x: k for k, x in enumerate(elems)}
    d = lattice.BorderedDiagram(sub, tuple(index[x] for x in u), tuple(index[x] for x in v))
    return lattice.boundarily_similar(d, d.reflected())


def _searched_diagram_count(lat) -> int:
    """The product over glued-sum components of their orientation counts,
    each decided by isomorphism search instead of by the permutation, so
    that the count does not rest on the theorem it checks."""
    from slimlat import extract, lattice
    nar = lattice.narrows(lat)
    count = 1
    for lo, hi in zip(nar, nar[1:]):
        u, v = extract._component_chain_pair(lat, lo, hi)
        if not _reflection_similar(lat, lo, hi, u, v):
            count *= 2
    return count


def _check_diagram_counts(scale: int) -> dict:
    from slimlat import extract, grid
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
    from slimlat import extract, grid, groups, lattice
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
    import random

    from slimlat import extract, grid
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


# -- entry point --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slimlat",
        description="Slim semimodular lattices and permutations: build grid "
                    "quotients, extract permutations from bordered diagrams, "
                    "count equivalence classes, and realize permutations over "
                    "cyclic groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="quotient lattice of a permutation")
    p.add_argument("--perm", required=True, help='one-line "2,3,1" or cycles "(1 2 3)"')
    p.add_argument("--n", type=int, default=None, help="domain size for cycle input")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extract", help="permutation of a bordered diagram")
    p.add_argument("--diagram", required=True, help="path to a diagram JSON file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("count", help=f"equivalence classes of S_1..S_n, n <= {perm.COUNT_CAP}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run the invariant suite up to size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("group-realize",
                       help="composition series of a cyclic group realizing a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--primes", default=None, help='e.g. "2,3,5" (default: first n primes)')
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_group_realize)

    p = sub.add_parser("render-grid", help="cell matrix of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=["ascii", "json", "dot"], default="ascii")
    p.set_defaults(func=cmd_render_grid)

    p = sub.add_parser("export-dot", help="Graphviz source of a diagram JSON file")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=cmd_export_dot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
