"""Command-line front end.

Conventions: JSON on stdout, human-readable notes on stderr; exit code 0 on
success, 1 when a verification run fails, 2 on invalid input.  All commands
are deterministic: identical inputs produce byte-identical stdout.

Only :mod:`slimlat.perm` is imported with this module; each command imports
the other modules it runs, so that a run loads nothing it does not use.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from slimlat import perm
from slimlat.perm import SIZE_CAP, Permutation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Accepts one-line notation ("2,3,1") or cycles ("(1 2 3)(5 6 7)").

    Cycle input needs --n to mention trailing fixed points; otherwise the
    largest moved point sets the size.  A negative size raises ValueError,
    and a size above SIZE_CAP raises TooLarge before anything of that size
    is allocated.
    """
    text = text.strip()
    if "(" in text:
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(text):
            elems = _integers(body)
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
    images = _integers(text)
    if n is not None and n != len(images):
        raise ValueError(f"--n {n} does not match a permutation of size {len(images)}")
    _check_size(len(images))
    return perm.validate(images)


def _integers(text: str) -> list[int]:
    """The integers of a list separated by commas and whitespace; int raises
    ValueError on any other token."""
    return [int(tok) for tok in re.split(r"[,\s]+", text) if tok]


def _check_size(size: int) -> None:
    if size < 0:
        raise ValueError(f"permutation size {size} is negative")
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
    diagram, _, tops = grid._phi0_parts(pi)
    if args.format == "dot":
        print(lattice.to_dot(diagram.lattice), end="")
        return 0
    obj = lattice.diagram_to_json(diagram)
    obj["perm"] = list(pi.images)
    layout = grid._layout(diagram, tops)
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
    primes = tuple(_integers(args.primes)) if args.primes else groups.first_primes(pi.n)
    inst = groups.csl_build(primes, pi)
    diagram = groups.csl_dual_diagram(inst)
    extracted = extract.extract_permutation(diagram, verify=True)
    if args.format == "dot":
        labels = {k: str(d) for k, d in enumerate(inst.elements)}
        print(lattice.to_dot(lattice.dual(diagram.lattice), labels, name="csl"), end="")
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


def cmd_verify(args) -> int:
    """The invariant suite of slimlat.verify, reported in JSON on stdout and
    one line per check on stderr."""
    from slimlat import verify
    report = verify.run(args.n, args.seed, _note)
    _emit(report)
    for check in report["checks"]:
        _note(f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}"
              f" (scale {check['scale']}): {check['details']}")
    return 0 if report["passed"] else 1


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
