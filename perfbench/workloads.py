"""The three workloads: inputs made from a seed, one timed round, and the
traced replay of the same inputs layer by layer.

Each workload is a closed loop with one client: the next command starts when
the previous one has finished.  ``prepare`` builds one batch of inputs and
their independently computed answers (this is the set-up the benchmark
times); ``run_round`` times every operation of a batch as a user would issue
it; ``replay`` issues the same work as calls into single layers, each inside
a span.  Only public names of slimlat are used.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from slimlat import extract, grid, groups, lattice, perm
from slimlat.lattice import BorderedDiagram, FiniteLattice
from slimlat.perm import Permutation

from spans import NULL_TRACER, Tally, timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150

# Classes of S_n for n = 0..10, which are the numbers of slim semimodular
# lattices of length n (Czedli, Ozsvart and Udvari, Discrete Math. 2012):
# the independent answers for count_classes.
CLASS_COUNTS = (1, 1, 2, 5, 17, 73, 397, 2623, 20414, 181607, 1809104)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, wrong import)."""


# -- child processes ------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The caller's environment, minus slimlat's switches, importing src/ first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLIMLAT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run ``python argv`` from the checkout root; returns exit code (None on
    timeout), stdout, stderr and wall seconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, "", f"timed out after {exc.timeout} s", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def slimlat_cli(*args: str) -> tuple[int | None, str, str, float]:
    return run_child(["-m", "slimlat.cli", *args])


def startup_probe(tr) -> float:
    """A child interpreter importing slimlat; it must import the source tree."""
    with tr.span("cli.startup"):
        code, out, err, seconds = run_child(["-c", "import slimlat; print(slimlat.__file__)"])
    if code != 0:
        raise SetupError(f"a child interpreter cannot import slimlat: {err.strip()[-300:]}")
    if SRC.resolve() not in Path(out.strip()).resolve().parents:
        raise SetupError(f"the child imported {out.strip()}, not the package under {SRC}")
    return seconds


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# -- inputs ---------------------------------------------------------------------

def random_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_indecomposable(rng: random.Random, n: int) -> Permutation:
    while True:
        p = random_perm(rng, n)
        if len(perm.segments(p).segments) == 1:
            return p


def random_block_sum(rng: random.Random, n: int, sizes=(4, 5, 6)) -> Permutation:
    """A direct sum of indecomposable blocks whose sizes are drawn from sizes."""
    while True:
        parts: list[int] = []
        while sum(parts) < n:
            parts.append(rng.choice(sizes))
        if sum(parts) == n:
            break
    images: list[int] = []
    for size in parts:
        offset = len(images)
        images.extend(v + offset for v in random_indecomposable(rng, size).images)
    return Permutation(tuple(images))


def maximal_chain_count(kappa: grid.GridCongruence) -> int:
    """Number of maximal chains of the quotient by a cover-preserving
    congruence, from the grid alone: the quotient's covers are the images of
    the grid edges the congruence does not collapse.  diagrams_of enumerates
    these chains, so its cost grows with the square of this count."""
    side = kappa.n + 1
    labels = kappa.labels
    succ: list[set[int]] = [set() for _ in range(kappa.num_blocks)]
    for e, x in enumerate(labels):
        i, j = divmod(e, side)
        for up in ((e + side) if i < kappa.n else None, (e + 1) if j < kappa.n else None):
            if up is not None and labels[up] != x:
                succ[x].add(labels[up])
    indegree = [0] * kappa.num_blocks
    for targets in succ:
        for y in targets:
            indegree[y] += 1
    ways = [0] * kappa.num_blocks
    ways[labels[0]] = 1
    ready = [labels[0]]
    while ready:
        x = ready.pop()
        for y in succ[x]:
            ways[y] += ways[x]
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return ways[labels[-1]]


def spread_ranks(pool_size: int, picks: int) -> list[int]:
    """Evenly spaced ranks, from near the lowest to near the highest."""
    return [(2 * k + 1) * pool_size // (2 * picks) for k in range(picks)]


# -- calls shared by rounds and replays ----------------------------------------

def fresh(lat: FiniteLattice, tr) -> FiniteLattice:
    """A copy without cached results, so that every timed call starts cold."""
    copy = tr.call("lattice.from_covers", lattice.from_covers, lat.size, lat.covers)
    tr.count("lattice.size", copy.size)
    return copy


def bordered(kappa: grid.GridCongruence, lat: FiniteLattice) -> BorderedDiagram:
    """The quotient lattice bordered by the images of the grid's two boundary chains."""
    n = kappa.n
    return BorderedDiagram(lat, tuple(kappa.label_of((i, 0)) for i in range(n + 1)),
                           tuple(kappa.label_of((0, j)) for j in range(n + 1)))


def count_diagrams(lat: FiniteLattice, tr) -> int:
    if not tr.enabled:
        return extract.diagram_count(lat)
    tr.call("lattice.is_slim", lattice.is_slim, lat)
    tr.call("lattice.is_semimodular", lattice.is_semimodular, lat)
    autos = tr.call("lattice.automorphisms", lattice.automorphisms, lat)
    tr.count("lattice.automorphisms.count", len(autos))
    diagrams = tr.call("extract.diagrams_of", extract.diagrams_of, lat)
    tr.count("extract.diagrams.count", len(diagrams))
    return len(diagrams)


def extract_checked(diagram: BorderedDiagram, tr):
    """extract_permutation(verify=True); traced, its three extractors one by
    one.  Disagreeing extractors return all three results, which no expected
    permutation equals."""
    if not tr.enabled:
        return extract.extract_permutation(diagram, verify=True)
    tr.call("lattice.is_slim", lattice.is_slim, diagram.lattice)
    tr.call("lattice.is_semimodular", lattice.is_semimodular, diagram.lattice)
    p2 = tr.call("extract.pi2", extract.pi2_meet_irreducibles, diagram)
    p1 = tr.call("extract.pi1", extract.pi1_trajectories, diagram)
    p3 = tr.call("extract.pi3", extract.pi3_source_cells, diagram)
    return p2 if p1 == p2 == p3 else (p1, p2, p3)


def realize(p: Permutation, tr):
    """Realize p by two composition series of a cyclic group; returns the
    permutation extracted from their dual diagram, the Jordan-Holder
    permutation, and the diagram."""
    inst = tr.call("groups.csl_build", groups.csl_build, groups.first_primes(p.n), p)
    diagram = tr.call("groups.csl_dual_diagram", groups.csl_dual_diagram, inst)
    return extract_checked(diagram, tr), groups.jordan_holder_permutation(inst), diagram


# -- verify-exhaustive ------------------------------------------------------------

class VerifyExhaustive:
    """One `slimlat verify --n 7` per round: 5913 tiny lattices through every
    layer, so per-call overhead and small-n grid work dominate."""

    uses_cli = True
    n = 7

    def __init__(self):
        self.checks: list[dict] = []

    def prepare(self, seed: int, index: int, tr, tally: Tally) -> int:
        startup_probe(tr)
        return seed

    def run_round(self, seed: int, tr, tally: Tally, samples) -> float:
        code, out, err, seconds = slimlat_cli("verify", "--n", str(self.n), "--seed", str(seed))
        samples["verify_s"].append(seconds)
        report = parse_json(out)
        passed = code == 0 and isinstance(report, dict) and report.get("passed") is True
        tally.record("verify", passed, f"exit {code}: {err.strip()[-300:]}")
        if isinstance(report, dict):
            self.checks = [{k: c.get(k) for k in ("name", "scale", "passed", "details")}
                           for c in report.get("checks", [])]
        return seconds

    def replay(self, batches: list[int], tr, tally: Tally, samples) -> None:
        """Run the CLI once for its per-check scales, then issue the same
        checks in-process at those scales.  Each input is replayed once."""
        seed = batches[0]
        self.run_round(seed, NULL_TRACER, tally, samples)
        scales = {c["name"]: c["scale"] for c in self.checks if isinstance(c.get("scale"), int)}
        lattices: dict[Permutation, FiniteLattice] = {}

        def lattice_of(p: Permutation) -> FiniteLattice:
            if p not in lattices:
                lattices[p] = tr.call("grid.phi0", grid.phi0, p).lattice
            return lattices[p]

        for k in range(1, scales.get("round_trip", 0) + 1):
            g = grid.Grid(k)
            for p in perm.all_permutations(k):
                timed(tally, f"verify bundle {p.images}",
                      lambda: self._bundle(g, p, tr, lattices), [])

        for k in range(1, scales.get("pairwise_iso", 0) + 1):
            for p, q in itertools.combinations_with_replacement(list(perm.all_permutations(k)), 2):
                a, b = fresh(lattice_of(p), tr), fresh(lattice_of(q), tr)
                expected = tr.call("perm.rho_equivalent", perm.rho_equivalent, p, q)
                timed(tally, f"pairwise {p.images} {q.images}",
                      lambda: tr.call("lattice.is_isomorphic", lattice.is_isomorphic, a, b),
                      expected)

        for k in range(1, scales.get("diagram_count", 0) + 1):
            for p in perm.all_permutations(k):
                copy = fresh(lattice_of(p), tr)
                expected = len(tr.call("perm.rho_class", perm.rho_class, p))
                timed(tally, f"diagram_count {p.images}",
                      lambda: count_diagrams(copy, tr), expected)

        for k in range(1, scales.get("group_realization", 0) + 1):
            for p in perm.all_permutations(k):
                copy = fresh(lattice_of(p), tr)

                def realized_and_isomorphic():
                    extracted, jordan_holder, diagram = realize(p, tr)
                    return extracted, jordan_holder, tr.call(
                        "lattice.is_isomorphic", lattice.is_isomorphic, diagram.lattice, copy)
                timed(tally, f"group realization {p.images}", realized_and_isomorphic, (p, p, True))

        for k in range(min(scales.get("class_counts", -1), len(CLASS_COUNTS) - 1) + 1):
            timed(tally, f"count_classes({k})",
                  lambda: tr.call("perm.count_classes", perm.count_classes, k), CLASS_COUNTS[k])

        rng = random.Random(seed)
        for k in range(self.n + 1, scales.get("random_round_trip", 0) + 1):
            for _ in range(5):
                p = random_perm(rng, k)
                timed(tally, f"random round trip {p.images}",
                      lambda: extract_checked(tr.call("grid.phi0", grid.phi0, p), tr), p)

    @staticmethod
    def _bundle(g: grid.Grid, p: Permutation, tr, lattices) -> list[str]:
        """verify's per-permutation checks; returns the names of failed ones."""
        failed = []
        kappa = tr.call("grid.closure", grid.beta_from_perm, g, p, check=False)
        if tr.call("grid.formula", grid.beta_from_formula, g, p) != kappa:
            failed.append("formula_oracle")
        cells = frozenset(grid.GridCell(i, p(i)) for i in range(1, p.n + 1))
        if tr.call("grid.source_cells", grid.source_cells, kappa) != cells:
            failed.append("source_cells")
        if tr.call("grid.regenerate", grid.regenerate, kappa) != kappa:
            failed.append("regenerate")
        quotient, _ = tr.call("grid.quotient", grid.quotient, kappa)
        tr.count("grid.blocks", kappa.num_blocks)
        diagram = bordered(kappa, fresh(quotient, tr))
        lattices[p] = diagram.lattice
        if extract_checked(diagram, tr) != p:
            failed.append("round_trip")
        return failed

    def context(self) -> dict:
        return {"verify_n": self.n, "verify_checks": self.checks}


# -- build-large -------------------------------------------------------------------

class BuildLarge:
    """`slimlat build --perm` at n = 24 and 32, each diagram fed back to
    `slimlat extract --diagram`; the cubic quotient and the lattice tables
    dominate."""

    uses_cli = True
    sizes = (24, 32)
    # Each round builds the permutation of median block count among this many
    # random draws, so every seed builds lattices of the typical size at n.
    pool = 101

    def prepare(self, seed: int, index: int, tr, tally: Tally) -> list[tuple[Permutation, int]]:
        startup_probe(tr)
        rng = random.Random(f"{seed}/build-large/{index}")
        batch = []
        for n in self.sizes:
            g = grid.Grid(n)
            sized = sorted((tr.call("grid.formula", grid.beta_from_formula, g, p).num_blocks, p.images)
                           for p in (random_perm(rng, n) for _ in range(self.pool)))
            blocks, images = sized[len(sized) // 2]
            batch.append((Permutation(images), blocks))
        return batch

    def run_round(self, batch, tr, tally: Tally, samples) -> float:
        total = 0.0
        WORK.mkdir(exist_ok=True)
        path = WORK / f"diagram-{os.getpid()}.json"
        try:
            for p, blocks in batch:
                n = p.n
                code, out, err, seconds = slimlat_cli("build", "--perm", ",".join(map(str, p.images)))
                samples[f"build_n{n}_s"].append(seconds)
                total += seconds
                built = parse_json(out) if code == 0 else None
                got = (built.get("size"), built.get("perm")) if isinstance(built, dict) else (code, err[-300:])
                if not tally.expect(f"build n={n} {p.images}", got, (blocks, list(p.images))):
                    continue
                path.write_text(out, encoding="utf-8")
                code, out, err, seconds = slimlat_cli("extract", "--diagram", str(path))
                samples[f"extract_n{n}_s"].append(seconds)
                total += seconds
                extracted = parse_json(out) if code == 0 else None
                got = extracted.get("permutation") if isinstance(extracted, dict) else (code, err[-300:])
                tally.expect(f"extract n={n} {p.images}", got, list(p.images))
        finally:
            path.unlink(missing_ok=True)
        return total

    def replay(self, batches, tr, tally: Tally, samples) -> None:
        """What `build` and `extract` do, layer by layer, in-process."""
        for index, batch in enumerate(batches, start=1):
            tr.round = index
            for p, blocks in batch:
                timed(tally, f"build and extract n={p.n} {p.images}",
                      lambda: self._build_extract(p, tr), (blocks, blocks, p))

    @staticmethod
    def _build_extract(p: Permutation, tr):
        kappa = tr.call("grid.closure", grid.beta_from_perm, grid.Grid(p.n), p, check=False)
        quotient, _ = tr.call("grid.quotient", grid.quotient, kappa)
        tr.count("grid.blocks", kappa.num_blocks)
        layout = tr.call("grid.heuristic_layout", grid.heuristic_layout, p)
        text = json.dumps(lattice.diagram_to_json(bordered(kappa, quotient)))
        parsed = tr.call("lattice.diagram_from_json", lattice.diagram_from_json, json.loads(text))
        diagram = BorderedDiagram(fresh(parsed.lattice, tr), parsed.left_chain, parsed.right_chain)
        extracted = extract_checked(diagram, tr)
        tr.call("perm.rho_class", perm.rho_class, p)  # `extract` prints the class size
        return quotient.size, len(layout), extracted

    def context(self) -> dict:
        return {"build_sizes": list(self.sizes), "build_pool": self.pool}


# -- classify-mid --------------------------------------------------------------------

@dataclass
class ClassifyBatch:
    indec: list[tuple[Permutation, FiniteLattice, int]] = field(default_factory=list)
    blocks: list[tuple[Permutation, FiniteLattice, int]] = field(default_factory=list)
    iso: list[tuple[FiniteLattice, FiniteLattice, bool]] = field(default_factory=list)
    groups: list[Permutation] = field(default_factory=list)
    count: tuple[int, int] = (9, CLASS_COUNTS[9])


class ClassifyMid:
    """In-process classification of lattices that phi0 prepared in set-up:
    diagram counting, isomorphism, group realization and class counting."""

    uses_cli = False
    indec_sizes = (10, 12)
    indec_pool = 200      # random indecomposable permutations drawn per size
    indec_picks = 8       # of which these many, at evenly spaced chain-count ranks
    iso_unequal_pairs = 4  # non-equivalent pairs of equal lattice size, per size
    block_sizes = range(16, 25)
    group_sizes = range(10, 16)
    group_draws = 2

    def __init__(self):
        self.lattices: dict[Permutation, FiniteLattice] = {}

    def _lattice(self, p: Permutation, tr) -> FiniteLattice:
        # phi0 runs once per permutation in a process, so each set-up pays for its own
        if p not in self.lattices:
            self.lattices[p] = tr.call("grid.phi0", grid.phi0, p).lattice
        return self.lattices[p]

    def prepare(self, seed: int, index: int, tr, tally: Tally) -> ClassifyBatch:
        rng = random.Random(f"{seed}/classify-mid/{index}")
        batch = ClassifyBatch()
        for n in self.indec_sizes:
            g = grid.Grid(n)
            pool: dict[Permutation, grid.GridCongruence] = {}
            while len(pool) < self.indec_pool:
                p = random_indecomposable(rng, n)
                pool[p] = tr.call("grid.formula", grid.beta_from_formula, g, p)
            # The chain count drives diagrams_of's cost; picking evenly spaced
            # ranks from a large pool gives every seed the same spread of
            # costs, tail included.
            ranked = sorted(pool, key=lambda p: (maximal_chain_count(pool[p]), p.images))
            for p in (ranked[r] for r in spread_ranks(len(ranked), self.indec_picks)):
                lat = self._lattice(p, tr)
                batch.indec.append((p, lat, len(tr.call("perm.rho_class", perm.rho_class, p))))
                mate = p.inverse()
                batch.iso.append((lat, self._lattice(mate, tr),
                                  tr.call("perm.rho_equivalent", perm.rho_equivalent, p, mate)))
            # non-equivalent pairs of equal lattice size, so the search runs
            by_size: dict[int, list[Permutation]] = {}
            for p, kappa in pool.items():
                by_size.setdefault(kappa.num_blocks, []).append(p)
            pairs = [(p, q) for group in by_size.values() for p, q in zip(group, group[1:])
                     if not perm.rho_equivalent(p, q)]
            for p, q in pairs[:self.iso_unequal_pairs]:
                batch.iso.append((self._lattice(p, tr), self._lattice(q, tr),
                                  tr.call("perm.rho_equivalent", perm.rho_equivalent, p, q)))
        for n in self.block_sizes:
            p = random_block_sum(rng, n)
            batch.blocks.append((p, self._lattice(p, tr),
                                 len(tr.call("perm.rho_class", perm.rho_class, p))))
        batch.groups = [random_perm(rng, n) for n in self.group_sizes for _ in range(self.group_draws)]
        return batch

    def run_round(self, batch: ClassifyBatch, tr, tally: Tally, samples) -> float:
        total = 0.0
        for metric, items in (("diagrams_indec_s", batch.indec), ("diagrams_blocks_s", batch.blocks)):
            for p, lat, expected in items:
                copy = fresh(lat, tr)
                seconds = timed(tally, f"diagram_count {p.images}",
                                lambda: count_diagrams(copy, tr), expected)
                samples[metric].append(seconds)
                total += seconds
        iso_total = 0.0
        for lat1, lat2, expected in batch.iso:
            a, b = fresh(lat1, tr), fresh(lat2, tr)
            iso_total += timed(tally, "is_isomorphic",
                               lambda: tr.call("lattice.is_isomorphic", lattice.is_isomorphic, a, b),
                               expected)
        groups_total = sum(timed(tally, f"group realization {p.images}",
                                 lambda: realize(p, tr)[:2], (p, p))
                           for p in batch.groups)
        n, expected = batch.count
        count_s = timed(tally, f"count_classes({n})",
                        lambda: tr.call("perm.count_classes", perm.count_classes, n), expected)
        samples["iso_s"].append(iso_total)
        samples["group_realize_s"].append(groups_total)
        samples["count_s"].append(count_s)
        return total + iso_total + groups_total + count_s

    def replay(self, batches, tr, tally: Tally, samples) -> None:
        for index, batch in enumerate(batches, start=1):
            tr.round = index
            self.run_round(batch, tr, tally, samples)

    def context(self) -> dict:
        return {"indec_sizes": list(self.indec_sizes), "indec_pool": self.indec_pool,
                "indec_picks": self.indec_picks, "iso_unequal_pairs": self.iso_unequal_pairs,
                "block_sizes": list(self.block_sizes),
                "group_sizes": list(self.group_sizes), "count_n": ClassifyBatch.count[0]}


WORKLOADS = {
    "verify-exhaustive": VerifyExhaustive,
    "build-large": BuildLarge,
    "classify-mid": ClassifyMid,
}
