import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimlat import cli, extract, grid, groups, lattice, perm, verify
from slimlat.cli import main, parse_permutation
from slimlat.perm import Permutation


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """A fresh interpreter with this checkout's src/ first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLIMLAT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


class TestParsePermutation:
    def test_one_line(self):
        assert parse_permutation("2,3,1").images == (2, 3, 1)
        assert parse_permutation("2 3 1").images == (2, 3, 1)

    def test_cycles(self):
        assert parse_permutation("(1 2 3)(5 6 7)").images == (2, 3, 1, 4, 6, 7, 5)
        assert parse_permutation("(1,2)", n=4).images == (2, 1, 3, 4)

    def test_empty_cycle(self):
        assert parse_permutation("()", n=3).images == (1, 2, 3)
        assert parse_permutation("()").n == 0

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 2")
        with pytest.raises(perm.DuplicateValue):
            parse_permutation("(1 2)(2 3)")
        with pytest.raises(perm.OutOfRange):
            parse_permutation("(1 5)", n=3)
        with pytest.raises(ValueError):
            parse_permutation("2,1", n=3)
        with pytest.raises(ValueError, match="negative"):
            parse_permutation("()", n=-3)

    def test_size_cap(self):
        cap = cli.SIZE_CAP
        assert cap >= 96
        assert parse_permutation(f"(1 {cap})").n == cap
        assert parse_permutation("()", n=cap).n == cap
        assert parse_permutation(",".join(map(str, range(1, cap + 1)))).n == cap
        for text, n in ((f"(1 {cap + 1})", None), ("(1 3000000)", None), ("()", cap + 1),
                        (",".join(map(str, range(1, cap + 2))), None)):
            with pytest.raises(perm.TooLarge):
                parse_permutation(text, n=n)

    @pytest.mark.parametrize("command", ["build", "render-grid", "group-realize"])
    def test_over_the_cap_exits_2_at_once(self, capsys, command):
        started = time.perf_counter()
        code, out, err = run(capsys, command, "--perm", "(1 3000000)")
        assert time.perf_counter() - started < 0.1
        assert code == 2 and out == ""
        assert "TooLarge" in err

    @pytest.mark.parametrize("command", ["build", "render-grid", "group-realize"])
    def test_negative_size_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--perm", "()", "--n", "-3")
        assert code == 2 and out == ""
        assert "negative" in err


class TestBuild:
    def test_transposition(self, capsys):
        code, out, _ = run(capsys, "build", "--perm", "2,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["size"] == 4
        diagram = lattice.diagram_from_json(obj)
        assert diagram.n == 2
        assert len(obj["layout"]) == 4

    def test_single(self, capsys):
        code, out, _ = run(capsys, "build", "--perm", "1")
        assert code == 0 and json.loads(out)["size"] == 2

    def test_duplicate_value_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--perm", "2,2")
        assert code == 2
        assert "DuplicateValue" in err

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "build", "--perm", "2,3,1", "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "build", "--perm", "3,1,4,2")
        _, out2, _ = run(capsys, "build", "--perm", "3,1,4,2")
        assert out1 == out2

    def test_runs_the_quotient_once(self, capsys, monkeypatch):
        # phi0 and quotient share one cover builder; the layout reuses its lattice
        calls = []
        build = grid._lattice_from_tops
        monkeypatch.setattr(grid, "_lattice_from_tops",
                            lambda *args: calls.append(args) or build(*args))
        code, out, _ = run(capsys, "build", "--perm", "3,1,4,2")
        assert code == 0 and len(json.loads(out)["layout"]) == 8
        assert len(calls) == 1

    def test_reversal_at_the_size_cap_is_quick(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "build", "--perm", ",".join(map(str, range(cli.SIZE_CAP, 0, -1))))
        assert time.perf_counter() - started < 2.0
        assert code == 0 and json.loads(out)["size"] == cli.SIZE_CAP * (cli.SIZE_CAP + 1) // 2 + 1


class TestExtract:
    def write_diagram(self, tmp_path, images):
        from slimlat import grid
        path = tmp_path / "diagram.json"
        obj = lattice.diagram_to_json(grid.phi0(Permutation(images)))
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def test_three_cycle(self, capsys, tmp_path):
        path = self.write_diagram(tmp_path, (2, 3, 1))
        code, out, _ = run(capsys, "extract", "--diagram", path)
        assert code == 0
        obj = json.loads(out)
        assert obj["permutation"] == [2, 3, 1]
        assert obj["segments"] == [[1, 2, 3]]
        assert obj["rho_class_size"] == 2
        assert obj["cycles"] == "(1 2 3)"

    def test_many_segments_is_quick(self, capsys, tmp_path):
        # (2,3,1) thirty times over: a class of 2^30 permutations
        images = tuple(3 * k + v for k in range(30) for v in (2, 3, 1))
        path = self.write_diagram(tmp_path, images)
        started = time.perf_counter()
        code, out, _ = run(capsys, "extract", "--diagram", path)
        assert time.perf_counter() - started < 1.0
        assert code == 0
        obj = json.loads(out)
        assert obj["permutation"] == list(images)
        assert obj["rho_class_size"] == 1073741824

    def test_chain(self, capsys, tmp_path):
        path = self.write_diagram(tmp_path, (1, 2, 3))
        code, out, _ = run(capsys, "extract", "--diagram", path)
        assert code == 0 and json.loads(out)["permutation"] == [1, 2, 3]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, "extract", "--diagram", str(path))
        assert code == 2

    def test_missing_chains(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"size": 2, "covers": [[0, 1]]}), encoding="utf-8")
        code, _, _ = run(capsys, "extract", "--diagram", str(path))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "extract", "--diagram", str(tmp_path / "nope.json"))
        assert code == 2

    def test_non_semimodular_diagram(self, capsys, tmp_path):
        pentagon = {"size": 5, "covers": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]],
                    "left_chain": [0, 1, 2, 4], "right_chain": [0, 3, 4]}
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps(pentagon), encoding="utf-8")
        code, _, err = run(capsys, "extract", "--diagram", str(path))
        assert code == 2
        assert "semimodular" in err

    def test_extractor_disagreement_exits_1(self, capsys, tmp_path, monkeypatch):
        path = self.write_diagram(tmp_path, (2, 3, 1))
        monkeypatch.setattr(extract, "_source_cell_images", lambda diagram: (3, 1, 2))
        code, out, err = run(capsys, "extract", "--diagram", path)
        assert code == 1 and out == ""
        assert err.startswith("verification failure: ExtractorDisagreement")

    def test_round_trip_through_build(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--perm", "(1 2 3)(5 6 7)")
        assert code == 0
        path = tmp_path / "built.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "extract", "--diagram", str(path))
        assert code == 0
        assert json.loads(out)["permutation"] == [2, 3, 1, 4, 6, 7, 5]


class TestCount:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3")
        assert code == 0
        rows = json.loads(out)["counts"]
        assert [(r["n"], r["classes"]) for r in rows] == [(1, 1), (2, 2), (3, 5)]
        assert all(r["classes"] <= r["factorial"] for r in rows)

    def test_beyond_enumeration(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "10")
        assert code == 0
        assert json.loads(out)["counts"][-1] == {"n": 10, "classes": 1809104,
                                                 "factorial": 3628800}

    def test_cap(self, capsys):
        code, out, err = run(capsys, "count", "--n", str(perm.COUNT_CAP + 1))
        assert code == 2 and out == ""
        assert "TooLarge" in err


@pytest.mark.parametrize("command", ["verify", "count"])
def test_negative_n_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--n", "-1")
    assert code == 2 and out == ""
    assert "must be nonnegative" in err


class TestRenderGrid:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "render-grid", "--perm", "2,1")
        assert code == 0 and out == ".#\n#.\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "render-grid", "--perm", "2,1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "cells": [[1, 2], [2, 1]]}

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "render-grid", "--perm", "2,1", "--format", "dot")
        assert code == 0 and "style=dashed" in out


class TestGroupRealize:
    def test_transposition(self, capsys):
        code, out, _ = run(capsys, "group-realize", "--perm", "2,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["elements"] == [1, 2, 3, 6]
        assert obj["extracted"] == [2, 1]
        assert obj["jordan_holder"] == [2, 1]

    def test_explicit_primes(self, capsys):
        code, out, _ = run(capsys, "group-realize", "--perm", "2,1", "--primes", "5,11")
        assert code == 0
        assert json.loads(out)["elements"] == [1, 5, 11, 55]

    def test_round_trip_property(self, capsys):
        code, out, _ = run(capsys, "group-realize", "--perm", "3,1,4,2")
        assert code == 0
        obj = json.loads(out)
        assert obj["extracted"] == [3, 1, 4, 2] == obj["jordan_holder"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "group-realize", "--perm", "2,1", "--format", "dot")
        assert code == 0
        assert out.count("digraph") == 2

    def test_dot_builds_the_intersection_lattice_once(self, capsys, monkeypatch):
        # the first graph is the dual of the diagram's lattice, which is the
        # intersection lattice itself, so it is not built again
        build, calls = groups._intersection_lattice, []
        monkeypatch.setattr(groups, "_intersection_lattice",
                            lambda inst: calls.append(inst) or build(inst))
        code, out, _ = run(capsys, "group-realize", "--perm", "3,1,4,2", "--format", "dot")
        assert code == 0 and len(calls) == 1
        labels = {k: str(d) for k, d in enumerate(calls[0].elements)}
        assert out.startswith(lattice.to_dot(groups.csl_lattice(calls[0]), labels, name="csl"))

    def test_bad_primes(self, capsys):
        code, _, _ = run(capsys, "group-realize", "--perm", "2,1", "--primes", "4,5")
        assert code == 2

    def test_large_prime_is_quick(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "group-realize", "--perm", "1",
                           "--primes", "9223372036854775783")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert json.loads(out)["elements"] == [1, 9223372036854775783]


class TestExportDot:
    def test_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(lattice.lattice_to_json(lattice.chain(3))),
                        encoding="utf-8")
        code, out, _ = run(capsys, "export-dot", "--diagram", str(path))
        assert code == 0
        assert out.count("->") == 3


@pytest.mark.parametrize("command", ["extract", "export-dot"])
@pytest.mark.parametrize("obj", [
    {"size": "3", "covers": [[0, 1], [1, 2]], "left_chain": [0, 1, 2], "right_chain": [0, 1, 2]},
    {"size": 3.0, "covers": [[0, 1], [1, 2]], "left_chain": [0, 1, 2], "right_chain": [0, 1, 2]},
    {"size": True, "covers": [], "left_chain": [0], "right_chain": [0]},
    {"size": 2, "covers": [[0, 5]], "left_chain": [0, 1], "right_chain": [0, 1]},
    # nothing is converted: int() would truncate 0.9 and read "01" as a chain
    {"size": 2, "covers": [[0.9, "1"]], "left_chain": "01", "right_chain": [0, 1.5]},
    {"size": 2, "covers": [[0, 1, 1]], "left_chain": [0, 1], "right_chain": [0, 1]},
])
def test_malformed_diagram_exits_2(capsys, tmp_path, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, command, "--diagram", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_join_irreducibles_off_the_chains_are_listed_briefly(capsys, tmp_path):
    # M_2000 has 1,998 atoms off its chains; the message names the first ten
    k = 2000
    obj = {"size": k + 2,
           "covers": [[0, a] for a in range(1, k + 1)] + [[a, k + 1] for a in range(1, k + 1)],
           "left_chain": [0, 1, k + 1], "right_chain": [0, 2, k + 1]}
    path = tmp_path / "m2000.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "extract", "--diagram", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err) < 300
    assert "join-irreducibles [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 1988 more not on" in err


@pytest.mark.parametrize("left, right", [
    ("01", [0, 1]), ([0, 1], [0, 1.0]), ([0, True], [0, 1]), ({"0": 0}, [0, 1]),
])
def test_malformed_chain_exits_2(capsys, tmp_path, left, right):
    # the lattice is valid, so only extract, which reads the chains, refuses it
    path = tmp_path / "bad.json"
    obj = {"size": 2, "covers": [[0, 1]], "left_chain": left, "right_chain": right}
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert run(capsys, "export-dot", "--diagram", str(path))[0] == 0
    code, out, err = run(capsys, "extract", "--diagram", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "is not a list of integers" in err


@pytest.mark.parametrize("command", ["extract", "export-dot"])
def test_deep_nesting_exits_2(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, command, "--diagram", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nests too deeply" in err


@pytest.mark.parametrize("command", ["extract", "export-dot"])
def test_size_past_cap_exits_2_at_once(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    obj = {"size": lattice.JSON_SIZE_CAP + 1, "covers": [], "left_chain": [0],
           "right_chain": [0]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--diagram", str(path))
    assert time.perf_counter() - started < 0.1
    assert code == 2 and out == ""
    assert "TooLarge" in err


def test_size_cap_admits_every_build_output():
    # the reversal's lattice, n(n+1)/2 + 1 elements, is the largest of its size
    for n in range(6):
        sizes = {images: grid.phi0(Permutation(images)).lattice.size
                 for images in itertools.permutations(range(1, n + 1))}
        assert max(sizes.values()) == sizes[tuple(range(n, 0, -1))] == n * (n + 1) // 2 + 1
    assert cli.SIZE_CAP * (cli.SIZE_CAP + 1) // 2 + 1 == lattice.JSON_SIZE_CAP


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
        names = {check["name"] for check in report["checks"]}
        assert names >= set(verify.BUNDLE_CHECKS) | {"pairwise_iso", "diagram_count",
                                                  "group_realization", "class_counts",
                                                  "random_round_trip"}
        assert "PASS" in err

    def test_vacuous_at_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "0")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_bundles_follow_the_exhaustive_cap(self, capsys, monkeypatch):
        batch, seen = verify._check_batch, []
        monkeypatch.setattr(verify, "EXHAUSTIVE_CAP", 3)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(verify, "_check_batch", lambda tasks: seen.extend(tasks) or batch(tasks))
        code, out, err = run(capsys, "verify", "--n", "4")
        assert code == 0 and "checking 9 permutation bundles" in err
        # the jobs of the largest permutations run first
        assert sorted(seen) == [(n, images) for n in (1, 2, 3)
                                for images in itertools.permutations(range(1, n + 1))]
        checks = json.loads(out)["checks"]
        bundles = len(verify.BUNDLE_CHECKS)
        assert [(c["name"], c["scale"], c["details"]) for c in checks[:bundles]] == [
            (name, 3, "9 permutations checked") for name in verify.BUNDLE_CHECKS]
        assert checks[bundles]["scale"] == 4  # pairwise_iso keeps its own cap

    def test_a_bundle_scans_the_cells_once(self, monkeypatch):
        # the source cells and the regeneration hypotheses come from one scan
        scan, scanned = grid._cell_scan, []
        monkeypatch.setattr(grid, "_cell_scan", lambda kappa: scanned.append(kappa) or scan(kappa))
        for n in range(1, 6):
            for images in itertools.permutations(range(1, n + 1)):
                scanned.clear()
                assert verify._check_batch([(n, images)]) == [[]]
                assert [k.labels for k in scanned] == [grid._formula_blocks(n, images)[0]]

    def test_a_bundle_runs_one_closed_form_and_one_closure(self, monkeypatch):
        # the closure regenerates the closed form's congruence from its source
        # cells, the one comparison of the two routes in a bundle
        calls = {"_formula_blocks": 0, "_closure_labels": 0}

        def counted(name, routine):
            def spy(*args):
                calls[name] += 1
                return routine(*args)
            return spy
        for name in calls:
            monkeypatch.setattr(grid, name, counted(name, getattr(grid, name)))
        assert verify._check_prefix(7, (4, 2)) == (120, [])
        assert calls == {"_formula_blocks": 120, "_closure_labels": 120}

    def test_injected_fault_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "_check_batch", lambda tasks: [["round_trip"] for _ in tasks])
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["round_trip"]

    def test_formula_oracle_catches_a_closure_fault(self, capsys, monkeypatch):
        closure = grid._closure_labels
        monkeypatch.setattr(grid, "_closure_labels",
                            lambda n, pairs: closure(n, list(pairs)[:-1]))
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "formula_oracle" in failed

    def test_formula_oracle_catches_a_closed_form_fault(self, capsys, monkeypatch):
        # the closed form splits the first element that is not its block's
        # top off its block, leaving the collapsed edges at it uncollapsed
        formula = grid._formula_blocks

        def faulty(n, images):
            labels, tops = formula(n, images)
            keys = [tops[lab] for lab in labels]
            e = next(e for e, key in enumerate(keys) if key != e)
            keys[e] = e
            canon: dict[int, int] = {}
            return tuple([canon.setdefault(key, len(canon)) for key in keys]), list(canon)

        monkeypatch.setattr(grid, "_formula_blocks", faulty)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert "formula_oracle" in failed

    @pytest.mark.parametrize("module, name, wrong", [
        # the production involution rule, inverted
        (extract, "is_involution_on", lambda rule: lambda *args: not rule(*args)),
        # the search side, finding no swapping automorphism anywhere
        (verify, "_reflection_similar", lambda rule: lambda *args: False),
    ])
    def test_diagram_count_catches_a_wrong_side(self, capsys, monkeypatch, module, name, wrong):
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == ["diagram_count"]

    def test_deterministic_modulo_wall_time(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "2", "--seed", "5")
        _, out2, _ = run(capsys, "verify", "--n", "2", "--seed", "5")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_jobs_agree(self, capsys, monkeypatch):
        # one worker runs the bundles in-process; the pool gives the same report
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(verify, "_usable_cpus", lambda workers=workers: workers)
            _, out, err = run(capsys, "verify", "--n", "5")
            assert f"with {workers} worker(s)" in err
            report = json.loads(out)
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["inputs"] == {"n": 5, "seed": 0}

    @pytest.mark.parametrize("build, failed", [
        ("_phi0_parts", ["round_trip", "formula_oracle", "source_cells_regenerate",
                         "structural", "narrows_segments"]),
        ("_regenerate", ["formula_oracle", "source_cells_regenerate"]),
    ])
    def test_an_unbuilt_input_fails_its_checks_alone(self, monkeypatch, build, failed):
        # phi0's parts or the regeneration raise for (2, 3, 1) only, which
        # fails the checks that read them for that permutation and no other
        original = getattr(grid, build)
        # phi0's parts take the permutation, the regeneration its congruence
        pi = Permutation((2, 3, 1))
        targets = (pi, grid.beta_from_formula(grid.Grid(3), pi))

        def faulty(arg):
            if arg in targets:
                raise RuntimeError("injected")
            return original(arg)

        monkeypatch.setattr(grid, build, faulty)
        tasks = [(n, images) for n in (1, 2, 3) for images in itertools.permutations(range(1, n + 1))]
        assert verify._check_batch(tasks) == [
            failed if images == (2, 3, 1) else [] for _, images in tasks]

    def test_forked_workers_keep_the_job_order(self):
        # 1,200 bytes of job indices: fed to the workers in three writes
        jobs = [functools.partial(pow, k, 2) for k in range(300)]
        assert verify._forked_map(jobs, 3) == [k * k for k in range(300)]
        assert verify._forked_map(jobs[:1], 2) == [0]
        assert verify._forked_map([], 2) == []

    def test_a_raising_job_fails_the_forked_workers(self, capfd):
        with pytest.raises(RuntimeError, match="a verify worker failed"):
            verify._forked_map([lambda: 1, lambda: 1 / 0, lambda: 2], 2)
        assert "ZeroDivisionError" in capfd.readouterr().err

    @pytest.mark.parametrize("fault", [False, True])
    def test_batches_change_no_report(self, monkeypatch, fault):
        # neither the batch size nor the number of workers changes the report
        # but for wall_time_s, on clean code and with a check that raises on
        # the permutations whose lattice size is a multiple of 3
        if fault:
            images_of = extract._trajectory_images

            def faulty(diagram):
                if diagram.lattice.size % 3 == 0:
                    raise extract.TrajectoryAmbiguous("injected")
                return images_of(diagram)
            monkeypatch.setattr(extract, "_trajectory_images", faulty)
        # jobs of one permutation each, FREE_SUFFIX's, and one job a size
        reports = []
        for workers, free in ((1, verify.FREE_SUFFIX), (2, verify.FREE_SUFFIX),
                              (3, verify.FREE_SUFFIX), (1, 0), (2, 0), (1, 6), (2, 6)):
            monkeypatch.setattr(verify, "_usable_cpus", lambda workers=workers: workers)
            monkeypatch.setattr(verify, "FREE_SUFFIX", free)
            report = verify.run(6, 3, lambda message: None)
            report.pop("wall_time_s")
            reports.append(report)
        assert all(report == reports[0] for report in reports[1:])
        assert reports[0]["passed"] is not fault

    @pytest.mark.parametrize("position, check", [
        (None, None),
        (0, "_check_pairwise_iso"),
        (1, "_check_diagram_counts"),
        (2, "_check_group_realization"),
        (3, "_check_class_counts"),
        (4, "_check_random_round_trip"),
    ])
    def test_pool_and_serial_reports_agree(self, capsys, monkeypatch, position, check):
        # the suite checks run in the bundle pool; a raising one keeps its
        # place and message, and a lambda in its place need not pickle
        if check is not None:
            monkeypatch.setattr(verify, check, lambda *args: 1 / 0)
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(verify, "_usable_cpus", lambda workers=workers: workers)
            code, out, err = run(capsys, "verify", "--n", "4")
            assert f"with {workers} worker(s)" in err
            report = json.loads(out)
            report.pop("wall_time_s")
            reports.append((code, report))
        assert reports[0] == reports[1]
        code, report = reports[0]
        failed = [(k, c["details"]) for k, c in enumerate(report["checks"]) if not c["passed"]]
        if check is None:
            assert code == 0 and failed == []
        else:
            assert code == 1 and failed == [(len(verify.BUNDLE_CHECKS) + position,
                                             "raised ZeroDivisionError: division by zero")]

    def test_injected_fault_in_a_pool_worker_fails(self, capsys, monkeypatch):
        parent = os.getpid()
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        # fails only where it runs outside this process, and only at size 3
        monkeypatch.setattr(verify, "_check_batch", lambda tasks: [
            ["structural"] if n == 3 and os.getpid() != parent else [] for n, _ in tasks])
        code, out, err = run(capsys, "verify", "--n", "3")
        assert code == 1 and "with 2 worker(s)" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [(c["name"], c["details"]) for c in failed] == [
            ("structural", "6 failures, first at (3, (1, 2, 3))")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_bundle_check_fails_alone(self, capsys, monkeypatch, workers):
        # regeneration, which the bundle enters through grid._regenerate,
        # now raises HypothesisViolated for every congruence
        def refuse(kappa):
            raise grid.HypothesisViolated("congruence has a forbidden cell")

        monkeypatch.setattr(verify, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(grid, "_regenerate", refuse)
        code, out, err = run(capsys, "verify", "--n", "3")
        assert code == 1 and f"with {workers} worker(s)" in err
        checks = json.loads(out)["checks"]
        assert len(checks) == len(verify.BUNDLE_CHECKS) + 5
        assert [(c["name"], c["details"]) for c in checks if not c["passed"]] == [
            ("formula_oracle", "9 failures, first at (1, (1,))"),
            ("source_cells_regenerate", "9 failures, first at (1, (1,))")]

    def test_a_raising_check_fails_alone(self, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("injected")
        monkeypatch.setattr(lattice, "is_isomorphic", boom)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False and len(report["checks"]) == len(verify.BUNDLE_CHECKS) + 5
        assert [(c["name"], c["scale"], c["details"]) for c in report["checks"] if not c["passed"]] == [
            ("pairwise_iso", 3, "raised RuntimeError: injected"),
            ("group_realization", 3, "raised RuntimeError: injected")]

    @pytest.mark.parametrize("n_max, scale", [(9, 11), (10, 12), (40, 32)])
    def test_random_round_trip_always_draws(self, n_max, scale):
        check = verify._check_random_round_trip(n_max, 0)
        assert check["passed"] is True
        assert check["details"] == "10 random permutations (seed 0)"
        assert check["scale"] == scale

    def test_same_report_under_optimize(self):
        reports = []
        for flags in ([], ["-O"]):
            proc = run_python(*flags, "-m", "slimlat.cli", "verify", "--n", "3")
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]


def _imported(*argv) -> set[str]:
    """The modules a fresh interpreter running argv imports, as listed by
    -X importtime."""
    proc = run_python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestStartup:
    """Each command imports only the modules it runs, and no command
    imports dataclasses."""

    @pytest.fixture(scope="class")
    def bare(self):
        return _imported("-c", "pass")

    def test_import_loads_no_submodule(self, bare):
        new = _imported("-c", "import slimlat; assert set(slimlat.__all__) <= set(dir(slimlat))")
        assert {m for m in new - bare if m.startswith("slimlat")} == {"slimlat"}

    def test_build(self, bare):
        new = _imported("-m", "slimlat.cli", "build", "--perm", "2,1") - bare
        assert {m for m in new if m.startswith("slimlat")} == {
            "slimlat", "slimlat.perm", "slimlat.lattice", "slimlat.grid"}
        assert "dataclasses" not in new

    def test_extract(self, bare, capsys, tmp_path):
        _, out, _ = run(capsys, "build", "--perm", "2,1")
        path = tmp_path / "diagram.json"
        path.write_text(out, encoding="utf-8")
        new = _imported("-m", "slimlat.cli", "extract", "--diagram", str(path)) - bare
        assert {m for m in new if m.startswith("slimlat")} == {
            "slimlat", "slimlat.perm", "slimlat.lattice", "slimlat.extract"}
        assert "dataclasses" not in new

    def test_count(self, bare):
        new = _imported("-m", "slimlat.cli", "count", "--n", "5") - bare
        assert {m for m in new if m.startswith("slimlat")} == {"slimlat", "slimlat.perm"}
        assert "dataclasses" not in new


def test_import_leaves_out_process_pool():
    proc = run_python("-c", "import sys, slimlat.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- fuzzing the exit-code contract ------------------------------------------------

_valid = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))).map(Permutation)
# points below 10, or past the size cap: sizes in between cost seconds per
# command and test nothing the small ones do not
_large = st.sampled_from([cli.SIZE_CAP + 1, 10 ** 6, 3_000_000, 2 ** 63])
_points = st.one_of(
    _valid.map(lambda p: [str(x) for x in p.images]),
    st.lists(st.one_of(st.integers(min_value=-1, max_value=9).map(str),
                       _large.map(str),
                       st.sampled_from(["x", "1.5", "", "-"])), max_size=8))
_one_line = st.builds(lambda sep, toks: sep.join(toks), st.sampled_from([",", " ", ", "]), _points)
_cycles = st.one_of(
    _valid.map(Permutation.cycle_string),
    st.lists(_points, max_size=4).map(
        lambda cycles: "".join("(" + " ".join(c) + ")" for c in cycles)))


@st.composite
def _perm_texts(draw):
    """One-line or cycle notation, lists of up to 8 points below 10 or past
    the size cap, valid or not."""
    text = draw(st.one_of(_one_line, _cycles))
    if draw(st.booleans()):  # break it: insert a stray token without digits
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(["(", ")", "((", "x", ",,", " - "])) + text[at:]
    return text


_primes_texts = st.lists(
    st.one_of(st.integers(min_value=-3, max_value=2 ** 63).map(str),
              st.sampled_from(["2", "3", "5", "7", "11", "13", "9223372036854775783", "x"])),
    max_size=4).map(",".join)


def _exit_code(argv):
    # an exception escaping main fails the test with its traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None)
@given(text=_perm_texts(), fmt=st.sampled_from(["json", "dot"]))
def test_fuzz_build_exit_codes(text, fmt):
    assert _exit_code(["build", f"--perm={text}", f"--format={fmt}"]) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(text=_perm_texts(), fmt=st.sampled_from(["ascii", "json", "dot"]))
def test_fuzz_render_grid_exit_codes(text, fmt):
    assert _exit_code(["render-grid", f"--perm={text}", f"--format={fmt}"]) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(text=_perm_texts(), primes=st.none() | _primes_texts)
def test_fuzz_group_realize_exit_codes(text, primes):
    argv = ["group-realize", f"--perm={text}"]
    if primes is not None:
        argv.append(f"--primes={primes}")
    assert _exit_code(argv) in (0, 1, 2)


# A valid phi0 diagram as JSON, then mutations of its covers, chains, size
# and value types; DEEP marks a value replaced by deeply nested brackets.
DEEP = "<deep>"
_wrong_values = st.sampled_from([None, "x", "", 1.5, float("inf"), float("nan"), True,
                                 [], {}, [[0, 1, 2]], [None], ["0", "1"], DEEP])


def _mutated(draw, value, size):
    if not isinstance(value, list) or not value or draw(st.integers(0, 4)) == 0:
        return draw(_wrong_values)
    value = list(value)
    at = draw(st.integers(0, len(value) - 1))
    element = st.one_of(st.integers(-1, size + 1), _wrong_values,
                        st.lists(st.integers(-1, size + 1), min_size=2, max_size=2))
    how = draw(st.sampled_from(["drop", "insert", "replace", "reverse", "swap"]))
    if how == "drop":
        del value[at]
    elif how == "insert":
        value.insert(at, draw(element))
    elif how == "replace":
        value[at] = draw(element)
    elif how == "reverse":
        value.reverse()
    elif isinstance(value[at], list):
        value[at] = value[at][::-1]
    return value


@st.composite
def _diagram_texts(draw):
    images = draw(st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))))
    obj = lattice.diagram_to_json(grid.phi0(Permutation(tuple(images))))
    size = obj["size"]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["size", "covers", "left_chain", "right_chain"]))
        how = draw(st.sampled_from(["mutate", "delete", "size"]))
        if how == "delete":
            obj.pop(key, None)
        elif how == "size" or key == "size":
            obj[key] = draw(st.sampled_from([-1, 0, 1, size - 1, size + 1,
                                             lattice.JSON_SIZE_CAP + 1, 10 ** 6, 2 ** 63]))
        else:
            obj[key] = _mutated(draw, obj.get(key), size)
    if draw(st.integers(0, 9)) == 0:
        obj = draw(st.sampled_from([[obj], "x", 3, None, DEEP]))
    depth = draw(st.sampled_from([10, 5_000, 100_000]))
    return json.dumps(obj).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


@settings(max_examples=150, deadline=None)
@given(text=_diagram_texts(), command=st.sampled_from(["extract", "export-dot"]))
def test_fuzz_diagram_exit_codes(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-diagram.json"
    path.write_text(text, encoding="utf-8")
    assert _exit_code([command, f"--diagram={path}"]) in (0, 1, 2)
