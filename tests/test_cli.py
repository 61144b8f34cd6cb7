"""End-to-end command-line tests: every subcommand plus the exit-code contract."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from typing import NamedTuple

import pytest

from multilattice import cli, dermod, explorer, theorems
from multilattice.cli import load_arrangement
from multilattice.errors import HypothesisViolated, InternalInconsistency, ParseError
from multilattice.explorer import ScanResult
from helpers import wrong_generator_oracle


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written


def invoke(args):
    """Run ``ml args`` in this process through the console entry point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli.run(args)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue())


@pytest.fixture(scope="module")
def scan_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "b2.json"
    result = invoke(["scan", "--coxeter", "B2", "--box", "3,3,3,3", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return str(path)


def test_exponents_command():
    result = invoke(["exponents", "--coxeter", "B2", "1,1,1,1"])
    assert result.exit_code == 0
    assert "exponents: (1, 3)" in result.output
    assert "delta: 2" in result.output


def test_exponents_gap_zero_notes_non_uniqueness():
    result = invoke(["exponents", "--coxeter", "B2", "1,1,1,3"])
    assert result.exit_code == 0
    assert "delta: 0" in result.output
    assert "one of several" in result.output


def test_exponents_quadratic_field():
    result = invoke(["exponents", "--coxeter", "G2", "1,1,1,1,1,1"])
    assert result.exit_code == 0
    assert "exponents: (1, 5)" in result.output


def test_basis_command():
    result = invoke(["basis", "--coxeter", "B2", "2,1,2,1"])
    assert result.exit_code == 0
    assert "saito: accepted" in result.output


def test_scan_to_stdout_and_determinism(real_pool):
    args = ["scan", "--coxeter", "B2", "--box", "2,2,2,2"]
    first = invoke(args)
    second = invoke(args + ["--jobs", "2"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    assert json.loads(first.output)["schema"] == 1
    assert real_pool == [2]


def test_quadratic_coefficients_print_without_zero_parts():
    result = invoke(["exponents", "--coxeter", "G2", "2,1,2,1,2,1"])
    assert result.exit_code == 0
    assert result.output == (
        "exponents: (4, 5)\n"
        "delta: 1\n"
        "theta_min: (x^4 - 2/3*sqrt(3)*x^3*y - x^2*y^2)*dx"
        " + (x^3*y - 2/3*sqrt(3)*x^2*y^2 - x*y^3)*dy\n")


def test_components_command(scan_file, tmp_path):
    dot, csv = tmp_path / "g.dot", tmp_path / "t.csv"
    result = invoke(["components", "--scan", scan_file,
                     "--dot", str(dot), "--csv", str(csv)])
    assert result.exit_code == 0
    assert "center 1,1,1,1 delta 2" in result.output
    assert dot.read_text().startswith("graph support {")
    assert csv.read_text().startswith("mu,d1,d2,delta")


@pytest.mark.parametrize("what", ["covering", "ball", "singletons", "saito"])
def test_verify_passes(scan_file, what):
    result = invoke(["verify", "--scan", scan_file, what])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


@pytest.fixture(scope="module")
def b2_5_scan_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "b2-5.json"
    result = invoke(["scan", "--coxeter", "B2", "--box", "5,5,5,5", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return str(path)


def test_verify_transport_checks_every_covering_step(b2_5_scan_file):
    """Transport checks each of the 788 covering steps inside a component
    of B2 [0,5]^4, and no path."""
    result = invoke(["verify", "--scan", b2_5_scan_file, "transport"])
    assert result.exit_code == 0, result.output
    assert result.output == 'basis-step-and-path: PASS\n  details: {"steps": 788}\n'


def test_verify_seed_has_no_effect(scan_file):
    plain = invoke(["verify", "--scan", scan_file, "all"])
    seeded = invoke(["verify", "--scan", scan_file, "--seed", "7", "all"])
    assert plain.exit_code == seeded.exit_code == 0, plain.output
    assert seeded.output == plain.output


def test_verify_reports_a_wrong_generator(b2_5_scan_file, monkeypatch):
    """A wrong generator at one point of the largest B2 [0,5]^4 component
    fails independence-pattern, and the first 10 of its failing pairs are
    printed; no choice of seed or sample can hide them."""
    monkeypatch.setattr(theorems, "ThetaOracle",
                        lambda A: wrong_generator_oracle(A, (0, 3, 0, 5)))
    result = invoke(["verify", "--scan", b2_5_scan_file, "independence"])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    witnesses = [line for line in lines if line.startswith("  witness: ")]
    assert lines[0] == "independence-pattern: FAIL"
    assert len(witnesses) == 10 and all("(0, 3, 0, 5)" in w for w in witnesses)


def _edited_scan(path, tmp_path, mu, d1, d2):
    """A copy of the scan file at path with the row of mu set to (d1, d2)."""
    obj = json.loads(open(path).read())
    row = next(row for row in obj["points"] if row["mu"] == list(mu))
    row.update(d1=d1, d2=d2, delta=d2 - d1)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(obj))
    return str(edited)


def _check_lines(output):
    return [line for line in output.splitlines() if not line.startswith(" ")]


def test_verify_fails_a_row_the_solver_disagrees_with(b2_5_scan_file, tmp_path):
    """B2 [0,5]^4 with the row (2,2,2,2) edited from (4, 4, gap 0) to
    (3, 5, gap 2): a well-formed scan that fails verification.  Saito's
    basis there has degrees (4, 4), and every check that asks for the
    generator there fails with the scan's gap and the solver's."""
    edited = _edited_scan(b2_5_scan_file, tmp_path, (2, 2, 2, 2), 3, 5)
    saito = invoke(["verify", "--scan", edited, "saito"])
    assert saito.exit_code == 1, saito.output
    assert saito.output.splitlines()[:2] == [
        "saito-everywhere: FAIL",
        "  witness: {'mu': (2, 2, 2, 2), 'delta': 2, 'degrees': (4, 4)}"]
    refused = "  witness: {'mu': (2, 2, 2, 2), 'delta': 2, 'solver_delta': 0}"
    for what, name in (("transport", "basis-step-and-path"),
                       ("independence", "independence-pattern"),
                       ("criteria", "criterion-support")):
        result = invoke(["verify", "--scan", edited, what])
        assert result.exit_code == 1, result.output
        assert f"{name}: FAIL\n{refused}\n" in result.output
    clean = invoke(["verify", "--scan", b2_5_scan_file, "all"])
    result = invoke(["verify", "--scan", edited, "all"])
    assert result.exit_code == 1 and "error:" not in result.output, result.output
    names = [line.split(": ")[0] for line in _check_lines(result.output)]
    assert names == [line.split(": ")[0] for line in _check_lines(clean.output)]
    assert "saito-everywhere: FAIL" in result.output


def test_a_second_maximizer_certifies_no_ball(tmp_path):
    """F_3 lines x, y, x + y on [0,6]^3 with the gap at (4,4,3) raised from 1
    to 3, that of the center (3,3,3): the component is no ball, (3,3,3) is
    no center of ml components, and one ball-structure witness names both
    maximizers (test_theorems checks the criteria's centers)."""
    arr = tmp_path / "f3.json"
    arr.write_text(json.dumps({"field": {"type": "prime", "p": 3},
                               "forms": [["1", "0"], ["0", "1"], ["1", "1"]]}))
    path = tmp_path / "f3-6.json"
    assert invoke(["scan", "-a", str(arr), "--box", "6,6,6", "-o", str(path)]).exit_code == 0
    edited = _edited_scan(path, tmp_path, (4, 4, 3), 4, 7)
    comps = invoke(["components", "--scan", edited])
    assert comps.exit_code == 0, comps.output
    home = next(line for line in comps.output.splitlines() if line.startswith("component ")
                and "maximizers" in line)
    assert home.endswith(", undetermined [multiple maximizers; ball_mismatch]")
    assert "center 3,3,3 " not in comps.output and "ERROR" not in comps.output
    assert "center 1,1,1 delta 1" in comps.output
    ball = invoke(["verify", "--scan", edited, "ball"])
    assert ball.exit_code == 1
    named = [line for line in ball.output.splitlines() if "maximizers" in line]
    assert len(named) == 1 and "((3, 3, 3), (4, 4, 3))" in named[0]
    assert "non-unique" not in ball.output


def count_full_basis_saito(monkeypatch):
    """The mu of every Saito decision (dermod._saito) that full_basis makes;
    the walk's own certificates are not counted."""
    calls = []
    real = dermod._saito

    def counting(A, mu, gens):
        if sys._getframe(1).f_code.co_name == "full_basis":
            calls.append(tuple(mu))
        return real(A, mu, gens)

    monkeypatch.setattr(dermod, "_saito", counting)
    return calls


def test_saito_everywhere_verifies_each_basis_once(scan_file, monkeypatch):
    calls = count_full_basis_saito(monkeypatch)
    with open(scan_file) as fh:
        result = ScanResult.from_json(fh.read())
    verdict = theorems.check_saito_everywhere(result)
    assert verdict.status == "pass"
    assert len(calls) == verdict.details["checked"] == len(result.table)
    calls.clear()
    out = invoke(["verify", "--scan", scan_file, "saito"])
    assert out.exit_code == 0 and "saito-everywhere: PASS" in out.output
    assert sorted(calls) == sorted(result.table)
    calls.clear()
    out = invoke(["basis", "--coxeter", "B2", "2,1,2,1"])
    assert out.exit_code == 0 and "saito: accepted" in out.output
    assert calls == [(2, 1, 2, 1)]


def test_verify_criteria(scan_file):
    result = invoke(["verify", "--scan", scan_file, "criteria"])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") >= 3


def count_classifications(monkeypatch):
    """The members of every component that explorer classifies, in order."""
    classified = []
    real = explorer._classify_component

    def counting(scan_result, members):
        classified.append(members)
        return real(scan_result, members)

    monkeypatch.setattr(explorer, "_classify_component", counting)
    return classified


@pytest.mark.parametrize("what", ["all", "criteria"])
def test_verify_builds_the_components_once(b2_5_scan_file, monkeypatch, what):
    # every check and the truth of the criteria read the components that
    # the scan keeps: each is classified once
    with open(b2_5_scan_file) as fh:
        comps = explorer.components(ScanResult.from_json(fh.read()))
    classified = count_classifications(monkeypatch)
    result = invoke(["verify", "--scan", b2_5_scan_file, what])
    assert result.exit_code == 0, result.output
    assert classified == [c.members for c in comps]


def test_components_command_builds_the_components_once(b2_5_scan_file, tmp_path, monkeypatch):
    # the listing, the centers, the DOT and the CSV read one build
    classified = count_classifications(monkeypatch)
    dot, csv = tmp_path / "s.dot", tmp_path / "s.csv"
    result = invoke(["components", "--scan", b2_5_scan_file, "--dot", str(dot), "--csv", str(csv)])
    assert result.exit_code == 0, result.output
    assert len(classified) == len(set(classified)) == result.output.count("component ") > 0
    assert dot.exists() and csv.exists()


def test_verify_all_skips_a_criterion_whose_window_breaks_its_hypotheses(scan_file,
                                                                         monkeypatch):
    # a center criterion whose coverage hypothesis fails on every inner
    # window is skipped, with the reason, once the window has shrunk to the origin
    tried = []

    def never_covered(A, candidate, windows, *args):
        tried.append(list(windows))
        raise HypothesisViolated("uncovered balanced region has a component larger than one")

    monkeypatch.setattr(theorems, "_certify_centers", never_covered)
    result = invoke(["verify", "--scan", scan_file, "all"])
    assert result.exit_code == 0, result.output
    checks = [line for line in result.output.splitlines() if not line.startswith(" ")]
    assert len(checks) == 9, result.output
    assert "criterion-centers: SKIPPED" in checks
    assert "component larger than one" in result.output
    # B2 [0,3]^4: the largest center gap is 2, so margins 2 and 3
    assert tried == [[(1, 1, 1, 1), (0, 0, 0, 0)]]


def test_center_criterion_skips_a_window_independent_failure_at_once(scan_file,
                                                                      monkeypatch):
    # a candidate ball inside another stays overlapping on every window: the
    # criterion is skipped before any window's coverage is tested
    real_centers, real_window = theorems.scan_centers, theorems._balanced_window
    windows = []

    def with_an_inner_ball(scan_result):
        inner = explorer.Component(frozenset({(2, 1, 1, 1)}), "ball", center=(2, 1, 1, 1),
                                   radius=1, maximizers=((2, 1, 1, 1),))
        return real_centers(scan_result) + [inner]

    def recording(box):
        windows.append(box)
        return real_window(box)

    monkeypatch.setattr(theorems, "scan_centers", with_an_inner_ball)
    monkeypatch.setattr(theorems, "_balanced_window", recording)
    result = invoke(["verify", "--scan", scan_file, "criteria"])
    assert result.exit_code == 0, result.output
    assert "criterion-centers: SKIPPED" in result.output
    assert "candidate balls at (1, 1, 1, 1) and (2, 1, 1, 1) overlap" in result.output
    # the support and reconstruction criteria read the whole box, and nothing else
    assert windows == [(3, 3, 3, 3)] * 2


@pytest.mark.parametrize("box,margin", [("3,3,3,3", None), ("4,4,4,4", 3)])
def test_center_criterion_widens_its_margin_only_when_needed(tmp_path, box, margin):
    # on B2 [0,4]^4 the box shrunk by the largest center gap (2) leaves an
    # uncovered balanced component of size > 1; margin 3 satisfies the hypotheses
    path = tmp_path / "b2.json"
    invoke(["scan", "--coxeter", "B2", "--box", box, "-o", str(path)])
    result = invoke(["verify", "--scan", str(path), "criteria"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    details = json.loads(lines[lines.index("criterion-centers: PASS") + 1].split(": ", 1)[1])
    assert details.get("margin") == margin


def test_verify_detects_corrupted_scan(scan_file, tmp_path):
    obj = json.loads(open(scan_file).read())
    for row in obj["points"]:
        if row["mu"] == [1, 1, 1, 1]:
            row["d1"], row["d2"], row["delta"] = 0, 4, 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj) + "\n")
    result = invoke(["verify", "--scan", str(bad), "covering"])
    assert result.exit_code == 1
    assert "FAIL" in result.output and "witness" in result.output


def test_basis_between_command():
    result = invoke(["basis-between", "--coxeter", "B2",
                     "--mu", "1,1,1,1", "--nu", "2,2,1,2",
                     "--kappa", "1,2,1,1"])
    assert result.exit_code == 0
    assert "saito: accepted" in result.output


def test_basis_for_command(scan_file):
    result = invoke(["basis-for", "--scan", scan_file,
                     "--kappa", "1,2,1,2"])
    assert result.exit_code == 0, result.output
    assert "saito: accepted" in result.output


def test_coxeter_report():
    result = invoke(["coxeter", "B2", "--check-invariance", "2,2,2,2",
                     "--near-constant", "1"])
    assert result.exit_code == 0, result.output
    assert "group order: 4" in result.output
    assert "-> match" in result.output


def test_coxeter_a2_group():
    result = invoke(["coxeter", "A2", "--check-invariance", "2,2,2"])
    assert result.exit_code == 0, result.output
    assert "group order: 6" in result.output
    assert "gap-invariance: PASS" in result.output


def test_coxeter_near_constant_offsets():
    result = invoke(["coxeter", "G2", "--near-constant", "0",
                     "--offsets", "1,0,0,0,0,0"])
    assert result.exit_code == 0, result.output
    assert "-> match" in result.output


def test_arrangement_file_loading(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({
        "field": {"type": "rational"},
        "forms": [["1", "0"], ["0", "1"], ["1", "1"]],
        "names": ["x", "y", "x+y"],
    }))
    A = load_arrangement(str(path))
    assert len(A) == 3 and A.name_of(2) == "x+y"
    result = invoke(["exponents", "-a", str(path), "1,1,1"])
    assert result.exit_code == 0
    assert "exponents: (1, 2)" in result.output


def test_load_arrangement_errors(tmp_path):
    with pytest.raises(ParseError):
        load_arrangement(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_arrangement(str(bad))


OLD_STORE_LINE = '{"schema": 1, "arr": "x", "mu": [1, 1, 1, 1]}\n'


def test_cache_subcommands(tmp_path):
    # ml cache is gone: an unknown command, which leaves the directory alone
    (tmp_path / "exponents.jsonl").write_text(OLD_STORE_LINE)
    for action in ("inspect", "clear"):
        result = invoke(["cache", action, "--cache-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "invalid choice: 'cache'" in result.output
    assert (tmp_path / "exponents.jsonl").read_text() == OLD_STORE_LINE


def test_cache_inspect_without_directory():
    for action in ("inspect", "clear"):
        result = invoke(["cache", action])
        assert result.exit_code == 2
        assert "invalid choice: 'cache'" in result.output


B2_SCAN = "<the B2 [0,3]^4 scan file>"

STORE_READERS = {
    "exponents": ["exponents", "--coxeter", "B2", "2,1,2,1"],
    "scan": ["scan", "--coxeter", "B2", "--box", "2,2,2,2", "--jobs", "2"],
    "basis": ["basis", "--coxeter", "B2", "2,1,2,1"],
    "verify": ["verify", "--scan", B2_SCAN, "--seed", "7", "all"],
    "basis-for": ["basis-for", "--scan", B2_SCAN, "--kappa", "1,2,1,2"],
    "basis-between": ["basis-between", "--coxeter", "B2", "--mu", "1,1,1,1", "--nu", "2,2,1,2",
                      "--kappa", "1,2,1,1"],
    "coxeter": ["coxeter", "B2", "--check-invariance", "2,2,2,2", "--near-constant", "1"],
}


@pytest.mark.parametrize("args", STORE_READERS.values(), ids=STORE_READERS.keys())
def test_a_cold_or_warm_store_changes_no_output(scan_file, tmp_path, args):
    # --cache-dir has no effect where it is still accepted, on scan and
    # verify: a missing directory stays missing, and the file an older
    # version left in one is neither read nor written.  Every other command
    # refuses the option, and touches neither directory either.
    args = [scan_file if a == B2_SCAN else a for a in args]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    warm.mkdir()
    (warm / "exponents.jsonl").write_text(OLD_STORE_LINE)
    plain = invoke(args)
    assert plain.exit_code == 0, plain.output
    for store in (cold, warm):
        got = invoke(args + ["--cache-dir", str(store)])
        if args[0] in ("scan", "verify"):
            assert got == plain
        else:
            assert got.exit_code == 2 and "unrecognized arguments: --cache-dir" in got.output
    assert not cold.exists()
    assert os.listdir(warm) == ["exponents.jsonl"]
    assert (warm / "exponents.jsonl").read_text() == OLD_STORE_LINE


def test_near_constant_takes_dash_led_offsets():
    # "-1,0,0,1" is the value of --offsets, not an unknown option
    result = invoke(["coxeter", "B2", "--near-constant", "1", "--offsets", "-1,0,0,1"])
    assert result == (0, "type: B2\n"
                         'field: {"type": "rational"}\n'
                         "  line 0: x\n  line 1: y\n  line 2: x+y\n  line 3: x-y\n"
                         "group order: 4\n"
                         "nu: 2,3,3,4\n"
                         "predicted (distance law): (6, 6)\n"
                         "printed closed form:      (7, 7) (DIFFERS; solver arbitrates)\n"
                         "computed: (6, 6) -> match\n")


def test_coxeter_types_are_case_insensitive():
    result = invoke(["exponents", "--coxeter", "b2", "2,3,1,1"])
    assert result == (0, "exponents: (3, 4)\ndelta: 1\ntheta_min: (x^3)*dx + (y^3)*dy\n")
    result = invoke(["coxeter", "g2"])
    assert result.exit_code == 0 and result.output.startswith("type: G2\n")


@pytest.mark.parametrize("command", ["", "exponents", "basis", "scan", "components", "verify",
                                     "basis-between", "basis-for", "coxeter"])
def test_help_exits_zero(command):
    result = invoke([*command.split(), "--help"])
    assert result.exit_code == 0
    assert result.output.startswith(f"usage: ml {command}".rstrip())


# -- exit-code contract through the installed entry point ---------------------


def _run_ml(*args):
    return subprocess.run([sys.executable, "-m", "multilattice.cli", *args],
                          capture_output=True, text=True)


def test_cli_import_leaves_out_the_process_pool():
    # only scan --jobs >= 2 starts a pool; every other ml process skips its imports
    code = ("import sys, multilattice.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _modules_after(*args):
    """The package's optional layers (and click, hashlib, dataclasses, inspect)
    that ``ml args`` imports."""
    watched = ("click", "dataclasses", "hashlib", "inspect", "multilattice.builtin",
               "multilattice.cache", "multilattice.coxeter", "multilattice.dermod",
               "multilattice.explorer", "multilattice.theorems")
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from multilattice import cli\n"
            "try:\n"
            "    cli.run(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            f"print(sorted(m for m in {watched!r} if m in set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_a_cold_solve_imports_only_the_layers_it_runs(scan_file, tmp_path):
    # --coxeter loads the built-in table, not the group and certificate code
    solver = "['multilattice.builtin', 'multilattice.dermod']"
    assert _modules_after("exponents", "--coxeter", "B2", "1,1,1,1") == solver
    assert _modules_after("basis", "--coxeter", "G2", "1,1,1,1,1,1") == solver
    # components reads a scan file and never solves
    loaded = _modules_after("components", "--scan", scan_file)
    assert "multilattice.dermod" not in loaded and "multilattice.theorems" not in loaded
    # --cache-dir has no effect: nothing loads the cache layer or makes the directory
    loaded = _modules_after("scan", "--coxeter", "B2", "--box", "1,1,1,1",
                            "--cache-dir", str(tmp_path / "c"))
    assert "multilattice.explorer" in loaded and "multilattice.cache" not in loaded
    assert "multilattice.coxeter" not in loaded
    assert not (tmp_path / "c").exists()


def test_scan_file_commands_do_not_import_coxeter(scan_file):
    # a scan file carries its arrangement, so only --coxeter and ml coxeter need
    # the built-in table, and only ml coxeter the group code
    for args in (("components", "--scan", scan_file), ("verify", "--scan", scan_file, "all")):
        loaded = _modules_after(*args)
        assert "multilattice.coxeter" not in loaded and "multilattice.builtin" not in loaded, args


def test_no_command_imports_dataclasses_or_inspect(scan_file, tmp_path):
    # inspect (with ast, dis and tokenize) was a tenth of a cold solve
    out = tmp_path / "s.json"
    for args in (("exponents", "--coxeter", "G2", "1,1,1,1,1,1"),
                 ("basis", "--coxeter", "B2", "2,1,1,1"),
                 ("scan", "--coxeter", "B2", "--box", "1,1,1,1", "-o", str(out)),
                 ("components", "--scan", scan_file),
                 ("verify", "--scan", scan_file, "all")):
        loaded = _modules_after(*args)
        assert "'dataclasses'" not in loaded and "'inspect'" not in loaded, (args, loaded)


def test_every_public_name_resolves():
    # the public names load lazily: every one resolves, and nothing else does
    code = ("import multilattice\n"
            "names = set(multilattice.__all__)\n"
            "ns = {}\n"
            "exec('from multilattice import *', ns)\n"
            "print(len(names), sorted(names - set(ns)), sorted(names - set(dir(multilattice))),\n"
            "      hasattr(multilattice, 'no_such_name'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "50 [] [] False"


def test_exit_code_zero_on_success():
    proc = _run_ml("exponents", "--coxeter", "B2", "1,1,1,1")
    assert proc.returncode == 0


def test_exit_code_two_on_usage_error():
    # both sources given
    proc = _run_ml("exponents", "--coxeter", "B2", "-a", "x.json", "1,1,1,1")
    assert proc.returncode == 2
    # malformed multiplicity
    proc = _run_ml("exponents", "--coxeter", "B2", "1,1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_exit_code_one_on_verification_failure(tmp_path):
    proc = _run_ml("scan", "--coxeter", "B2", "--box", "2,2,2,2")
    obj = json.loads(proc.stdout)
    for row in obj["points"]:
        if row["mu"] == [1, 1, 1, 1]:
            row["d1"], row["d2"], row["delta"] = 0, 4, 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj) + "\n")
    proc = _run_ml("verify", "--scan", str(bad), "covering")
    assert proc.returncode == 1


def test_exit_code_two_on_a_scan_file_whose_arrangement_was_edited(scan_file, tmp_path):
    obj = json.loads(open(scan_file).read())
    obj["arrangement"]["forms"][1] = ["1", "2"]  # still four distinct lines
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(obj) + "\n")
    for args in (("components",), ("verify", "covering")):
        proc = _run_ml(args[0], "--scan", str(bad), *args[1:])
        assert proc.returncode == 2, proc.stderr
        assert "arrangement_hash does not match" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["not json", '{"schema":1}'])
def test_exit_code_two_on_malformed_scan_file(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    proc = _run_ml("components", "--scan", str(bad))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_malformed_cache_line_is_skipped(tmp_path):
    (tmp_path / "exponents.jsonl").write_text(OLD_STORE_LINE)
    proc = _run_ml("scan", "--coxeter", "B2", "--box", "1,1,1,1", "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert '{"d1":1,"d2":3,"delta":2,"mu":[1,1,1,1]}' in proc.stdout
    assert (tmp_path / "exponents.jsonl").read_text() == OLD_STORE_LINE


def test_exit_code_three_on_solver_inconsistency(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInconsistency("degree-0 piece has dimension 0")

    monkeypatch.setattr(dermod, "exponents", broken)  # cmd_exponents imports it when it runs
    monkeypatch.setattr(sys, "argv", ["ml", "exponents", "--coxeter", "B2", "1,1,1,1"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3


def test_exit_code_four_on_unwritable_output(tmp_path):
    proc = _run_ml("scan", "--coxeter", "B2", "--box", "1,1,1,1",
                   "-o", str(tmp_path / "missing" / "x.json"))
    assert proc.returncode == 4, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_four_and_no_message_when_the_reader_closes_early():
    # the read end is closed before ml writes, as by `ml ... | head -1` on a
    # long output: every write to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "multilattice.cli", "exponents",
                               "--coxeter", "B2", "3,3,3,3"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == ""  # neither "error:" nor "Exception ignored" at exit


def _arrangement_file(**changes):
    obj = {"field": {"type": "rational"}, "forms": [["1", "0"], ["0", "1"]]}
    obj.update(changes)
    return obj


SCAN = "<a valid B2 [0,1]^4 scan file>"
NEGATIVE_BOX_SCAN = "<that scan file with box [-1,0,0,0] and no points>"

MALFORMED_INPUTS = {
    "mu-letter": (["exponents", "--coxeter", "B2", "1,a,1,1"], None),
    "mu-negative": (["exponents", "--coxeter", "B2", "1,-1,1,1"], None),
    "box-negative": (["scan", "--coxeter", "B2", "--box", "1,-1,1,1"], None),
    "jobs-zero": (["scan", "--coxeter", "B2", "--box", "1,1,1,1", "--jobs", "0"], None),
    "jobs-letter": (["scan", "--coxeter", "B2", "--box", "1,1,1,1", "--jobs", "x"], None),
    "unknown-command": (["frobnicate", "1,1,1,1"], None),
    "missing-mu": (["exponents", "--coxeter", "B2"], None),
    "coxeter-choice": (["exponents", "--coxeter", "Z9", "1,1,1,1"], None),
    # verify has no --max-pairs (every check is exhaustive): an unknown option
    "max-pairs-negative": (["verify", "--scan", SCAN, "--max-pairs", "-3", "independence"], None),
    # ml scan refuses the box, so a scan file must not carry it either
    "scan-box-negative": (["components", "--scan", NEGATIVE_BOX_SCAN], None),
    "verify-box-negative": (["verify", "--scan", NEGATIVE_BOX_SCAN, "all"], None),
    "offsets-letter": (["coxeter", "B2", "--near-constant", "1", "--offsets", "a,0,0,0"], None),
    "near-constant-a1a1": (["coxeter", "A1A1", "--near-constant", "1"], None),
    "zero-form": (None, _arrangement_file(forms=[["1", "0"], ["0", "0"]])),
    "three-entry-form": (None, _arrangement_file(forms=[["1", "0", "2"], ["0", "1"]])),
    "field-d-string": (None, _arrangement_file(field={"type": "quadratic", "d": "x"})),
    "no-forms": (None, _arrangement_file(forms=[])),
    "names-short": (None, _arrangement_file(names=["x"])),
    "names-string": (None, _arrangement_file(names="xy")),
    "field-d-float": (None, _arrangement_file(field={"type": "quadratic", "d": 3.7})),
    "field-p-float": (None, _arrangement_file(field={"type": "prime", "p": 101.5})),
    "form-float-prime": (None, _arrangement_file(field={"type": "prime", "p": 101},
                                                 forms=[[1.5, 0], [0, 1]])),
    # JSON true is no coefficient: read as 1, this would be the form x + y
    "form-bool-rational": (None, _arrangement_file(forms=[["1", "0"], [True, "1"]])),
    "form-bool-quadratic": (None, _arrangement_file(field={"type": "quadratic", "d": 3},
                                                    forms=[["1", "0"], [{"a": True}, "1"]])),
    "cache-dir-exponents": (["exponents", "--coxeter", "B2", "1,1,1,1", "--cache-dir", "d"],
                            None),
}


@pytest.mark.parametrize("args,arrangement", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_exit_code_two_on_malformed_input(tmp_path, args, arrangement):
    if arrangement is not None:
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(arrangement))
        args = ["exponents", "-a", str(path), "1,1"]
    if SCAN in args or NEGATIVE_BOX_SCAN in args:
        # a readable scan, so that only the bad option (or box) can be the error
        scan = tmp_path / "scan.json"
        assert _run_ml("scan", "--coxeter", "B2", "--box", "1,1,1,1", "-o", str(scan)).returncode == 0
        if NEGATIVE_BOX_SCAN in args:
            scan.write_text(json.dumps({**json.loads(scan.read_text()), "box": [-1, 0, 0, 0],
                                        "points": []}))
        args = [str(scan) if a in (SCAN, NEGATIVE_BOX_SCAN) else a for a in args]
    proc = _run_ml(*args)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


# psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every prime
# base up to 37, psi_13 to every one up to 41; trial division up to the
# square root of the 31-digit d would not end
BAD_FIELDS = {
    "composite-p": ({"type": "prime", "p": 318665857834031151167461}, "odd prime below"),
    "p-at-the-bound": ({"type": "prime", "p": 3317044064679887385961981}, "odd prime below"),
    "huge-d": ({"type": "quadratic", "d": 10**30 + 57}, "squarefree, > 1 and below"),
}


@pytest.mark.parametrize("field,message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_exit_code_two_at_once_on_a_field_past_its_bound(scan_file, tmp_path, field, message):
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps(_arrangement_file(
        field=field, forms=[["1", "0"], ["0", "1"], ["1", "1"], ["1", "2"]])))
    obj = json.loads(open(scan_file).read())
    obj["arrangement"]["field"] = field
    scan = tmp_path / "scan.json"
    scan.write_text(json.dumps(obj))
    for args in (["exponents", "-a", str(arr), "2,1,3,1"], ["verify", "--scan", str(scan), "all"]):
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert message in result.output


def test_a_huge_scan_box_exits_two_before_enumerating(tmp_path, monkeypatch):
    # a box of 10**24 points would exhaust memory as a list of points
    def no_enumeration(box):
        raise AssertionError(f"enumerated the points of {box}")

    monkeypatch.setattr(explorer.lattice, "box_points", no_enumeration)
    out = tmp_path / "scan.json"
    result = invoke(["scan", "--coxeter", "B2", "--box", "1000000,1000000,1000000,1000000",
                     "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert f"a scan takes at most {explorer.MAX_SCAN_POINTS}" in result.output
    assert "Traceback" not in result.output and not out.exists()


@pytest.mark.parametrize("args,message", [
    (["coxeter", "B2", "--check-invariance", "1000000,1000000,1000000,1000000"],
     f"a scan takes at most {explorer.MAX_SCAN_POINTS}"),
    (["exponents", "--coxeter", "B2", "1000000,1000000,1000000,1000000"],
     f"a solve takes at most {dermod.MAX_MULTIPLICITY_SUM}"),
], ids=["invariance-box", "huge-multiplicity"])
def test_a_request_past_the_bounds_exits_two_before_any_step(args, message, monkeypatch):
    # the invariance check reads its gaps off one scan, whose bound refuses
    # a box of 10**24 points; a single solve refuses |mu| past its bound
    def no_work(*args):
        raise AssertionError("enumerated a box or stepped a walk")

    monkeypatch.setattr(explorer.lattice, "box_points", no_work)
    monkeypatch.setattr(dermod._Walk, "step", no_work)
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert message in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("args", [["exponents", "--coxeter", "B2", "1,1,1,1", "--bogus"],
                                  ["verify", "--scan", SCAN, "all", "extra"]],
                         ids=["exponents-option", "verify-positional"])
def test_an_unknown_argument_is_reported_with_its_commands_usage(scan_file, args):
    args = [scan_file if a == SCAN else a for a in args]
    result = invoke(args)
    assert result.exit_code == 2
    assert result.output.startswith(f"usage: ml {args[0]} ")
    assert f"ml {args[0]}: error: unrecognized arguments: {args[-1]}\n" in result.output


def _json_fault(text: str, key: str, fault: str) -> str:
    """text made unreadable to the json module without a JSONDecodeError:
    nested past the recursion limit, or with the first integer value of key
    past the interpreter's limit of 4300 digits."""
    if fault == "deep-nesting":
        return "[" * 100_000 + "]" * 100_000
    text, count = re.subn(f'("{key}": ?)\\d+', "\\g<1>1" + "0" * 5000, text, count=1)
    assert count == 1
    return text


@pytest.mark.parametrize("fault", ["deep-nesting", "long-integer"])
def test_exit_code_two_on_json_the_parser_cannot_hold(scan_file, tmp_path, fault):
    bad_scan = tmp_path / "scan.json"
    bad_scan.write_text(_json_fault(open(scan_file).read(), "delta", fault))
    bad_arr = tmp_path / "arr.json"
    bad_arr.write_text(_json_fault(json.dumps(_arrangement_file(
        field={"type": "prime", "p": 3}, forms=[["1", "0"], ["0", "1"]])), "p", fault))
    for args in (("verify", "--scan", bad_scan, "all"), ("components", "--scan", bad_scan),
                 ("basis-for", "--scan", bad_scan, "--kappa", "1,2,1,2"),
                 ("exponents", "-a", bad_arr, "1,1")):
        proc = _run_ml(*map(str, args))
        assert proc.returncode == 2, (args, proc.stderr[-300:])
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_two_at_once_on_a_huge_exponent(tmp_path):
    # Fraction would build 10**30000000 for this coefficient, spinning past the timeout
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(_arrangement_file(forms=[["1", "0"], ["0", "1"],
                                                        ["1", "1e30000000"]])))
    proc = subprocess.run([sys.executable, "-m", "multilattice.cli", "exponents", "-a",
                           str(path), "1,1,1"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "exponent above" in proc.stderr and "Traceback" not in proc.stderr
