"""Command-line interface.

Exit codes: 0 on success (all verifications pass), 1 when a verification
fails, 2 on usage errors (malformed input, bad options), 3 when the solver
contradicts freeness (InternalInconsistency, a solver bug), 4 when the
operating system refuses a file operation (OSError, e.g. an output path in a
missing directory or a cache directory that cannot be created).
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

import click

from . import coxeter as cox
from . import explorer, lattice, theorems
from .cache import ResultCache
from .dermod import exponents, full_basis
from .errors import (HypothesisViolated, InternalInconsistency, MultilatticeError, ParseError,
                     UncoveredWindow)
from .explorer import ScanResult
from .poly import Arrangement
from .theorems import ThetaOracle

EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_OS = 4


def load_arrangement(path: str) -> Arrangement:
    """Read an arrangement from its JSON file form.

    The format matches Arrangement.to_json: an object with "field"
    ({"type": "rational"} | {"type": "quadratic", "d": n}), "forms"
    (a list of [a, b] coefficient pairs in the field's textual scalar
    form) and optional "names".
    """
    try:
        with open(path) as fh:
            return Arrangement.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        raise ParseError(f"cannot read arrangement file {path}: {exc}") from exc


def _resolve_arrangement(arrangement: Optional[str], coxeter_type: Optional[str]) -> Arrangement:
    if (arrangement is None) == (coxeter_type is None):
        raise click.UsageError("give exactly one of --arrangement/--coxeter")
    if arrangement is not None:
        return load_arrangement(arrangement)
    return cox.coxeter_arrangement(coxeter_type)


def _parse_mu(ctx_a: Arrangement, text: str):
    return lattice.parse_multiplicity(text, len(ctx_a))


def _cache(cache_dir: Optional[str]) -> ResultCache:
    return ResultCache(cache_dir)


_arr_opt = click.option("--arrangement", "-a", type=click.Path(), default=None,
                        help="Arrangement JSON file.")
_cox_opt = click.option("--coxeter", "coxeter_type",
                        type=click.Choice(cox.COXETER_TYPES, case_sensitive=False),
                        default=None, help="Built-in Coxeter arrangement.")
_cache_opt = click.option("--cache-dir", default=None,
                          help="Result cache directory (default: $ML_CACHE_DIR).")


@click.group()
def main():
    """Exact exponents and lattice structure of rank-2 multiarrangements."""


@main.command("exponents")
@_arr_opt
@_cox_opt
@_cache_opt
@click.argument("mu")
def cmd_exponents(arrangement, coxeter_type, cache_dir, mu):
    """Exponents, gap and minimal generator at MU (comma-separated)."""
    A = _resolve_arrangement(arrangement, coxeter_type)
    m = _parse_mu(A, mu)
    res = exponents(A, m, cache=_cache(cache_dir))
    click.echo(f"exponents: ({res.d1}, {res.d2})")
    click.echo(f"delta: {res.delta}")
    tag = " (one of several; gap is 0)" if res.non_unique else ""
    click.echo(f"theta_min: {res.theta_min.format(A.field)}{tag}")


@main.command("basis")
@_arr_opt
@_cox_opt
@_cache_opt
@click.argument("mu")
def cmd_basis(arrangement, coxeter_type, cache_dir, mu):
    """Saito-verified homogeneous basis of the module at MU."""
    A = _resolve_arrangement(arrangement, coxeter_type)
    m = _parse_mu(A, mu)
    # full_basis verifies the pair and raises InternalInconsistency on a rejection
    t1, t2 = full_basis(A, m, cache=_cache(cache_dir))
    click.echo(f"theta1 (deg {t1.degree}): {t1.format(A.field)}")
    click.echo(f"theta2 (deg {t2.degree}): {t2.format(A.field)}")
    click.echo("saito: accepted")


@main.command("scan")
@_arr_opt
@_cox_opt
@_cache_opt
@click.option("--box", required=True, help="Inclusive upper bounds, comma-separated.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Most worker processes; small boxes are walked in-process.")
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Write the scan JSON here (default: stdout).")
def cmd_scan(arrangement, coxeter_type, cache_dir, box, jobs, output):
    """Tabulate (d1, d2, delta) over a box of the multiplicity lattice."""
    A = _resolve_arrangement(arrangement, coxeter_type)
    b = _parse_mu(A, box)
    result = explorer.scan(A, b, jobs=jobs, cache=_cache(cache_dir))
    text = result.to_json()
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        t = result.timing
        click.echo(f"scanned {t['points']} points in {t['seconds']:.1f}s -> {output}",
                   err=True)
    else:
        click.echo(text, nl=False)


@main.command("components")
@click.option("--scan", "scan_path", required=True, type=click.Path(),
              help="Scan JSON produced by the scan command.")
@click.option("--dot", type=click.Path(), default=None, help="Write a DOT rendering here.")
@click.option("--csv", type=click.Path(), default=None, help="Write a CSV table here.")
def cmd_components(scan_path, dot, csv):
    """Decompose the scanned support into components and classify them."""
    result = _load_scan(scan_path)
    comps = explorer.components(result)
    for idx, comp in enumerate(comps):
        desc = f"component {idx}: {len(comp.members)} points, {comp.kind}"
        if comp.kind == "ball":
            desc += (f", center {lattice.format_multiplicity(comp.center)}"
                     f", radius {comp.radius}")
        elif comp.kind == "cone":
            desc += f", dominant line index {comp.cone_h}"
        if comp.notes:
            desc += f" [{'; '.join(comp.notes)}]"
        click.echo(desc)
    for entry in explorer.centers(result, comps):
        if entry.error:
            click.echo(f"center ERROR: {entry.error}")
        else:
            click.echo(f"center {lattice.format_multiplicity(entry.center)}"
                       f" delta {entry.delta}")
    if dot:
        with open(dot, "w") as fh:
            fh.write(explorer.to_dot(result, comps))
    if csv:
        with open(csv, "w") as fh:
            fh.write(explorer.to_csv(result, comps))


def _load_scan(path: str) -> ScanResult:
    try:
        with open(path) as fh:
            return ScanResult.from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read scan file {path}: {exc}") from exc


_CHECKS = ("covering", "ball", "singletons", "transport", "independence",
           "saito", "criteria", "all")


@main.command("verify")
@click.option("--scan", "scan_path", required=True, type=click.Path())
@_cache_opt
@click.option("--seed", default=0, show_default=True)
@click.option("--max-pairs", type=click.IntRange(min=0), default=50, show_default=True,
              help="Sample size per check; 0 means exhaustive.")
@click.argument("what", type=click.Choice(_CHECKS))
def cmd_verify(scan_path, cache_dir, seed, max_pairs, what):
    """Run structure verifications against scan data.

    Any Fail verdict exits with status 1 and prints witnesses; the
    verified statements are theorems, so failures indicate solver bugs
    (or a corrupted scan), never acceptable noise.
    """
    result = _load_scan(scan_path)
    cache = _cache(cache_dir)
    oracle = ThetaOracle(result.arrangement, cache=cache)
    comps = explorer.components(result)
    mp = max_pairs if max_pairs > 0 else None
    verdicts: List[theorems.Verdict] = []
    if what in ("covering", "all"):
        verdicts.append(theorems.check_covering_steps(result))
    if what in ("ball", "all"):
        verdicts.append(theorems.check_ball_structure(result, comps))
    if what in ("singletons", "all"):
        verdicts.append(theorems.check_singleton_gaps(result))
    if what in ("transport", "all"):
        verdicts.append(theorems.check_basis_step_and_path(
            result, oracle, comps, seed=seed, max_pairs=mp or 50))
    if what in ("independence", "all"):
        verdicts.append(theorems.check_independency(
            result, oracle, comps, seed=seed, max_pairs=mp))
    if what in ("saito", "all"):
        verdicts.append(_check_saito_everywhere(result, cache))
    if what in ("criteria", "all"):
        verdicts.extend(_run_criteria(result, oracle))
    failed = False
    for v in verdicts:
        click.echo(f"{v.name}: {v.status.upper()}")
        if v.status == "fail":
            failed = True
            for w in v.witnesses[:10]:
                click.echo(f"  witness: {w}")
        if v.details:
            click.echo(f"  details: {json.dumps(v.details, sort_keys=True, default=str)}")
    sys.exit(EXIT_VERIFY_FAIL if failed else 0)


def _check_saito_everywhere(result: ScanResult, cache) -> theorems.Verdict:
    """Construct and verify a full basis at every point of the scan.

    full_basis runs verify_saito on the pair it returns and raises
    InternalInconsistency (exit 3) on a rejection, so every returned pair passed.
    """
    for mu in sorted(result.table):
        full_basis(result.arrangement, mu, cache=cache)
    return theorems.Verdict("saito-everywhere", "pass", [], {"checked": len(result.table)})


def _certify(name: str, criterion, *args, **kwargs) -> theorems.Verdict:
    """Run a criterion; a window that breaks its hypotheses is skipped, with the reason."""
    try:
        return criterion(*args, **kwargs)
    except HypothesisViolated as exc:
        return theorems.Verdict(name, "skipped", details={"reason": str(exc)})


def _certify_centers(result: ScanResult, oracle: ThetaOracle, center_pts) -> theorems.Verdict:
    """The center criterion on the box shrunk by a margin.

    Balls near the scan boundary are truncated, so the coverage hypothesis
    is only testable on an inner window.  The margin starts at the largest
    center gap and grows by one while the window leaves a balanced region
    uncovered, until the window shrinks to the origin.  The other hypotheses
    do not depend on the window, so their failure skips the criterion at once.
    """
    cmap = theorems.CandidateMap({mu: oracle(mu) for mu in center_pts})
    gap = margin = max(center_pts.values())
    while True:
        inner = tuple(max(b - margin, 0) for b in result.box)
        try:
            verdict = theorems.certify_centers(result.arrangement, cmap, inner,
                                               trusted_scan=result, oracle=oracle)
        except HypothesisViolated as exc:
            if isinstance(exc, UncoveredWindow) and any(inner):
                margin += 1
                continue
            return theorems.Verdict("criterion-centers", "skipped",
                                    details={"reason": str(exc)})
        if margin != gap:
            verdict.details["margin"] = margin
        return verdict


def _run_criteria(result: ScanResult, oracle: ThetaOracle) -> List[theorems.Verdict]:
    A = result.arrangement
    box = result.box
    support = [mu for mu in result.support() if lattice.is_balanced(mu)]
    candidate = theorems.CandidateMap({mu: oracle(mu) for mu in support})
    out = [_certify("criterion-support", theorems.certify_support, A, candidate, box,
                    trusted_scan=result)]
    center_pts = {e.center: e.delta for e in explorer.centers(result) if e.center}
    if center_pts:
        out.append(_certify_centers(result, oracle, center_pts))
    _, verdict = theorems.reconstruct_components(A, box, oracle, trusted_scan=result)
    out.append(verdict)
    return out


@main.command("basis-between")
@_arr_opt
@_cox_opt
@_cache_opt
@click.option("--mu", required=True, help="First ball center.")
@click.option("--nu", required=True, help="Second ball center.")
@click.option("--kappa", required=True, help="Target multiplicity.")
def cmd_basis_between(arrangement, coxeter_type, cache_dir, mu, nu, kappa):
    """Basis at KAPPA built from the generators of two ball centers."""
    A = _resolve_arrangement(arrangement, coxeter_type)
    cache = _cache(cache_dir)
    m, n, k = (_parse_mu(A, s) for s in (mu, nu, kappa))
    t_mu = exponents(A, m, cache=cache).theta_min
    t_nu = exponents(A, n, cache=cache).theta_min
    (t1, t2), verdict = theorems.construct_basis_between(A, m, n, k, t_mu, t_nu,
                                                         cache=cache)
    click.echo(f"theta1 (deg {t1.degree}): {t1.format(A.field)}")
    click.echo(f"theta2 (deg {t2.degree}): {t2.format(A.field)}")
    click.echo(f"saito: {'accepted' if verdict.accepted else 'REJECTED: ' + str(verdict.reason)}")
    if not verdict.accepted:
        sys.exit(EXIT_VERIFY_FAIL)


@main.command("basis-for")
@click.option("--scan", "scan_path", required=True, type=click.Path(),
              help="Scan JSON whose certified centers to use.")
@_cache_opt
@click.option("--kappa", required=True, help="Balanced target multiplicity.")
def cmd_basis_for(scan_path, cache_dir, kappa):
    """Basis at a balanced KAPPA from the certified centers of a scan."""
    result = _load_scan(scan_path)
    A = result.arrangement
    k = _parse_mu(A, kappa)
    index = [(e.center, e.delta) for e in explorer.centers(result) if e.center]
    (t1, t2), verdict = theorems.basis_for(A, k, index, cache=_cache(cache_dir))
    click.echo(f"theta1 (deg {t1.degree}): {t1.format(A.field)}")
    click.echo(f"theta2 (deg {t2.degree}): {t2.format(A.field)}")
    click.echo(f"saito: {'accepted' if verdict.accepted else 'REJECTED: ' + str(verdict.reason)}")
    if not verdict.accepted:
        sys.exit(EXIT_VERIFY_FAIL)


@main.command("coxeter")
@click.argument("ctype", type=click.Choice(cox.COXETER_TYPES, case_sensitive=False))
@_cache_opt
@click.option("--check-invariance", "inv_box", default=None,
              help="Verify gap invariance under the group over this box.")
@click.option("--near-constant", "nc_k", type=int, default=None,
              help="Compare near-constant exponent formulas at level k.")
@click.option("--offsets", default=None, help="Offsets for --near-constant.")
def cmd_coxeter(ctype, cache_dir, inv_box, nc_k, offsets):
    """Inspect a built-in Coxeter arrangement and its symmetry facts."""
    A = cox.coxeter_arrangement(ctype)
    cache = _cache(cache_dir)
    click.echo(f"type: {ctype.upper()}")
    click.echo(f"field: {json.dumps(A.field.to_json(), sort_keys=True)}")
    for i in range(len(A)):
        click.echo(f"  line {i}: {A.name_of(i)}")
    gens = cox.standard_generators(A, ctype)
    group = cox.group_closure(A, gens)
    click.echo(f"group order: {len(group)}")
    failed = False
    if inv_box:
        b = _parse_mu(A, inv_box)
        verdict = cox.check_delta_invariance(A, gens, b, cache=cache)
        click.echo(f"{verdict.name}: {verdict.status.upper()}"
                   f" ({verdict.details.get('checked', 0)} orbit steps)")
        failed |= verdict.status == "fail"
    if nc_k is not None:
        try:
            offs = [int(v) for v in offsets.split(",")] if offsets else [0] * len(A)
        except ValueError as exc:
            raise ParseError(f"offsets must be comma-separated integers: {offsets}") from exc
        res = cox.near_constant_exponents(ctype, nc_k, offs, A=A, cache=cache)
        click.echo(f"nu: {lattice.format_multiplicity(res.nu)}")
        click.echo(f"predicted (distance law): {res.predicted}")
        click.echo(f"printed closed form:      {res.printed_formula}"
                   f" ({'same' if res.formulas_agree else 'DIFFERS; solver arbitrates'})")
        click.echo(f"computed: {res.computed} -> {res.verdict}")
        failed |= res.verdict != "match"
    sys.exit(EXIT_VERIFY_FAIL if failed else 0)


@main.group("cache")
def cmd_cache():
    """Inspect or clear the persistent result cache."""


@cmd_cache.command("inspect")
@_cache_opt
def cmd_cache_inspect(cache_dir):
    cache = _cache(cache_dir)
    if cache.path is None:
        click.echo("no cache directory configured (set ML_CACHE_DIR or --cache-dir)")
        return
    click.echo(f"path: {cache.path}")
    click.echo(f"entries: {len(cache)}")


@cmd_cache.command("clear")
@_cache_opt
def cmd_cache_clear(cache_dir):
    cache = _cache(cache_dir)
    if cache.path is None:
        click.echo("no cache directory configured (set ML_CACHE_DIR or --cache-dir)")
        return
    n = len(cache)
    cache.clear()
    click.echo(f"cleared {n} entries from {cache.path}")


def run():  # console-script entry point with domain-error handling
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(EXIT_USAGE)
    except InternalInconsistency as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    except MultilatticeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_OS)


if __name__ == "__main__":
    run()
