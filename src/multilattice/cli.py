"""Command-line interface.

Exit codes: 0 on success (all verifications pass), 1 when a verification
fails, 2 on usage errors (malformed input, bad options), 3 when the solver
contradicts freeness (InternalInconsistency, a solver bug), 4 when the
operating system refuses a file operation (OSError, e.g. an output path in a
missing directory).  A reader
that closes standard output early (``ml ... | head -1``) also gets 4, with
no message.

Each command parses its input, calls the layer that does the work and
prints the result.  ``ml verify`` prints the verdicts of
``theorems.run_checks``, which runs the checks (and the center criterion's
margin search), marks a criterion whose hypotheses the scan breaks as
skipped and fails a check that the solver's gap at a support point refutes;
the command only turns a failed verdict into exit status 1.

Start-up is most of the cost of one solve, so each command imports the
layers it runs (``dermod``, ``explorer``, ``theorems``, ``coxeter``) when
it runs, ``--coxeter`` loads only the built-in table (``builtin``), and
``_parser`` builds the argument parser of the named command only (that of
``ml verify`` takes its check names from ``theorems``).
The walk's memo is freed at exit by ``dermod``, for library callers too;
it is the only memo, and no command reads or writes a file of results
(``scan`` and ``verify`` still accept ``--cache-dir``, which has no effect).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from . import lattice
from .errors import InternalInconsistency, MultilatticeError, ParseError
from .poly import Arrangement

if TYPE_CHECKING:  # the commands import these layers when they run
    from .explorer import ScanResult

EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_OS = 4


def load_arrangement(path: str) -> Arrangement:
    """Read an arrangement from its JSON file form.

    The format matches Arrangement.to_json: an object with "field"
    ({"type": "rational"} | {"type": "quadratic", "d": n} |
    {"type": "prime", "p": n}), "forms"
    (a list of [a, b] coefficient pairs in the field's textual scalar
    form) and optional "names".
    """
    try:
        with open(path) as fh:
            return Arrangement.from_json(json.load(fh))
    # ValueError: malformed JSON (ParseError too) or an integer past the
    # interpreter's digit limit; RecursionError: nesting too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read arrangement file {path}: {exc}") from exc


def _arrangement(args) -> Arrangement:
    if args.arrangement is not None:
        return load_arrangement(args.arrangement)
    from .builtin import coxeter_arrangement

    return coxeter_arrangement(args.coxeter)


def _parse_mu(ctx_a: Arrangement, text: str):
    return lattice.parse_multiplicity(text, len(ctx_a))


def cmd_exponents(args):
    """Exponents, gap and minimal generator at MU (comma-separated)."""
    from .dermod import exponents

    A = _arrangement(args)
    m = _parse_mu(A, args.mu)
    res = exponents(A, m)
    print(f"exponents: ({res.d1}, {res.d2})")
    print(f"delta: {res.delta}")
    tag = " (one of several; gap is 0)" if res.non_unique else ""
    print(f"theta_min: {res.theta_min.format(A.field)}{tag}")


def cmd_basis(args):
    """Saito-verified homogeneous basis of the module at MU."""
    from .dermod import full_basis

    A = _arrangement(args)
    m = _parse_mu(A, args.mu)
    # full_basis verifies the pair and raises InternalInconsistency on a rejection
    t1, t2 = full_basis(A, m)
    print(f"theta1 (deg {t1.degree}): {t1.format(A.field)}")
    print(f"theta2 (deg {t2.degree}): {t2.format(A.field)}")
    print("saito: accepted")


def cmd_scan(args):
    """Tabulate (d1, d2, delta) over a box of the multiplicity lattice."""
    from . import explorer

    A = _arrangement(args)
    b = _parse_mu(A, args.box)
    start = time.monotonic()
    result = explorer.scan(A, b, jobs=args.jobs)
    seconds = time.monotonic() - start
    text = result.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"scanned {len(result.table)} points in {seconds:.1f}s -> {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_components(args):
    """Decompose the scanned support into components and classify them."""
    from . import explorer

    result = _load_scan(args.scan_path)
    for idx, comp in enumerate(explorer.components(result)):
        desc = f"component {idx}: {len(comp.members)} points, {comp.kind}"
        if comp.kind == "ball":
            desc += (f", center {lattice.format_multiplicity(comp.center)}"
                     f", radius {comp.radius}")
        elif comp.kind == "cone":
            desc += f", dominant line index {comp.cone_h}"
        if comp.notes:
            desc += f" [{'; '.join(comp.notes)}]"
        print(desc)
    for ball in explorer.centers(result):
        print(f"center {lattice.format_multiplicity(ball.center)} delta {ball.radius}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(explorer.to_dot(result))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(explorer.to_csv(result))


def _load_scan(path: str) -> ScanResult:
    from .explorer import ScanResult

    try:
        with open(path) as fh:
            return ScanResult.from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read scan file {path}: {exc}") from exc


def cmd_verify(args):
    """Run structure verifications against scan data.

    Every check is exhaustive over the scan.  Any Fail verdict exits with
    status 1 and prints its first 10 witnesses; the verified statements
    are theorems, so failures indicate solver bugs (or a corrupted scan),
    never acceptable noise.
    """
    from . import theorems

    failed = False
    for v in theorems.run_checks(_load_scan(args.scan_path), args.what):
        print(f"{v.name}: {v.status.upper()}")
        if v.status == "fail":
            failed = True
            for w in v.witnesses[:10]:
                print(f"  witness: {w}")
        if v.details:
            print(f"  details: {json.dumps(v.details, sort_keys=True, default=str)}")
    return EXIT_VERIFY_FAIL if failed else 0


def _print_basis(A: Arrangement, basis, verdict) -> int:
    t1, t2 = basis
    print(f"theta1 (deg {t1.degree}): {t1.format(A.field)}")
    print(f"theta2 (deg {t2.degree}): {t2.format(A.field)}")
    print(f"saito: {'accepted' if verdict.accepted else 'REJECTED: ' + str(verdict.reason)}")
    return 0 if verdict.accepted else EXIT_VERIFY_FAIL


def cmd_basis_between(args):
    """Basis at KAPPA built from the generators of two ball centers."""
    from . import theorems
    from .dermod import exponents

    A = _arrangement(args)
    m, n, k = (_parse_mu(A, s) for s in (args.mu, args.nu, args.kappa))
    t_mu = exponents(A, m).theta_min
    t_nu = exponents(A, n).theta_min
    basis, verdict = theorems.construct_basis_between(A, m, n, k, t_mu, t_nu)
    return _print_basis(A, basis, verdict)


def cmd_basis_for(args):
    """Basis at a balanced KAPPA from the certified centers of a scan."""
    from . import explorer, theorems

    result = _load_scan(args.scan_path)
    A = result.arrangement
    k = _parse_mu(A, args.kappa)
    index = [(ball.center, ball.radius) for ball in explorer.centers(result)]
    basis, verdict = theorems.basis_for(A, k, index)
    return _print_basis(A, basis, verdict)


def cmd_coxeter(args):
    """Inspect a built-in Coxeter arrangement and its symmetry facts.

    "group order" counts the permutations of the lines that products of
    the standard reflections induce: the dihedral group of the type modulo
    its elements that fix every line.  Those are 1 and -1 for B2 and G2,
    1 alone for A2, and the whole group for A1A1, whose two reflections
    each fix both lines.  So it is 1 for A1A1, 6 for A2, 4 for B2 and 6
    for G2."""
    from . import coxeter as cox

    ctype, offsets = args.ctype, args.offsets
    A = cox.coxeter_arrangement(ctype)
    print(f"type: {ctype.upper()}")
    print(f"field: {json.dumps(A.field.to_json(), sort_keys=True)}")
    for i in range(len(A)):
        print(f"  line {i}: {A.name_of(i)}")
    gens = cox.standard_generators(A, ctype)
    group = cox.group_closure(A, gens)
    print(f"group order: {len(group)}")
    failed = False
    if args.inv_box:
        b = _parse_mu(A, args.inv_box)
        verdict = cox.check_delta_invariance(A, gens, b)
        print(f"{verdict.name}: {verdict.status.upper()}"
              f" ({verdict.details.get('checked', 0)} orbit steps)")
        failed |= verdict.status == "fail"
    if args.nc_k is not None:
        try:
            offs = [int(v) for v in offsets.split(",")] if offsets else [0] * len(A)
        except ValueError as exc:
            raise ParseError(f"offsets must be comma-separated integers: {offsets}") from exc
        res = cox.near_constant_exponents(ctype, args.nc_k, offs, A=A)
        print(f"nu: {lattice.format_multiplicity(res.nu)}")
        print(f"predicted (distance law): {res.predicted}")
        print(f"printed closed form:      {res.printed_formula}"
              f" ({'same' if res.formulas_agree else 'DIFFERS; solver arbitrates'})")
        print(f"computed: {res.computed} -> {res.verdict}")
        failed |= res.verdict != "match"
    return EXIT_VERIFY_FAIL if failed else 0


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a dash-led value such as "-1,0,0,1" as a
    value: argparse's own rule only does so for a plain negative number."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


class _CommandParser(_Parser):
    """The named command's parser.  It reports an argument it does not
    take with its own usage, where argparse would leave it to ml's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _parser(argv: List[str]) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.

    Every command is registered, so that ``ml --help`` and an unknown
    command list them all, but only the command that ``argv`` names gets a
    parser with its arguments: no other one is parsed.  That command is the
    first word of ``argv`` without a leading dash, since ``ml`` itself takes
    no option but ``--help``; a dash-led first positional is no command.
    An argument the named command does not take is reported with that
    command's usage (_CommandParser).
    """
    named = f"ml {next((a for a in argv if not a.startswith('-')), '')}"
    top = _Parser(prog="ml", description=(
        "Exact exponents and lattice structure of rank-2 multiarrangements."))
    # argparse makes each command's parser with parser_class(prog="ml NAME", ...)
    commands = top.add_subparsers(
        metavar="COMMAND", required=True,
        parser_class=lambda **kwargs: _CommandParser(**kwargs) if kwargs["prog"] == named else None)

    def command(name, run, source=False, cache=False):
        doc = run.__doc__
        p = commands.add_parser(name, help=doc.split("\n", 1)[0], description=doc)
        if p is None:
            return None
        p.set_defaults(run=run)
        if source:
            from .builtin import COXETER_TYPES

            one = p.add_mutually_exclusive_group(required=True)
            one.add_argument("--arrangement", "-a", help="Arrangement JSON file.")
            one.add_argument("--coxeter", type=str.upper, choices=COXETER_TYPES,
                             help="Built-in Coxeter arrangement.")
        if cache:
            p.add_argument("--cache-dir", help="Has no effect: no command keeps results"
                                               " on disk. Still accepted for older scripts.")
        return p

    for name, run in (("exponents", cmd_exponents), ("basis", cmd_basis)):
        p = command(name, run, source=True)
        if p:
            p.add_argument("mu", metavar="MU")

    p = command("scan", cmd_scan, source=True, cache=True)
    if p:
        p.add_argument("--box", required=True, help="Inclusive upper bounds, comma-separated.")
        p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="Most worker processes; small boxes are walked in-process."
                            " (default: %(default)s)")
        p.add_argument("--output", "-o", help="Write the scan JSON here (default: stdout).")

    p = command("components", cmd_components)
    if p:
        p.add_argument("--scan", dest="scan_path", required=True,
                       help="Scan JSON produced by the scan command.")
        p.add_argument("--dot", help="Write a DOT rendering here.")
        p.add_argument("--csv", help="Write a CSV table here.")

    p = command("verify", cmd_verify, cache=True)
    if p:
        from .theorems import CHECKS

        p.add_argument("--scan", dest="scan_path", required=True)
        p.add_argument("--seed", type=int, default=0,
                       help="Has no effect: every check is exhaustive."
                            " Still accepted for older scripts.")
        p.add_argument("what", choices=CHECKS)

    p = command("basis-between", cmd_basis_between, source=True)
    if p:
        p.add_argument("--mu", required=True, help="First ball center.")
        p.add_argument("--nu", required=True, help="Second ball center.")
        p.add_argument("--kappa", required=True, help="Target multiplicity.")

    p = command("basis-for", cmd_basis_for)
    if p:
        p.add_argument("--scan", dest="scan_path", required=True,
                       help="Scan JSON whose certified centers to use.")
        p.add_argument("--kappa", required=True, help="Balanced target multiplicity.")

    p = command("coxeter", cmd_coxeter)
    if p:
        from .builtin import COXETER_TYPES

        p.add_argument("ctype", metavar="CTYPE", type=str.upper, choices=COXETER_TYPES)
        p.add_argument("--check-invariance", dest="inv_box",
                       help="Verify gap invariance under the group over this box.")
        p.add_argument("--near-constant", dest="nc_k", type=int,
                       help="Compare near-constant exponent formulas at level k.")
        p.add_argument("--offsets", help="Offsets for --near-constant.")
    return top


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command line ``argv`` (default: the process arguments);
    returns the exit status.  Usage errors exit 2 from the parser."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parser(argv).parse_args(argv)
    return args.run(args) or 0


def run(argv: Optional[List[str]] = None):  # console-script entry point
    """main() with every domain error mapped to its exit code and message."""
    try:
        status = main(argv)
        sys.stdout.flush()  # a closed reader raises here, not at exit
    except BrokenPipeError:
        # the reader of stdout is gone: say nothing, and point stdout at
        # devnull so that the flush at exit finds no broken pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_OS
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        status = EXIT_INTERNAL
    except MultilatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_OS
    sys.exit(status)


if __name__ == "__main__":
    run()
