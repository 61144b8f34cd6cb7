#!/usr/bin/env python3
"""Benchmark of the multilattice ``ml`` command line.

    python3 perfbench/run.py --workload {solve-cold,scan,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs building).  Every ``ml`` call is a fresh child
process, started one at a time from this process.  Each workload first
sets up (several times; ``setup_s`` is the median), then runs whole cycles of
steps for about ``--seconds`` (``cycle_s`` sums the median step of each
kind), checking every output outside the timed region.  Both times are
scaled to a host of nominal speed by the probe of ``probe.py``, run after
every set-up and step.  ``--trace 1`` runs one cycle, each
step once untraced and once with the tracer of ``tracer.py`` installed, and
reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name and unit, with the git revision, Python version,
CPU count, seed and sample counts.  The same record is written to
``perfbench/_work/<workload>/result.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from probe import Yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = json.loads((BENCH / "reference.json").read_text())

JOBS = min(2, os.cpu_count() or 1)
STARTUP_REPEATS = 3
DEADLINE_S = 165.0  # every child is killed by then; the run must end within 180 s

# solve-cold: multiplicities near the odd constant centres (2k+1,...,2k+1),
# as (type, lines, gap at the centre, k, signed sum and L1 weight of the
# offset).  The weights stay <= gap + 1, where the distance law
# delta = |gap - |offset|_1| holds.  Size and gap set the cost of a solve,
# so they are fixed and every cycle costs the same whatever the seed; the
# seed picks where each offset goes.  Three solves per field and cycle keep
# each median inside one size class instead of between two.
SOLVE_POINTS = (
    ("B2", 4, 2, 4, 0, 2),
    ("B2", 4, 2, 5, 1, 3),
    ("B2", 4, 2, 6, -1, 1),
    ("G2", 6, 4, 2, 1, 1),
    ("G2", 6, 4, 2, -1, 5),
    ("G2", 6, 4, 3, 0, 4),
)

SCAN_BOXES = (("B2", "5,5,5,5"), ("G2", "2,2,2,2,2,2"))
VERIFY_BOX = ("B2", "5,5,5,5")
# each with its own ``ml verify --seed``: the seed picks the pairs the sampled
# checks test, and a cycle of one such step would rest on one sample of it
VERIFY_STEPS = 2


@dataclass
class Call:
    args: list
    pid: int
    spawn: float
    wall: float
    rc: int
    maxrss_mb: float
    stdout: str
    ok: bool = True


@dataclass
class Step:
    field: str  # "B2" or "G2", for the per-field step medians
    kind: tuple  # steps of one kind cost the same: same command, same size
    points: int
    calls: list
    cache_bytes: int = 0

    @property
    def wall(self):
        return sum(c.wall for c in self.calls)


@dataclass
class Runner:
    """Starts ``ml`` children one at a time and counts their failures."""

    workdir: Path
    start: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def elapsed(self):
        return time.perf_counter() - self.start

    def env(self):
        env = {k: v for k, v in os.environ.items() if k != "ML_CACHE_DIR"}
        env["PYTHONPATH"] = str(SRC)
        return env

    def spawn(self, cmd, env):
        """Run ``cmd`` to completion; returns (pid, spawn time, wall, rc, rusage, stdout)."""
        limit = DEADLINE_S - self.elapsed()
        if limit <= 0:
            raise TimeoutError("benchmark deadline reached")
        out_path = self.workdir / "child.out"
        with open(out_path, "w") as out, open(self.workdir / "child.err", "w") as err:
            t0 = time.perf_counter()
            # a session of its own, so a kill also reaches pool workers
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.workdir,
                                    start_new_session=True)
            killer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.pid, t0, wall, proc.returncode, ru, out_path.read_text()

    def ml(self, args, trace_dir=None):
        env = self.env()
        if trace_dir is None:
            cmd = [sys.executable, "-m", "multilattice.cli", *args]
        else:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            cmd = [sys.executable, str(BENCH / "traced_ml.py"), *args]
        self.attempted += 1
        pid, t0, wall, rc, ru, stdout = self.spawn(cmd, env)
        call = Call(list(args), pid, t0, wall, rc, ru.ru_maxrss / 1024.0, stdout)
        if rc != 0:
            self.fail(call, f"exit code {rc}")
        return call

    def fail(self, call, why):
        if call.ok:
            call.ok = False
            self.failed += 1
        self.problems.append(f"ml {' '.join(call.args)}: {why}")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cache_bytes(cache_dir):
    path = cache_dir / "exponents.jsonl"
    return path.stat().st_size if path.exists() else 0


# -- solve-cold ---------------------------------------------------------------


def seeded_offset(rng, n, signed_sum, weight):
    """A random offset of n entries with the given signed sum and L1 weight."""
    off = [0] * n
    for _ in range((weight + signed_sum) // 2):
        off[rng.randrange(n)] += 1
    free = [i for i in range(n) if off[i] == 0]
    for _ in range((weight - signed_sum) // 2):
        off[rng.choice(free)] -= 1
    return off


def solve_cold_plan(rng, made):
    steps = []
    for kind in SOLVE_POINTS:
        ctype, n, gap_c, k, signed_sum, weight = kind
        off = seeded_offset(rng, n, signed_sum, weight)
        mu = [2 * k + 1 + i for i in off]
        want = abs(gap_c - weight)
        steps.append(lambda runner, tdir, kind=kind, mu=mu, want=want:
                     solve_step(runner, tdir, kind, mu, want))
    rng.shuffle(steps)
    return steps


def solve_step(runner, trace_dir, kind, mu, want):
    ctype = kind[0]
    call = runner.ml(["exponents", "--coxeter", ctype, ",".join(map(str, mu))], trace_dir)
    if call.ok:
        first = call.stdout.splitlines()[0] if call.stdout else ""
        try:
            d1, d2 = (int(v) for v in first.split("(")[1].rstrip(")").split(","))
        except (IndexError, ValueError):
            runner.fail(call, f"unparsable output {first!r}")
        else:
            if d1 + d2 != sum(mu) or d2 - d1 != want:
                runner.fail(call, f"exponents ({d1}, {d2}), want gap {want}, |mu| {sum(mu)}")
    return Step(ctype, kind, 1, [call])


def solve_cold_setup(runner):
    for ctype, n in (("B2", 4), ("G2", 6)):
        runner.ml(["exponents", "--coxeter", ctype, ",".join(["1"] * n)])
    return None


# -- scan ---------------------------------------------------------------------


def box_points(box):
    total = 1
    for b in box.split(","):
        total *= int(b) + 1
    return total


def scan_into(runner, trace_dir, ctype, box, cache_dir, out):
    """``ml scan`` with a cache directory; checks the JSON against its reference."""
    call = runner.ml(["scan", "--coxeter", ctype, "--box", box, "--jobs", str(JOBS),
                      "--cache-dir", str(cache_dir), "-o", str(out)], trace_dir)
    if call.ok:
        got = sha256(out) if out.exists() else "missing"
        if got != REFERENCE["scan_sha256"][f"{ctype} {box}"]:
            runner.fail(call, f"scan JSON digest {got} differs from the reference")
    return call


def scan_plan(rng, made):
    steps = [lambda runner, tdir, ctype=ctype, box=box: scan_step(runner, tdir, ctype, box)
             for ctype, box in SCAN_BOXES]
    rng.shuffle(steps)
    return steps


def scan_step(runner, trace_dir, ctype, box):
    cache_dir = fresh_dir(runner.workdir / "scan-cache")
    out = runner.workdir / "scan.json"
    out.unlink(missing_ok=True)
    call = scan_into(runner, trace_dir, ctype, box, cache_dir, out)
    return Step(ctype, (ctype, box), box_points(box), [call], cache_bytes(cache_dir))


def scan_setup(runner):
    for ctype, box in SCAN_BOXES:
        small = ",".join(["1"] * len(box.split(",")))
        runner.ml(["scan", "--coxeter", ctype, "--box", small, "--jobs", "1",
                   "-o", str(runner.workdir / "warmup.json")])
    return None


# -- verify -------------------------------------------------------------------


def verify_setup(runner):
    """The scan the verify steps read, and a cache warmed by making it."""
    ctype, box = VERIFY_BOX
    warm = fresh_dir(runner.workdir / "warm")
    out = runner.workdir / "scan.json"
    out.unlink(missing_ok=True)
    scan_into(runner, None, ctype, box, warm, out)
    return out, warm


def verify_plan(rng, made):
    scan_path, warm = made
    return [lambda runner, tdir, vseed=rng.randrange(1 << 16):
            verify_step(runner, tdir, *VERIFY_BOX, scan_path, warm, vseed)
            for _ in range(VERIFY_STEPS)]


def verify_step(runner, trace_dir, ctype, box, scan_path, warm, vseed):
    # each step starts from the same warm cache, whatever earlier steps wrote
    cache_dir = runner.workdir / "verify-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    shutil.copytree(warm, cache_dir)
    dot, csv = runner.workdir / "support.dot", runner.workdir / "table.csv"
    dot.unlink(missing_ok=True)
    csv.unlink(missing_ok=True)
    comp = runner.ml(["components", "--scan", str(scan_path), "--dot", str(dot),
                      "--csv", str(csv)], trace_dir)
    if comp.ok and not (dot.exists() and csv.exists() and comp.stdout.startswith("component")):
        runner.fail(comp, "missing component listing, DOT or CSV output")
    ver = runner.ml(["verify", "--scan", str(scan_path), "--cache-dir", str(cache_dir),
                     "--seed", str(vseed), "all"], trace_dir)
    if ver.ok:
        status = dict(line.split(": ", 1) for line in ver.stdout.splitlines()
                      if line and not line.startswith(" ") and ": " in line)
        bad = sorted(name for name, s in status.items() if s != "PASS")
        missing = sorted(set(REFERENCE["verify_checks"][f"{ctype} {box}"]) - set(status))
        if bad or missing:
            runner.fail(ver, f"checks not passed {bad}, missing {missing}")
    return Step(ctype, (ctype, box), box_points(box), [comp, ver], cache_bytes(cache_dir))


# workload -> (set-up, returning what the steps need; one cycle of steps;
# how many set-ups ``setup_s`` is the median of: five where a set-up is a
# second or less, three for the scan that ``verify`` builds)
WORKLOADS = {
    "solve-cold": (solve_cold_setup, solve_cold_plan, 5),
    "scan": (scan_setup, scan_plan, 5),
    "verify": (verify_setup, verify_plan, 3),
}


# -- traced run: per-layer metrics ---------------------------------------------


class LayerTotals:
    """Sums over the span records of every traced step."""

    def __init__(self):
        self.calls = Counter()
        self.incl = Counter()        # outermost-span time per name
        self.self_s = Counter()      # self time per name
        self.extra = Counter()       # summed per-call figure per name
        self.layer_self = Counter()
        self.alpha_main = [0, 0]  # [calls, misses] in the main ml processes
        self.alpha_worker_misses = 0
        self.alpha_miss_s = 0.0
        self.pool_overhead = 0.0
        self.startup = 0.0           # spawn to the root span, main processes
        self.covered = 0.0           # start-up plus self time of the non-cli layers
        self.spans = 0

    def add_step(self, trace_dir, step):
        records = tracer.load_trace_dir(trace_dir)
        calls = {c.pid: c for c in step.calls}
        worker_solve = Counter()
        for rec in records:
            if rec["fork_parent"] is not None:
                worker_solve[rec["fork_parent"][0]] += sum(
                    s[4] - s[3] for s in rec["spans"] if s[2] == "explorer.solve_point")
        for rec in records:
            spans = rec["spans"]
            main = rec["fork_parent"] is None
            self.spans += len(spans)
            selfs = tracer.self_times(spans)
            for s, st in zip(spans, selfs):
                name = s[2]
                self.calls[name] += 1
                self.self_s[name] += st
                self.extra[name] += s[5]
                self.layer_self[name.split(".")[0]] += st
                if name == "dermod.alpha_rows":
                    if s[5]:
                        self.alpha_miss_s += s[4] - s[3]
                    if main:
                        self.alpha_main[0] += 1
                        self.alpha_main[1] += s[5]
                    else:
                        self.alpha_worker_misses += s[5]
            for i in tracer.outermost(spans):
                s = spans[i]
                self.incl[s[2]] += s[4] - s[3]
            if not main:
                continue
            call = calls[rec["pid"]]
            roots = [s for s in spans if s[1] < 0]
            startup = roots[0][3] - call.spawn if roots else 0.0
            self.startup += startup
            self.covered += startup + sum(
                st for s, st in zip(spans, selfs) if not s[2].startswith("cli."))
            if rec["pid"] in worker_solve:
                for s in spans:
                    if s[2] != "explorer.scan":
                        continue
                    children = sum(c[4] - c[3] for c in spans if c[1] == s[0])
                    self.pool_overhead += (s[4] - s[3]) - children - worker_solve[rec["pid"]] / JOBS

    def metrics(self, points, startup_s, traced_wall, untraced_wall, file_bytes):
        c, inc = self.calls.__getitem__, self.incl.__getitem__
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        m = {
            "cli.startup_s": (startup_s, "s"),
            "cli.self_s": (self.layer_self["cli"], "s"),
            "dermod.self_s": (self.layer_self["dermod"], "s"),
            "dermod.alpha_rows.misses": (self.alpha_main[1], "count"),
            "dermod.alpha_rows.worker_misses": (self.alpha_worker_misses, "count"),
            "dermod.alpha_rows.hit_ratio": (
                ratio(self.alpha_main[0] - self.alpha_main[1], self.alpha_main[0]), "ratio"),
            "dermod.alpha_rows.miss_s": (self.alpha_miss_s, "s"),
            "dermod.rows.s": (self.self_s["dermod.rows"], "s"),
            "dermod.minimal_degree.self_s": (self.self_s["dermod.minimal_degree"], "s"),
            "dermod.graded_dimension.calls": (c("dermod.graded_dimension"), "count"),
            "dermod.graded_dimension.calls_per_solve": (
                ratio(c("dermod.graded_dimension"), c("dermod.minimal_degree")), "calls/solve"),
            "dermod.exponents.calls": (c("dermod.exponents"), "count"),
            "dermod.exponents.s": (inc("dermod.exponents"), "s"),
            "dermod.exponents.calls_per_point": (
                ratio(c("dermod.exponents"), points), "calls/point"),
            "dermod.nullspace_derivations.s": (inc("dermod.nullspace_derivations"), "s"),
            "dermod.full_basis.calls": (c("dermod.full_basis"), "count"),
            "dermod.full_basis.s": (inc("dermod.full_basis"), "s"),
            "dermod.verify_saito.calls": (c("dermod.verify_saito"), "count"),
            "dermod.verify_saito.s": (inc("dermod.verify_saito"), "s"),
            "dermod.in_module.s": (inc("dermod.in_module"), "s"),
            "linalg.self_s": (self.layer_self["linalg"], "s"),
        }
        for fn in ("rank", "nullspace"):
            m[f"linalg.{fn}.calls"] = (c(f"linalg.{fn}"), "count")
            m[f"linalg.{fn}.s"] = (inc(f"linalg.{fn}"), "s")
            m[f"linalg.{fn}.cells"] = (self.extra[f"linalg.{fn}"], "count")
        m["linalg.invert_matrix.calls"] = (c("linalg.invert_matrix"), "count")
        m["linalg.invert_matrix.s"] = (inc("linalg.invert_matrix"), "s")
        m["poly.self_s"] = (self.layer_self["poly"], "s")
        m["poly.saito_determinant.calls"] = (c("poly.saito_determinant"), "count")
        for fn in ("saito_determinant", "defining_polynomial", "linear_form_multiplicity",
                   "apply_derivation"):
            m[f"poly.{fn}.s"] = (inc(f"poly.{fn}"), "s")
        m["explorer.self_s"] = (self.layer_self["explorer"], "s")
        m["explorer.scan.s"] = (inc("explorer.scan"), "s")
        m["explorer.pool.overhead_s"] = (self.pool_overhead, "s")
        for fn in ("components", "to_json", "from_json"):
            m[f"explorer.{fn}.s"] = (inc(f"explorer.{fn}"), "s")
        m["cache.self_s"] = (self.layer_self["cache"], "s")
        m["cache.put.calls"] = (c("cache.put"), "count")
        m["cache.put.s"] = (inc("cache.put"), "s")
        m["cache.file_bytes"] = (file_bytes, "bytes")
        m["cache.load.s"] = (inc("cache.load"), "s")
        m["cache.get.hits"] = (self.extra["cache.get"], "count")
        m["cache.get.misses"] = (c("cache.get") - self.extra["cache.get"], "count")
        m["theorems.self_s"] = (self.layer_self["theorems"], "s")
        for fn in ("check_covering_steps", "check_ball_structure", "check_singleton_gaps",
                   "check_basis_step_and_path", "check_independency", "certify_support",
                   "certify_centers", "reconstruct_components"):
            m[f"theorems.{fn}.s"] = (inc(f"theorems.{fn}"), "s")
        m["trace.coverage"] = (ratio(self.covered, traced_wall), "ratio")
        m["trace.startup_share"] = (ratio(self.startup, traced_wall), "ratio")
        m["trace.spans"] = (self.spans, "count")
        m["trace.traced_wall_s"] = (traced_wall, "s")
        m["trace.untraced_wall_s"] = (untraced_wall, "s")
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        m["trace.overhead_ratio"] = (ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
        return m


def startup_time(runner):
    """Median wall time of a fresh interpreter importing ``multilattice.cli``."""
    times = []
    for _ in range(STARTUP_REPEATS):
        _, _, wall, rc, _, _ = runner.spawn(
            [sys.executable, "-c", "import multilattice.cli"], runner.env())
        if rc != 0:
            raise RuntimeError("cannot import multilattice.cli")
        times.append(wall)
    return statistics.median(times)


# -- driver -------------------------------------------------------------------


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def run(args):
    workdir = fresh_dir(WORK / args.workload)
    runner = Runner(workdir)
    setup, plan, setup_repeats = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "jobs": JOBS, "git_rev": git_rev(),
            "python": sys.version.split()[0], "nproc": os.cpu_count()}

    if args.trace:
        made = setup(runner)
        startup_s = startup_time(runner)
        totals = LayerTotals()
        traced_wall = untraced_wall = 0.0
        points = file_bytes = 0
        for i, spec in enumerate(plan(rng, made)):
            untraced_wall += spec(runner, None).wall
            trace_dir = fresh_dir(workdir / f"trace-{i}")
            step = spec(runner, trace_dir)
            traced_wall += step.wall
            points += step.points
            file_bytes += step.cache_bytes
            totals.add_step(trace_dir, step)
        metrics = totals.metrics(points, startup_s, traced_wall, untraced_wall, file_bytes)
        info["samples"] = {"traced_steps": i + 1, "startup": STARTUP_REPEATS}
    else:
        # the host's speed, probed after every set-up and step (probe.py)
        yard = Yardstick()
        setup_times = []
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            made = setup(runner)
            setup_times.append(time.perf_counter() - t0)
            yard.after(setup_times[-1])
        steps, cycles = [], 0
        t0 = time.perf_counter()
        # whole cycles; one more only if it should end within half a cycle
        # of --seconds, so the run length stays close to --seconds
        while True:
            for spec in plan(rng, made):
                steps.append(spec(runner, None))
                yard.after(steps[-1].wall)
            cycles += 1
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / cycles >= args.seconds:
                break
        # a cycle's time from the median step of each kind, so one slow
        # step moves it little however few cycles fit in the run
        walls = {}
        for step in steps:
            walls.setdefault(step.kind, []).append(step.wall)
        cycle_wall = sum(statistics.median(w) * len(w) for w in walls.values()) / cycles
        setup_wall = statistics.median(setup_times)
        metrics = {
            "setup_s": (yard.scale(setup_wall), "s"),
            "cycle_s": (yard.scale(cycle_wall), "s"),
            "peak_rss_mb": (max(c.maxrss_mb for s in steps for c in s.calls), "MB"),
            "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
        }
        by_field = {}
        for step in steps:
            by_field.setdefault(step.field, []).append(step.wall)
        info["samples"] = {"setup": setup_repeats, "cycles": cycles,
                           **{f"{f}_steps": len(w) for f, w in by_field.items()},
                           "probes": yard.count(), "timed_s": time.perf_counter() - t0}
        info["wall_s"] = {"setup": setup_wall, "cycle": cycle_wall, "probe": yard.probe_s()}
        info["step_p50_s"] = {f: statistics.median(w) for f, w in by_field.items()}
    return runner, info, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multilattice" / "cli.py").is_file():
        print(f"error: no multilattice source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        runner, info, metrics = run(args)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    info["attempted"], info["failed"] = runner.attempted, runner.failed
    info["failed_ratio"] = runner.failed / runner.attempted
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6f} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (runner.workdir / "result.json").write_text(json.dumps({"info": info, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
