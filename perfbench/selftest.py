#!/usr/bin/env python3
"""Self-test of the benchmark tracer.

    python3 perfbench/selftest.py

Checks, printing one line each and exiting 1 on the first failure:

1. On toy functions: spans nest (each span's parent is its caller and lies
   around it), and the self times of all spans sum to the root span, which
   matches the wall time measured around it.
2. On the program, through ``traced_ml.py``: ``ml exponents`` records
   ``dermod.exponents`` under ``cli.run`` (``cli`` imports ``exponents`` by
   name) and ``linalg.rank`` under ``dermod.graded_dimension`` (``dermod``
   imports ``rank`` by name); ``ml scan --jobs 2`` leaves one span file per
   pool worker, each forked inside the main process's ``explorer.scan`` span,
   and per process the self times again sum to the top-level spans.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work" / "selftest"


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def leaf(seconds):
    busy(seconds)


def middle():
    leaf(0.01)  # looked up in this module's globals, like an imported alias
    busy(0.005)
    leaf(0.02)


def check_nesting(spans, where):
    by_id = {s[0]: s for s in spans}
    for s in spans:
        if s[1] >= 0:
            p = by_id[s[1]]
            if not (p[3] <= s[3] <= s[4] <= p[4]):
                check(False, f"{where}: span {s[2]} lies outside its parent {p[2]}")
    check(True, f"{where}: {len(spans)} spans nest inside their parents")


def check_self_sum(spans, where):
    total_self = sum(tracer.self_times(spans))
    top = sum(s[4] - s[3] for s in spans if s[1] < 0)
    check(abs(total_self - top) <= 1e-9 * max(1, len(spans)),
          f"{where}: self times sum to the top-level spans ({total_self:.6f} s)")


def toy():
    rec = tracer.Recorder()
    globals()["leaf"] = rec.wrap(leaf, "toy.leaf")
    traced_middle = rec.wrap(middle, "toy.middle")
    t0 = time.perf_counter()
    with rec.span("toy.root"):
        traced_middle()
        busy(0.005)
    wall = time.perf_counter() - t0
    spans = rec.spans
    names = [s[2] for s in spans]
    check(names == ["toy.root", "toy.middle", "toy.leaf", "toy.leaf"], f"toy: spans {names}")
    check([s[1] for s in spans] == [-1, 0, 1, 1], "toy: parents are root <- middle <- leaf")
    check_nesting(spans, "toy")
    check_self_sum(spans, "toy")
    root = spans[0][4] - spans[0][3]
    check(0 <= wall - root < 1e-3, f"toy: root span {root:.6f} s matches wall time {wall:.6f} s")
    selfs = tracer.self_times(spans)
    check(abs(selfs[1] - 0.005) < 2e-3 and abs(selfs[0] - 0.005) < 2e-3,
          f"toy: self times of root and middle are about 5 ms ({selfs[0]:.4f}, {selfs[1]:.4f})")


def traced_ml(trace_dir, *args):
    env = {k: v for k, v in os.environ.items() if k != "ML_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    trace_dir.mkdir(parents=True)
    proc = subprocess.run([sys.executable, str(BENCH / "traced_ml.py"), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    check(proc.returncode == 0, f"ml {' '.join(args)} exits 0")
    return tracer.load_trace_dir(trace_dir)


def name_of_parent(spans, s):
    return spans[s[1]][2] if s[1] >= 0 else None


def program():
    import shutil
    shutil.rmtree(WORK, ignore_errors=True)
    [rec] = traced_ml(WORK / "exponents", "exponents", "--coxeter", "B2", "3,2,2,1")
    spans = rec["spans"]
    check(any(s[2] == "dermod.exponents" and name_of_parent(spans, s) == "cli.run"
              for s in spans), "cli's alias of exponents is traced under cli.run")
    check(any(s[2] == "linalg.rank" and name_of_parent(spans, s) == "dermod.graded_dimension"
              for s in spans), "dermod's alias of rank is traced under graded_dimension")
    check_nesting(spans, "exponents")
    check_self_sum(spans, "exponents")

    records = traced_ml(WORK / "scan", "scan", "--coxeter", "B2", "--box", "2,2,2,2",
                        "--jobs", "2", "-o", str(WORK / "scan.json"))
    main, workers = records[0], records[1:]
    check(main["fork_parent"] is None and len(workers) == 2,
          f"scan --jobs 2 writes one main and two worker span files ({len(records)})")
    scan_ids = {s[0] for s in main["spans"] if s[2] == "explorer.scan"}
    for w in workers:
        check(w["fork_parent"][0] == main["pid"] and w["fork_parent"][1] in scan_ids,
              f"worker {w['pid']} forked inside explorer.scan of {main['pid']}")
        check_nesting(w["spans"], f"worker {w['pid']}")
        check_self_sum(w["spans"], f"worker {w['pid']}")
    solved = sum(1 for w in workers for s in w["spans"] if s[2] == "explorer.solve_point")
    check(solved == 81, f"workers traced {solved} of 81 solve_point calls")
    check_nesting(main["spans"], "scan main")
    check_self_sum(main["spans"], "scan main")


if __name__ == "__main__":
    toy()
    program()
    print("tracer self-test passed")
