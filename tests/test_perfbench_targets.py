"""Every entry point the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` resolves its TARGETS with ``getattr`` and no
default, so a renamed or deleted function only breaks ``--trace 1`` runs.
The list is read from the file's source; the tracer is not installed.
"""

import ast
import importlib
import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACER}")


TARGETS = tracer_targets()


@pytest.mark.parametrize("modname,attr,name,kind", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(modname, attr, name, kind):
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        member = getattr(mod, cls_name).__dict__[meth]
        if kind == "classmethod":
            assert isinstance(member, classmethod)
            member = member.__func__
    else:
        member = getattr(mod, attr)
    assert callable(member)


def test_tracer_follows_pool_workers(tmp_path):
    # The tracer wraps explorer._solve_point and finds it again in each pool
    # worker, so a pool must map that module-level function.  Its own
    # self-test scans a box that is now walked in-process, so the pool is
    # forced here with one point per worker.
    bench = TRACER.parent
    code = ("import runpy, sys\n"
            f"sys.path.insert(0, {str(bench)!r})\n"
            "from multilattice import explorer\n"
            "explorer._MIN_POINTS_PER_WORKER = 1\n"
            "explorer._usable_cpus = lambda: 2\n"
            "sys.argv = ['ml', 'scan', '--coxeter', 'B2', '--box', '2,2,2,2', '--jobs', '2',"
            " '-o', sys.argv[1]]\n"
            f"runpy.run_path({str(bench / 'traced_ml.py')!r}, run_name='__main__')\n")
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scan.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = [marshal.loads(p.read_bytes()) for p in tmp_path.glob("spans-*.marshal")]
    [main] = [r for r in records if r["fork_parent"] is None]
    workers = [r for r in records if r["fork_parent"] is not None]
    scan_ids = {s[0] for s in main["spans"] if s[2] == "explorer.scan"}
    assert len(workers) == 2
    assert all(w["fork_parent"][0] == main["pid"] and w["fork_parent"][1] in scan_ids
               for w in workers)
    assert sum(s[2] == "explorer.solve_point" for w in workers for s in w["spans"]) == 81
