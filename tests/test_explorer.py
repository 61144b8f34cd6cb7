"""Scan, component decomposition, sections, emission, determinism."""

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from multilattice import dermod, explorer, lattice
from multilattice.coxeter import coxeter_arrangement
from multilattice.errors import MultilatticeError, ParseError, PreconditionViolated
from multilattice.field import FieldSpec
from multilattice.poly import Arrangement
from multilattice.explorer import (
    Component,
    ScanResult,
    centers,
    components,
    scan,
    to_csv,
    to_dot,
)


@pytest.fixture(scope="module")
def b2_scan(B2):
    return scan(B2, (3, 3, 3, 3))


def test_scan_covers_box(B2, b2_scan):
    # the table holds the gap alone, one int per point
    assert len(b2_scan.table) == 4 ** 4
    for mu, gap in b2_scan.table.items():
        d1, d2 = dermod.exponent_pair(B2, mu)
        assert type(gap) is int and gap == d2 - d1 >= 0


def test_scan_parity(b2_scan):
    for mu, gap in b2_scan.table.items():
        assert gap % 2 == sum(mu) % 2


def test_support_is_sorted_and_positive(b2_scan):
    sup = b2_scan.support()
    assert sup == sorted(sup)
    assert all(b2_scan.table[mu] > 0 for mu in sup)


def test_json_roundtrip_and_schema(b2_scan):
    text = b2_scan.to_json()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["schema"] == 1
    assert "timing" not in text  # ml scan times its call and reports it on stderr only
    back = ScanResult.from_json(text)
    assert back.table == b2_scan.table
    assert back.box == b2_scan.box
    assert back.to_json() == text


def test_from_json_rejects_unknown_schema(b2_scan):
    obj = json.loads(b2_scan.to_json())
    obj["schema"] = 99
    with pytest.raises(ParseError):
        ScanResult.from_json(json.dumps(obj))


def test_scan_determinism_across_workers(B2, real_pool):
    texts = {scan(B2, (2, 2, 2, 2), jobs=j).to_json() for j in (1, 3)}
    assert len(texts) == 1
    assert len(real_pool) == 1 and real_pool[0] >= 2


def _f101():
    return Arrangement.make(FieldSpec.prime(101), [(1, 0), (0, 1), (1, 1), (1, 7), (1, 50)])


def test_pool_workers_return_gaps(G2, real_pool):
    # a worker sends back the gap alone, an int, and the pooled table is
    # the in-process one over a quadratic and a prime field alike
    explorer._init_worker(G2)
    assert explorer._solve_point((1,) * 6) == 4  # exponents (1, 5)
    for arr in (G2, _f101()):
        box = (2,) * len(arr)
        assert scan(arr, box, jobs=2).to_json() == scan(arr, box, jobs=1).to_json()
    assert real_pool == [2, 2]


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _no_generator(*args):
    raise AssertionError("a scan built a generator")


@pytest.mark.parametrize("ctype,box", [("B2", (5,) * 4), ("G2", (2,) * 6)])
def test_scan_bytes_match_the_reference(real_pool, monkeypatch, ctype, box):
    # perfbench/reference.json pins these bytes: every worker count must
    # reproduce them, on exponent pairs alone (workers fork after the patch)
    want = json.loads(REFERENCE.read_text())["scan_sha256"][f"{ctype} {','.join(map(str, box))}"]
    A = coxeter_arrangement(ctype)
    monkeypatch.setattr(dermod._Walk, "derivation", _no_generator)
    for jobs in (1, 2):
        monkeypatch.setattr(dermod, "_WALKS", {})
        text = scan(A, box, jobs=jobs).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == want, jobs
    assert real_pool == [2]


def test_components_partition_support(b2_scan):
    comps = components(b2_scan)
    seen = set()
    for comp in comps:
        assert not (comp.members & seen)
        seen |= comp.members
    assert seen == set(b2_scan.support())


def test_component_kinds(b2_scan):
    comps = components(b2_scan)
    kinds = {c.kind for c in comps}
    assert "ball" in kinds and "cone" in kinds
    for comp in comps:
        if comp.kind == "cone":
            assert comp.cone_h is not None
            assert any(lattice.cone_index(mu) == comp.cone_h for mu in comp.members)
        if comp.kind == "ball":
            assert comp.center in comp.members
            assert comp.radius == b2_scan.table[comp.center]
            expected = set(lattice.ball(comp.center, comp.radius, b2_scan.box))
            assert comp.members == expected


def test_known_ball_at_ones(b2_scan):
    comps = components(b2_scan)
    home = next(c for c in comps if (1, 1, 1, 1) in c.members)
    assert home.kind == "ball"
    assert home.center == (1, 1, 1, 1)
    assert home.radius == 2


def test_centers_unique(b2_scan):
    balls = centers(b2_scan)
    assert balls == [c for c in components(b2_scan) if c.kind == "ball"]
    for ball in balls:
        assert ball.maximizers == (ball.center,)
        assert ball.radius == b2_scan.table[ball.center]


class PointNotInComponent(MultilatticeError, ValueError):
    pass


class NotUnimodal(MultilatticeError, RuntimeError):
    """Theorem-violation report: a section's gap profile is not unimodal."""


def section(comp: Component, mu, h: int):
    """Members of the component agreeing with mu off h, ordered by mu_h."""
    if mu not in comp.members:
        raise PointNotInComponent(f"{mu} is not in the component")
    rest = mu[:h] + mu[h + 1:]
    picked = [nu for nu in comp.members if nu[:h] + nu[h + 1:] == rest]
    return sorted(picked, key=lambda nu: nu[h])


def peak_element(section_points, delta_vals):
    """The unique maximizer along a section; the gap must be unimodal there."""
    if not section_points or len(section_points) != len(delta_vals):
        raise NotUnimodal("section and gap values must align and be nonempty")
    m = max(delta_vals)
    peaks = [i for i, v in enumerate(delta_vals) if v == m]
    if len(peaks) != 1:
        raise NotUnimodal(f"maximizer not unique: {delta_vals}")
    k = peaks[0]
    rising = list(delta_vals[: k + 1])
    falling = list(delta_vals[k:])
    if rising != sorted(rising) or falling != sorted(falling, reverse=True):
        raise NotUnimodal(f"gap values not unimodal: {delta_vals}")
    return section_points[k]


def test_section_and_peak(b2_scan):
    comps = components(b2_scan)
    home = next(c for c in comps if (1, 1, 1, 1) in c.members)
    sec = section(home, (1, 1, 1, 1), 0)
    assert sec == [(0, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1)]
    deltas = [b2_scan.table[p] for p in sec]
    assert peak_element(sec, deltas) == (1, 1, 1, 1)
    with pytest.raises(PointNotInComponent):
        section(home, (3, 3, 3, 3), 0)


def test_peak_element_rejects_non_unimodal():
    pts = [(0,), (1,), (2,)]
    with pytest.raises(NotUnimodal):
        peak_element(pts, [1, 0, 1])
    with pytest.raises(NotUnimodal):
        peak_element(pts, [1, 1, 0])  # maximizer not unique
    with pytest.raises(NotUnimodal):
        peak_element([], [])


def test_dot_export(b2_scan):
    dot = to_dot(b2_scan)
    assert dot.startswith("graph support {")
    assert "doublecircle" in dot  # centers are highlighted
    assert '"1,1,1,1"' in dot


def test_csv_export(b2_scan):
    lines = to_csv(b2_scan).strip().split("\n")
    assert lines[0] == "mu,d1,d2,delta,component,classification"
    assert len(lines) == 1 + 4 ** 4


@pytest.mark.parametrize("arrangement,box", [(lambda: coxeter_arrangement("G2"), (2,) * 6),
                                             (_f101, (3,) * 5)], ids=["G2", "F101"])
def test_csv_exponents_match_the_walk(arrangement, box):
    # the CSV derives d1 and d2 from the gap; each row must hold the
    # walk's exponent pair
    A = arrangement()
    header, *rows = csv.reader(io.StringIO(to_csv(scan(A, box))))
    assert header[:4] == ["mu", "d1", "d2", "delta"]
    assert len(rows) == math.prod(b + 1 for b in box)
    for row in rows:
        mu = lattice.parse_multiplicity(row[0], len(A))
        d1, d2, gap = map(int, row[1:4])
        assert (d1, d2) == dermod.exponent_pair(A, mu) and gap == d2 - d1, row


def test_scan_box_length_mismatch(B2):
    with pytest.raises(ValueError):
        scan(B2, (3, 3))


def no_enumeration(box):
    raise AssertionError(f"enumerated the points of {box}")


def test_scan_refuses_a_box_past_its_bound_before_enumerating(B2, monkeypatch):
    # B2 [0,31]^4 is within the bound; a box of one point more than the
    # bound, or of 10**24 points, is refused before any point is made, and
    # a box of the bound's size is enumerated
    assert 32 ** 4 <= explorer.MAX_SCAN_POINTS < 10 ** 24
    monkeypatch.setattr(lattice, "box_points", no_enumeration)
    for box in [(10 ** 6,) * 4, (explorer.MAX_SCAN_POINTS, 0, 0, 0)]:
        with pytest.raises(PreconditionViolated, match="a scan takes at most"):
            scan(B2, box)
    with pytest.raises(AssertionError, match="enumerated"):
        scan(B2, (explorer.MAX_SCAN_POINTS - 1, 0, 0, 0))


def test_scan_with_cache_solves_each_pending_point_once(B2, monkeypatch):
    # the walk's memo is the cache: a box-order scan takes one step per
    # point past the origin, and a second scan of the box takes none
    steps = []
    real = dermod._Walk.step

    def counting(walk, state, h, m):
        steps.append(h)
        return real(walk, state, h, m)

    monkeypatch.setattr(dermod._Walk, "step", counting)
    monkeypatch.setattr(dermod, "_WALKS", {})
    box = (2, 2, 2, 2)
    first = scan(B2, box, jobs=1)
    assert len(steps) == 3 ** 4 - 1
    steps.clear()
    assert scan(B2, box, jobs=1).to_json() == first.to_json()
    assert steps == []
    assert dermod._walk(B2).results == {}  # a scan keeps no generator


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the number
    of tasks map cuts its input into, and runs in-process."""

    sizes = []
    tasks = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.tasks.append(-(-len(items) // chunksize))
        return map(fn, items)


def test_scan_bounds_worker_count(B2, monkeypatch):
    # scan imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(explorer, "_MIN_POINTS_PER_WORKER", 1)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "tasks", [])
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 3)
    want = scan(B2, (1, 1, 1, 1)).to_json()
    assert scan(B2, (1, 1, 1, 1), jobs=5000).to_json() == want
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 64)
    scan(B2, (1, 0, 0, 0), jobs=5000)  # two pending points
    scan(B2, (0, 0, 0, 0), jobs=5000)  # one point: solved in-process
    assert RecordingPool.sizes == [3, 2]


def test_scan_below_the_break_even_starts_no_pool(B2, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "tasks", [])
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(explorer, "_MIN_POINTS_PER_WORKER", 10)
    scan(B2, (1, 1, 1, 1), jobs=2)  # 16 points: one worker's worth
    scan(B2, (1, 1, 2, 1), jobs=2)  # 24 points: two workers
    scan(B2, (1, 1, 2, 2), jobs=5000)  # 36 points: three workers
    assert RecordingPool.sizes == [2, 3]
    assert RecordingPool.tasks == [2, 3]  # one contiguous run per worker


# sha256 of the B2 [0,3]^4 scan JSON, as written when every scanned point
# still built its generator
B2_3_SHA256 = "4b1a4d00a2a5cf9ec75a344c9c83eb447768eb9a62631abfbc48a26668d0a964"


def test_scan_reads_pairs_and_builds_no_generator(B2, monkeypatch):
    # in-process and through the stand-in pool alike, a scan never calls
    # _Walk.derivation, and its bytes are the ones it wrote when it did
    monkeypatch.setattr(dermod._Walk, "derivation", _no_generator)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "tasks", [])
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 2)
    for pooled in (False, True):
        monkeypatch.setattr(explorer, "_MIN_POINTS_PER_WORKER", 1 if pooled else 10 ** 6)
        monkeypatch.setattr(dermod, "_WALKS", {})
        text = scan(B2, (3, 3, 3, 3), jobs=2).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == B2_3_SHA256, pooled
    assert RecordingPool.sizes == [2]


def test_small_scan_leaves_out_the_process_pool(tmp_path):
    # B2 [0,5]^4 is below the break-even, so --jobs 2 walks it in-process
    code = ("import sys\n"
            "from multilattice import cli\n"
            "sys.argv = ['ml', 'scan', '--coxeter', 'B2', '--box', '5,5,5,5', '--jobs', '2',"
            " '-o', sys.argv[1]]\n"
            "try:\n    cli.run()\nexcept SystemExit as exc:\n    assert not exc.code, exc.code\n"
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert len(ScanResult.from_json((tmp_path / "s.json").read_text()).table) == 6 ** 4


def test_usable_cpus_is_positive():
    assert explorer._usable_cpus() >= 1


MALFORMED_SCANS = {
    "no-arrangement": lambda obj: obj.pop("arrangement"),
    "no-points": lambda obj: obj.pop("points"),
    "no-box": lambda obj: obj.pop("box"),
    "no-d1": lambda obj: obj["points"][0].pop("d1"),
    "arrangement-list": lambda obj: obj.__setitem__("arrangement", []),
    "points-object": lambda obj: obj.__setitem__("points", {}),
    "box-string": lambda obj: obj.__setitem__("box", "1,1"),
    "d1-string": lambda obj: obj["points"][0].__setitem__("d1", "0"),
    "delta-bool": lambda obj: obj["points"][0].__setitem__("delta", True),
    "mu-string": lambda obj: obj["points"][0].__setitem__("mu", "0,0"),
    "row-list": lambda obj: obj["points"].__setitem__(0, [0, 0]),
    "row-missing": lambda obj: obj["points"].pop(),
    "row-twice": lambda obj: obj["points"].append(obj["points"][0]),
    "row-outside-box": lambda obj: obj["points"][0].__setitem__("mu", [2, 0]),
    "box-too-long": lambda obj: obj.__setitem__("box", [1, 1, 0]),
    "box-negative": lambda obj: obj.update(box=[-1, 0], points=[]),
    "form-short": lambda obj: obj["arrangement"].__setitem__("forms", [["1"]]),
    "field-no-d": lambda obj: obj["arrangement"]["field"].__setitem__("type", "quadratic"),
    # the last row is mu = (1, 1), with exponents (1, 1)
    "exponents-off-sum": lambda obj: obj["points"][-1].update(d1=100, d2=-50, delta=7),
    "d1-not-sum": lambda obj: obj["points"][-1].update(d1=2),
    "delta-not-gap": lambda obj: obj["points"][-1].update(delta=2),
    "d1-above-d2": lambda obj: obj["points"][-1].update(d1=2, d2=0, delta=-2),
    "d1-negative": lambda obj: obj["points"][-1].update(d1=-1, d2=3, delta=4),
    "no-hash": lambda obj: obj.pop("arrangement_hash"),
    # a valid arrangement, but not the one the rows were scanned on
    "form-edited": lambda obj: obj["arrangement"]["forms"].__setitem__(1, ["1", "1"]),
}


@pytest.mark.parametrize("mutate", MALFORMED_SCANS.values(), ids=MALFORMED_SCANS.keys())
def test_from_json_rejects_malformed_fields(boolean, mutate):
    obj = json.loads(scan(boolean, (1, 1)).to_json())
    mutate(obj)
    with pytest.raises(ParseError):
        ScanResult.from_json(json.dumps(obj))


@pytest.mark.parametrize("text", ["not json", "", "[1, 2]", "3", '{"schema":1}'])
def test_from_json_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        ScanResult.from_json(text)


def test_from_json_counts_the_rows_before_it_enumerates_the_box(boolean, monkeypatch):
    # a huge box with few rows is rejected by its point count; enumerating
    # its points would exhaust memory
    obj = json.loads(scan(boolean, (1, 1)).to_json())
    obj.update(box=[10 ** 9, 10 ** 9], points=obj["points"][:1])
    monkeypatch.setattr(lattice, "box_points", no_enumeration)
    with pytest.raises(ParseError, match="every point of the box once"):
        ScanResult.from_json(json.dumps(obj))
