"""Scan, component decomposition, sections, emission, determinism."""

import concurrent.futures
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from multilattice import cache as cache_module
from multilattice import dermod, explorer, lattice
from multilattice.coxeter import coxeter_arrangement
from multilattice.cache import ResultCache
from multilattice.dermod import exponents
from multilattice.errors import MultilatticeError, ParseError
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


def test_scan_covers_box(b2_scan):
    assert len(b2_scan.table) == 4 ** 4
    for mu, pr in b2_scan.table.items():
        assert pr.d1 + pr.d2 == sum(mu)
        assert pr.delta == pr.d2 - pr.d1 >= 0


def test_scan_parity(b2_scan):
    for mu, pr in b2_scan.table.items():
        assert pr.delta % 2 == sum(mu) % 2


def test_support_is_sorted_and_positive(b2_scan):
    sup = b2_scan.support()
    assert sup == sorted(sup)
    assert all(b2_scan.delta(mu) > 0 for mu in sup)


def test_json_roundtrip_and_schema(b2_scan):
    text = b2_scan.to_json()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["schema"] == 1
    assert "timing" not in text  # timing is in-memory only, for determinism
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


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("ctype,box", [("B2", (5,) * 4), ("G2", (2,) * 6)])
def test_scan_bytes_match_the_reference(tmp_path, real_pool, ctype, box):
    # perfbench/reference.json pins these bytes: every worker count, with a
    # fresh store attached or none, must reproduce them, and write the same
    # store file
    want = json.loads(REFERENCE.read_text())["scan_sha256"][f"{ctype} {','.join(map(str, box))}"]
    A = coxeter_arrangement(ctype)
    files = []
    for jobs in (1, 2):
        cache = ResultCache(tmp_path / f"jobs{jobs}")
        for given in (cache, None):
            dermod.attach_store(given)
            text = scan(A, box, jobs=jobs).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == want, (jobs, given)
        cache.write()
        files.append(cache.path.read_bytes())
    assert files[0] == files[1]
    assert real_pool == [2, 2]


def test_scan_writes_its_cache_lines_in_one_open(B2, tmp_path, monkeypatch):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", recording_open, raising=False)
    cache = ResultCache(tmp_path)
    dermod.attach_store(cache)
    scan(B2, (2, 2, 2, 2))
    assert opened == []  # no file is open while a pool may fork
    cache.write()
    assert opened == ["exponents.jsonl"]
    assert len(cache.path.read_text().splitlines()) == 3 ** 4


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
            assert comp.radius == b2_scan.delta(comp.center)
            expected = set(lattice.ball(comp.center, comp.radius, b2_scan.box))
            assert comp.members == expected


def test_known_ball_at_ones(b2_scan):
    comps = components(b2_scan)
    home = next(c for c in comps if (1, 1, 1, 1) in c.members)
    assert home.kind == "ball"
    assert home.center == (1, 1, 1, 1)
    assert home.radius == 2


def test_centers_unique(b2_scan):
    for entry in centers(b2_scan):
        assert entry.error is None
        assert entry.delta == b2_scan.delta(entry.center)


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
    deltas = [b2_scan.delta(p) for p in sec]
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
    comps = components(b2_scan)
    dot = to_dot(b2_scan, comps)
    assert dot.startswith("graph support {")
    assert "doublecircle" in dot  # centers are highlighted
    assert '"1,1,1,1"' in dot


def test_csv_export(b2_scan):
    csv = to_csv(b2_scan)
    lines = csv.strip().split("\n")
    assert lines[0] == "mu,d1,d2,delta,component,classification"
    assert len(lines) == 1 + 4 ** 4


def test_scan_box_length_mismatch(B2):
    with pytest.raises(ValueError):
        scan(B2, (3, 3))


def test_scan_with_cache_solves_each_pending_point_once(B2, tmp_path, monkeypatch):
    calls = []
    real = dermod._Walk.basis

    def counting(walk, mu):
        calls.append(tuple(mu))
        return real(walk, mu)

    monkeypatch.setattr(dermod._Walk, "basis", counting)
    monkeypatch.setattr(dermod, "_WALKS", {})
    cache = ResultCache(tmp_path)
    dermod.attach_store(cache)
    box = (2, 2, 2, 2)
    first = scan(B2, box, jobs=1)
    assert sorted(calls) == sorted(lattice.box_points(box))
    assert len(cache) == 3 ** 4
    for mu, pr in first.table.items():
        assert cache.get(B2, mu).as_pair() == (pr.d1, pr.d2)
    cache.write()
    calls.clear()
    # a fresh memo and the store read back from its file: only the store answers
    monkeypatch.setattr(dermod, "_WALKS", {})
    dermod.attach_store(ResultCache(tmp_path))
    assert scan(B2, box, jobs=1).to_json() == first.to_json()
    assert calls == []


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


def test_pooled_cache_file_equals_the_serial_one(tmp_path, real_pool, monkeypatch):
    # each store starts with a well-formed line for (1, ..., 1) whose
    # generator, all ones in dx, fails the membership test at x: whoever
    # looks it up, the process or a pool worker, rejects it, and the scan
    # appends one fresh line for the point in its place
    fs = FieldSpec.prime(101)
    arrangements = [coxeter_arrangement("G2"),
                    Arrangement.make(fs, [(1, 0), (0, 1), (1, 1), (1, 7), (1, 50)])]
    for i, A in enumerate(arrangements):
        mu = (1,) * len(A)
        seed = ResultCache(tmp_path / f"{i}-seed")
        seed.put(A, mu, exponents(A, mu))
        seed.write()
        fresh = seed.path.read_text()
        line = json.loads(fresh)
        line["theta"] = {"P": ["1"] * (line["d1"] + 1), "Q": []}
        bad = json.dumps(line) + "\n"
        files = []
        for jobs in (1, 2):
            monkeypatch.setattr(dermod, "_WALKS", {})  # the store, not the memo, answers
            cache = ResultCache(tmp_path / f"{i}-{jobs}")
            cache.directory.mkdir()
            cache.path.write_text(bad)
            dermod.attach_store(cache)
            scan(A, (2,) * len(A), jobs=jobs)
            cache.write()
            lines = cache.path.read_text().splitlines(keepends=True)
            assert lines[0] == bad and lines.count(fresh) == 1
            assert len(lines) == 1 + 3 ** len(A)
            files.append(cache.path.read_bytes())
        assert files[0] == files[1]
    assert real_pool == [2, 2]


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
