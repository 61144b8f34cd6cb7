"""Scan, component decomposition, sections, emission, determinism."""

import concurrent.futures
import hashlib
import json
from pathlib import Path

import pytest

from multilattice import cache as cache_module
from multilattice import explorer, lattice
from multilattice.coxeter import coxeter_arrangement
from multilattice.cache import ResultCache
from multilattice.errors import NotUnimodal, ParseError, PointNotInComponent
from multilattice.explorer import (
    ScanResult,
    centers,
    components,
    peak_element,
    scan,
    section,
    to_csv,
    to_dot,
)


@pytest.fixture(scope="module")
def b2_scan(B2, session_cache):
    return scan(B2, (3, 3, 3, 3), cache=session_cache)


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


def test_scan_determinism_across_workers(B2):
    texts = {scan(B2, (2, 2, 2, 2), jobs=j).to_json() for j in (1, 3)}
    assert len(texts) == 1


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("ctype,box", [("B2", (5,) * 4), ("G2", (2,) * 6)])
def test_scan_bytes_match_the_reference(tmp_path, ctype, box):
    # perfbench/reference.json pins these bytes: every worker count, with a
    # fresh cache, must reproduce them and write the same cache file
    want = json.loads(REFERENCE.read_text())["scan_sha256"][f"{ctype} {','.join(map(str, box))}"]
    A = coxeter_arrangement(ctype)
    files = []
    for jobs in (1, 2):
        cache = ResultCache(tmp_path / f"jobs{jobs}")
        text = scan(A, box, jobs=jobs, cache=cache).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == want, jobs
        files.append(cache.path.read_bytes())
    assert files[0] == files[1]


def test_scan_writes_its_cache_lines_in_one_open(B2, tmp_path, monkeypatch):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", recording_open, raising=False)
    cache = ResultCache(tmp_path)
    scan(B2, (2, 2, 2, 2), cache=cache)
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


def test_scan_with_cache_solves_each_pending_point_once(B2, monkeypatch):
    calls = []
    real = explorer.exponents

    def counting(A, mu, cache=None):
        calls.append(tuple(mu))
        return real(A, mu, cache=cache)

    monkeypatch.setattr(explorer, "exponents", counting)
    cache = ResultCache(use_env=False)
    box = (2, 2, 2, 2)
    first = scan(B2, box, jobs=1, cache=cache)
    assert sorted(calls) == sorted(lattice.box_points(box))
    assert len(cache) == 3 ** 4
    for mu, pr in first.table.items():
        assert cache.get(B2, mu).as_pair() == (pr.d1, pr.d2)
    calls.clear()
    assert scan(B2, box, jobs=1, cache=cache).to_json() == first.to_json()
    assert calls == []


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_scan_bounds_worker_count(B2, monkeypatch):
    # scan imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 3)
    want = scan(B2, (1, 1, 1, 1)).to_json()
    assert scan(B2, (1, 1, 1, 1), jobs=5000).to_json() == want
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: 64)
    scan(B2, (1, 0, 0, 0), jobs=5000)  # two pending points
    scan(B2, (0, 0, 0, 0), jobs=5000)  # one point: solved in-process
    assert RecordingPool.sizes == [3, 2]


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
