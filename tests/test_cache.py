"""Persistent result cache: persistence, env configuration, robustness."""

import json

import pytest

from multilattice.cache import ENV_CACHE_DIR, SCHEMA_VERSION, ResultCache
from multilattice.dermod import exponents


def test_memory_only_by_default():
    c = ResultCache(use_env=False)
    assert c.path is None
    assert len(c) == 0


def test_put_get_roundtrip_in_memory(B2):
    c = ResultCache(use_env=False)
    mu = (1, 1, 1, 1)
    res = exponents(B2, mu)
    c.put(B2, mu, res)
    assert c.get(B2, mu) == res
    assert c.get(B2, (0, 0, 0, 0)) is None
    assert len(c) == 1


def test_put_is_idempotent(B2):
    c = ResultCache(use_env=False)
    mu = (1, 1, 1, 1)
    res = exponents(B2, mu)
    c.put(B2, mu, res)
    c.put(B2, mu, res)
    assert len(c) == 1


def test_jsonl_persistence_roundtrip(B2, G2, tmp_path):
    c = ResultCache(str(tmp_path))
    for A, mu in [(B2, (1, 1, 1, 1)), (B2, (2, 1, 0, 3)),
                  (G2, (1, 1, 1, 1, 1, 1))]:
        c.put(A, mu, exponents(A, mu))
    assert c.path.exists()
    # a fresh cache instance reloads everything, including the generator
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 3
    for A, mu in [(B2, (1, 1, 1, 1)), (G2, (1, 1, 1, 1, 1, 1))]:
        assert reloaded.get(A, mu) == exponents(A, mu)


def test_env_variable_configures_directory(B2, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
    c = ResultCache()
    assert c.path == tmp_path / "exponents.jsonl"
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    assert c.path.exists()


def test_torn_write_and_foreign_schema_are_skipped(B2, tmp_path):
    c = ResultCache(str(tmp_path))
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    with open(c.path, "a") as fh:
        fh.write('{"schema": 1, "arr": "tru')  # torn write
        fh.write("\n")
        fh.write(json.dumps({"schema": SCHEMA_VERSION + 1}) + "\n")
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 1
    assert reloaded.get(B2, (1, 1, 1, 1)) == exponents(B2, (1, 1, 1, 1))


def test_clear_removes_file_and_entries(B2, tmp_path):
    c = ResultCache(str(tmp_path))
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    assert c.path.exists()
    c.clear()
    assert len(c) == 0
    assert not c.path.exists()


def test_distinct_arrangements_do_not_collide(B2, G2, tmp_path):
    c = ResultCache(str(tmp_path))
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    assert c.get(G2, (1, 1, 1, 1)) is None  # different key despite same mu shape


def test_malformed_and_inconsistent_lines_are_skipped(B2, tmp_path):
    src = ResultCache(str(tmp_path / "src"))
    src.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))  # exponents (1, 3)
    good = json.loads(src.path.read_text())

    def variant(**changes):
        return json.dumps({**good, **changes})

    bad_lines = [
        '{"schema":1,"arr":"x","mu":[1,1,1,1]}',             # missing keys
        variant(d1="1"),                                      # wrong-typed scalar
        variant(mu="1,1,1,1"),
        variant(field={"type": "quadratic"}),
        variant(theta={"P": ["1/0"], "Q": ["0"]}),            # unparsable scalar
        variant(theta={"P": ["1"]}),
        variant(d1=0, d2=3, delta=3),                         # d1 + d2 != |mu|
        variant(delta=0),                                     # delta != d2 - d1
        variant(theta={"P": ["0", "0"], "Q": ["0", "0"]}),    # zero theta
        variant(theta={"P": ["0", "0", "1"], "Q": ["0", "0", "0"]}),  # degree 2 != d1
        "[1, 2]",
    ]
    c = ResultCache(str(tmp_path))
    c.directory.mkdir(parents=True, exist_ok=True)
    c.path.write_text("\n".join(bad_lines) + "\n")
    assert len(c) == 0
    assert c.get(B2, (1, 1, 1, 1)) is None
    assert exponents(B2, (1, 1, 1, 1), cache=c) == exponents(B2, (1, 1, 1, 1))
    assert len(ResultCache(str(tmp_path))) == 1  # the fresh solve was appended


def test_cached_generator_outside_the_module_is_resolved_again(B2, tmp_path):
    mu = (2, 1, 2, 1)
    want = exponents(B2, mu)
    src = ResultCache(str(tmp_path / "src"))
    src.put(B2, mu, want)
    line = json.loads(src.path.read_text())
    assert line["d1"] == 3
    # well-formed and of degree d1, but x^3 + x^2*y + x*y^2 + y^3 dx is not in the module
    line["theta"] = {"P": ["1", "1", "1", "1"], "Q": []}
    c = ResultCache(str(tmp_path))
    c.directory.mkdir(parents=True, exist_ok=True)
    c.path.write_text(json.dumps(line) + "\n")
    assert len(c) == 1 and c.rejected == 0
    assert c.get(B2, mu) is None
    assert c.rejected == 1 and len(c) == 0
    assert exponents(B2, mu, cache=c) == want
    assert len(c.path.read_text().splitlines()) == 2  # the fresh solve was appended
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get(B2, mu) == want and reloaded.rejected == 0
