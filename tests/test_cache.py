"""The exponents.jsonl store: persistence and robustness.

No command uses the store any more; it stays while the benchmark's tracer
binds its methods, and these tests keep what is left of it honest.
"""

import json

from multilattice.cache import SCHEMA_VERSION, ResultCache
from multilattice.dermod import exponents


def test_put_get_roundtrip_in_memory(B2, tmp_path):
    c = ResultCache(tmp_path)
    mu = (1, 1, 1, 1)
    res = exponents(B2, mu)
    c.put(B2, mu, res)
    assert c.get(B2, mu) == res
    assert c.get(B2, (0, 0, 0, 0)) is None


def test_put_is_idempotent(B2, tmp_path):
    c = ResultCache(tmp_path)
    mu = (1, 1, 1, 1)
    res = exponents(B2, mu)
    c.put(B2, mu, res)
    c.write()
    c.put(B2, mu, res)
    c.write()
    assert len(c.path.read_text().splitlines()) == 1


def test_jsonl_persistence_roundtrip(B2, G2, tmp_path):
    c = ResultCache(str(tmp_path))
    for A, mu in [(B2, (1, 1, 1, 1)), (B2, (2, 1, 0, 3)),
                  (G2, (1, 1, 1, 1, 1, 1))]:
        c.put(A, mu, exponents(A, mu))
    assert not c.path.exists()  # a put only queues its line
    c.write()
    assert c.path.exists()
    # a fresh cache instance reloads everything, including the generator
    reloaded = ResultCache(str(tmp_path))
    for A, mu in [(B2, (1, 1, 1, 1)), (B2, (2, 1, 0, 3)), (G2, (1, 1, 1, 1, 1, 1))]:
        assert reloaded.get(A, mu) == exponents(A, mu)


def test_torn_write_and_foreign_schema_are_skipped(B2, tmp_path):
    c = ResultCache(str(tmp_path))
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    c.write()
    with open(c.path, "a") as fh:
        fh.write('{"schema": 1, "arr": "tru')  # torn write
        fh.write("\n")
        fh.write(json.dumps({"schema": SCHEMA_VERSION + 1}) + "\n")
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get(B2, (1, 1, 1, 1)) == exponents(B2, (1, 1, 1, 1))
    assert reloaded.rejected == 1  # the torn line; a foreign schema is not counted


def test_distinct_arrangements_do_not_collide(B2, G2, tmp_path):
    c = ResultCache(str(tmp_path))
    c.put(B2, (1, 1, 1, 1), exponents(B2, (1, 1, 1, 1)))
    assert c.get(G2, (1, 1, 1, 1)) is None  # different key despite same mu shape


def test_malformed_and_inconsistent_lines_are_skipped(B2, tmp_path):
    src = ResultCache(str(tmp_path / "src"))
    want = exponents(B2, (1, 1, 1, 1))  # exponents (1, 3)
    src.put(B2, (1, 1, 1, 1), want)
    src.write()
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
        variant(non_unique=True),                             # flagged, but d1 != d2
        variant(theta={"P": ["0", "0"], "Q": ["0", "0"]}),    # zero theta
        variant(theta={"P": ["0", "0", "1"], "Q": ["0", "0", "0"]}),  # degree 2 != d1
        "[1, 2]",
    ]
    c = ResultCache(str(tmp_path))
    c.directory.mkdir(parents=True, exist_ok=True)
    c.path.write_text("\n".join(bad_lines) + "\n")
    assert c.get(B2, (1, 1, 1, 1)) is None
    assert c.rejected == len(bad_lines) - 1  # "[1, 2]" is not a cache entry at all
    c.put(B2, (1, 1, 1, 1), want)
    c.write()
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get(B2, (1, 1, 1, 1)) == want  # the fresh line was appended
    assert reloaded.rejected == len(bad_lines) - 1


def test_cached_generator_outside_the_module_is_resolved_again(B2, tmp_path):
    mu = (2, 1, 2, 1)
    want = exponents(B2, mu)
    src = ResultCache(str(tmp_path / "src"))
    src.put(B2, mu, want)
    src.write()
    line = json.loads(src.path.read_text())
    assert line["d1"] == 3
    # well-formed and of degree d1, but x^3 + x^2*y + x*y^2 + y^3 dx is not in the module
    line["theta"] = {"P": ["1", "1", "1", "1"], "Q": []}
    c = ResultCache(str(tmp_path))
    c.directory.mkdir(parents=True, exist_ok=True)
    c.path.write_text(json.dumps(line) + "\n")
    c._ensure_loaded()
    assert c.rejected == 0  # well formed: rejected only on its first lookup
    assert c.get(B2, mu) is None
    assert c.rejected == 1
    c.put(B2, mu, want)
    c.write()
    assert len(c.path.read_text().splitlines()) == 2  # the fresh solve was appended
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get(B2, mu) == want and reloaded.rejected == 0

