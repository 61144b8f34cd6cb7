"""Append-only JSON-lines store of exponent computations in a directory.

Nothing in the package calls it: the walk's memo is the solver's only memo,
and ``--cache-dir`` has no effect.  The module stays only because the
benchmark's tracer (perfbench/tracer.py) binds ResultCache.get, put and
_ensure_loaded by name; it goes when the tracer's targets are brought in
step with the code (ROADMAP item 1).

A put only queues its line, and write() appends the queue.  Entries are
keyed by (schema version, canonical arrangement hash, multiplicity) and
are fully re-derivable, so a last-write-wins policy is safe: concurrent
writers can only ever append identical values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .dermod import ExponentResult, in_module
from .field import FieldSpec
from .poly import Arrangement, Derivation, HomogPoly

SCHEMA_VERSION = 1


def serialize_derivation(fs: FieldSpec, theta: Derivation) -> dict:
    return {
        "P": [fs.format_scalar(c) for c in theta.P.coeffs],
        "Q": [fs.format_scalar(c) for c in theta.Q.coeffs],
    }


def parse_derivation(fs: FieldSpec, obj: dict) -> Derivation:
    P = HomogPoly.make(tuple(fs.parse_scalar(c) for c in obj["P"]))
    Q = HomogPoly.make(tuple(fs.parse_scalar(c) for c in obj["Q"]))
    return Derivation(P, Q)


def _parse_entry(obj: dict) -> Tuple[Tuple[str, Tuple[int, ...]], ExponentResult]:
    """Rebuild one cache line, checking it against the degree-sum identity.

    Raises KeyError, TypeError or ValueError (ParseError included) on a
    malformed or inconsistent entry.
    """
    fs = FieldSpec.from_json(obj["field"])
    arr, mu, non_unique = obj["arr"], obj["mu"], obj["non_unique"]
    d1, d2, delta = obj["d1"], obj["d2"], obj["delta"]
    if (not isinstance(arr, str) or not isinstance(mu, list) or not isinstance(non_unique, bool)
            or any(type(v) is not int for v in [*mu, d1, d2, delta])):
        raise TypeError("wrong-typed field")
    if d1 + d2 != sum(mu) or delta != d2 - d1:
        raise ValueError(f"exponents ({d1}, {d2}, delta {delta}) do not fit |mu|={sum(mu)}")
    if non_unique != (d1 == d2):
        raise ValueError(f"non_unique={non_unique} but the gap is {delta}")
    theta = parse_derivation(fs, obj["theta"])
    if theta.is_zero or theta.degree != d1:
        raise ValueError(f"theta is zero or not of degree d1={d1}")
    return (arr, tuple(mu)), ExponentResult(d1, d2, delta, theta, non_unique)


class ResultCache:
    """The exponents.jsonl store in a directory, read once into memory.

    A line read from disk is served only after
    its generator passes the membership test on its first lookup;
    ``rejected`` counts the lines skipped at load and the entries dropped
    by that test (exponents then re-solves them).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._mem: Dict[Tuple[str, Tuple[int, ...]], ExponentResult] = {}
        self._unchecked = set()  # keys read from disk, not yet looked up
        self._queue: List[Tuple[Arrangement, Tuple[int, ...], ExponentResult]] = []
        self._loaded = False
        self.rejected = 0

    @property
    def path(self) -> Path:
        return self.directory / "exponents.jsonl"

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    self.rejected += 1
                    continue  # torn write; entry is re-derivable
                if not isinstance(obj, dict) or obj.get("schema") != SCHEMA_VERSION:
                    continue
                try:
                    key, result = _parse_entry(obj)
                except (KeyError, TypeError, ValueError):
                    self.rejected += 1
                    continue  # malformed or inconsistent; entry is re-derivable
                self._mem[key] = result
                self._unchecked.add(key)

    def get(self, A: Arrangement, mu: Tuple[int, ...]) -> Optional[ExponentResult]:
        self._ensure_loaded()
        key = (A.canonical_hash(), tuple(mu))
        if key in self._unchecked:
            self._unchecked.discard(key)
            if not in_module(A, key[1], self._mem[key].theta_min):
                del self._mem[key]
                self.rejected += 1
        return self._mem.get(key)

    def put(self, A: Arrangement, mu: Tuple[int, ...], result: ExponentResult) -> None:
        """Keep a solved result and queue its line, unless the store holds
        an equal one (a held entry that differs was rejected where solved)."""
        self._ensure_loaded()
        key = (A.canonical_hash(), tuple(mu))
        if self._mem.get(key) == result:
            return
        self._mem[key] = result
        self._queue.append((A, key[1], result))

    def write(self) -> None:
        """Append the queued lines to the file in one write."""
        if not self._queue:
            return
        lines = []
        for A, mu, result in self._queue:
            entry = {
                "schema": SCHEMA_VERSION,
                "arr": A.canonical_hash(),
                "mu": list(mu),
                "field": A.field.to_json(),
                "d1": result.d1,
                "d2": result.d2,
                "delta": result.delta,
                "non_unique": result.non_unique,
                "theta": serialize_derivation(A.field, result.theta_min),
            }
            lines.append(json.dumps(entry, sort_keys=True) + "\n")
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write("".join(lines))
        self._queue.clear()
