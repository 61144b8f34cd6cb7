"""The built-in realizations of the rank-2 Coxeter arrangements.

The types A1xA1, A2, B2 and G2; G2 needs sqrt(3), so it lives over the
quadratic extension.  This module imports neither the solver nor the group
and certificate code of coxeter, so a command given --coxeter loads only
this table.
"""

from __future__ import annotations

from typing import Optional

from .errors import FieldMismatch
from .field import FieldSpec
from .poly import Arrangement

COXETER_TYPES = ("A1A1", "A2", "B2", "G2")


def coxeter_arrangement(ctype: str, fs: Optional[FieldSpec] = None) -> Arrangement:
    """The built-in realization of a rank-2 Coxeter arrangement."""
    ctype = ctype.upper().replace("X", "")
    if ctype == "G2":
        if fs is None:
            fs = FieldSpec.quadratic(3)
        if fs.kind != "quadratic" or fs.d != 3:
            raise FieldMismatch("the G2 realization needs the field with sqrt(3)")
        s3 = fs.sqrt_element()
        pairs = [(1, 0), (1, s3), (1, -s3), (0, 1), (s3, 1), (s3, -1)]
        names = ["x", "x+s3*y", "x-s3*y", "y", "s3*x+y", "s3*x-y"]
    elif ctype == "B2":
        fs = fs or FieldSpec.rational()
        pairs = [(1, 0), (0, 1), (1, 1), (1, -1)]
        names = ["x", "y", "x+y", "x-y"]
    elif ctype == "A2":
        fs = fs or FieldSpec.rational()
        pairs = [(1, 0), (0, 1), (1, 1)]
        names = ["x", "y", "x+y"]
    elif ctype == "A1A1":
        fs = fs or FieldSpec.rational()
        pairs = [(1, 0), (0, 1)]
        names = ["x", "y"]
    else:
        raise ValueError(f"unknown Coxeter type {ctype!r}")
    return Arrangement.make(fs, pairs, names=names)
