"""Serialization of fields and of the conserved-quantity log.

Binary layout: 32-byte header (magic b"KVHF", uint32 n_q, uint32 n_p,
four float32 domain bounds, 4 pad bytes), followed by the field values as
little-endian complex128 in row-major node order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import PhaseGrid, ScalarField

MAGIC = b"KVHF"
_HEADER = struct.Struct("<4sII4f4x")
assert _HEADER.size == 32


class FormatError(ValueError):
    pass


def save_field(path, f: ScalarField) -> None:
    """Header of the field's box, then its values as little-endian complex128."""
    g = f.grid
    header = _HEADER.pack(MAGIC, g.n_q, g.n_p, g.q_min, g.q_max, g.p_min, g.p_max)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def load_field(path) -> ScalarField:
    """The field save_field wrote, on a periodic grid of the stored box."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, n_q, n_p, q_min, q_max, p_min, p_max = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 16 * n_q * n_p
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(n_q, n_p)
    grid = PhaseGrid(float(q_min), float(q_max), float(p_min), float(p_max), n_q, n_p)
    return ScalarField(grid, values.copy())


def write_csv_log(path, columns: dict) -> None:
    """Write parallel sequences as a CSV log (e.g. t,norm,energy)."""
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
