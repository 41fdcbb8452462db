"""Serialization of fields and kernels.

Binary layout: 32-byte header (magic b"KVHF", uint32 n_q, uint32 n_p,
four float32 domain bounds, 4 pad bytes), followed by the field values as
little-endian complex128 in row-major node order. CSV fields carry one
`q,p,re,im` row per node. 1D configuration-space fields reuse the same
formats with n_p = 1.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import PERIODIC, PhaseGrid, ScalarField

MAGIC = b"KVHF"
_HEADER = struct.Struct("<4sII4f4x")
assert _HEADER.size == 32


class FormatError(ValueError):
    pass


def _write(path, grid: PhaseGrid, values) -> None:
    """Header of grid's box, then values as little-endian complex128; read back by _read."""
    header = _HEADER.pack(
        MAGIC, grid.n_q, grid.n_p, grid.q_min, grid.q_max, grid.p_min, grid.p_max
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def save_field(path, f: ScalarField) -> None:
    _write(path, f.grid, f.values)


def _read(path, payload_shape):
    """Checked box and payload of a KVHF file; payload_shape(n_q, n_p) gives its shape."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, n_q, n_p, q_min, q_max, p_min, p_max = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    shape = payload_shape(n_q, n_p)
    expected = _HEADER.size + 16 * shape[0] * shape[1]
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(shape)
    box = (float(q_min), float(q_max), float(p_min), float(p_max), n_q, n_p)
    return box, values.copy()


def load_field(path, bc: str = PERIODIC) -> ScalarField:
    box, values = _read(path, lambda n_q, n_p: (n_q, n_p))
    return ScalarField(PhaseGrid(*box, bc), values)


def headers_match(path_a, path_b) -> bool:
    ha = Path(path_a).read_bytes()[: _HEADER.size]
    hb = Path(path_b).read_bytes()[: _HEADER.size]
    return ha == hb


def save_field_csv(path, f: ScalarField) -> None:
    g = f.grid
    values = np.asarray(f.values, dtype=complex)
    with open(path, "w") as fh:
        fh.write("q,p,re,im\n")
        for iq in range(g.n_q):
            for ip in range(g.n_p):
                fh.write(
                    f"{float(g.q[iq])!r},{float(g.p[ip])!r},"
                    f"{float(values[iq, ip].real)!r},{float(values[iq, ip].imag)!r}\n"
                )


def load_field_csv(path, grid: PhaseGrid) -> ScalarField:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.shape != (grid.n_q * grid.n_p, 4):
        raise FormatError(f"{path}: row count does not match grid")
    values = (data[:, 2] + 1j * data[:, 3]).reshape(grid.n_q, grid.n_p)
    return ScalarField(grid, values)


def save_kernel(path, grid: PhaseGrid, K: np.ndarray) -> None:
    _write(path, grid, K)


def load_kernel(path):
    box, K = _read(path, lambda n_q, n_p: (n_q * n_p, n_q * n_p))
    return PhaseGrid(*box), K


def write_csv_log(path, columns: dict) -> None:
    """Write parallel sequences as a CSV log (e.g. t,norm,energy)."""
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
