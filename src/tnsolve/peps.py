"""Desk-scale 2D grid states and their column-by-column inner product.

Site (r, c) of a rows x cols lattice holds a tensor of shape
(2, up, down, left, right); open-boundary edge bonds have size 1, and the
lattice is numbered row-major so 1 x p grids coincide with open chains.

The inner-product scheme pairs bra and ket tensors column by column and
absorbs each column into a boundary column.  After every absorption the
grown vertical pair indices are reduced back to `d_cut` by SVDs along the
column (index split: vertical pair versus all remaining legs), sweeping
bottom-up without truncation first and truncating top-down, so caps at or
above the exact bond rank reproduce the dense value; smaller caps give the
scheme's approximation.  The counted cost of the dominant absorption step
grows like D^10 at d_cut = D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances
from .mps import MpsState, _trimmed_svd
from .tensor import DenseState, DimensionCapError, _contract_labelled

PEPS_DENSE_CAP = 12


@dataclass
class PepsState:
    rows: int
    cols: int
    sites: list  # sites[r][c]: (2, up, down, left, right)

    def __post_init__(self):
        if len(self.sites) != self.rows or any(len(row) != self.cols
                                               for row in self.sites):
            raise ValueError("need one tensor per lattice site")
        self.sites = [[np.asarray(t, dtype=complex) for t in row]
                      for row in self.sites]
        for r in range(self.rows):
            for c in range(self.cols):
                t = self.sites[r][c]
                if t.ndim != 5 or t.shape[0] != 2:
                    raise ValueError("site tensors carry (phys, u, d, l, r) legs")
                if r == 0 and t.shape[1] != 1:
                    raise ValueError("top edge bonds must have size 1")
                if r == self.rows - 1 and t.shape[2] != 1:
                    raise ValueError("bottom edge bonds must have size 1")
                if c == 0 and t.shape[3] != 1:
                    raise ValueError("left edge bonds must have size 1")
                if c == self.cols - 1 and t.shape[4] != 1:
                    raise ValueError("right edge bonds must have size 1")
                if r + 1 < self.rows and t.shape[2] != self.sites[r + 1][c].shape[1]:
                    raise ValueError(f"vertical bond mismatch below site ({r},{c})")
                if c + 1 < self.cols and t.shape[4] != self.sites[r][c + 1].shape[3]:
                    raise ValueError(f"horizontal bond mismatch right of ({r},{c})")

    @property
    def p(self) -> int:
        return self.rows * self.cols


def random_peps(rows: int, cols: int, d_bond: int, seed: int = 0) -> PepsState:
    """Reproducible complex-Gaussian grid state with interior bonds d_bond."""
    rng = np.random.default_rng(seed)
    sites = []
    for r in range(rows):
        row = []
        for c in range(cols):
            shape = (
                2,
                1 if r == 0 else d_bond,
                1 if r == rows - 1 else d_bond,
                1 if c == 0 else d_bond,
                1 if c == cols - 1 else d_bond,
            )
            row.append((rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape)) / np.sqrt(2.0))
        sites.append(row)
    return PepsState(rows, cols, sites)


def from_mps_row(x: MpsState) -> PepsState:
    """Open chain viewed as a 1 x p lattice."""
    if x.boundary != "open" or x.blocking.widths != (1,) * x.p:
        raise ValueError("only single-site open chains embed as a lattice row")
    sites = [[s.transpose(1, 0, 2)[:, None, None, :, :] for s in x.sites]]
    return PepsState(1, x.p, sites)


def _site_piece(x: PepsState, r: int, c: int):
    """(legs, tensor) with boundary bonds squeezed away; leg labels are
    ('p', r, c) for the physical index, ('v', r, c) for the bond to row
    r + 1 and ('h', r, c) for the bond to column c + 1."""
    t = x.sites[r][c]
    legs = [("p", r, c)]
    idx = [slice(None)]
    for label, size in [(("v", r - 1, c), t.shape[1]),
                        (("v", r, c), t.shape[2]),
                        (("h", r, c - 1), t.shape[3]),
                        (("h", r, c), t.shape[4])]:
        boundary = size == 1 and (
            label[0] == "v" and (label[1] < 0 or label[1] >= x.rows - 1)
            or label[0] == "h" and (label[2] < 0 or label[2] >= x.cols - 1)
        )
        if boundary:
            idx.append(0)
        else:
            idx.append(slice(None))
            legs.append(label)
    return legs, t[tuple(idx)]


def to_dense(x: PepsState, cap: int = PEPS_DENSE_CAP) -> DenseState:
    """Brute-force contraction, consuming sites in row-major order."""
    if x.p > cap:
        raise DimensionCapError(f"{x.rows}x{x.cols} lattice exceeds dense cap {cap}")
    acc = np.ones((), dtype=complex)
    acc_legs = ()
    for r in range(x.rows):
        for c in range(x.cols):
            legs, t = _site_piece(x, r, c)
            acc, acc_legs = _contract_labelled(acc, acc_legs, t, legs)
    phys_order = [("p", r, c) for r in range(x.rows) for c in range(x.cols)]
    perm = [acc_legs.index(l) for l in phys_order]
    tens = np.transpose(acc, perm)
    return DenseState(x.p, tens.reshape(-1, order="F"))


# ---------------------------------------------------------------------------
# column-by-column inner product

def _merge_pair_column(x: PepsState, y: PepsState, c: int) -> list:
    """Per row: bra-ket pair tensor of column c with paired legs
    (up, down, left, right), each the product of the two layers' bonds."""
    merged = []
    for r in range(x.rows):
        tx, ty = x.sites[r][c], y.sites[r][c]
        z = flops.tdot(ty.conj(), tx, axes=(0, 0))
        # (uy, dy, ly, ry, ux, dx, lx, rx) -> (uy ux, dy dx, ly lx, ry rx)
        z = z.transpose(0, 4, 1, 5, 2, 6, 3, 7)
        s = z.shape
        merged.append(z.reshape(s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7]))
    return merged


def _compress_column(col: list, d_cut: int, tols: Tolerances) -> list:
    """Treat the merged column as a chain over its vertical pair bonds and
    truncate every bond to at most d_cut.

    Bottom-up pass first (zero-drop only), making everything below the
    working bond an isometry, then a top-down truncating pass; the local
    singular values of the (up leg | rest) split then are the true cut
    spectrum, so caps at or above the exact rank lose nothing.
    """
    rows = len(col)
    # bottom-up canonicalization: split (down, free | up), push weight up
    for r in range(rows - 1, 0, -1):
        u_dim, d_dim, m_dim = col[r].shape
        mat = col[r].transpose(1, 2, 0).reshape(d_dim * m_dim, u_dim)
        uu, ss, vv = _trimmed_svd(mat, tols=tols)
        rank = ss.size
        col[r] = uu.reshape(d_dim, m_dim, rank).transpose(2, 0, 1)
        carry = ss[:, None] * vv  # (rank, u_dim)
        col[r - 1] = flops.tdot(col[r - 1], carry, axes=(1, 1)).transpose(0, 2, 1)
    # top-down truncation: split (up, free | down), push weight down
    for r in range(rows - 1):
        u_dim, d_dim, m_dim = col[r].shape
        mat = col[r].transpose(0, 2, 1).reshape(u_dim * m_dim, d_dim)
        uu, ss, vv = _trimmed_svd(mat, d_max=d_cut, tols=tols)
        rank = ss.size
        col[r] = uu.reshape(u_dim, m_dim, rank).transpose(0, 2, 1)
        carry = ss[:, None] * vv  # (rank, d_dim)
        col[r + 1] = flops.tdot(carry, col[r + 1], axes=(1, 0))
    return col


def inner_peps(x: PepsState, y: PepsState, d_cut: int,
               tols: Tolerances = DEFAULT_TOLS) -> complex:
    """<y, x> by absorbing bra-ket columns left to right with the vertical
    pair indices truncated to d_cut after every absorption.  Exact whenever
    d_cut is at least the rank the truncated bonds actually carry."""
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("lattices must match")
    if d_cut < 1:
        raise ValueError("d_cut must be at least 1")
    rows, cols = x.rows, x.cols
    # column 0: (u, d, left=1, right) -> boundary column of (u, d, m) tensors
    boundary = [t[:, :, 0, :] for t in _merge_pair_column(x, y, 0)]
    for c in range(1, cols):
        col = _merge_pair_column(x, y, c)
        grown = []
        for r in range(rows):
            b, t = boundary[r], col[r]
            z = flops.tdot(b, t, axes=(2, 2))  # (u1, d1, u2, d2, rr)
            s = z.shape
            z = z.transpose(0, 2, 1, 3, 4).reshape(s[0] * s[2], s[1] * s[3], s[4])
            grown.append(z)
        boundary = _compress_column(grown, d_cut, tols)
    # last column has right legs of size 1: close from the bottom
    env = boundary[rows - 1][:, 0, 0]
    for r in range(rows - 2, -1, -1):
        env = flops.tdot(boundary[r][:, :, 0], env, axes=(1, 0))
    return complex(env[0])
