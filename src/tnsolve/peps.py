"""Desk-scale 2D grid states and their column-by-column inner product.

Site (r, c) of a rows x cols lattice holds a tensor of shape
(2, up, down, left, right); open-boundary edge bonds have size 1, and the
lattice is numbered row-major so 1 x p grids coincide with open chains.

The inner-product scheme pairs bra and ket tensors column by column.  The
boundary column is an open MPS over the vertical pair bonds, and each
further column acts on it as an MPO (`mps._apply_mpo`).  After every
absorption `mps._truncate_bonds` reduces the grown bonds back to `d_cut`
in three passes: one QR step at the top row clamps the top bond to what
that row carries, a bottom-up QR pass right-gauges the chain without
truncation, and a top-down SVD pass truncates.  The top bond is clamped
first because the bottom-up pass would otherwise factor row 1 at its full
grown bond.  Caps at or above the exact bond rank reproduce the dense
value; smaller caps give the scheme's approximation.  The counted cost of
the dominant absorption step grows like D^10 at d_cut = D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops
from .config import DEFAULT_TOLS, Tolerances
from .mps import MpsState, _apply_mpo, _truncate_bonds
from .tensor import DenseState, DimensionCapError, _contract_labelled, _gaussian


@dataclass(eq=False)
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
            row.append(_gaussian(rng, shape, complex) / np.sqrt(2.0))
        sites.append(row)
    return PepsState(rows, cols, sites)


def from_mps_row(x: MpsState) -> PepsState:
    """Open chain viewed as a 1 x p lattice."""
    if x.boundary != "open" or x.groups != tuple((s,) for s in range(x.p)):
        raise ValueError("only single-site open chains embed as a lattice row")
    sites = [[s.transpose(1, 0, 2)[:, None, None, :, :] for s in x.sites]]
    return PepsState(1, x.p, sites)


def to_dense(x: PepsState, cap: int = DEFAULT_TOLS.dense_site_cap) -> DenseState:
    """Brute-force contraction, consuming sites in row-major order.  Each
    site labels all four bonds; an edge bond's label is held by its one
    site, so it stays open at size 1 and trails the physical axes."""
    if x.p > cap:
        raise DimensionCapError(f"{x.rows}x{x.cols} lattice exceeds dense cap {cap}")
    acc = np.ones((), dtype=complex)
    acc_legs = ()
    for r in range(x.rows):
        for c in range(x.cols):
            legs = (("p", r, c), ("v", r - 1, c), ("v", r, c), ("h", r, c - 1), ("h", r, c))
            acc, acc_legs = _contract_labelled(acc, acc_legs, x.sites[r][c], legs)
    order = sorted(acc_legs, key=lambda l: (l[0] != "p", l))
    tens = np.transpose(acc, [acc_legs.index(l) for l in order])
    return DenseState(x.p, tens.reshape(-1, order="F"))


# ---------------------------------------------------------------------------
# column-by-column inner product

def _merge_pair_column(x: PepsState, y: PepsState, c: int) -> list:
    """Per row: bra-ket pair tensor of column c as an MPO site with paired
    legs (up, down, right, left), each the product of the two layers'
    bonds."""
    merged = []
    for r in range(x.rows):
        tx, ty = x.sites[r][c], y.sites[r][c]
        z = flops.tdot(ty.conj(), tx, axes=(0, 0))
        # (uy, dy, ly, ry, ux, dx, lx, rx) -> (uy ux, dy dx, ry rx, ly lx)
        z = z.transpose(0, 4, 1, 5, 3, 7, 2, 6)
        s = z.shape
        merged.append(z.reshape(s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7]))
    return merged


def inner_peps(x: PepsState, y: PepsState, d_cut: int,
               tols: Tolerances = DEFAULT_TOLS) -> complex:
    """<y, x> by absorbing bra-ket columns left to right into a boundary
    chain whose bonds are truncated to d_cut after every absorption (top
    bond clamped by QR, bottom-up QR gauge, top-down SVD truncation).  Exact
    whenever d_cut is at least the rank the truncated bonds actually carry."""
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("lattices must match")
    if d_cut < 1:
        raise ValueError("d_cut must be at least 1")
    rows = x.rows
    # column 0 as a chain over the vertical pair bonds: sites (up, right, down)
    chain = [t[..., 0].transpose(0, 2, 1) for t in _merge_pair_column(x, y, 0)]
    for c in range(1, x.cols):
        chain = _apply_mpo(_merge_pair_column(x, y, c), chain)
        # the bonds grew to (pair bond) x (chain bond); clamping the top
        # bond to what row 0 carries first keeps the bottom-up QR pass from
        # factoring row 1 at its full grown bond
        _truncate_bonds(chain, d_cut, tols)
    # last column has right legs of size 1: close from the bottom
    env = chain[rows - 1][:, 0, 0]
    for r in range(rows - 2, -1, -1):
        env = flops.tdot(chain[r][:, 0, :], env, axes=(1, 0))
    return complex(env[0])
