"""Reference values that do not use the tnsolve code being timed.

Ising chains have free-fermion closed forms.  The XY chain and the 2D
lattice have none, so their dense-oracle energies are stored here;
``selftest.py`` recomputes them.  The contraction references are plain
numpy transfer products written independently of tnsolve's kernels, and
the site operators below are this module's own, not tnsolve's.

Layout convention shared with tnsolve: site 1 is the least significant bit
of a dense state index, and bit value 0 is the Z = +1 state.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Ground energies from ``oracle.ground_state_dense`` (repr digits) for the
#: instances without a closed form.  Key: (model, p, params, boundary).
STORED_E0 = {
    ("xy", 10, (1.0, 0.5, 0.7), "open"): -9.861266154309478,
    ("ising-2d", 10, (2, 5, 1.0), "open"): -15.055490873512035,
}


def ising_open_e0(p: int, lam: float) -> float:
    """Open chain sum_k Z_k Z_{k+1} + lam sum_k X_k: minus the sum of the
    singular values of the p x p bidiagonal matrix (lam on the diagonal,
    1 above it)."""
    m = np.diag(np.full(p, float(lam))) + np.diag(np.ones(p - 1), 1)
    return -float(np.sum(np.linalg.svd(m, compute_uv=False)))


def ising_periodic_e0(p: int, lam: float) -> float:
    """Periodic chain, even p: -sum_k sqrt(1 + lam^2 - 2 lam cos k) over the
    antiperiodic momenta k = (2n + 1) pi / p."""
    if p % 2:
        raise ValueError("the periodic closed form holds for even p only")
    k = (2 * np.arange(p) + 1) * np.pi / p
    return -float(np.sum(np.sqrt(1.0 + lam**2 - 2.0 * lam * np.cos(k))))


def ising_terms(p: int, lam: float, boundary: str) -> list:
    """The Ising chain as (coefficient, {site: 2x2 matrix}) terms."""
    bonds = [(k, k + 1) for k in range(p - 1)]
    if boundary == "periodic":
        bonds.append((p - 1, 0))
    terms = [(1.0, {a: PAULI_Z, b: PAULI_Z}) for a, b in bonds]
    terms += [(float(lam), {k: PAULI_X}) for k in range(p)]
    return terms


def product_vector(psi: np.ndarray) -> np.ndarray:
    """Dense vector of the product state with site vectors psi[j] (site 1
    fastest)."""
    v = psi[0]
    for site in psi[1:]:
        v = np.kron(site, v)
    return v


def ising_product_energy(psi: np.ndarray, lam: float, boundary: str) -> float:
    """Rayleigh quotient of a product state from single-site expectations:
    sum over bonds of <Z_a><Z_b> plus lam times the sum of <X_k>."""
    norm = np.sum(np.abs(psi) ** 2, axis=1)
    z = (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2) / norm
    x = 2.0 * np.real(np.conj(psi[:, 0]) * psi[:, 1]) / norm
    total = float(lam) * float(np.sum(x))
    p = psi.shape[0]
    bonds = [(k, k + 1) for k in range(p - 1)]
    if boundary == "periodic":
        bonds.append((p - 1, 0))
    for a, b in bonds:
        total += float(z[a] * z[b])
    return total


def chain_inner(x_sites: list, y_sites: list) -> complex:
    """<y, x> of two chains with one spin per site, sites shaped
    (D_left, 2, D_right), closed by a trace (open chains have size-1 ends)."""
    dy, dx = y_sites[0].shape[0], x_sites[0].shape[0]
    env = np.einsum("ac,bd->abcd", np.eye(dy), np.eye(dx)).astype(complex)
    for a, b in zip(x_sites, y_sites):
        env = np.tensordot(env, np.conj(b), axes=(2, 0))         # (w, v, d, i, e)
        env = np.tensordot(env, a, axes=((2, 3), (0, 1)))        # (w, v, e, f)
    return complex(np.einsum("abab->", env))


def chain_expectation(terms: list, sites: list) -> complex:
    """<x, H x> for H given as (coefficient, {site: matrix}) terms, each term
    applied site-locally to a copy of the chain."""
    total = 0.0 + 0.0j
    for coeff, ops in terms:
        ket = list(sites)
        for j, op in ops.items():
            ket[j] = np.einsum("ij,ajb->aib", op, sites[j])
        total += coeff * chain_inner(ket, sites)
    return total


def grid_inner(x_sites: list, y_sites: list) -> complex:
    """<y, x> of two grid states (sites[r][c] shaped (2, up, down, left,
    right)), contracted exactly row by row without any truncation."""
    rows, cols = len(x_sites), len(x_sites[0])
    boundary = np.ones((1,) * cols, dtype=complex)   # up legs of row 0
    for r in range(rows):
        boundary = boundary[..., None]               # running horizontal leg
        for c in range(cols):
            pair = np.einsum("sabcd,sefgh->aebfcgdh",
                             np.conj(y_sites[r][c]), x_sites[r][c])
            s = pair.shape
            pair = pair.reshape(s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7])
            # boundary legs: down legs of columns < c, up legs of columns >= c,
            # then the horizontal leg; absorb (up_c, left) of the pair
            boundary = np.tensordot(boundary, pair, axes=((c, cols), (0, 2)))
            boundary = np.moveaxis(boundary, cols - 1, c)
        boundary = boundary[..., 0]                  # right edge leg
    return complex(boundary.reshape(-1)[0])          # down legs of the last row
