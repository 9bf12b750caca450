"""Central numerical tolerances.

Every module pulls its thresholds from one instance so golden values and
acceptance runs cannot drift apart through locally tweaked epsilons.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: allowed Hermiticity defect (relative to the matrix norm) before a solve refuses
    hermitian: float = 1e-10
    #: a generalized eigensolve drops the directions of its denominator b whose
    #: eigenvalue is at or below pd_floor_scale * trace(b)/dim(b)
    pd_floor_scale: float = 1e-12
    #: singular values at or below zero_singular * sigma_max are dropped only
    #: where a chain's bond is cut (the grid contraction's SVD pass); the QR
    #: steps that move a chain's orthogonality center keep every direction
    zero_singular: float = 1e-14
    #: imaginary residue allowed when a quotient is asserted real
    rayleigh_imag: float = 1e-10
    #: |dE| threshold for solver convergence stops
    convergence: float = 1e-10
    #: dense materialization cap: refuse p above this
    dense_site_cap: int = 14


DEFAULT_TOLS = Tolerances()
