"""Ground states of spin-chain and lattice Hamiltonians by alternating
minimization of the Rayleigh quotient over structured tensor formats, with a
matrix-free exact-diagonalization oracle and instrumented contraction schemes."""

from .config import DEFAULT_TOLS, Tolerances
from .hamiltonian import (
    Blocking,
    KroneckerTerm,
    SiteOperator,
    SpinHamiltonian,
    build_heisenberg_xy,
    build_ising,
    build_ising_2d,
    materialize_dense,
)
from .oracle import ground_state_dense, rayleigh
from .tensor import DenseState

__all__ = [
    "DEFAULT_TOLS",
    "Tolerances",
    "Blocking",
    "KroneckerTerm",
    "SiteOperator",
    "SpinHamiltonian",
    "build_heisenberg_xy",
    "build_ising",
    "build_ising_2d",
    "materialize_dense",
    "ground_state_dense",
    "rayleigh",
    "DenseState",
]
