"""Exception types shared across the toolkit."""

from __future__ import annotations


class VarOrderError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(VarOrderError, ValueError):
    """Operands have incompatible dimensions."""


class NotHermitianError(VarOrderError, ValueError):
    """Matrix fails the Hermitian symmetry check."""


class ValidationError(VarOrderError, ValueError):
    """Constructed value violates a type invariant."""


class EigensolverError(VarOrderError, RuntimeError):
    """An eigensolve failed: LAPACK did not converge, or Jacobi missed its target.

    ``residual`` is the off-diagonal norm Jacobi stopped at; ``None`` for LAPACK.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DomainError(VarOrderError, ValueError):
    """Function table has no point matching a requested eigenvalue."""


class PreconditionError(VarOrderError, ValueError):
    """Operation precondition violated; may carry a witness object."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateInputError(VarOrderError, ValueError):
    """Input is degenerate for the requested construction."""


class ReconstructionError(VarOrderError, ValueError):
    """Gap matrix is inconsistent with every point configuration."""


class InternalConsistencyError(VarOrderError, RuntimeError):
    """Two internal routes for the same quantity disagree."""
