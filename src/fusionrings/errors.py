"""Exception hierarchy for the workbench."""


class WorkbenchError(Exception):
    """Base class for all library errors."""


class ClosureTooLarge(WorkbenchError):
    """Group closure exceeded the configured element cap."""


class DegreeTooLarge(WorkbenchError):
    """A permutation degree exceeded the bound on the points a group acts on."""


class TooManyClasses(WorkbenchError):
    """A character table was asked for more classes than its work bound."""


class TooManyLabels(WorkbenchError):
    """A quantum double was asked for more simple objects than its work bound."""


class ConductorTooLarge(WorkbenchError):
    """A document names a cyclotomic conductor above the reduction table bound."""


class LiftFailure(WorkbenchError):
    """Character-table modular lift could not be certified."""


class NonIntegralMultiplicity(WorkbenchError):
    """A fusion multiplicity failed the non-negative-integer check."""


class SingularCharacterSystem(WorkbenchError):
    """The decomposition kernel's character matrix X is singular: the primes
    at which it failed to invert multiply past the bound on the norm of a
    nonzero det X (bug signal)."""


class AxiomViolation(WorkbenchError):
    """A based-ring axiom failed; carries the axiom name and a witness."""

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated" + (f" at {witness}" if witness else ""))


class NoPositiveEigenvector(WorkbenchError):
    """Dimension solve found no positive eigenvector (bug signal)."""


class GradingInconsistent(WorkbenchError):
    """Universal grading blocks do not form a group (bug signal)."""


class SearchBudgetExceeded(WorkbenchError):
    """Backtracking search hit the node cap; distinct from a NONE answer."""


class NotExactFactorization(WorkbenchError):
    """The subgroups do not factor the ambient group exactly."""


class NotAutomorphism(WorkbenchError):
    """The supplied basis permutation does not preserve the fusion rules."""


class InvariantFailure(WorkbenchError):
    """A certified invariant failed (of modular data, or of a catalog entry's
    stored FPdim and type); carries the invariant name."""

    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"{name} failed" + (f": {detail}" if detail else ""))


class SingularS(WorkbenchError):
    """The S-matrix is degenerate."""
