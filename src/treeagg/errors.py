"""Exception hierarchy shared across the package."""


class TreeAggError(Exception):
    """Base class for all treeagg errors."""


class InvalidWeightError(TreeAggError):
    """A weight matrix violates symmetry, nonnegativity or zero-diagonal."""


class DegenerateWeightsError(TreeAggError):
    """The weighted Laplacian minor is numerically singular or unusable."""


class CalibrationError(TreeAggError):
    """No prior on the candidate edges gives each of them the target marginal."""


class PerfectCorrelationError(TreeAggError):
    """Two variables are (numerically) perfectly correlated."""


class InvalidMomentError(TreeAggError):
    """A conditional second moment is nonpositive."""


class DegeneratePosteriorError(TreeAggError):
    """All candidate trees have zero posterior weight."""


class MStepError(TreeAggError):
    """The M-step's diagonal solve did not converge."""


class DivergenceError(TreeAggError):
    """The EM produced a non-finite likelihood."""


class InfeasibleHiddenSetError(TreeAggError):
    """No identifiable hidden-node set exists for the requested size."""


class NotPositiveDefiniteError(TreeAggError):
    """A matrix expected to be positive definite is not."""


class DegenerateRocError(TreeAggError):
    """A ROC curve is undefined (no positives or no negatives)."""


class DegenerateCurveError(TreeAggError):
    """A spurious-edge curve is undefined (no spurious edges)."""


class DataError(TreeAggError):
    """Input data files are malformed or insufficient."""


class ConfigError(TreeAggError):
    """A run configuration is invalid."""
