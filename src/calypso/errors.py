"""Exception hierarchy shared across the package.

Two broad families matter operationally: ``DataError`` for anything wrong
with inputs or configuration (CLI exit code 3) and ``NumericalError`` for
aborts of iterative numerics (CLI exit code 4).
"""


class CalypsoError(Exception):
    """Base class for all package errors."""


class DataError(CalypsoError):
    """Invalid inputs, shapes, identifiers, or file contents."""


class NumericalError(CalypsoError):
    """Non-finite values or collapsed state inside iterative numerics."""


# -- core ---------------------------------------------------------------

class OffDiagonalOverflow(DataError):
    """Outgoing flows from a source patch exceed its population."""


class ShapeMismatch(DataError):
    """Array arguments disagree on shape or length."""


class UnknownLevel(DataError):
    """Aggregation level is not one of patch/region/state."""


class DegenerateTruth(DataError):
    """Truth series has zero variance, so R^2 is undefined."""


# -- autodiff -----------------------------------------------------------

class TapeMismatch(DataError):
    """Operands were recorded on different tapes."""


class DivisionByZero(DataError):
    """Division with a zero denominator on the tape."""


class NonScalarRoot(DataError):
    """backward() called on a non-scalar node."""


# -- sim ----------------------------------------------------------------

class ParamCoverage(DataError):
    """Disease parameters do not cover every region/step of a run."""


class NegativeSeed(DataError):
    """Initial infections contain a negative entry."""


class SeedExceedsPopulation(DataError):
    """Seeded infections exceed the patch population."""


class UnknownTarget(DataError):
    """A scenario names a region or patch that does not exist."""


class ZeroEffectivePopulation(DataError):
    """A patch has zero mobility-weighted population (division impossible)."""


# -- calib / adapter ----------------------------------------------------

class WindowMismatch(DataError):
    """Prediction and observations disagree on the time window."""


class HorizonZero(DataError):
    """Forecast horizon must be at least one step."""


class NonFiniteLoss(NumericalError):
    """Training loss became NaN/inf; message carries the epoch index."""


class DivergedGradient(NumericalError):
    """Gradients are non-finite even after norm clipping."""


class NonFiniteInput(NumericalError):
    """A series handed to the adapter contains NaN/inf."""


# -- io -----------------------------------------------------------------

class CheckpointError(DataError):
    """A checkpoint is not JSON, holds a non-finite number, or misfits its own config."""


class InvalidValue(DataError):
    """An input table holds a non-numeric, non-finite or out-of-range value."""


class NonFiniteOutput(NumericalError):
    """A result about to be written as CSV or JSON holds NaN or inf."""


# -- cli ----------------------------------------------------------------

class InvalidOption(DataError):
    """A command-line or config option is out of its allowed range."""


# -- eakf ---------------------------------------------------------------

class CollapsedEnsemble(NumericalError):
    """Ensemble variance vanished in every observed coordinate."""


# -- analysis -----------------------------------------------------------

class UnknownRegion(DataError):
    """Named region is not part of the graph."""


class EmptyCandidates(DataError):
    """Greedy allocation has no candidate patches."""


class KExceedsNoisySet(DataError):
    """Correction budget exceeds the number of noisy patches."""


# -- synth --------------------------------------------------------------

class InfeasibleSpec(DataError):
    """Synthetic-data spec cannot be realised (bad counts or ranges)."""
