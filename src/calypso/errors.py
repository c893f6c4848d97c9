"""The package's exceptions: two families and the classes code tells apart.

The CLI prints ``calypso: error [Class] message`` to stderr and exits 3
for a ``DataError`` (bad input or configuration) or 4 for a
``NumericalError`` (an aborted computation or a broken result).  Every
message names the option, file, line, key or epoch at fault.

================  ==============  ====  =====================================
class             family          exit  raised when
================  ==============  ====  =====================================
DataError         base            3     an input file cannot be read
InvalidOption     DataError       3     an option, argument or ``--config``
                                        value is out of range, names nothing
                                        known, does not fit the data or is a
                                        net that was never fit
InvalidValue      DataError       3     a number in an input table or array
                                        is non-numeric, non-finite, negative,
                                        zero or above a population
ShapeMismatch     DataError       3     shapes, columns, keys, coverage or
                                        tapes disagree
CheckpointError   DataError       3     a checkpoint is not JSON or misfits
                                        its own config, key by key
DegenerateTruth   DataError       3     a truth series is constant, so R^2 is
                                        undefined (``calib`` catches it)
NumericalError    base            4     gradients diverge, a series or an
                                        ensemble is unusable, or a trajectory
                                        breaks S+I+R = P or goes negative
NonFiniteLoss     NumericalError  4     a training loss is NaN or inf, or a
                                        parameter leaves its bounds
NonFiniteOutput   NumericalError  4     a result to be written holds NaN or
                                        inf
================  ==============  ====  =====================================
"""


class DataError(Exception):
    """Invalid inputs, options or file contents (exit 3)."""


class NumericalError(Exception):
    """An aborted computation or a broken result (exit 4)."""


class InvalidOption(DataError):
    """An option or argument is out of range or names nothing known."""


class InvalidValue(DataError):
    """A number is non-numeric, non-finite or out of range."""


class ShapeMismatch(DataError):
    """Shapes, columns, keys or coverage disagree."""


class CheckpointError(DataError):
    """A checkpoint is not JSON or misfits its own config."""


class DegenerateTruth(DataError):
    """A truth series has zero variance, so R^2 is undefined."""


class NonFiniteLoss(NumericalError):
    """A training loss became NaN or inf; the message names the epoch."""


class NonFiniteOutput(NumericalError):
    """A result about to be written holds NaN or inf."""
