"""distilcal: distillation targets and losses, top-N calibration, temperature scaling.

The package is organized by pipeline stage:

* :mod:`distilcal.probs` - stable softmax/log-softmax and top-N extraction;
* :mod:`distilcal.calibration` - rank-N expected calibration error with
  confidence-sorted equal-count bins, reliability CSV export;
* :mod:`distilcal.targets` - one-hot, smoothed, softened, interpolated target rows;
* :mod:`distilcal.losses` - row-wise cross-entropy and distillation losses, the
  batch multi-task loss, analytic gradients and a finite-difference check;
* :mod:`distilcal.tempscale` - post-hoc temperature fitting and two-stream
  score combination;
* :mod:`distilcal.alignment` - a whole alignment file as one code array, unit
  maps, per-utterance deduplication, each teacher's token posteriors and the
  frame-wise target table;
* :mod:`distilcal.toy` - a tiny multi-head classifier with hand-written
  backprop for end-to-end experiments, imported on first use of one of its
  names;
* :mod:`distilcal.cli` - the ``distilcal`` command.
"""

__version__ = "0.1.0"

from .alignment import (
    Alignments,
    Runs,
    deduplicate,
    map_units,
    target_lines,
    teacher_posteriors,
)
from .calibration import (
    ReliabilityReport,
    ece,
    rank_confidence_correct,
    reliability_csv,
)
from .errors import (
    ConfigurationError,
    DistilcalError,
    FileFormatError,
    InvalidInputError,
    InvalidParameterError,
    UnmappedTokenError,
)
from .losses import cross_entropy, entropy, grad_check, kd_loss, multitask_loss
from .probs import as_logits, as_probs, log_softmax_t, softmax_t, top_n
from .targets import interpolate_target, one_hot, smooth_label, soft_label
from .tempscale import (
    DEFAULT_BOUNDS,
    TemperatureFit,
    combine_ranking,
    combine_scores,
    fit_summary,
    fit_temperature,
    nll_at_temperature,
)

#: ``toy``'s public names, resolved on first use by :func:`__getattr__`, so
#: that importing the package does not compile the trainer.
_TOY_NAMES = frozenset({
    "EvalResult", "SweepConfig", "SweepRow", "SyntheticTask", "ToyNetwork", "TrainConfig",
    "evaluate", "generate_data", "head_targets", "make_student", "make_task", "make_teacher",
    "network_loss_and_grad", "pooled_gap", "sweep_csv", "sweep_lambda", "train", "train_cell",
    "train_model",
})

__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["toy", *_TOY_NAMES])


def __getattr__(name: str):
    if name == "toy" or name in _TOY_NAMES:
        from importlib import import_module

        toy = import_module(".toy", __name__)
        return toy if name == "toy" else getattr(toy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
