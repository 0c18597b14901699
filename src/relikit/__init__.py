"""Reliability metrics and post-hoc temperature calibration for pixel-wise predictions.

The package measures how trustworthy per-pixel probabilistic predictions
are (calibration error, misclassification detection, OOD detection,
segmentation quality) and improves calibration after the fact with global,
cluster-wise, and learned per-pixel temperature scaling. Predictions are
read from serialized logit dumps bound together by a JSON manifest; a
synthetic generator with known ground truth makes every number in the
pipeline checkable at desk scale.
"""

from .calibration import (
    ClusterTemperatureModel,
    ClusterVariant,
    FeatureMode,
    GlobalTemperature,
    LtsHyper,
    TemperatureRegressor,
    apply_calibrator,
    apply_temperature,
    calibrator_temperature,
    fit_cluster_ts,
    fit_global_ts,
    fit_lts,
    fit_temperature,
    load_calibrator,
    predict_temperature_map,
    save_calibrator,
)
from .confidence import ConfidenceScore, RecordSet, confidence_map
from .counterexample import Counterexample, CounterexampleSpec, build_counterexample, evaluate_counterexample
from .errors import (
    CalibrationError,
    InvalidTensorError,
    ManifestError,
    MetricError,
    NumericalError,
    RelikitError,
    TensorFormatError,
    UsageError,
)
from .evaluate import ALL_METRICS, EvalConfig, evaluate_manifest
from .kmeans import KMeansResult, assign_points, kmeans
from .manifest import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from .metrics import (
    BinPartition,
    BinStrategy,
    MiouResult,
    ada_ece,
    auroc,
    bin_partition,
    confusion_matrix,
    ece,
    iou_from_confusion,
    ks_error,
    prr,
    rejection_curve,
)
from .report import ReliabilityReport, from_json_bytes, to_csv_bytes, to_json_bytes
from .rng import derive_stream, subsample_indices
from .synth import DomainSpec, Scene, SynthConfig, default_ladder, generate_benchmark, generate_scene
from .tensors import ImageTensor, LabelMap, LogitTensor, TemperatureMap

__version__ = "0.1.0"
