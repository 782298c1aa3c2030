"""Event segmentation toolkit for low-frame-rate egocentric photo streams.

A day-long stream of per-frame feature vectors and concept detections is
split into events by fusing two complementary candidate segmentations,
an over-segmenting agglomerative clustering and an under-segmenting
adaptive-window change detector, through energy minimization over the
temporal chain. Segmentations are scored with a tolerance-based boundary
F-measure and with the GCE/LCE consistency errors.
"""

from .adwin import AdwinParams, detect_changes, epsilon_cut, rescale_to_unit
from .agglo import AggloParams, cluster_frames, cosine_distance, cosine_distance_matrix
from .datamodel import (
    ConceptDetections,
    EvalReport,
    FeatureStream,
    Segmentation,
    ValidationError,
    load_concept_detections,
    load_feature_stream,
    load_report,
    load_segmentation,
    save_concept_detections,
    save_feature_stream,
    save_report,
    save_segmentation,
)
from .evaluate import (
    MatchParams,
    evaluate_pair,
    f_measure,
    gce,
    lce,
    local_refinement_error,
    macro_fmeasure,
    trivial_segmentations,
)
from .fusion import fuse, signed_root_normalize
from .graphcut import (
    GcParams,
    LabelSpace,
    build_label_space,
    labeling_energy,
    labeling_from_segmentation,
    minimize,
    minimize_labels,
    pairwise_energy,
    unary_energies,
)
from .pipeline import (
    GridRow,
    PipelineConfig,
    PipelineResult,
    StageError,
    grid_search,
    run_pipeline,
)
from .semantic import (
    ConceptGraph,
    ExactMatchProvider,
    FileSimilarityProvider,
    SemanticVocabulary,
    SimilarityProvider,
    UnknownTagError,
    assemble_semantic_features,
    build_concept_graph,
    cluster_concepts,
    prune_low_variance,
    smooth_temporal,
)
from .synth import SegmentSpec, SynthSpec, block_spec, generate

__version__ = "0.1.0"
