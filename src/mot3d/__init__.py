"""3D multi-object tracking: Kalman filtering, association, calibration,
evaluation, and synthetic data generation."""

__version__ = "0.1.0"

from .association import (AffinityMatrix, MatchResult, greedy_center_match,
                          greedy_match, hungarian_match, iou_3d, iou_affinity,
                          mahalanobis, mahalanobis_affinity, orientation_correct)
from .calibration import (CALIBRATION_GATE, ClassNoise, GroundTruthTrack,
                          NoiseModel, calibrate, estimate_observation_noise,
                          estimate_process_noise, load_noise_model,
                          save_noise_model, tracks_from_ground_truth)
from .core import (ANGLE_INDEX, CLASS_LABELS, OBS_DIM, OBSERVATION_MATRIX,
                   STATE_DIM, TRANSITION_MATRIX, Box, Observation,
                   observation_residual, symmetrize, wrap_angle,
                   wrap_angle_array)
from .dataset_io import (DEFAULT_MAHA_GATE, RunConfig, load_config,
                         load_detections, load_ground_truth, load_tracks,
                         merge_config, write_detections, write_ground_truth,
                         write_tracks)
from .errors import (CalibrationError, ConfigError, Mot3dError, NumericalError,
                     SchemaError, SequencingError)
from .kalman import Prediction, predict, update
from .metrics import (EVALUATION_GATE, ClassReport, EvalReport, RecallSample,
                      amota, match_frame, motar, write_amota_csv, write_report)
from .synthetic import (CLASS_SIZES, NoiseSpec, ObjectSpec, ScenarioSpec,
                        calibration_scenario, generate, generate_suite,
                        load_scenarios, noiseless_scene, scenario_meta,
                        spec_from_dict, spec_to_dict, standard_suite,
                        standard_suite_calibration, turning_scenario)
from .tracker import (FrameOutput, MultiObjectTracker, SceneStats,
                      boxes_by_frame, run_scene)
from .viz import render_scene_svg, track_color, write_scene_svg

__all__ = [
    "__version__",
    # errors
    "Mot3dError", "SchemaError", "ConfigError", "CalibrationError",
    "SequencingError", "NumericalError",
    # core state and geometry
    "STATE_DIM", "OBS_DIM", "ANGLE_INDEX", "CLASS_LABELS",
    "TRANSITION_MATRIX", "OBSERVATION_MATRIX",
    "Observation", "Box",
    "wrap_angle", "wrap_angle_array", "symmetrize", "observation_residual",
    # filtering
    "Prediction", "predict", "update",
    # association
    "AffinityMatrix", "MatchResult", "orientation_correct",
    "mahalanobis", "mahalanobis_affinity", "iou_affinity", "iou_3d",
    "greedy_match", "hungarian_match", "greedy_center_match",
    # dataset io and configuration
    "DEFAULT_MAHA_GATE", "RunConfig",
    "load_config", "merge_config", "load_detections", "load_ground_truth",
    "load_tracks", "write_detections", "write_ground_truth", "write_tracks",
    # calibration
    "CALIBRATION_GATE", "ClassNoise", "NoiseModel", "GroundTruthTrack",
    "tracks_from_ground_truth", "estimate_process_noise",
    "estimate_observation_noise", "calibrate", "save_noise_model",
    "load_noise_model",
    # tracking
    "MultiObjectTracker", "run_scene", "boxes_by_frame", "FrameOutput", "SceneStats",
    # metrics
    "EVALUATION_GATE", "match_frame", "motar", "amota",
    "RecallSample", "ClassReport", "EvalReport", "write_report", "write_amota_csv",
    # synthetic data
    "CLASS_SIZES", "ObjectSpec", "NoiseSpec", "ScenarioSpec",
    "generate", "generate_suite", "scenario_meta", "spec_to_dict",
    "spec_from_dict", "load_scenarios", "noiseless_scene",
    "calibration_scenario", "standard_suite", "standard_suite_calibration",
    "turning_scenario",
    # rendering
    "render_scene_svg", "write_scene_svg", "track_color",
]
