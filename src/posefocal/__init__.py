"""Joint 6D object-pose and focal-length estimation: update rules, losses,
pose/focal sampling distributions, evaluation metrics, and a closed-loop
refinement simulator."""

__version__ = "0.1.0"

from .errors import (DegenerateFitError, DegenerateInputError, DepthError,
                     DomainError)
from .geometry import (BBox, CameraIntrinsics, ModelPoints, ParamState,
                       PoseBatch, Rotation, adjust_intrinsics_for_crop, bbox_iou,
                       compute_crop, geodesic_distance, project_point,
                       project_points, rotation_from_6d)
from .losses import (GRAD_LABELS, LossBreakdown, LossWeights,
                     disentangled_pose_loss, disentangled_reprojection_loss,
                     gradient_check, huber_log_focal, point_matching_distance,
                     reprojection_loss, rotation_6d_jacobian, total_loss)
from .metrics import (EvalPair, MetricRecord, aggregate, err_focal, err_pose,
                      err_proj, err_rot, err_trans, evaluate_pair,
                      lower_median)
from .sampling import (AnnotationRecord, BinghamParams, Gaussian2DParams,
                       NonparamDeltas, RefinerNoise, UniformRanges,
                       fit_bingham, fit_translation_focal, load_annotations,
                       sample_bingham, sample_pose_nonparametric,
                       sample_pose_parametric, sample_pose_uniform,
                       sample_refiner_noise, sample_rotation_uniform,
                       select_deltas_95pct)
from .simulator import (ClampBounds, NoiseScales, OraclePredictor,
                        TrialResult, projected_bbox, run_experiment,
                        run_refinement)
from .update_rules import (DeltaBatch, DeltaTheta, apply_focal_update,
                           apply_rotation_update, apply_translation_update,
                           apply_update, apply_update_batch, init_state,
                           init_state_batch, oracle_delta, oracle_terms,
                           translation_update_batch)

__all__ = [name for name in dir() if not name.startswith("_")]
