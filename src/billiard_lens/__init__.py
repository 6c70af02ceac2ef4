"""billiard-lens: exterior billiard flow, travelling-time lens data and the
scene comparison harness.

All operations are pure functions of immutable scenes and trajectories and
are safe to evaluate concurrently from many workers.
"""

__version__ = "0.1.0"  # the one version source; set before the submodules import it

from .flow import Event, Limits, PhasePoint, Trajectory, first_hit, omega_theta, reflect, \
    reflection_count, sojourn_time, trace, trace_phase, travelling_time
from .geometry import CurveObstacle, EllipsoidObstacle, Scene, SphereObstacle, \
    SuperellipsoidObstacle, SurfaceFrame, concave_mirror_obstacle, implicit_value, \
    livshits_scene, make_scene, scene_from_json, scene_hash, scene_to_json, surface_frame, \
    validate_scene
from .lens import ComparisonReport, LensSample, LensTable, SampleSpec, boundary_distance, \
    build_lens_table, compare_lens, estimate_trapped, sample_phase_sphere, scattering_spectrum
from .variation import ConjugateResult, Incidence, JacobiFrame, RankReport, RegularityResult, \
    conjugate_test, fd_flow_jacobian, flow_differentials, propagate_free, \
    propagate_reflection, regularity_test, seed_frame, symplectic_pairing
