"""Customized multi-layer printable hand models from a 3D hand scan.

Pipeline: parse/validate the scanned surface mesh, fit a template bone
set through per-bone similarity transforms pinned by 25 landmarks, build
hollow concentric-tube tissue shells with a controllable wall parameter,
select that wall thickness from deformation curves, and simulate the
single-cable underactuated finger drive.
"""

from .deformation import (
    DeformationCurve,
    ThicknessCandidate,
    curve_distance,
    load_curves,
    select_thickness,
)
from .kinematics import (
    FingerConfig,
    JointState,
    TendonStage,
    Trajectory,
    compare_designs,
    cumulative_excursion,
    fingertip_position,
    load_presets,
    solve_flexion,
    sweep_trajectory,
)
from .landmarks import (
    LANDMARK_NAMES,
    BoneFrame,
    BoneTopology,
    LandmarkSet,
    bone_frame,
    default_topology,
    load_landmarks,
)
from .mesh_io import (
    MeshReport,
    TriangleMesh,
    analyze_mesh,
    parse_mesh,
    signed_volume,
    vertex_normals,
    write_mesh,
)
from .template_match import (
    BoneTemplateSet,
    HolePose,
    SimilarityTransform,
    apply_transform,
    estimate_transform,
    place_ligament_holes,
)
from .tissue_gen import (
    ShellModel,
    TubeSpec,
    add_supports,
    build_concentric_tube,
    export_shell,
    offset_surface,
)

__version__ = "0.1.0"
