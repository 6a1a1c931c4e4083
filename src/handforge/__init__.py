"""Customized multi-layer printable hand models from a 3D hand scan.

Pipeline: parse/validate the scanned surface mesh, fit a template bone
set through per-bone similarity transforms pinned by 25 landmarks, build
hollow concentric-tube tissue shells with a controllable wall parameter,
select that wall thickness from deformation curves, and simulate the
single-cable underactuated finger drive.
"""

__version__ = "0.1.0"
