"""Exception hierarchy shared by all handforge modules."""


class HandforgeError(Exception):
    """Base class for all domain errors raised by this package."""


# --- mesh I/O ---

class MalformedFile(HandforgeError):
    """Unparseable mesh file. Carries a byte offset or line number when known."""

    def __init__(self, message, *, line=None, byte=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif byte is not None:
            loc = f" (byte {byte})"
        super().__init__(message + loc)
        self.line = line
        self.byte = byte


class EmptyMesh(HandforgeError):
    """A parsed file contained zero faces."""


class MeshInvariantError(HandforgeError):
    """A TriangleMesh violates its structural invariants."""


class DegenerateVertex(HandforgeError):
    """Vertex normal could not be computed (incident face normals cancel)."""

    def __init__(self, vertex_index):
        super().__init__(f"degenerate normal at vertex {vertex_index}")
        self.vertex_index = vertex_index


# --- landmarks ---

class SchemaViolation(HandforgeError):
    """Landmark document does not match the 25-name schema."""


class ZeroReference(HandforgeError):
    """The two landmarks defining a bone frame coincide."""


# --- template matching ---

class BoneTooShort(HandforgeError):
    """Bone axial extent too small for the requested hole end offsets."""


# --- tissue generation ---

class ContainmentError(HandforgeError):
    """Bone mesh is not strictly inside the skin segment."""


class GapTooSmall(HandforgeError):
    """Offset surfaces collide: the skin-to-bone gap cannot absorb sigma."""


class PlacementFailure(HandforgeError):
    """A support strut ray failed to hit both shell surfaces."""


# --- deformation curves ---

class MalformedTable(HandforgeError):
    """Curve table unparseable or missing required columns."""


class NonMonotoneStrain(HandforgeError):
    """Strain samples within one curve are not strictly increasing."""


class EmptyOverlap(HandforgeError):
    """Two curves have disjoint strain ranges."""


class DuplicateCandidate(HandforgeError):
    """Two thickness candidates share one sigma."""


# --- kinematics ---

class NonConvergence(HandforgeError):
    """Flexion solver failed to reach the residual target."""
