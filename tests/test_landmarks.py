import numpy as np
import pytest

from handforge import fixtures, landmarks
from handforge.errors import SchemaViolation, ZeroReference
from handforge.landmarks import (
    LANDMARK_NAMES,
    bone_frame,
    default_topology,
    load_landmarks,
)


@pytest.fixture(scope="module")
def template_doc():
    return fixtures.template_landmarks().to_document()


class TestSchema:
    def test_schema_size(self):
        assert len(LANDMARK_NAMES) == 25

    def test_valid_document(self, template_doc):
        lms = load_landmarks(template_doc)
        assert len(lms.points) == 25

    def test_missing_entry_named(self, template_doc):
        doc = dict(template_doc)
        doc.pop("index_pip")
        with pytest.raises(SchemaViolation, match="index_pip"):
            load_landmarks(doc)

    def test_unknown_entry(self, template_doc):
        doc = dict(template_doc)
        doc["wrist_x"] = [0.0, 0.0]
        with pytest.raises(SchemaViolation, match="wrist_x"):
            load_landmarks(doc)

    def test_nonfinite_coordinate(self, template_doc):
        doc = dict(template_doc)
        doc["wrist_center"] = [float("nan"), 0.0]
        with pytest.raises(SchemaViolation, match="wrist_center"):
            load_landmarks(doc)


class TestTopology:
    def test_19_bones(self):
        topo = default_topology()
        assert len(topo.bones) == 19
        assert len(set(topo.bone_ids)) == 19

    def test_all_frames_build(self, template_doc):
        lms = load_landmarks(template_doc)
        topo = default_topology()
        frames = [bone_frame(lms, topo, b) for b in topo.bone_ids]
        assert len(frames) == 19


class TestBoneFrame:
    def test_reference_is_difference(self, template_doc):
        doc = dict(template_doc)
        doc["index_mcp"] = [10.0, 20.0]
        doc["index_pip"] = [10.0, 50.0]
        frame = bone_frame(load_landmarks(doc), default_topology(), "index_proximal")
        assert np.allclose(frame.origin, [10.0, 20.0])
        assert np.allclose(frame.reference, [0.0, 30.0])

    def test_coincident_landmarks(self, template_doc):
        doc = dict(template_doc)
        doc["index_pip"] = doc["index_mcp"]
        with pytest.raises(ZeroReference, match="index_proximal"):
            bone_frame(load_landmarks(doc), default_topology(), "index_proximal")

    def test_depends_only_on_named_landmarks(self, template_doc):
        topo = default_topology()
        base = bone_frame(load_landmarks(template_doc), topo, "ring_distal")
        doc = dict(template_doc)
        doc["thumb_tip"] = [-90.0, 90.0]
        moved = bone_frame(load_landmarks(doc), topo, "ring_distal")
        assert np.array_equal(base.origin, moved.origin)
        assert np.array_equal(base.reference, moved.reference)
