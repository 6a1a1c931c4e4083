import numpy as np
import pytest

from handforge import deformation as dfm
from handforge.deformation import DeformationCurve, ThicknessCandidate
from handforge.errors import DuplicateCandidate, EmptyOverlap, MalformedTable, NonMonotoneStrain
from handforge.fixtures import make_demo_curves


def curve(strains, forces, label="c"):
    return DeformationCurve(np.asarray(strains, float), np.asarray(forces, float), label).validate()


def linear_curve(slope, label="c", hi=1.0):
    s = np.linspace(0.0, hi, 11)
    return DeformationCurve(s, slope * s, label)


class TestLoadCurves:
    CSV = (
        "strain,force,label\n"
        "0.0,0.0,a\n0.5,2.0,a\n1.0,5.0,a\n"
        "0.0,0.0,b\n1.0,3.0,b\n"
        "0.2,1.0,c\n0.1,0.5,c\n0.3,2.0,c\n"
    )

    def test_groups_by_label(self):
        curves = {c.label: c for c in dfm.load_curves(self.CSV)}
        assert set(curves) == {"a", "b", "c"}
        assert len(curves["a"].strains) == 3
        assert len(curves["b"].strains) == 2

    def test_rows_sorted_by_strain(self):
        curves = {c.label: c for c in dfm.load_curves(self.CSV)}
        assert curves["c"].strains.tolist() == [0.1, 0.2, 0.3]
        assert curves["c"].forces.tolist() == [0.5, 1.0, 2.0]

    def test_duplicate_strain(self):
        text = "strain,force,label\n0.1,1.0,a\n0.1,2.0,a\n0.2,3.0,a\n"
        with pytest.raises(NonMonotoneStrain, match="duplicate"):
            dfm.load_curves(text)

    def test_empty_and_headerless(self):
        with pytest.raises(MalformedTable):
            dfm.load_curves("")
        with pytest.raises(MalformedTable):
            dfm.load_curves("0.1,1.0,a\n")
        with pytest.raises(MalformedTable):
            dfm.load_curves("strain,force,label\n")

    def test_nonnumeric_row_located(self):
        text = "strain,force,label\n0.0,0.0,a\n0.5,soft,a\n"
        with pytest.raises(MalformedTable, match="line 3"):
            dfm.load_curves(text)

    def test_located_past_blank_lines(self):
        with pytest.raises(MalformedTable, match="line 4"):
            dfm.load_curves("strain,force,label\n\n0.0,0.0,a\n0.5,soft,a\n")

    @pytest.mark.parametrize("row", ["0.5,2.0,", "0.5,2.0"], ids=["empty", "missing"])
    def test_row_without_label_located(self, row):
        with pytest.raises(MalformedTable, match="no label at line 3"):
            dfm.load_curves(f"strain,force,label\n0.0,0.0,a\n{row}\n1.0,5.0,a\n")

    def test_single_sample_curve(self):
        with pytest.raises(MalformedTable, match="at least 2"):
            dfm.load_curves("strain,force,label\n0.1,1.0,a\n")

    def test_roundtrip_through_dump(self):
        curves = dfm.load_curves(self.CSV)
        back = dfm.load_curves(dfm.dump_curves(curves))
        assert {c.label for c in back} == {c.label for c in curves}
        for c, b in zip(sorted(curves, key=lambda c: c.label), sorted(back, key=lambda c: c.label)):
            assert np.array_equal(c.strains, b.strains)
            assert np.array_equal(c.forces, b.forces)


class TestDistance:
    def test_identical_curves_zero(self):
        a = linear_curve(3.0)
        assert dfm.curve_distance(a, a) == 0.0

    def test_constant_shift(self):
        a = curve([0.0, 1.0], [1.0, 1.0])
        b = curve([0.0, 1.0], [2.0, 2.0])
        assert dfm.curve_distance(a, b) == pytest.approx(1.0)

    def test_symmetric(self):
        a = linear_curve(2.0, "a")
        b = curve([0.0, 0.4, 1.0], [0.0, 3.0, 4.0], "b")
        assert dfm.curve_distance(a, b) == pytest.approx(dfm.curve_distance(b, a))

    def test_disjoint_ranges(self):
        a = curve([0.0, 0.4], [0.0, 1.0])
        b = curve([0.5, 1.0], [0.0, 1.0])
        with pytest.raises(EmptyOverlap):
            dfm.curve_distance(a, b)


class TestSelectThickness:
    def sigmas(self):
        return (0.3, 0.4, 0.5, 0.6, 0.8)

    def make_family(self):
        curves = {c.label: c for c in make_demo_curves()}
        human = curves.pop("human")
        cands = [ThicknessCandidate(float(label.split("=")[1]), c)
                 for label, c in curves.items()]
        return sorted(cands, key=lambda c: c.sigma), human

    def test_synthetic_family_picks_matching_wall(self):
        cands, human = self.make_family()
        sigma_star, distances = dfm.select_thickness(cands, human)
        assert sigma_star == 0.4
        assert distances[0.4] == pytest.approx(0.0, abs=1e-12)
        assert set(distances) == set(self.sigmas())

    def test_order_invariant(self):
        cands, human = self.make_family()
        forward, _ = dfm.select_thickness(cands, human)
        backward, _ = dfm.select_thickness(list(reversed(cands)), human)
        assert forward == backward

    def test_two_candidates_for_one_sigma(self):
        human = linear_curve(2.0, "human")
        cands = [ThicknessCandidate(0.4, linear_curve(2.0, "sigma=0.4")),
                 ThicknessCandidate(0.4, linear_curve(9.0, "sigma=0.40"))]
        with pytest.raises(DuplicateCandidate, match=r"sigma=0.4 twice: 'sigma=0.4' and 'sigma=0.40'"):
            dfm.select_thickness(cands, human)

    def test_single_candidate(self):
        human = linear_curve(2.0, "human")
        sigma_star, distances = dfm.select_thickness(
            [ThicknessCandidate(0.5, linear_curve(9.0, "sigma=0.5"))], human)
        assert sigma_star == 0.5
        assert len(distances) == 1

    def test_tie_breaks_to_smaller_sigma(self):
        human = linear_curve(2.0, "human")
        cands = [
            ThicknessCandidate(0.6, linear_curve(3.0)),
            ThicknessCandidate(0.3, linear_curve(1.0)),
        ]
        sigma_star, distances = dfm.select_thickness(cands, human)
        assert distances[0.3] == pytest.approx(distances[0.6])
        assert sigma_star == 0.3

    def test_adding_worse_candidate_keeps_winner(self):
        cands, human = self.make_family()
        sigma_star, _ = dfm.select_thickness(cands, human)
        worse = ThicknessCandidate(1.5, linear_curve(50.0, hi=0.5))
        assert dfm.select_thickness(cands + [worse], human)[0] == sigma_star

    def test_no_candidates(self):
        with pytest.raises(ValueError):
            dfm.select_thickness([], linear_curve(1.0))

    def test_overlap_error_names_sigma(self):
        human = curve([0.0, 0.4], [0.0, 1.0], "human")
        cands = [ThicknessCandidate(0.5, curve([0.5, 1.0], [0.0, 1.0]))]
        with pytest.raises(EmptyOverlap, match="sigma=0.5"):
            dfm.select_thickness(cands, human)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), -1.0, 0.0])
    def test_candidate_sigma_positive_finite(self, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            ThicknessCandidate(sigma, linear_curve(1.0))
