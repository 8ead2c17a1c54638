import xml.etree.ElementTree as ET

import numpy as np
import pytest

from taxelkit.svgplot import (circle_radius_px, curves_svg, force_field_svg,
                              heatmap_svg, montage_svg)

NS = {"svg": "http://www.w3.org/2000/svg"}


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def by_class(root: ET.Element, cls: str) -> list[ET.Element]:
    return [el for el in root.iter() if el.get("class") == cls]


class TestCircleRadius:
    def test_zero(self):
        assert circle_radius_px(0.0) == 0.0

    def test_monotone(self):
        radii = [circle_radius_px(-f) for f in np.linspace(0, 7, 15)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_saturates(self):
        assert circle_radius_px(-7.0) == circle_radius_px(-100.0)


class TestForceField:
    def test_well_formed_xml(self):
        root = parse(force_field_svg(np.zeros((49, 3))))
        assert root.tag.endswith("svg")

    def test_zero_frame_has_no_glyphs(self):
        root = parse(force_field_svg(np.zeros((49, 3))))
        assert by_class(root, "normal") == []
        assert by_class(root, "shear") == []
        # but the 49 grid dots are always there
        dots = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(dots) == 49

    def test_normal_circles(self):
        forces = np.zeros((49, 3))
        forces[0, 2] = -5.0
        forces[10, 2] = -2.0
        root = parse(force_field_svg(forces))
        circles = by_class(root, "normal")
        assert len(circles) == 2
        radii = sorted(float(c.get("r")) for c in circles)
        assert radii[1] == pytest.approx(circle_radius_px(-5.0), abs=0.01)

    def test_shear_arrows(self):
        forces = np.zeros((49, 3))
        forces[3, 0] = 1.5  # +x shear
        root = parse(force_field_svg(forces))
        arrows = by_class(root, "shear")
        assert len(arrows) == 1
        a = arrows[0]
        # arrow points in +x: x2 > x1, y unchanged
        assert float(a.get("x2")) > float(a.get("x1"))
        assert float(a.get("y2")) == pytest.approx(float(a.get("y1")))

    def test_arrow_length_scales_with_shear(self):
        def length(fx):
            forces = np.zeros((49, 3))
            forces[3, 0] = fx
            (a,) = by_class(parse(force_field_svg(forces)), "shear")
            return float(a.get("x2")) - float(a.get("x1"))

        assert length(2.0) > length(0.5)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            force_field_svg(np.zeros((48, 3)))


class TestMontage:
    def test_panels(self):
        frames = np.zeros((122, 49, 3))
        frames[:, 0, 2] = -3.0
        root = parse(montage_svg(frames))
        groups = [el for el in root.iter() if el.tag.endswith("}g")]
        assert len(groups) == 6
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "frame 0" in texts and "frame 121" in texts


class TestCurves:
    def test_well_formed_and_series_count(self):
        xs = np.linspace(0, 3, 50)
        svg = curves_svg(xs, [("bx", np.sin(xs)), ("bz", np.cos(xs))], "flux")
        root = parse(svg)
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(lines) == 2
        assert all(len(l.get("points").split()) == 50 for l in lines)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "flux" in texts and "bx" in texts and "bz" in texts

    def test_flat_series(self):
        xs = np.linspace(0, 1, 5)
        root = parse(curves_svg(xs, [("c", np.ones(5))], "t"))
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        ys = {p.split(",")[1] for p in line.get("points").split()}
        assert len(ys) == 1  # constant stays a horizontal line

    def test_points_inside_viewbox(self):
        xs = np.linspace(0, 3, 40)
        root = parse(curves_svg(xs, [("v", np.sin(xs) * 100)], "t"))
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        for pt in line.get("points").split():
            x, y = map(float, pt.split(","))
            assert 0 <= x <= 520 and 0 <= y <= 340


class TestHeatmap:
    def test_cells_and_labels(self):
        m = np.eye(13)
        labels = [f"c{i}" for i in range(13)]
        root = parse(heatmap_svg(m, labels, "confusion"))
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 13 * 13 + 1  # cells + background
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for name in labels:
            assert texts.count(name) == 2  # row and column label

    def test_annotation_values(self):
        m = np.zeros((2, 2))
        m[0, 0] = 0.87
        root = parse(heatmap_svg(m, ["a", "b"], "t"))
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "0.87" in texts
        assert "0.00" not in texts  # zeros stay unannotated

    def test_shade_darkens_with_value(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        root = parse(heatmap_svg(m, ["a", "b"], "t"))
        fills = [el.get("fill") for el in root.iter()
                 if el.tag.endswith("rect") and el.get("fill", "").startswith("rgb")]
        reds = [int(f.split("(")[1].split(",")[0]) for f in fills]
        # cells in row-major order: higher value -> darker (smaller red channel)
        assert reds[1] < reds[2] < reds[0]
        assert reds[0] == reds[3] == 255
