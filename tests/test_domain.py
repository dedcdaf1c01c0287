"""Mask parsing and the stencil operators."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mildflow import (
    DomainMask,
    FieldMismatchError,
    MaskCharacterError,
    MaskDimensionError,
    MaskEmptyError,
    MaskHeaderError,
    ScalarField,
    VectorField,
    build_operators,
    field_dot,
    format_mask,
    load_mask,
)
from mildflow.cli import EXIT_MASK, EXIT_OK, main
from conftest import PROPERTY_SETTINGS, mask_path, masks, random_scalar_values, random_vector_field

FULL_BOX_2 = "mask v1\n2 2 2 1.0\n11\n11\n\n11\n11\n"
# one row, where the header sizes a grid of 10^13 cells
WIDE_ROW = "mask v1\n10000000000000 1 1 1.0\n1\n"
# the same cells at another spacing: a different mask
COARSE_BOX_2 = FULL_BOX_2.replace(" 1.0", " 2.0")


class TestMaskParsing:
    def test_full_box_has_eight_cells(self):
        mask = load_mask(FULL_BOX_2)
        assert mask.n_cells == 8
        assert mask.dims == (2, 2, 2)
        assert mask.spacing == 1.0

    def test_reads_bytes_and_streams(self):
        assert load_mask(FULL_BOX_2.encode()).n_cells == 8
        assert load_mask(io.BytesIO(FULL_BOX_2.encode())).n_cells == 8
        assert load_mask(mask_path("box4")).n_cells == 64
        assert load_mask(Path(mask_path("box4"))).n_cells == 64

    def test_path_that_starts_with_the_magic_line(self, tmp_path, monkeypatch, capsys):
        # a newline-free str is a path, even one that reads like the magic line
        (tmp_path / "mask v1").mkdir()
        (tmp_path / "mask v1" / "box2.mask").write_text(FULL_BOX_2)
        monkeypatch.chdir(tmp_path)
        assert load_mask("mask v1/box2.mask").n_cells == 8
        assert main(["mask-info", "mask v1/box2.mask"]) == EXIT_OK
        assert "occupied cells: 8 of 8" in capsys.readouterr().out

    def test_empty_mask_rejected(self):
        with pytest.raises(MaskEmptyError):
            load_mask("mask v1\n2 1 1 1.0\n00\n")

    def test_l_shape_fixture_occupancy(self):
        # The authored fixture has 5 ones: column of two plus a bottom row.
        mask = load_mask(mask_path("lshape_3x3x1"))
        assert mask.n_cells == 5
        assert mask.occupancy[0, 0, 0] and mask.occupancy[0, 1, 0]
        assert mask.occupancy[:, 2, 0].all()

    def test_bad_magic_line(self):
        with pytest.raises(MaskHeaderError):
            load_mask("voxels v2\n1 1 1 1.0\n1\n")
        with pytest.raises(MaskHeaderError, match="the file has CRLF line endings"):
            load_mask(FULL_BOX_2.replace("\n", "\r\n"))

    def test_bad_dimension_line(self):
        with pytest.raises(MaskHeaderError, match="missing dimension line"):
            load_mask("mask v1\n")
        with pytest.raises(MaskHeaderError):
            load_mask("mask v1\n2 2 1.0\n11\n11\n")
        with pytest.raises(MaskHeaderError):
            load_mask("mask v1\n2 x 1 1.0\n11\n11\n")
        with pytest.raises(MaskHeaderError):
            load_mask("mask v1\n0 2 1 1.0\n\n")
        with pytest.raises(MaskHeaderError):
            load_mask("mask v1\n2 2 1 -1.0\n11\n11\n")

    def test_body_shape_mismatch(self):
        with pytest.raises(MaskDimensionError):
            load_mask("mask v1\n2 2 1 1.0\n11\n")  # missing a row
        with pytest.raises(MaskDimensionError):
            load_mask("mask v1\n2 2 1 1.0\n111\n11\n")  # row too long
        with pytest.raises(MaskDimensionError):
            load_mask("mask v1\n2 2 2 1.0\n11\n11\n11\n11\n")  # no blank separator
        with pytest.raises(MaskDimensionError, match="blank line between blocks"):
            load_mask("mask v1\n2 2 2 1.0\n11\n11\nxx\n11\n11\n")  # right line count

    def test_invalid_character(self):
        with pytest.raises(MaskCharacterError):
            load_mask("mask v1\n2 2 1 1.0\n1x\n11\n")

    def test_unsupported_source_type(self):
        with pytest.raises(TypeError, match="cannot read a mask"):
            load_mask(42)

    @pytest.mark.parametrize("dims, occupancy, error", [
        ((0, 2, 2), np.ones((0, 2, 2), bool), MaskHeaderError),
        ((2, 2, 2), np.ones((2, 2, 1), bool), MaskDimensionError),
    ], ids=["extent_below_1", "occupancy_shape"])
    def test_domain_mask_checks_its_arguments(self, dims, occupancy, error):
        with pytest.raises(error):
            DomainMask(dims, 1.0, occupancy)

    def test_format_roundtrip(self):
        mask = load_mask(mask_path("lmask_6x6x3"))
        again = load_mask(format_mask(mask))
        assert np.array_equal(mask.occupancy, again.occupancy)
        assert again.spacing == mask.spacing

    @pytest.mark.parametrize("spacing", [np.float64(0.5), np.float32(0.1), 2],
                             ids=["float64", "float32", "int"])
    def test_format_roundtrip_of_any_real_spacing(self, spacing):
        mask = DomainMask((2, 2, 1), spacing, np.ones((2, 2, 1), bool))
        again = load_mask(format_mask(mask))
        assert type(again.spacing) is float and again.spacing == float(spacing)

    def test_first_defect_in_file_order_is_reported(self):
        # a short row in block 0, then no blank line before block 1
        with pytest.raises(MaskDimensionError, match="^block 0 line 1 has 1 characters, expected 2$"):
            load_mask("mask v1\n2 2 2 1.0\n11\n1\n11\n11\n")

    def test_rows_are_checked_before_the_header_sizes_an_array(self):
        with pytest.raises(MaskDimensionError,
                           match="^block 0 line 0 has 1 characters, expected 10000000000000$"):
            load_mask(WIDE_ROW)

    @pytest.mark.parametrize("command", ["run", "mask-info"])
    def test_rows_too_short_for_the_header_are_a_mask_error(self, tmp_path, capsys, command):
        mask = tmp_path / "wide.mask"
        mask.write_text(WIDE_ROW)
        out = tmp_path / "out"
        config = tmp_path / "config.yaml"
        config.write_text(f"mask: {mask}\noutput_dir: {out}\nhorizon: 1.0\nsegments: 2\n"
                          "seed: 1\ninitial_data: {kind: zero}\n")
        assert main([command, str(config if command == "run" else mask)]) == EXIT_MASK
        message = "block 0 line 0 has 1 characters, expected 10000000000000"
        if command == "run":
            failure = json.loads((out / "summary.json").read_text())["failure"]
            assert failure == {"stage": "mask", "error": "MaskDimensionError", "message": message}
            assert (out / "trace.json").is_file()
        else:
            assert capsys.readouterr().err == f"mask error: {message}\n"

    @pytest.mark.parametrize("extra", range(6))
    def test_any_number_of_trailing_newlines(self, extra):
        assert load_mask(FULL_BOX_2 + "\n" * extra).n_cells == 8
        with pytest.raises(MaskDimensionError):  # a line of spaces is not empty
            load_mask(FULL_BOX_2 + "\n" * extra + " \n")


@PROPERTY_SETTINGS
@given(masks(), st.sampled_from([0.25, 1.0 / 3.0, 1e-3]))
def test_mask_format_load_round_trip(mask, h):
    # the text written cell by cell as the format reads it: character i of
    # line j in block k is cell (i, j, k), so the extents may all differ
    mask = DomainMask(mask.dims, h, mask.occupancy)
    (nx, ny, nz), occ = mask.dims, mask.occupancy
    blocks = ("".join("".join("1" if occ[i, j, k] else "0" for i in range(nx)) + "\n"
                      for j in range(ny)) for k in range(nz))
    text = f"mask v1\n{nx} {ny} {nz} {h!r}\n" + "\n".join(blocks)
    assert load_mask(text).same_as(mask)
    assert format_mask(load_mask(text)) == text
    assert format_mask(mask) == text


class TestFieldChecks:
    @pytest.mark.parametrize("values", [np.zeros(7), np.zeros((8, 1))], ids=["short", "2d"])
    def test_scalar_field_shape(self, values):
        with pytest.raises(FieldMismatchError):
            ScalarField(load_mask(FULL_BOX_2), values)

    @pytest.mark.parametrize("values", [np.zeros((3, 7)), np.zeros(24)], ids=["short", "flat"])
    def test_vector_field_shape(self, values):
        with pytest.raises(FieldMismatchError):
            VectorField(load_mask(FULL_BOX_2), values)

    def test_field_dot_across_masks(self):
        a, b = (VectorField.zeros(load_mask(text)) for text in (FULL_BOX_2, COARSE_BOX_2))
        with pytest.raises(FieldMismatchError):
            field_dot(a, b)

    @pytest.mark.parametrize("method, kind", [
        ("gradient_of", ScalarField), ("divergence_of", VectorField),
        ("laplacian_of", VectorField)])
    def test_operators_reject_fields_on_another_mask(self, method, kind):
        ops = build_operators(load_mask(FULL_BOX_2))
        other = load_mask(COARSE_BOX_2)
        field = (ScalarField(other, np.zeros(8)) if kind is ScalarField
                 else VectorField.zeros(other))
        with pytest.raises(FieldMismatchError, match="different mask"):
            getattr(ops, method)(field)


class TestOperators:
    def test_single_cell_laplacian_is_six(self):
        ops = build_operators(load_mask(mask_path("single")))
        u = VectorField(ops.mask, np.array([[1.0], [2.0], [-3.0]]))
        out = ops.laplacian_of(u)
        assert np.allclose(out.values, 6.0 * u.values)

    def test_bar_laplacian_spectrum(self):
        # 1x1xn bar: the occupied axis contributes the 1D Dirichlet chain,
        # the two blocked transverse axes shift everything by 4.
        n = 7
        body = "\n\n".join("1" for _ in range(n))
        mask = load_mask(f"mask v1\n1 1 {n} 1.0\n{body}\n")
        ops = build_operators(mask)
        dense = ops.laplacian[:n, :n].toarray()
        eigs = np.sort(np.linalg.eigvalsh(dense))
        k = np.arange(1, n + 1)
        expected = np.sort(4.0 + 2.0 * (1.0 - np.cos(k * np.pi / (n + 1))))
        assert np.allclose(eigs, expected, rtol=1e-12, atol=1e-12)

    def test_gradient_divergence_adjointness(self, box4_ops):
        rng = np.random.default_rng(7)
        mask = box4_ops.mask
        for _ in range(5):
            p = ScalarField(mask, random_scalar_values(mask, rng))
            u = random_vector_field(mask, rng)
            lhs = field_dot(box4_ops.gradient_of(p), u)
            rhs = field_dot(p, box4_ops.divergence_of(u))
            scale = abs(lhs) + abs(rhs)
            assert abs(lhs + rhs) <= 1e-12 * max(scale, 1.0)

    def test_adjointness_with_nonunit_spacing(self):
        mask = load_mask("mask v1\n3 3 2 0.5\n" + "\n".join(["111"] * 3 + [""] + ["111"] * 3) + "\n")
        ops = build_operators(mask)
        rng = np.random.default_rng(11)
        p = ScalarField(mask, random_scalar_values(mask, rng))
        u = random_vector_field(mask, rng)
        lhs = field_dot(ops.gradient_of(p), u)
        rhs = field_dot(p, ops.divergence_of(u))
        assert abs(lhs + rhs) <= 1e-12 * (abs(lhs) + abs(rhs))

    def test_laplacian_symmetric_positive(self, box4_ops):
        rng = np.random.default_rng(3)
        mask = box4_ops.mask
        for _ in range(5):
            u = random_vector_field(mask, rng)
            v = random_vector_field(mask, rng)
            lu_v = field_dot(box4_ops.laplacian_of(u), v)
            u_lv = field_dot(u, box4_ops.laplacian_of(v))
            assert abs(lu_v - u_lv) <= 1e-12 * max(abs(lu_v), 1.0)
            assert field_dot(box4_ops.laplacian_of(u), u) > 0.0

    def test_div_grad_is_negative_wide_laplacian(self, box4_ops):
        # div(grad p) must match the 2h-stencil Dirichlet operator that the
        # centered differences induce; assembled here by explicit loops.
        mask = box4_ops.mask
        rng = np.random.default_rng(5)
        p = random_scalar_values(mask, rng)
        h = mask.spacing
        occ = mask.occupancy
        idx = mask.index_grid
        expected = np.zeros_like(p)
        shifts = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

        def value(i, j, k):
            nx, ny, nz = mask.dims
            if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz and occ[i, j, k]:
                return p[idx[i, j, k]]
            return 0.0

        def occupied(i, j, k):
            nx, ny, nz = mask.dims
            return 0 <= i < nx and 0 <= j < ny and 0 <= k < nz and occ[i, j, k]

        for (i, j, k) in mask.cells:
            acc = 0.0
            for (sx, sy, sz) in shifts:
                if occupied(i + sx, j + sy, k + sz):
                    acc += value(i + 2 * sx, j + 2 * sy, k + 2 * sz) - value(i, j, k)
                if occupied(i - sx, j - sy, k - sz):
                    acc += value(i - 2 * sx, j - 2 * sy, k - 2 * sz) - value(i, j, k)
            expected[idx[i, j, k]] = acc / (4.0 * h * h)

        got = box4_ops.divergence @ (box4_ops.gradient @ p)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        # and it is negative semidefinite: <div grad p, p> = -||grad p||^2
        quad = p @ got
        grad_sq = np.linalg.norm(box4_ops.gradient @ p) ** 2
        assert abs(quad + grad_sq) <= 1e-12 * grad_sq
