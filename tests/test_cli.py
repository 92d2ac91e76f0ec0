import json

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import derivative_stencil

from diffconv import npyio
from diffconv.cli import main
from diffconv.engine import METHODS, apply_method
from diffconv.npyio import load_array, save_array
from diffconv.stencils import matrix_payload


@pytest.fixture
def runner():
    return CliRunner()


def test_kernels_exact_corner_matrix(runner):
    result = runner.invoke(main, ["kernels", "--size", "3", "--pos", "0,0", "--exact"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["size"] == 3
    assert payload["position"] == [0, 0]
    assert payload["stencil_matrix"][0] == [
        "1/1", "-3/2", "1/1", "-3/2", "9/4", "-3/2", "1/1", "-3/2", "1/1",
    ]
    assert payload["derivative_stencils"]["0,0"][0][0] == "1/1"
    assert payload["center_condition_1norm"] == pytest.approx(100.0)


@pytest.mark.parametrize("exact", [True, False])
def test_kernels_derivative_stencils_are_matrix_columns(runner, exact):
    result = runner.invoke(main, ["kernels", "--size", "5", "--pos", "0,3"]
                           + ["--exact"] * exact)
    assert result.exit_code == 0
    stencils = json.loads(result.output)["derivative_stencils"]
    assert list(stencils) == [f"{oy},{ox}" for oy in range(5) for ox in range(5)]
    for key, payload in stencils.items():
        oy, ox = map(int, key.split(","))
        assert payload == matrix_payload(derivative_stencil(5, oy, ox, 0, 3), exact)


def test_kernels_center_transform_is_identity(runner):
    result = runner.invoke(main, ["kernels", "--size", "3", "--pos", "1,1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["transform"] == np.eye(9).tolist()


def test_kernels_rejects_even_size(runner):
    result = runner.invoke(main, ["kernels", "--size", "2"])
    assert result.exit_code == 2
    assert "kernel size" in result.output


def test_kernels_rejects_bad_position(runner):
    result = runner.invoke(main, ["kernels", "--size", "3", "--pos", "0,3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("pos,message", [
    ("1", "position must be 'R,S', got '1'"),
    ("0,1,2", "position must be 'R,S', got '0,1,2'"),
    ("a,1", "position must be two integers, got 'a,1'"),
])
def test_kernels_rejects_a_malformed_position(runner, pos, message):
    result = runner.invoke(main, ["kernels", "--size", "3", "--pos", pos])
    assert result.exit_code == 2
    assert message in result.stderr


def test_make_kernel_laplace(runner, tmp_path):
    out = tmp_path / "lap.npy"
    result = runner.invoke(
        main, ["make-kernel", "--size", "3", "--op", "20:1,02:1", "--output", str(out)]
    )
    assert result.exit_code == 0
    kernel = load_array(out)
    assert np.array_equal(kernel, np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]))


def test_make_kernel_identity(runner, tmp_path):
    out = tmp_path / "id.npy"
    result = runner.invoke(main, ["make-kernel", "--size", "3", "--op", "00:1", "--output", str(out)])
    assert result.exit_code == 0
    kernel = load_array(out)
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.array_equal(kernel, expected)


def test_make_kernel_size5_laplace_structure(runner, tmp_path):
    out = tmp_path / "lap5.npy"
    result = runner.invoke(
        main, ["make-kernel", "--size", "5", "--op", "20:1,02:1", "--output", str(out)]
    )
    assert result.exit_code == 0
    kernel = load_array(out)
    assert kernel.shape == (5, 5)
    # pure-derivative stencil: zero total weight, support on the center cross
    assert kernel.sum() == pytest.approx(0.0, abs=1e-12)
    mask = np.ones((5, 5), dtype=bool)
    mask[2, :] = False
    mask[:, 2] = False
    assert np.max(np.abs(kernel[mask])) <= 1e-14


def test_make_kernel_rejects_bad_op(runner, tmp_path):
    out = tmp_path / "x.npy"
    result = runner.invoke(main, ["make-kernel", "--size", "3", "--op", "55:1", "--output", str(out)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["make-kernel", "--size", "3", "--op", "zz", "--output", str(out)])
    assert result.exit_code == 2


@pytest.mark.parametrize("op,message", [
    ("20:x", "operator value in '20:x' is not a number"),
    ("", "no operator entries given"),
    (" , ", "no operator entries given"),
])
def test_make_kernel_rejects_a_non_number_and_an_empty_op(runner, tmp_path, op, message):
    out = tmp_path / "x.npy"
    result = runner.invoke(main, ["make-kernel", "--size", "3", "--op", op, "--output", str(out)])
    assert result.exit_code == 2
    assert message in result.stderr
    assert not out.exists()


def test_make_kernel_rejects_repeated_index(runner, tmp_path):
    # The second 20 entry used to overwrite the first.
    out = tmp_path / "x.npy"
    result = runner.invoke(main, ["make-kernel", "--size", "3", "--op", "20:1,20:5",
                                  "--output", str(out)])
    assert result.exit_code == 2
    assert "operator index 20 given more than once" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("size", ["4", "-3", "100000"])
def test_make_kernel_rejects_bad_size(runner, tmp_path, size):
    # The size is checked before it sizes a K^2 coefficient vector.
    out = tmp_path / "x.npy"
    result = runner.invoke(main, ["make-kernel", "--size", size, "--op", "00:1", "--output", str(out)])
    assert result.exit_code == 2
    assert f"kernel size must be one of (3, 5, 7, 9), got {size}" in result.stderr
    assert not out.exists()


def test_gen_polynomial(runner, tmp_path):
    out = tmp_path / "poly.npy"
    result = runner.invoke(
        main,
        ["gen", "--family", "polynomial", "--coeffs", "01:1,10:1", "--height", "3",
         "--width", "3", "--output", str(out)],
    )
    assert result.exit_code == 0
    assert np.array_equal(
        load_array(out), np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    )


@pytest.mark.parametrize("coeffs,message", [
    ("00:1,00:2", "coefficient index 00 given more than once"),
    ("00:nan,11:1", "polynomial coefficients must be finite"),
    ("00:inf", "polynomial coefficients must be finite"),
])
def test_gen_rejects_bad_coefficients(runner, tmp_path, coeffs, message):
    out = tmp_path / "poly.npy"
    result = runner.invoke(main, ["gen", "--family", "polynomial", "--coeffs", coeffs,
                                  "--height", "4", "--width", "4", "--output", str(out)])
    assert result.exit_code == 2
    assert message in result.stderr
    assert not out.exists()


def test_gen_chebyshev_with_margin(runner, tmp_path):
    out = tmp_path / "c.npy"
    result = runner.invoke(
        main,
        ["gen", "--family", "chebyshev", "--order", "2", "--height", "16", "--width", "16",
         "--margin", "2", "--output", str(out)],
    )
    assert result.exit_code == 0
    assert load_array(out).shape == (20, 20)


def test_gen_polynomial_requires_coeffs(runner, tmp_path):
    result = runner.invoke(
        main,
        ["gen", "--family", "polynomial", "--height", "3", "--width", "3",
         "--output", str(tmp_path / "p.npy")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("family", ["chebyshev", "spherical"])
def test_gen_rejects_coeffs_for_an_ordered_family(runner, tmp_path, family):
    out = tmp_path / "f.npy"
    result = runner.invoke(main, ["gen", "--family", family, "--order", "2", "--coeffs", "00:1",
                                  "--height", "4", "--width", "4", "--output", str(out)])
    assert result.exit_code == 2
    assert f"{family} family takes an order, not a coefficient table" in result.stderr
    assert not out.exists()


def test_gen_rejects_an_order_for_polynomial(runner, tmp_path):
    out = tmp_path / "p.npy"
    result = runner.invoke(main, ["gen", "--family", "polynomial", "--order", "7", "--coeffs",
                                  "00:1", "--height", "4", "--width", "4", "--output", str(out)])
    assert result.exit_code == 2
    assert "polynomial family takes a coefficient table, not an order" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("family", ["chebyshev", "spherical"])
def test_gen_defaults_to_order_one(runner, tmp_path, family):
    paths = [tmp_path / "default.npy", tmp_path / "one.npy"]
    for path, order in zip(paths, [[], ["--order", "1"]]):
        result = runner.invoke(main, ["gen", "--family", family, *order, "--height", "4",
                                      "--width", "5", "--output", str(path)])
        assert result.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


FIELD_BEYOND_FLOAT64 = ("Error: chebyshev field of order 1400 on a 16x16 grid with margin 1 "
                        "does not fit in float64\n")


def test_gen_reports_a_field_beyond_float64(runner, tmp_path):
    out = tmp_path / "c.npy"
    result = runner.invoke(main, ["gen", "--family", "chebyshev", "--order", "1400", "--height",
                                  "16", "--width", "16", "--margin", "1", "--output", str(out)])
    assert result.exit_code == 1
    assert result.stderr == FIELD_BEYOND_FLOAT64
    assert not out.exists()


def test_compare_reports_a_field_beyond_float64(runner, tmp_path):
    # compare samples a K = 3 field with a one-cell margin.
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["compare", "--orders", "1400", "--height", "16", "--width",
                                  "16", "--filters", "1", "--output", str(out)])
    assert result.exit_code == 1
    assert result.stderr == FIELD_BEYOND_FLOAT64
    assert not out.exists()


def test_compare_runs_high_spherical_orders(runner):
    result = runner.invoke(main, ["compare", "--family", "spherical", "--orders", "57,200",
                                  "--height", "16", "--width", "16", "--filters", "2"])
    assert result.exit_code == 0
    assert len(result.output.strip().split("\n")) == 1 + 2 * 8 * 2


def test_filter_identity_kernel_round_trip(runner, tmp_path):
    rng = np.random.default_rng(5)
    image = rng.uniform(-1.0, 1.0, size=(10, 12))
    kernel = np.zeros((3, 3))
    kernel[1, 1] = 1.0
    img_path, ker_path, out_path = tmp_path / "i.npy", tmp_path / "k.npy", tmp_path / "o.npy"
    save_array(img_path, image)
    save_array(ker_path, kernel)
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "diff", "--output", str(out_path)],
    )
    assert result.exit_code == 0
    assert np.array_equal(load_array(out_path), image)


def test_filter_partial_ones(runner, tmp_path):
    img_path, ker_path, out_path = tmp_path / "i.npy", tmp_path / "k.npy", tmp_path / "o.npy"
    save_array(img_path, np.ones((4, 4)))
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "partial", "--output", str(out_path)],
    )
    assert result.exit_code == 0
    assert np.array_equal(load_array(out_path), np.full((4, 4), 9.0))


def test_filter_zero_vs_diff_differ_only_on_band(runner, tmp_path):
    rng = np.random.default_rng(6)
    image = rng.uniform(-1.0, 1.0, size=(9, 9))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, image)
    save_array(ker_path, kernel)
    outputs = {}
    for method in ("zero", "diff"):
        out_path = tmp_path / f"{method}.npy"
        result = runner.invoke(
            main,
            ["filter", "--input", str(img_path), "--kernel", str(ker_path),
             "--method", method, "--output", str(out_path)],
        )
        assert result.exit_code == 0
        outputs[method] = load_array(out_path)
    assert np.array_equal(outputs["zero"][1:-1, 1:-1], outputs["diff"][1:-1, 1:-1])
    assert not np.array_equal(outputs["zero"][0], outputs["diff"][0])


def test_filter_shape_violation_is_runtime_error(runner, tmp_path):
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, np.ones((2, 2)))
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "diff", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 1
    assert result.stderr == (
        "Error: diff got a field of shape 2x2; it needs at least one complete window (3x3)\n"
    )


def test_filter_rejects_even_kernel(runner, tmp_path):
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, np.ones((8, 8)))
    save_array(ker_path, np.ones((4, 4)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 1
    assert "kernel size must be one of" in result.stderr


@pytest.mark.parametrize("image_size, k", [(2, 3), (4, 5)])
@pytest.mark.parametrize("method", METHODS)
def test_filter_accepts_exactly_what_apply_method_accepts(runner, tmp_path, method, image_size, k):
    rng = np.random.default_rng(11)
    image = rng.uniform(-1.0, 1.0, size=(image_size, image_size))
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    img_path, ker_path, out_path = tmp_path / "i.npy", tmp_path / "k.npy", tmp_path / "o.npy"
    save_array(img_path, image)
    save_array(ker_path, kernel)
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", method, "--seed", "3", "--output", str(out_path)],
    )
    try:
        expected = apply_method(method, image, kernel, seed=3)
    except ValueError as exc:
        assert result.exit_code == 1
        assert result.stderr == f"Error: {exc}\n"
        assert not out_path.exists()
    else:
        assert result.exit_code == 0
        assert load_array(out_path).tobytes() == expected.tobytes()


def test_dump_bank_rejects_even_kernel_file(runner, tmp_path):
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((4, 4)))
    result = runner.invoke(main, ["dump-bank", "--kernel", str(ker_path)])
    assert result.exit_code == 1
    assert result.stderr == "Error: kernel size must be one of (3, 5, 7, 9), got 4\n"
    assert result.stdout == ""


def test_filter_negative_seed_is_usage_error(runner, tmp_path):
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, np.ones((8, 8)))
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "distribution", "--seed", "-1", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 2
    assert "--seed" in result.stderr


def test_filter_malformed_npy_is_runtime_error(runner, tmp_path):
    bad = tmp_path / "bad.npy"
    bad.write_bytes(b"garbage-not-an-array")
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(bad), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("header", [
    "{'descr': '<f8', []: 1}",
    "{'descr': '<f8', 'fortran_order': False, 'shape': (True, 2), }",
])
def test_filter_malformed_header_is_runtime_error(runner, tmp_path, header):
    bad = tmp_path / "bad.npy"
    raw = header.encode("latin1")
    bad.write_bytes(b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + b"\x00" * 16)
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(bad), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "bad.npy" in result.stderr


def test_filter_overflow_is_runtime_error(runner, tmp_path):
    img_path, ker_path, out_path = tmp_path / "i.npy", tmp_path / "k.npy", tmp_path / "o.npy"
    image = np.full((12, 12), 1e301)
    image[::2, ::2] = -1e301
    save_array(img_path, image)
    save_array(ker_path, np.ones((9, 9)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "diff", "--output", str(out_path)],
    )
    assert result.exit_code == 1
    assert "not finite for K=9" in result.stderr
    assert "3.002e+08" in result.stderr
    assert result.stdout == ""
    assert not out_path.exists()


def test_filter_zero_overflow_is_runtime_error(runner, tmp_path):
    img_path, ker_path, out_path = tmp_path / "i.npy", tmp_path / "k.npy", tmp_path / "o.npy"
    save_array(img_path, np.full((12, 12), 1e308))
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(out_path)],
    )
    assert result.exit_code == 1
    assert "zero output is not finite for K=3" in result.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("args", [
    ["filter", "--input", "IMAGE", "--kernel", "KERNEL", "--method", "zero"],
    ["gen", "--family", "chebyshev", "--height", "4", "--width", "4"],
    ["make-kernel", "--size", "3", "--op", "00:1"],
    ["compare", "--orders", "1:1", "--height", "8", "--width", "8", "--filters", "1"],
    ["kernels", "--size", "3"],
    ["dump-bank", "--kernel", "KERNEL"],
], ids=lambda args: args[0])
def test_write_into_missing_directory_is_one_line_error(runner, tmp_path, args):
    image, kernel = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(image, np.ones((5, 5)))
    save_array(kernel, np.ones((3, 3)))
    args = [{"IMAGE": str(image), "KERNEL": str(kernel)}.get(a, a) for a in args]
    out = tmp_path / "missing" / "out.dat"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: cannot write {out}: No such file or directory\n"
    assert sorted(tmp_path.iterdir()) == [image, kernel]


def test_compare_row_count_and_determinism(runner, tmp_path):
    args = ["compare", "--family", "chebyshev", "--orders", "1:3", "--height", "16",
            "--width", "16", "--size", "3", "--filters", "2", "--seed", "9"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    lines = first.output.strip().split("\n")
    assert lines[0] == "family,order,method,kernel_index,eps1,eps2"
    assert len(lines) == 1 + 3 * 8 * 2
    assert first.output == second.output


def test_compare_rejects_bad_orders(runner):
    result = runner.invoke(main, ["compare", "--orders", "5:1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["compare", "--orders", "abc"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args,message", [
    (["--orders", "0:2"], "orders must be a non-empty list of integers >= 1, got (0, 1, 2)"),
    (["--filters", "0"], "filter count must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["--height", "2"], "field 2x128 is smaller than the kernel size 3"),
])
def test_compare_rejects_each_config_constraint(runner, args, message):
    result = runner.invoke(main, ["compare", *args])
    assert result.exit_code == 2
    assert message in result.stderr


@pytest.mark.parametrize("methods,message", [
    ("", "methods must name at least one of ('diff',"),
    (" , ", "methods must name at least one of ('diff',"),
    ("diff,bogus", "unknown methods ['bogus']; expected a subset of ('diff',"),
    ("diff,diff", "methods must not repeat, got ('diff', 'diff')"),
])
def test_compare_rejects_bad_methods(runner, methods, message):
    result = runner.invoke(main, ["compare", "--methods", methods, "--filters", "1",
                                  "--orders", "1"])
    assert result.exit_code == 2
    assert message in result.stderr


def test_compare_writes_file(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["compare", "--orders", "1:1", "--height", "8", "--width", "8", "--filters", "1",
         "--methods", "diff,zero", "--output", str(out)],
    )
    assert result.exit_code == 0
    assert result.output == ""
    text = out.read_text()
    assert text.startswith("family,order,method,kernel_index,eps1,eps2\n")
    assert len(text.strip().split("\n")) == 3


@pytest.mark.parametrize("args", [
    ["kernels", "--size", "5"],
    ["compare", "--orders", "1:1", "--height", "8", "--width", "8", "--filters", "1"],
    ["dump-bank", "--kernel", "KERNEL"],
])
def test_text_output_is_written_atomically(runner, tmp_path, monkeypatch, args):
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((3, 3)))
    args = [str(ker_path) if a == "KERNEL" else a for a in args]
    path = tmp_path / "out.txt"
    result = runner.invoke(main, args + ["--output", str(path)])
    assert result.exit_code == 0
    assert path.read_text() == runner.invoke(main, args).output
    path.write_text("old content\n")

    class WriteFails:
        # Writes the start of the text, then fails.
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError("no space left on device")

    monkeypatch.setattr(npyio, "open", lambda *a, **kw: WriteFails(open(*a, **kw)),
                        raising=False)
    result = runner.invoke(main, args + ["--output", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: cannot write {path}: no space left on device\n"
    assert path.read_text() == "old content\n"
    assert sorted(tmp_path.iterdir()) == [ker_path, path]


def test_dump_bank_round_trip(runner, tmp_path):
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(main, ["dump-bank", "--kernel", str(ker_path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["size"] == 3
    assert payload["base"] == np.ones((3, 3)).tolist()
    assert sorted(payload["kernels"]) == [f"{r},{s}" for r in range(3) for s in range(3)]
    assert payload["kernels"]["0,0"] == [[16.0, -8.0, 4.0], [-8.0, 4.0, -2.0], [4.0, -2.0, 1.0]]
    assert payload["kernels"]["1,1"] == np.ones((3, 3)).tolist()
