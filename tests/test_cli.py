import json

import numpy as np
import pytest
from click.testing import CliRunner

from diffconv.cli import main
from diffconv.npyio import load_array, save_array
from diffconv.transform import KernelBank


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


def test_filter_shape_violation_is_usage_error(runner, tmp_path):
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, np.ones((2, 2)))
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 2
    assert "smaller than the kernel" in result.output


def test_filter_rejects_even_kernel(runner, tmp_path):
    img_path, ker_path = tmp_path / "i.npy", tmp_path / "k.npy"
    save_array(img_path, np.ones((8, 8)))
    save_array(ker_path, np.ones((4, 4)))
    result = runner.invoke(
        main,
        ["filter", "--input", str(img_path), "--kernel", str(ker_path),
         "--method", "zero", "--output", str(tmp_path / "o.npy")],
    )
    assert result.exit_code == 2


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


def test_compare_thread_count_does_not_change_output(runner, monkeypatch):
    args = ["compare", "--orders", "1,2", "--height", "12", "--width", "12",
            "--filters", "3", "--seed", "4"]
    serial = runner.invoke(main, args)
    monkeypatch.setenv("DIFFCONV_THREADS", "4")
    threaded = runner.invoke(main, args)
    assert serial.exit_code == 0 and threaded.exit_code == 0
    assert serial.output == threaded.output


def test_compare_rejects_bad_orders(runner):
    result = runner.invoke(main, ["compare", "--orders", "5:1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["compare", "--orders", "abc"])
    assert result.exit_code == 2


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


def test_dump_bank_round_trip(runner, tmp_path):
    ker_path = tmp_path / "k.npy"
    save_array(ker_path, np.ones((3, 3)))
    result = runner.invoke(main, ["dump-bank", "--kernel", str(ker_path)])
    assert result.exit_code == 0
    bank = KernelBank.from_json(result.output)
    assert np.array_equal(
        bank.kernel_at(0, 0), np.array([[16.0, -8.0, 4.0], [-8.0, 4.0, -2.0], [4.0, -2.0, 1.0]])
    )
