"""Command-line surface: generate fields, build and dump kernels, filter
arrays, and run method-comparison benchmarks.

Arrays travel as NPY v1.0 float64 files, benchmark reports as CSV. This
module only parses options, calls the library and maps its errors to an exit
code; every rule on shapes, sizes and positions is the library's. Exit codes:
0 on success; 2 when the command line is wrong (a parse error, or the
library rejects an option value); 1 when the contents of an input file are
rejected or the run fails (an overflow, a failed write). Diagnostics go to
stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click
import numpy as np

from .benchmark import BenchmarkConfig, run_benchmark, rows_to_csv
from .engine import METHODS, apply_method
from .fields import FAMILIES, FieldSpec, generate
from .npyio import load_array, save_array, write_atomic
from .stencils import (
    build_bank,
    center_condition_number,
    half_width,
    invert_center_matrix,
    kernel_from_operator,
    kron,
    matrix_payload,
    shift_matrix,
    stencil_matrix,
)


@click.group()
def main():
    """Size-keeping 2D convolution without padding, plus boundary-handling baselines."""


def _parse_position(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"position must be 'R,S', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise click.UsageError(f"position must be two integers, got {text!r}")


@contextmanager
def _writing(path: str):
    """Report a failed write of ``path`` as a one-line runtime error.
    :func:`diffconv.npyio.write_atomic` has removed its temporary file."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        with _writing(output):
            write_atomic(output, [text.encode("utf-8")])


@main.command()
@click.option("--size", type=int, required=True, help="Kernel size (odd, in 3..9).")
@click.option("--pos", default=None, help="In-window position 'R,S'; default is the center.")
@click.option("--exact", is_flag=True, help="Serialize rationals as exact 'num/den' strings.")
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON path (default stdout).")
def kernels(size, pos, exact, output):
    """Dump derivative stencils, stencil matrices and the position transform as JSON."""
    try:
        m = half_width(size)
        r, s = (m, m) if pos is None else _parse_position(pos)
        matrix = stencil_matrix(size, r, s)
        payload = {
            "size": size,
            "position": [r, s],
            # Column oy*K+ox of the stencil matrix is that order's stencil, row-major.
            "derivative_stencils": {
                f"{col // size},{col % size}": matrix_payload(
                    [column[i * size:(i + 1) * size] for i in range(size)], exact)
                for col, column in enumerate(zip(*matrix))
            },
            "stencil_matrix": matrix_payload(matrix, exact),
            "center_inverse": matrix_payload(invert_center_matrix(size), exact),
            # The transform D(r, s) D(center)^-1 is kron(t_r, t_s) exactly.
            "transform": matrix_payload(kron(shift_matrix(size, r), shift_matrix(size, s)), exact),
            "center_condition_1norm": center_condition_number(size),
        }
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json.dumps(payload, indent=2) + "\n", output)


def _parse_indexed_values(text: str, k: int, what: str) -> dict[tuple[int, int], float]:
    table: dict[tuple[int, int], float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition(":")
        if not sep or len(key) != 2 or not key.isdigit():
            raise click.UsageError(
                f"{what} entries must look like 'ab:value' with single-digit indices, got {item!r}"
            )
        a, b = int(key[0]), int(key[1])
        if a >= k or b >= k:
            raise click.UsageError(f"{what} index ({a}, {b}) out of range for size {k}")
        if (a, b) in table:
            raise click.UsageError(f"{what} index {key} given more than once")
        try:
            table[(a, b)] = float(value)
        except ValueError:
            raise click.UsageError(f"{what} value in {item!r} is not a number")
    if not table:
        raise click.UsageError(f"no {what} entries given")
    return table


@main.command("make-kernel")
@click.option("--size", type=int, required=True, help="Kernel size (odd, in 3..9).")
@click.option("--op", "op_text", required=True,
              help="Operator coefficients 'mn:value,...' (m, n are derivative orders).")
@click.option("--output", type=click.Path(dir_okay=False), required=True, help="Output NPY path.")
def make_kernel(size, op_text, output):
    """Build the kernel equivalent to a linear differential operator."""
    try:
        # The size rule first: the size bounds the indices and sizes a K^2 vector.
        half_width(size)
        entries = _parse_indexed_values(op_text, size, "operator")
        alpha = np.zeros(size * size, dtype=np.float64)
        for (oy, ox), value in entries.items():
            alpha[oy * size + ox] = value
        kernel = kernel_from_operator(alpha)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _writing(output):
        save_array(output, kernel)


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--order", type=int, default=None,
              help="Function order (chebyshev/spherical)  [default: 1]")
@click.option("--coeffs", default=None,
              help="Polynomial coefficients 'ab:value,...' (a, b are exponents of row/col coords).")
@click.option("--height", type=int, required=True)
@click.option("--width", type=int, required=True)
@click.option("--margin", type=int, default=0, show_default=True,
              help="Analytic margin cells per side; output is (H+2m) x (W+2m).")
@click.option("--output", type=click.Path(dir_okay=False), required=True, help="Output NPY path.")
def gen(family, order, coeffs, height, width, margin, output):
    """Sample an analytic field to an NPY file."""
    coeff_table = None
    if coeffs is not None:
        entries = _parse_indexed_values(coeffs, 10, "coefficient")
        max_a = max(a for a, _ in entries)
        max_b = max(b for _, b in entries)
        coeff_table = np.zeros((max_a + 1, max_b + 1), dtype=np.float64)
        for (a, b), value in entries.items():
            coeff_table[a, b] = value
    if order is None:
        order = 0 if family == "polynomial" else 1
    try:
        spec = FieldSpec(
            family=family, height=height, width=width,
            order=order, coeffs=coeff_table, margin=margin,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        data = generate(spec).data
    except ValueError as exc:
        raise click.ClickException(str(exc))
    with _writing(output):
        save_array(output, data)


@main.command("filter")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--kernel", "kernel_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--method", type=click.Choice(METHODS), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for distribution padding.")
@click.option("--output", type=click.Path(dir_okay=False), required=True, help="Output NPY path.")
def filter_cmd(input_path, kernel_path, method, seed, output):
    """Filter an array with the selected boundary-handling method."""
    try:
        result = apply_method(method, load_array(input_path), load_array(kernel_path), seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    with _writing(output):
        save_array(output, result)


def _parse_orders(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise click.UsageError(f"empty order range {text!r}")
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"orders must be 'A:B' or a comma list of integers, got {text!r}")


@main.command()
@click.option("--family", type=click.Choice(("chebyshev", "spherical")), default="chebyshev",
              show_default=True)
@click.option("--orders", default="1:10", show_default=True, help="'A:B' inclusive or comma list.")
@click.option("--height", type=int, default=128, show_default=True)
@click.option("--width", type=int, default=128, show_default=True)
@click.option("--size", type=int, default=3, show_default=True, help="Kernel size.")
@click.option("--filters", "filter_count", type=int, default=100, show_default=True,
              help="Number of random kernels.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--methods", default=",".join(METHODS), show_default=True,
              help="Comma list of methods to compare.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="CSV path (default stdout).")
def compare(family, orders, height, width, size, filter_count, seed, methods, output):
    """Benchmark boundary-handling methods against the extended-sampling ground truth."""
    try:
        config = BenchmarkConfig(
            family=family,
            orders=_parse_orders(orders),
            height=height,
            width=width,
            size=size,
            filter_count=filter_count,
            seed=seed,
            methods=tuple(m.strip() for m in methods.split(",") if m.strip()),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        rows = run_benchmark(config)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    _emit(rows_to_csv(rows), output)


@main.command("dump-bank")
@click.option("--kernel", "kernel_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON path (default stdout).")
def dump_bank(kernel_path, output):
    """Export the transformed-kernel bank of a kernel as JSON."""
    try:
        kernel = load_array(kernel_path)
        bank = build_bank(kernel)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    k = kernel.shape[0]
    payload = {
        "size": k,
        "base": kernel.tolist(),
        "kernels": {f"{r},{s}": bank[r * k + s].tolist() for r in range(k) for s in range(k)},
    }
    _emit(json.dumps(payload, indent=2) + "\n", output)


if __name__ == "__main__":
    sys.exit(main())
