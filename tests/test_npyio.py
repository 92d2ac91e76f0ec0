import os
import stat
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffconv import npyio
from diffconv.npyio import ArrayFileError, load_array, save_array


def test_round_trip_is_bitwise_lossless(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        arr = rng.uniform(-1e6, 1e6, size=(rng.integers(1, 40), rng.integers(1, 40)))
        path = tmp_path / f"a{i}.npy"
        save_array(path, arr)
        back = load_array(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()


def test_round_trip_preserves_special_values(tmp_path):
    arr = np.array([[0.0, -0.0], [np.pi, 2.0**-1074]])
    path = tmp_path / "s.npy"
    save_array(path, arr)
    assert load_array(path).tobytes() == arr.tobytes()


def test_interoperates_with_numpy(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.uniform(-1.0, 1.0, size=(7, 9))
    ours = tmp_path / "ours.npy"
    save_array(ours, arr)
    assert np.array_equal(np.load(ours), arr)
    theirs = tmp_path / "theirs.npy"
    np.save(theirs, arr)
    assert np.array_equal(load_array(theirs), arr)


def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "a.npy"
    save_array(path, np.ones((3, 4)))
    before = path.read_bytes()

    class PayloadFails:
        # Writes the header and the start of the payload, then fails.
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) > 1024:
                self.fh.write(data[:100])
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(npyio, "open", lambda *a, **kw: PayloadFails(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_array(path, np.zeros((40, 50)))
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_saved_file_gets_the_permissions_of_a_plain_open(tmp_path):
    old_umask = os.umask(0o027)
    try:
        save_array(tmp_path / "saved.npy", np.zeros((2, 2)))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "saved.npy").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o640


@pytest.mark.parametrize("shape,header", [
    ((3, 4), b"{'descr': '<f8', 'fortran_order': False, 'shape': (3, 4), }" + b" " * 58 + b"\n"),
    ((0, 5), b"{'descr': '<f8', 'fortran_order': False, 'shape': (0, 5), }" + b" " * 58 + b"\n"),
    ((1000, 1037),
     b"{'descr': '<f8', 'fortran_order': False, 'shape': (1000, 1037), }" + b" " * 52 + b"\n"),
])
def test_writer_header_bytes_are_pinned(tmp_path, shape, header):
    # The header comes from numpy, so a numpy whose padding differs would change
    # every file written. 118 header bytes put the payload at offset 128.
    path = tmp_path / "p.npy"
    save_array(path, np.ones(shape))
    data = path.read_bytes()
    assert data[:128] == b"\x93NUMPY\x01\x00\x76\x00" + header
    assert data[128:] == np.ones(shape).tobytes()


def test_writer_rejects_non_2d():
    with pytest.raises(ArrayFileError):
        save_array("/tmp/unused.npy", np.zeros(5))


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"NOTNPY" + b"\x00" * 32)
    with pytest.raises(ArrayFileError, match="magic"):
        load_array(path)


def test_reader_rejects_other_versions(tmp_path):
    path = tmp_path / "v2.npy"
    save_array(path, np.zeros((2, 2)))
    data = bytearray(path.read_bytes())
    data[6] = 2
    path.write_bytes(bytes(data))
    with pytest.raises(ArrayFileError, match="version"):
        load_array(path)


@pytest.mark.parametrize("dtype", ["<f4", ">f8", "<i8"])
def test_reader_rejects_other_dtypes(tmp_path, dtype):
    path = tmp_path / "dt.npy"
    np.save(path, np.zeros((2, 2), dtype=np.dtype(dtype)))
    with pytest.raises(ArrayFileError, match="dtype"):
        load_array(path)


def test_reader_rejects_fortran_order(tmp_path):
    path = tmp_path / "f.npy"
    np.save(path, np.asfortranarray(np.random.default_rng(2).uniform(size=(3, 4))))
    with pytest.raises(ArrayFileError, match="Fortran"):
        load_array(path)


@pytest.mark.parametrize("shape", [(6,), (2, 2, 2)])
def test_reader_rejects_other_ranks(tmp_path, shape):
    path = tmp_path / "r.npy"
    np.save(path, np.zeros(shape))
    with pytest.raises(ArrayFileError, match="2D"):
        load_array(path)


@pytest.mark.parametrize("keep", [9, 60])
def test_reader_rejects_truncated_header(tmp_path, keep):
    # Cut inside the length field, or inside the header it announces.
    path = tmp_path / "h.npy"
    save_array(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ArrayFileError, match="truncated header"):
        load_array(path)


def test_reader_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.npy"
    save_array(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArrayFileError, match="payload"):
        load_array(path)


def test_reader_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "x.npy"
    save_array(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ArrayFileError, match="payload"):
        load_array(path)


def _npy_file(path, header: str, payload: bytes = b"") -> None:
    raw = header.encode("latin1")
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + payload)


def test_reader_rejects_unhashable_header_key(tmp_path):
    path = tmp_path / "k.npy"
    _npy_file(path, "{'descr': '<f8', []: 1}")
    with pytest.raises(ArrayFileError, match="malformed header dict"):
        load_array(path)


@pytest.mark.parametrize("descr", ["()", "('<f8',)", "'a'"])
def test_reader_rejects_a_descr_numpy_cannot_read(tmp_path, descr):
    # numpy raises IndexError for the tuples, and numpy 2 deprecates 'a'.
    path = tmp_path / "d.npy"
    _npy_file(path, f"{{'descr': {descr}, 'fortran_order': False, 'shape': (2, 2), }}\n",
              b"\x00" * 32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArrayFileError):
            load_array(path)
    assert caught == []


def test_reader_rejects_python2_header_without_a_warning(tmp_path):
    # numpy rewrites '3L' to '3' and accepts the header with a UserWarning.
    path = tmp_path / "py2.npy"
    _npy_file(path, "{'descr': '<f8', 'fortran_order': False, 'shape': (3L, 4L), }\n",
              b"\x00" * 96)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArrayFileError, match="malformed header dict"):
            load_array(path)
    assert caught == []


@pytest.mark.parametrize("descr", ["<d", "f8"])
def test_reader_takes_other_spellings_of_little_endian_float64(tmp_path, descr):
    arr = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 5))
    arr[0, :2] = -0.0, 2.0**-1074
    path = tmp_path / "d.npy"
    _npy_file(path, f"{{'descr': '{descr}', 'fortran_order': False, 'shape': (3, 5), }}\n",
              arr.astype("<f8").tobytes())
    if descr == "f8" and sys.byteorder != "little":
        with pytest.raises(ArrayFileError, match="dtype '>f8'"):
            load_array(path)
        return
    assert load_array(path).tobytes() == arr.tobytes()


def test_reader_loads_a_padded_header_beyond_numpys_default_limit(tmp_path):
    # numpy refuses headers over 10,000 bytes by default; a v1.0 header may
    # have up to 65,535.
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }"
    path = tmp_path / "pad.npy"
    _npy_file(path, header + " " * (20000 - len(header) - 1) + "\n", np.arange(4.0).tobytes())
    assert load_array(path).tobytes() == np.arange(4.0).reshape(2, 2).tobytes()


def test_reader_rejects_bool_shape_entries(tmp_path):
    # The payload has the size (True, 2) would need if True counted as 1.
    path = tmp_path / "b.npy"
    _npy_file(path, "{'descr': '<f8', 'fortran_order': False, 'shape': (True, 2), }",
              b"\x00" * 16)
    with pytest.raises(ArrayFileError, match="not 2D"):
        load_array(path)


def test_reader_checks_payload_size_before_allocating(tmp_path):
    # A header claiming 8 TiB over a 16-byte payload is refused by its size.
    path = tmp_path / "h.npy"
    _npy_file(path, f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({2**20}, {2**20}), }}",
              b"\x00" * 16)
    with pytest.raises(ArrayFileError, match=f"payload is 16 bytes, expected {8 * 2**40}"):
        load_array(path)


def test_reader_rejects_payload_shorter_than_its_size_check(tmp_path, monkeypatch):
    # A file that shrinks between the size check and the read: the check
    # sees 8 bytes more than the read gets.
    path = tmp_path / "s.npy"
    _npy_file(path, "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }", b"\x00" * 24)
    size = path.stat().st_size + 8
    monkeypatch.setattr(npyio.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
    with pytest.raises(ArrayFileError, match="payload shrank below 32 bytes"):
        load_array(path)


def test_reader_rejects_empty_shape_beyond_numpy_limits(tmp_path):
    path = tmp_path / "z.npy"
    _npy_file(path, f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({2**70}, 0), }}")
    with pytest.raises(ArrayFileError, match="too large"):
        load_array(path)


_LEAVES = (
    st.sampled_from(["'descr'", "'fortran_order'", "'shape'", "'<f8'", "False", "True",
                     "None", "0", "-1", "2", str(2**70), "1.5", "b'x'", "()", "[]", "{}"])
    | st.text(max_size=6).map(repr)
    | st.integers().map(str)
)
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "(" + ", ".join(xs) + ",)")
    | st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
    | st.lists(st.tuples(inner, inner), max_size=3).map(
        lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"),
    max_leaves=8,
)


@st.composite
def _bytes_after_magic_and_version(draw):
    """Random bytes, or a length field, a header assembled from NPY-like
    fragments (unhashable keys, bools, huge ints included) and a payload."""
    kind = draw(st.sampled_from(["raw", "expression", "npy-keys"]))
    if kind == "raw":
        return draw(st.binary(max_size=200))
    if kind == "expression":
        header = draw(_EXPRESSIONS)
    else:
        values = [draw(st.sampled_from(good) | _EXPRESSIONS)
                  for good in (["'<f8'"], ["False"], ["(2, 3)", "(0, 4)"])]
        header = "{'descr': %s, 'fortran_order': %s, 'shape': %s}" % tuple(values)
    raw = header.encode("latin1", "replace")
    length = max(0, len(raw) + draw(st.integers(-3, 3)))
    payload = draw(st.sampled_from([b"", b"\x00" * 48]) | st.binary(max_size=48))
    return length.to_bytes(2, "little") + raw + payload


@settings(max_examples=200, deadline=None)
@given(tail=_bytes_after_magic_and_version())
# A header that fails to tokenize: numpy raises tokenize.TokenError for it.
@example(tail=b"\x02\x00(,)")
def test_reader_fuzz_loads_or_raises_array_file_error(tmp_path_factory, tail):
    path = tmp_path_factory.getbasetemp() / "fuzz.npy"
    path.write_bytes(b"\x93NUMPY\x01\x00" + tail)
    try:
        arr = load_array(path)
    except ArrayFileError:
        return
    assert arr.dtype == np.float64 and arr.ndim == 2
