import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demandnet.nn.layers import Parameter
from demandnet.nn.checkpoint import (
    CheckpointError,
    atomic_write,
    load_checkpoint,
    load_params_from_arrays,
    params_to_arrays,
    save_checkpoint,
)
from demandnet.data import write_dataset_csv
from tests.conftest import build_bundle


def test_round_trip_preserves_bytes_and_meta(tmp_path):
    path = tmp_path / "model.npz"
    arrays_in = {
        "w": np.linspace(-1, 1, 7),
        "b": np.zeros((2, 3)),
    }
    meta_in = {"kind_detail": "unit", "lam": 1e-6, "names": ["a", "b"]}
    save_checkpoint(path, kind="unit-test", meta=meta_in, arrays=arrays_in)
    meta, arrays_out = load_checkpoint(path, expected_kind="unit-test")
    assert meta["lam"] == 1e-6
    assert meta["names"] == ["a", "b"]
    for key, value in arrays_in.items():
        assert arrays_out[key].tobytes() == value.tobytes()
        assert arrays_out[key].dtype == value.dtype


def test_kind_mismatch_is_rejected(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, kind="forecaster", meta={}, arrays={"w": np.ones(2)})
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expected_kind="effects")


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.npz", expected_kind="forecaster")


def test_corrupt_file_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.npz"
    path.write_bytes(b"not an npz archive")
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expected_kind="forecaster")


@pytest.mark.parametrize("offset", [8, 10], ids=["encryption-flag", "compression-method"])
def test_a_damaged_member_header_is_a_checkpoint_error(tmp_path, offset):
    # flip bit 0 of the first central-directory entry's general-purpose flags
    # (it marks the member encrypted) or of its compression method
    path = tmp_path / "model.npz"
    save_checkpoint(path, kind="k", meta={}, arrays={"w": np.ones(3)})
    raw = bytearray(path.read_bytes())
    raw[raw.find(b"PK\x01\x02") + offset] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(path, expected_kind="k")


def test_atomic_write_error_leaves_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("mid-write")
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def test_atomic_write_creates_the_directory_and_replaces_the_target(tmp_path):
    path = tmp_path / "new" / "data.bin"
    for payload in (b"first", b"second"):
        with atomic_write(path, "wb") as fh:
            fh.write(payload)
        assert path.read_bytes() == payload
    assert sorted(p.name for p in path.parent.iterdir()) == ["data.bin"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_get_the_mode_a_plain_open_would(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_dataset_csv([build_bundle(series_id="S0")], tmp_path / "data.csv")
        save_checkpoint(tmp_path / "model.npz", "unit-test", {}, {"w": np.ones(3)})
    finally:
        os.umask(previous)
    for name in ("data.csv", "model.npz"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


def test_duplicate_parameter_names_rejected():
    params = [Parameter("w", np.ones(2)), Parameter("w", np.zeros(2))]
    with pytest.raises(ValueError):
        params_to_arrays(params)


def test_params_restore_in_place():
    params = [Parameter("a.w", np.arange(4.0)), Parameter("a.b", np.zeros(2))]
    stash = params_to_arrays(params)
    params[0].value[:] = -1.0
    load_params_from_arrays(params, stash)
    np.testing.assert_array_equal(params[0].value, np.arange(4.0))


def test_missing_parameter_array_rejected():
    params = [Parameter("a.w", np.ones(2))]
    with pytest.raises(CheckpointError):
        load_params_from_arrays(params, {})


def test_shape_mismatch_rejected():
    params = [Parameter("a.w", np.ones(2))]
    with pytest.raises(CheckpointError):
        load_params_from_arrays(params, {"a.w": np.ones(3)})


@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_any_float_array_round_trips(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("ckpt") / "x.npz"
    save_checkpoint(path, kind="k", meta={}, arrays={"arr": arr})
    _, out = load_checkpoint(path, expected_kind="k")
    assert out["arr"].tobytes() == arr.tobytes()
