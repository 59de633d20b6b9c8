import hashlib
import json
import struct

import numpy as np
import pytest

from randist.encoder import TrainConfig, init_model
from randist.errors import ModelFileError
from randist.mappings import identity_map, rff, sparse_rp
from randist.persist import (
    FORMAT_VERSION,
    _model_record,
    _write_container,
    load_ensemble,
    save_ensemble,
)
from randist.rng import stream


def _model(mapping, task="anomaly", seed=3):
    use_aux = task == "clustering" or mapping.out_dim == 4
    cfg = TrainConfig(m=4, epochs=1, task=task, batch_size=2, use_aux_loss=use_aux, seed=0)
    return init_model(cfg, mapping, seed=seed)


@pytest.mark.parametrize(
    "mapping",
    [
        sparse_rp(5, 4, seed=1),
        rff(5, 4, bandwidth=1.5, seed=1),
        identity_map(4),
    ],
    ids=["sparse", "rff", "identity"],
)
def test_roundtrip_forward_bit_exact(tmp_path, mapping):
    model = _model(mapping)
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    [loaded] = load_ensemble(path)
    X = stream(7).standard_normal((100, mapping.in_dim))
    np.testing.assert_array_equal(model.forward_batch(X), loaded.forward_batch(X))
    assert loaded.random_map.kind == mapping.kind
    assert loaded.random_map.bandwidth == mapping.bandwidth
    assert loaded.random_map.density == mapping.density


def test_roundtrip_decoder(tmp_path):
    model = _model(sparse_rp(6, 4, seed=2), task="clustering")
    assert model.has_decoder
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    [loaded] = load_ensemble(path)
    for name in ("decoder_w", "decoder_b"):
        want, got = getattr(model, name), getattr(loaded, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("slope", [float("nan"), -3.0, 2.5])
def test_leaky_slope_outside_unit_interval_rejected(tmp_path, slope):
    model = _model(sparse_rp(5, 4, seed=1))
    model.leaky_slope = slope
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    with pytest.raises(ModelFileError, match="leaky_slope"):
        load_ensemble(path)


def test_corrupted_payload_byte_fails_checksum(tmp_path):
    model = _model(sparse_rp(5, 4, seed=4))
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFileError, match="checksum"):
        load_ensemble(path)


def test_newer_format_version_rejected(tmp_path):
    model = _model(sparse_rp(5, 4, seed=5))
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
    body = bytes(blob[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFileError, match="format version"):
        load_ensemble(path)


def test_truncated_file(tmp_path):
    model = _model(sparse_rp(5, 4, seed=6))
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ModelFileError):
        load_ensemble(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.rdst"
    body = b"NOPE" + b"\x00" * 60
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFileError, match="magic"):
        load_ensemble(path)


def test_missing_file(tmp_path):
    with pytest.raises(ModelFileError, match="cannot read"):
        load_ensemble(tmp_path / "nope.rdst")


def test_ensemble_roundtrip(tmp_path):
    models = [_model(rff(5, 4, bandwidth=2.0, seed=s), seed=s) for s in (1, 2, 3)]
    path = tmp_path / "ens.rdst"
    save_ensemble(path, models)
    loaded = load_ensemble(path)
    assert len(loaded) == 3
    X = stream(9).standard_normal((1, 5))
    for orig, back in zip(models, loaded):
        np.testing.assert_array_equal(orig.forward_batch(X), back.forward_batch(X))


def test_single_model_file_loads_as_one_member(tmp_path):
    # the "randist-model" container that older `cluster --out-model` runs wrote
    model = _model(rff(6, 4, bandwidth=1.5, seed=7), task="clustering")
    record, arrays = _model_record(model)
    path = tmp_path / "m.rdst"
    _write_container(path, {"format": "randist-model", "lib_version": "0.1.0", "model": record}, arrays)
    [loaded] = load_ensemble(path)
    X = stream(8).standard_normal((50, 6))
    assert loaded.forward_batch(X).tobytes() == model.forward_batch(X).tobytes()
    assert loaded.decoder_w.tobytes() == model.decoder_w.tobytes()


def test_wrong_container_kind(tmp_path):
    path = tmp_path / "m.rdst"
    save_ensemble(path, [_model(sparse_rp(5, 4, seed=7))])
    _rewrite_header(path, lambda h: h.update(format="randist-other"))
    with pytest.raises(ModelFileError, match="holds 'randist-other', expected an ensemble"):
        load_ensemble(path)


def _rewrite_header(path, edit, drop_payload_bytes=0) -> None:
    """Apply `edit` to the file's header JSON, drop the payload's last bytes
    if asked, and checksum the file again."""
    blob = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sII", blob)
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    header_bytes = json.dumps(header).encode("utf-8")
    body = struct.pack("<4sII", magic, version, len(header_bytes)) + header_bytes
    body += blob[12 + header_len : len(blob) - 32 - drop_payload_bytes]
    path.write_bytes(body + hashlib.sha256(body).digest())


def _set_shape(name, shape):
    def edit(header):
        for spec in header["models"][0]["arrays"]:
            if spec[0] == name:
                spec[1] = shape

    return edit


@pytest.mark.parametrize(
    "mapping, edit, match",
    [
        (None, lambda h: h["models"][0].pop("leaky_slope"), "no 'leaky_slope' field"),
        (None, lambda h: h["models"][0].update(leaky_slope="x"), "field 'leaky_slope' is 'x'"),
        (None, lambda h: h["models"][0]["map"].update(kind="bogus"), "map kind 'bogus'"),
        # the dense Gaussian map is not shipped: a file that names it is malformed
        (None, lambda h: h["models"][0]["map"].update(kind="gaussian_rp"),
         r"map kind 'gaussian_rp', expected one of \('sparse_rp', 'rff', 'identity'\)"),
        (None, lambda h: h["models"][0]["map"].pop("in_dim"), "no 'in_dim' field"),
        (None, lambda h: h["models"][0].pop("arrays"), "no 'arrays' field"),
        (None, _set_shape("w", [-1, 5]), r"array 'w' has shape \[-1, 5\]"),
        (None, _set_shape("w", [5, 4]), r"array 'w' of shape \[5, 4\], expected \[m, 5\]"),
        (None, _set_shape("b", [2, 2]), r"array 'b' of shape \[2, 2\], expected \[4\]"),
        (None, _set_shape("map_weights", [5, 4]), r"'map_weights' of shape \[5, 4\], expected \[4, 5\]"),
        ("decoder", _set_shape("decoder_w", [4, 6]), r"'decoder_w' of shape \[4, 6\], expected \[6, 4\]"),
    ],
    ids=[
        "no_slope", "text_slope", "bogus_kind", "gaussian_kind", "no_in_dim", "no_arrays", "negative_shape",
        "w_shape", "b_shape", "map_weights_shape", "decoder_shape",
    ],
)
def test_malformed_header_is_a_model_file_error(tmp_path, mapping, edit, match):
    # each file passes its checksum; the header names the wrong thing
    if mapping == "decoder":
        model = _model(sparse_rp(6, 4, seed=2), task="clustering")
    else:
        model = _model(sparse_rp(5, 4, seed=1))
    path = tmp_path / "m.rdst"
    save_ensemble(path, [model])
    _rewrite_header(path, edit)
    with pytest.raises(ModelFileError, match=match) as err:
        load_ensemble(path)
    assert str(path) in str(err.value)


def test_rff_model_without_offsets_rejected(tmp_path):
    path = tmp_path / "m.rdst"
    save_ensemble(path, [_model(rff(5, 4, bandwidth=1.5, seed=1))])
    _rewrite_header(path, lambda h: h["models"][0]["arrays"].remove(["map_offsets", [4]]), 4 * 8)
    with pytest.raises(ModelFileError, match="no array 'map_offsets'"):
        load_ensemble(path)
