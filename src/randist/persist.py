"""Binary model files.

Layout (all integers little-endian):

    magic b"RDST" | u32 format version | u32 header length | header JSON |
    payload (float64 LE arrays, C order, in header order) | sha256 trailer

The magic, version word and 32-byte sha256 trailer are stable across
format versions so older readers can always give a precise error. Loading
never touches the RNG: every weight matrix is stored in full.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import numpy as np

from ._version import __version__
from .encoder import EncoderModel
from .errors import ModelFileError
from .mappings import IDENTITY, KINDS, RFF, RandomMap
from .report import write_atomic

MAGIC = b"RDST"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, format version, header length


def _map_header(mapping: RandomMap) -> dict:
    return {
        "kind": mapping.kind,
        "in_dim": mapping.in_dim,
        "out_dim": mapping.out_dim,
        "seed": mapping.seed,
        "bandwidth": mapping.bandwidth,
        "density": mapping.density,
    }


def _model_record(model: EncoderModel) -> tuple[dict, list]:
    arrays = [("w", model.w), ("b", model.b)]
    if model.has_decoder:
        arrays.append(("decoder_w", model.decoder_w))
        arrays.append(("decoder_b", model.decoder_b))
    if model.random_map.weights is not None:
        arrays.append(("map_weights", model.random_map.weights))
    if model.random_map.offsets is not None:
        arrays.append(("map_offsets", model.random_map.offsets))
    header = {
        "leaky_slope": model.leaky_slope,
        "map": _map_header(model.random_map),
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    return header, [a for _, a in arrays]


def _write_container(path, header: dict, arrays: list) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
    blob += header_bytes
    for a in arrays:
        blob += np.ascontiguousarray(a, dtype="<f8").tobytes()
    blob += hashlib.sha256(blob).digest()
    write_atomic(path, blob)


def _read_container(path) -> tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ModelFileError(f"cannot read {path}: {err}") from err
    if len(blob) < _PREFIX.size + 32:
        raise ModelFileError(f"{path} is truncated ({len(blob)} bytes)")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise ModelFileError(f"{path} is not a model file (bad magic {magic!r})")
    if version > FORMAT_VERSION:
        raise ModelFileError(
            f"{path} uses format version {version}, this build reads up to {FORMAT_VERSION}"
        )
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        raise ModelFileError(f"{path} failed its checksum; the file is corrupted")
    start = _PREFIX.size
    if start + header_len + 32 > len(blob):
        raise ModelFileError(f"{path} is truncated (incomplete header)")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelFileError(f"{path} has a malformed header: {err}") from err
    if not isinstance(header, dict):
        raise ModelFileError(f"{path} has a malformed header: not a JSON object")
    return header, blob[start + header_len : -32]


def _field(record, key: str, path, types):
    """record[key], which must be a JSON value of one of `types` (never a bool)."""
    if not isinstance(record, dict) or key not in record:
        raise ModelFileError(f"{path} has a malformed header: no {key!r} field")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ModelFileError(f"{path} has a malformed header: field {key!r} is {value!r}")
    return value


def _take_arrays(payload: bytes, specs: list, path) -> tuple[dict, bytes]:
    out = {}
    offset = 0
    for spec in specs:
        if not (isinstance(spec, list) and len(spec) == 2 and isinstance(spec[0], str)):
            raise ModelFileError(f"{path} has a malformed header: array entry {spec!r}")
        name, shape = spec
        if name in out:
            raise ModelFileError(f"{path} has a malformed header: array {name!r} appears twice")
        if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise ModelFileError(
                f"{path} has a malformed header: array {name!r} has shape {shape!r}, "
                "expected a list of non-negative ints"
            )
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(payload):
            raise ModelFileError(f"{path} is truncated (array {name!r} incomplete)")
        a = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8").reshape(shape)
        out[name] = a.astype(np.float64).copy()
        offset += nbytes
    return out, payload[offset:]


def _check_shapes(arrays: dict, kind: str, in_dim: int, out_dim: int, path) -> None:
    """The arrays a model of this map kind needs, in shapes that agree with each other."""
    needed = {"w", "b"}
    if kind != IDENTITY:
        needed.add("map_weights")
    if kind == RFF:
        needed.add("map_offsets")
    if "decoder_w" in arrays or "decoder_b" in arrays:
        needed |= {"decoder_w", "decoder_b"}
    missing = sorted(needed - arrays.keys())
    if missing:
        raise ModelFileError(f"{path} has no array {missing[0]!r}")
    w = arrays["w"]
    if w.ndim != 2 or w.shape[1] != in_dim:
        raise ModelFileError(f"{path} has array 'w' of shape {list(w.shape)}, expected [m, {in_dim}]")
    m = w.shape[0]
    expected = {
        "w": (m, in_dim),
        "b": (m,),
        "decoder_w": (in_dim, m),
        "decoder_b": (in_dim,),
        "map_weights": (out_dim, in_dim),
        "map_offsets": (out_dim,),
    }
    for name, a in arrays.items():
        if name not in expected:
            raise ModelFileError(f"{path} has an unknown array {name!r}")
        if a.shape != expected[name]:
            raise ModelFileError(
                f"{path} has array {name!r} of shape {list(a.shape)}, expected {list(expected[name])}"
            )


def _model_from_record(header: dict, arrays: dict, path) -> EncoderModel:
    slope = float(_field(header, "leaky_slope", path, (int, float)))
    if not 0.0 <= slope <= 1.0:  # also rejects nan
        raise ModelFileError(f"{path} has leaky_slope {slope}, outside [0, 1]")
    mh = _field(header, "map", path, dict)
    kind = _field(mh, "kind", path, str)
    if kind not in KINDS:
        raise ModelFileError(f"{path} has map kind {kind!r}, expected one of {KINDS}")
    in_dim, out_dim, seed = (_field(mh, key, path, int) for key in ("in_dim", "out_dim", "seed"))
    _check_shapes(arrays, kind, in_dim, out_dim, path)
    mapping = RandomMap(
        kind=kind,
        in_dim=in_dim,
        out_dim=out_dim,
        seed=seed,
        weights=arrays.get("map_weights"),
        offsets=arrays.get("map_offsets"),
        bandwidth=_field(mh, "bandwidth", path, (int, float, type(None))),
        density=_field(mh, "density", path, (int, float, type(None))),
    )
    return EncoderModel(
        w=arrays["w"],
        b=arrays["b"],
        leaky_slope=slope,
        random_map=mapping,
        decoder_w=arrays.get("decoder_w"),
        decoder_b=arrays.get("decoder_b"),
    )


def save_ensemble(path, models: list) -> None:
    """All member models in one container, preserving member order."""
    records, arrays = [], []
    for model in models:
        record, model_arrays = _model_record(model)
        records.append(record)
        arrays.extend(model_arrays)
    header = {"format": "randist-ensemble", "lib_version": __version__, "models": records}
    _write_container(path, header, arrays)


def load_ensemble(path) -> list:
    header, payload = _read_container(path)
    if header.get("format") == "randist-model":  # older `cluster` runs: one member
        header = {"models": [_field(header, "model", path, dict)]}
    elif header.get("format") != "randist-ensemble":
        raise ModelFileError(f"{path} holds {header.get('format')!r}, expected an ensemble")
    models = []
    for record in _field(header, "models", path, list):
        arrays, payload = _take_arrays(payload, _field(record, "arrays", path, list), path)
        models.append(_model_from_record(record, arrays, path))
    if payload:
        raise ModelFileError(f"{path} has {len(payload)} unexpected trailing payload bytes")
    return models
