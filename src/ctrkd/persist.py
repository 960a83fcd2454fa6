"""Bit-exact single-file checkpoints in numpy's ``.npz`` zip container, which
the encoded splits use too. Its uncompressed ``.npy`` members are ``spec``,
``fields`` and ``meta`` (seed, epoch, vocabulary fingerprint, tensor names),
sorted ``key = value`` UTF-8 text as uint8, and one float64 ``tensor/<name>``
per tensor that ``meta`` lists. ``load`` refuses any other member, checks each
array's size against its member before allocating it, and reads every member
to its end, where zipfile checks its CRC32: a truncated or corrupt file raises
``CorruptCheckpointError`` before any model is built.
"""
from __future__ import annotations

import math
import tokenize
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import format_kv, parse_kv
from .data import replacing
from .models import FieldDims, Model, ModelSpec

_V1_MAGIC = b"CTRKDCP\x01"  # how files in the earlier hand-rolled layout begin

_U8, _F64 = np.dtype(np.uint8), np.dtype(np.float64)
_CHUNK = 1 << 18  # bytes per read: a tensor is read without a second copy of it
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


class CheckpointError(Exception):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class FingerprintMismatchError(CheckpointError):
    pass


def _read_array(zf: zipfile.ZipFile, name: str, dtype: np.dtype) -> np.ndarray:
    """Member ``name``'s array, allocated only once its header fits the member."""
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise CorruptCheckpointError(f"member {name!r} is compressed")
    with zf.open(info) as m:
        shape, fortran, stored = _NPY_HEADERS[np.lib.format.read_magic(m)](m)
        if (fortran or stored != dtype
                or math.prod(shape) * dtype.itemsize != info.file_size - m.tell()):
            raise CorruptCheckpointError(f"member {name!r} is not its {dtype} array")
        arr = np.empty(shape, dtype)
        buf = memoryview(arr.reshape(-1).view(_U8))
        for start in range(0, len(buf), _CHUNK):
            if m.readinto(part := buf[start:start + _CHUNK]) != len(part):
                raise CorruptCheckpointError(f"member {name!r} is truncated")
        m.read()  # the member's end, where zipfile checks its CRC32
    return arr


@dataclass
class Checkpoint:
    """A parsed checkpoint file. ``build_model`` moves the model's parameters
    out of ``tensors``, which keeps the extras, so no two models share an array."""

    spec: ModelSpec
    dims: FieldDims
    tensors: dict[str, np.ndarray]
    seed: int = 0
    epoch: int = 0
    vocab_fingerprint: str = ""

    def build_model(self, expected_fingerprint: str | None = None) -> Model:
        if expected_fingerprint is not None and expected_fingerprint != self.vocab_fingerprint:
            raise FingerprintMismatchError(
                f"checkpoint was built against vocabulary {self.vocab_fingerprint[:12]}..., "
                f"got {expected_fingerprint[:12]}...")
        try:
            return Model(self.spec, self.dims, tensors=self.tensors)
        except ValueError as err:  # the tensors do not fit the spec and fields
            raise CorruptCheckpointError(f"checkpoint {err}") from None


def save(path, model: Model, *, seed: int = 0, epoch: int = 0,
         vocab_fingerprint: str = "", extras: dict[str, np.ndarray] | None = None) -> None:
    """Write a checkpoint through a temporary file that replaces ``path`` only
    once it is whole; identical models produce identical bytes."""
    tensors, extras = {p.name: p.values for p in model.parameters()}, extras or {}
    if tensors.keys() & extras.keys():
        raise CheckpointError(f"extras collide with parameters: {tensors.keys() & extras.keys()}")
    tensors.update(extras)
    meta = {"seed": str(seed), "epoch": str(epoch), "vocab_fingerprint": vocab_fingerprint,
            "tensors": ",".join(tensors)}
    members = {name: np.frombuffer(format_kv(sorted(kv.items())).encode("utf-8"), _U8)
               for name, kv in (("spec", model.spec.to_kv()), ("fields", model.dims.to_kv()),
                                ("meta", meta))}
    for name, arr in tensors.items():
        members[f"tensor/{name}"] = arr = np.ascontiguousarray(arr)
        if "," in name or not name.isprintable() or name != name.strip():
            raise CheckpointError(f"tensor name {name!r} cannot be listed in meta")
        if arr.dtype != _F64:
            raise CheckpointError(f"unsupported tensor dtype {arr.dtype} for {name}")
    with replacing(path) as f:
        np.savez(f, allow_pickle=False, **members)


def load(path) -> Checkpoint:
    """Parse and validate a checkpoint file completely."""
    with open(path, "rb") as f:
        if f.read(len(_V1_MAGIC)) == _V1_MAGIC:
            raise VersionMismatchError(f"{path} has the earlier checkpoint layout: rerun its stage")
        try:
            with zipfile.ZipFile(f) as zf:
                spec_kv, fields_kv, meta = (parse_kv(str(_read_array(zf, name, _U8), "utf-8"))
                                            for name in ("spec", "fields", "meta"))
                names = meta["tensors"].split(",")
                listed = ["spec", "fields", "meta", *(f"tensor/{n}" for n in names)]
                if sorted(zf.namelist()) != sorted(f"{member}.npy" for member in listed):
                    raise CorruptCheckpointError("members differ from the tensors meta lists")
                spec, dims = ModelSpec.from_kv(spec_kv), FieldDims.from_kv(fields_kv)
                seed, epoch, fingerprint = (int(meta["seed"]), int(meta["epoch"]),
                                            meta["vocab_fingerprint"])
                tensors = {n: _read_array(zf, f"tensor/{n}", _F64) for n in names}
        except (OSError, EOFError, ValueError, KeyError, RuntimeError, SyntaxError,
                tokenize.TokenError, zipfile.BadZipFile) as err:
            # zip and .npy framing, undecodable or malformed text, a missing key or bad value
            raise CorruptCheckpointError(f"corrupt checkpoint {path}: {err!r}") from None
    return Checkpoint(spec, dims, tensors, seed=seed, epoch=epoch,
                      vocab_fingerprint=fingerprint)
