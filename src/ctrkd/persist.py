"""Bit-exact single-file checkpoints.

Byte layout (all integers little-endian):

    magic   8 bytes  b"CTRKDCP\\x01"
    version u32
    then named sections, each:
        u16 name length, name utf-8, u64 payload length, payload

Sections: ``spec`` (model architecture), ``fields`` (input geometry) and
``meta`` (seed, epoch, vocabulary fingerprint) as sorted ``key = value``
text, then ``tensors`` (named float64 arrays with shape prefixes). Sections
with other names are skipped, so files from writers that stored more (such
as optimizer moments) still load. The whole file is parsed and validated before any model is
constructed, so a truncated or corrupt file never yields a partial model.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import format_kv, parse_kv
from .models import FieldDims, Model, ModelSpec

MAGIC = b"CTRKDCP\x01"
VERSION = 1

_F64 = np.dtype("<f8")
_F64_CODE = 0  # the only tensor dtype code; the byte stays in the layout


class CheckpointError(Exception):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class FingerprintMismatchError(CheckpointError):
    pass


def _tensor_parts(named: dict[str, np.ndarray]) -> list[tuple[bytes, np.ndarray]]:
    """(header, float64 array) per tensor, the header ending in its shape."""
    parts = []
    for name, arr in named.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr)
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported tensor dtype {arr.dtype} for {name}")
        parts.append((struct.pack("<H", len(encoded)) + encoded
                      + struct.pack(f"<BB{arr.ndim}Q", _F64_CODE, arr.ndim, *arr.shape),
                      arr.astype(_F64, copy=False)))
    return parts


class _Reader:
    """Reads a checkpoint file front to back. ``left`` bounds every read to
    the file or section being read, so a length that overruns it raises
    before anything of that length is allocated."""

    def __init__(self, f, left: int):
        self.f = f
        self.left = left

    def claim(self, n: int) -> "_Reader":
        """Claim the next ``n`` bytes: a reader bounded to them."""
        if n > self.left:
            raise CorruptCheckpointError("checkpoint file is truncated")
        self.left -= n
        return _Reader(self.f, n)

    def _fill(self, buf):
        if self.f.readinto(buf) != len(buf):  # the file shrank while being read
            raise CorruptCheckpointError("checkpoint file is truncated")
        return buf

    def take(self, n: int) -> bytearray:
        self.claim(n)
        return self._fill(bytearray(n))

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpointError("section or tensor name is not utf-8") from None

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The next float64 array of ``shape``, read straight into its buffer."""
        self.claim(math.prod(shape) * _F64.itemsize)
        try:
            arr = np.empty(shape, dtype=_F64)
        except ValueError:  # too many or too large dimensions
            raise CorruptCheckpointError(f"bad shape {shape} for tensor {name!r}") from None
        self._fill(arr.reshape(-1).view(np.uint8))
        return arr


def _read_tensors(r: _Reader) -> dict[str, np.ndarray]:
    (count,) = r.unpack("<I")
    out = {}
    for _ in range(count):
        name = r.name()
        code, ndim = r.unpack("<BB")
        if code != _F64_CODE:
            raise CorruptCheckpointError(f"unknown dtype code {code}")
        out[name] = r.array(name, r.unpack(f"<{ndim}Q"))
    if r.left:
        raise CorruptCheckpointError("trailing bytes in tensor section")
    return out


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
    """Write a checkpoint; identical models produce identical bytes."""
    meta = {"seed": str(seed), "epoch": str(epoch), "vocab_fingerprint": vocab_fingerprint}
    sections = [(name, format_kv(sorted(kv.items())).encode("utf-8"))
                for name, kv in (("spec", model.spec.to_kv()),
                                 ("fields", model.dims.to_kv()),
                                 ("meta", meta))]
    tensors = {p.name: p.values for p in model.parameters()}
    for name in extras or {}:
        if name in tensors:
            raise CheckpointError(f"extra tensor name {name!r} collides with a parameter")
    tensors.update(extras or {})
    parts = _tensor_parts(tensors)

    def section_header(name: str, payload_len: int) -> bytes:
        encoded = name.encode("utf-8")
        return struct.pack("<H", len(encoded)) + encoded + struct.pack("<Q", payload_len)

    # each tensor's bytes go to the file straight from its array
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", VERSION))
        for name, payload in sections:
            f.write(section_header(name, len(payload)) + payload)
        f.write(section_header("tensors", 4 + sum(len(header) + arr.nbytes
                                                  for header, arr in parts)))
        f.write(struct.pack("<I", len(parts)))
        for header, arr in parts:
            f.write(header)
            f.write(arr)


def load(path) -> Checkpoint:
    """Parse and validate a checkpoint file completely."""
    with open(path, "rb") as f:
        r = _Reader(f, os.fstat(f.fileno()).st_size)
        if r.take(len(MAGIC)) != MAGIC:
            raise CorruptCheckpointError("not a checkpoint file (bad magic)")
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise VersionMismatchError(f"checkpoint version {version}, expected {VERSION}")
        sections: dict[str, bytearray | dict[str, np.ndarray]] = {}
        while r.left:
            name = r.name()
            (payload_len,) = r.unpack("<Q")
            sections[name] = (_read_tensors(r.claim(payload_len)) if name == "tensors"
                              else r.take(payload_len))
    for required in ("spec", "fields", "meta", "tensors"):
        if required not in sections:
            raise CorruptCheckpointError(f"missing checkpoint section {required!r}")

    try:
        spec_kv, fields_kv, meta = (parse_kv(str(sections[name], "utf-8"))
                                    for name in ("spec", "fields", "meta"))
        spec, dims = ModelSpec.from_kv(spec_kv), FieldDims.from_kv(fields_kv)
        seed, epoch = int(meta["seed"]), int(meta["epoch"])
        fingerprint = meta["vocab_fingerprint"]
    except (ValueError, KeyError) as err:
        # undecodable text, a malformed line, a missing key or a bad value
        raise CorruptCheckpointError(f"bad spec, fields or meta section: {err!r}") from None
    return Checkpoint(spec, dims, sections["tensors"], seed=seed, epoch=epoch,
                      vocab_fingerprint=fingerprint)
