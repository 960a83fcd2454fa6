import os
import struct

import numpy as np
import pytest

from ctrkd import persist
from ctrkd.data import FeatureVocabulary, TableSchema
from ctrkd.models import FieldDims, Model, ModelSpec, spec_from_preset

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "v1_adam.ckpt")

DIMS = FieldDims((6, 4, 5), 2)

ZOO = [
    ModelSpec.lr(),
    ModelSpec.fm(3),
    ModelSpec.dnn((8, 4), embedding_dim=3),
    ModelSpec.wide_deep((8,), embedding_dim=3),
    ModelSpec.deepfm((8,), embedding_dim=3),
    ModelSpec.dcn(2, (8,), embedding_dim=3),
    ModelSpec.xdeepfm((4,), (8,), embedding_dim=3),
]


def random_batch(n=100, seed=0):
    rng = np.random.default_rng(seed)
    cat = np.stack([rng.integers(0, v, size=n) for v in DIMS.vocab_sizes], axis=1)
    num = rng.normal(size=(n, DIMS.n_numeric))
    return cat, num


# an FM never reads cin_maps, so an empty one is valid and must reload as empty
@pytest.mark.parametrize("spec", [*ZOO, pytest.param(ModelSpec(wide="fm", embedding_dim=3,
                                                               cin_maps=()),
                                                     id="fm-empty-cin_maps")],
                         ids=lambda s: s.wide + ("+mlp" if s.deep else ""))
def test_roundtrip_bitwise_predictions(tmp_path, spec):
    model = Model(spec, DIMS, seed=11)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=11, epoch=3, vocab_fingerprint="ab" * 32)
    loaded = persist.load(path)
    assert loaded.spec == spec
    assert loaded.seed == 11 and loaded.epoch == 3
    rebuilt = loaded.build_model()
    cat, num = random_batch()
    np.testing.assert_array_equal(rebuilt.logit_values(cat, num),
                                  model.logit_values(cat, num))


def test_deterministic_bytes(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    persist.save(p1, model, seed=2, vocab_fingerprint="x")
    persist.save(p2, model, seed=2, vocab_fingerprint="x")
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected(tmp_path):
    model = Model(ModelSpec.fm(3), DIMS, seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    blob = path.read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:cut])
        with pytest.raises(persist.CorruptCheckpointError):
            persist.load(bad)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "noise.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(persist.CorruptCheckpointError):
        persist.load(path)


def test_version_mismatch(tmp_path):
    model = Model(ModelSpec.lr(), DIMS, seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field
    path.write_bytes(bytes(blob))
    with pytest.raises(persist.VersionMismatchError):
        persist.load(path)


def test_fingerprint_refusal(tmp_path):
    schema = TableSchema(0, categorical_columns=(1,))
    rows_a = [["0", "x"], ["1", "y"], ["0", "x"], ["1", "y"]]
    rows_b = [["0", "x"], ["1", "z"], ["0", "x"], ["1", "z"]]
    vocab_a = FeatureVocabulary.build(rows_a, schema, min_count=1)
    vocab_b = FeatureVocabulary.build(rows_b, schema, min_count=1)
    assert vocab_a.fingerprint() != vocab_b.fingerprint()

    model = Model(ModelSpec.lr(), FieldDims((3,), 0), seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, vocab_fingerprint=vocab_a.fingerprint())
    loaded = persist.load(path)
    loaded.build_model(expected_fingerprint=vocab_a.fingerprint())  # same vocab fine
    with pytest.raises(persist.FingerprintMismatchError):
        loaded.build_model(expected_fingerprint=vocab_b.fingerprint())


def test_extras_roundtrip(tmp_path):
    model = Model(ModelSpec.dnn((4,), embedding_dim=2), DIMS, seed=1)
    extras = {"gate.w.0": np.array([[1.5]]), "gate.b.0": np.array([[-0.25]])}
    path = tmp_path / "model.ckpt"
    persist.save(path, model, extras=extras)
    loaded = persist.load(path)
    np.testing.assert_array_equal(loaded.tensors["gate.w.0"], extras["gate.w.0"])
    np.testing.assert_array_equal(loaded.tensors["gate.b.0"], extras["gate.b.0"])


def section_spans(blob: bytes) -> dict[str, tuple[int, int]]:
    """Payload (start, end) offsets of every section in a checkpoint file."""
    pos, spans = len(persist.MAGIC) + 4, {}
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2:pos + 2 + name_len].decode("utf-8")
        (payload_len,) = struct.unpack_from("<Q", blob, pos + 2 + name_len)
        start = pos + 2 + name_len + 8
        spans[name] = (start, start + payload_len)
        pos = start + payload_len
    return spans


def test_corrupt_text_sections_raise_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=4)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=4, epoch=2, vocab_fingerprint="ef" * 32)
    blob = path.read_bytes()
    spans = section_spans(blob)
    bad = tmp_path / "bad.ckpt"
    for name in ("spec", "fields", "meta"):
        start, end = spans[name]
        for i in range(start, end):
            flipped = bytearray(blob)
            flipped[i] ^= 0x80
            bad.write_bytes(bytes(flipped))
            with pytest.raises(persist.CorruptCheckpointError):
                persist.load(bad)


def test_text_section_value_errors_raise_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.fm(3), DIMS, seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=7, epoch=1)
    blob = path.read_bytes()
    for old, new in ((b"seed = 7", b"seed = x"),          # bad number
                     (b"epoch = 1", b"epoch 1"),          # malformed line
                     (b"seed = 7", b"sead = 7"),          # missing key
                     (b"wide = fm", b"wide = zz"),        # invalid spec
                     (b"activation = relu", b"activation = tanh")):  # not ReLU
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(old, new))
        with pytest.raises(persist.CorruptCheckpointError):
            persist.load(bad)


def test_only_float64_dtype_code_is_valid(tmp_path):
    model = Model(ModelSpec.lr(), FieldDims((3,), 0), seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    blob = bytearray(path.read_bytes())
    start, _ = section_spans(bytes(blob))["tensors"]
    (name_len,) = struct.unpack_from("<H", blob, start + 4)
    code_at = start + 4 + 2 + name_len
    assert blob[code_at] == 0
    blob[code_at] = 1  # the f32 code older writers accepted
    path.write_bytes(bytes(blob))
    with pytest.raises(persist.CorruptCheckpointError):
        persist.load(path)


def test_tensors_that_do_not_fit_the_spec_are_refused_at_build(tmp_path):
    model = Model(ModelSpec.fm(3), DIMS, seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    loaded = persist.load(path)
    del loaded.tensors["fm.bias"]
    with pytest.raises(persist.CorruptCheckpointError, match="lacks parameters"):
        loaded.build_model()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(path.read_bytes().replace(b"embedding_dim = 3", b"embedding_dim = 2"))
    with pytest.raises(persist.CorruptCheckpointError, match="shape mismatch"):
        persist.load(bad).build_model()


def test_corrupt_tensor_header_raises_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=4)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    blob = path.read_bytes()
    start, _ = section_spans(blob)["tensors"]
    # u32 count, then the first tensor's name length, name, code, ndim, dims
    (name_len,) = struct.unpack_from("<H", blob, start + 4)
    ndim = blob[start + 4 + 2 + name_len + 1]
    bad = tmp_path / "bad.ckpt"
    for i in range(start, start + 4 + 2 + name_len + 2 + 8 * ndim):
        flipped = bytearray(blob)
        flipped[i] ^= 0x80
        bad.write_bytes(bytes(flipped))
        with pytest.raises(persist.CheckpointError):
            persist.load(bad).build_model()


def test_v1_file_with_adam_section_still_loads_and_bytes_are_pinned(tmp_path):
    # written by the earlier persist.save, which also took ``adam=(t, m, v)``:
    # this untrained model, seed 3, epoch 5, fingerprint "cd" * 32, the extra
    # below and an ``adam`` section with t = 7, every m 0.25 and every v 0.5
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=3)
    extra = {"gate.w.0": np.array([[1.5, -0.25]])}
    loaded = persist.load(FIXTURE)
    rebuilt = loaded.build_model()
    fresh = model.state()
    assert set(rebuilt.state()) == set(fresh)
    for name, arr in rebuilt.state().items():
        np.testing.assert_array_equal(arr, fresh[name])
    np.testing.assert_array_equal(loaded.tensors["gate.w.0"], extra["gate.w.0"])
    assert (loaded.seed, loaded.epoch, loaded.vocab_fingerprint) == (3, 5, "cd" * 32)

    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=3, epoch=5, vocab_fingerprint="cd" * 32, extras=extra)
    fixture = open(FIXTURE, "rb").read()
    adam_start, adam_end = section_spans(fixture)["adam"]
    assert adam_end == len(fixture)  # the last section
    adam_header = adam_start - 8 - len(b"adam") - 2
    assert path.read_bytes() == fixture[:adam_header]
