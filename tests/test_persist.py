import io
import os
import warnings
import zipfile

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


def test_version_mismatch():
    # a file in the earlier hand-rolled layout (tests/data/v1_adam.ckpt) is not
    # read: the stage that wrote it is rerun instead
    with pytest.raises(persist.VersionMismatchError, match="rerun its stage"):
        persist.load(FIXTURE)


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


def npy(arr) -> bytes:
    """``arr`` as the bytes of a ``.npy`` member."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr))
    return buf.getvalue()


def text_npy(text: bytes) -> bytes:
    return npy(np.frombuffer(text, np.uint8))


def member(path, name: str) -> np.ndarray:
    with np.load(path) as z:
        return z[name]


def tiny_lr(seed=0) -> Model:
    return Model(ModelSpec.lr(), FieldDims((3,), 0), seed=seed)


def rewrite(src, dst, members: dict[str, bytes]) -> None:
    """Re-zip the checkpoint at ``src`` to ``dst`` with the ``.npy`` bytes of
    ``members`` replaced or added, so every zip CRC32 holds and only the
    checkpoint's own checks can refuse the result."""
    with zipfile.ZipFile(src) as zf:
        files = {info.filename: zf.read(info) for info in zf.infolist()}
    files.update((f"{name}.npy", data) for name, data in members.items())
    with zipfile.ZipFile(dst, "w") as zf:
        for name, data in files.items():
            zf.writestr(name, data)


def test_corrupt_text_sections_raise_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=4)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=4, epoch=2, vocab_fingerprint="ef" * 32)
    bad = tmp_path / "bad.ckpt"
    for name in ("spec", "fields", "meta"):
        blob = member(path, name).tobytes()
        for i in range(len(blob)):  # each ASCII byte becomes invalid UTF-8
            flipped = bytearray(blob)
            flipped[i] ^= 0x80
            rewrite(path, bad, {name: text_npy(bytes(flipped))})
            with pytest.raises(persist.CorruptCheckpointError):
                persist.load(bad)


def test_text_section_value_errors_raise_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.fm(3), DIMS, seed=0)
    path = tmp_path / "model.ckpt"
    persist.save(path, model, seed=7, epoch=1)
    for name, old, new in (("meta", b"seed = 7", b"seed = x"),          # bad number
                           ("meta", b"epoch = 1", b"epoch 1"),          # malformed line
                           ("meta", b"seed = 7", b"sead = 7"),          # missing key
                           ("spec", b"wide = fm", b"wide = zz"),        # invalid spec
                           ("spec", b"activation = relu", b"activation = tanh")):  # not ReLU
        blob = member(path, name).tobytes()
        assert old in blob
        bad = tmp_path / "bad.ckpt"
        rewrite(path, bad, {name: text_npy(blob.replace(old, new))})
        with pytest.raises(persist.CorruptCheckpointError):
            persist.load(bad)


def test_only_float64_dtype_code_is_valid(tmp_path):
    path = tmp_path / "model.ckpt"
    persist.save(path, tiny_lr())
    values = member(path, "tensor/lr.cat.0")
    # other dtypes, other byte order, and Fortran order
    for stored in (values.astype(np.float32), values.astype(">f8"), values.astype(np.int64),
                   np.asfortranarray(np.tile(values, (1, 2)))):
        rewrite(path, path, {"tensor/lr.cat.0": npy(stored)})
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
    spec = member(path, "spec").tobytes().replace(b"embedding_dim = 3", b"embedding_dim = 2")
    rewrite(path, bad, {"spec": text_npy(spec)})
    with pytest.raises(persist.CorruptCheckpointError, match="shape mismatch"):
        persist.load(bad).build_model()


def test_corrupt_tensor_header_raises_corrupt_checkpoint(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=4)
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    with zipfile.ZipFile(path) as zf:
        data = zf.read("tensor/embed.0.npy")
    header_len = len(data) - member(path, "tensor/embed.0").nbytes
    bad = tmp_path / "bad.ckpt"
    # magic, version, header length and the header's dict text
    for i in range(header_len):
        flipped = bytearray(data)
        flipped[i] ^= 0x80
        rewrite(path, bad, {"tensor/embed.0": bytes(flipped)})
        with pytest.raises(persist.CheckpointError):
            persist.load(bad).build_model()


def test_header_that_overruns_its_member_is_refused_before_allocating(tmp_path):
    path = tmp_path / "model.ckpt"
    persist.save(path, tiny_lr())
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
    rewrite(path, path, {"tensor/lr.cat.0": buf.getvalue() + bytes(8 * 3)})
    with pytest.raises(persist.CorruptCheckpointError, match="lr.cat.0"):
        persist.load(path)


def test_members_must_be_the_ones_meta_lists(tmp_path):
    path = tmp_path / "model.ckpt"
    persist.save(path, tiny_lr(), extras={"gate.w.0": np.array([[1.5]])})
    with zipfile.ZipFile(path) as zf:
        files = [(name, zf.read(name)) for name in zf.namelist()]
    extra = npy(np.zeros((1, 1)))
    bad = tmp_path / "bad.ckpt"
    for members in ([*files, ("tensor/hidden.npy", extra)],        # an unlisted tensor
                    [*files, ("other.npy", extra)],                # an unlisted member
                    [*files, ("tensor/gate.w.0.npy", extra)],      # a listed one twice
                    [(name, data) for name, data in files
                     if name != "tensor/gate.w.0.npy"]):           # a listed one gone
        with warnings.catch_warnings(), zipfile.ZipFile(bad, "w") as zf:
            warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
            for name, data in members:
                zf.writestr(name, data)
        with pytest.raises(persist.CorruptCheckpointError, match="members differ"):
            persist.load(bad)


@pytest.mark.parametrize("name", ["a,b", "line\nbreak", " padded"],
                         ids=["comma", "newline", "padded"])
def test_names_that_meta_cannot_list_are_refused_at_save(tmp_path, name):
    with pytest.raises(persist.CheckpointError, match="cannot be listed"):
        persist.save(tmp_path / "model.ckpt", tiny_lr(), extras={name: np.zeros(1)})


@pytest.mark.parametrize("extras, error", [({"lr.bias": np.zeros((1, 1))}, "collide"),
                                           ({"extra": np.zeros(2, np.float32)}, "float32")],
                         ids=["collides-with-a-parameter", "float32"])
def test_extras_a_checkpoint_cannot_hold_are_refused_at_save(tmp_path, extras, error):
    with pytest.raises(persist.CheckpointError, match=error):
        persist.save(tmp_path / "model.ckpt", tiny_lr(), extras=extras)
    assert not os.listdir(tmp_path)


def test_every_flipped_or_cut_byte_is_refused_or_loads_the_same_content(tmp_path):
    # an LR on one field and one extra tensor: a 1.8 KB file
    path = tmp_path / "model.ckpt"
    persist.save(path, tiny_lr(), seed=1, epoch=2, vocab_fingerprint="ab" * 32,
                 extras={"gate.w.0": np.array([[1.5]])})
    blob = path.read_bytes()
    ref = persist.load(path)

    def content(c):
        return (c.spec, c.dims, c.seed, c.epoch, c.vocab_fingerprint,
                [(name, arr.dtype, arr.shape, arr.tobytes()) for name, arr in c.tensors.items()])

    bad = tmp_path / "bad.ckpt"
    for i in range(len(blob)):
        for mask in (0x01, 0x80):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            bad.write_bytes(bytes(flipped))
            try:
                loaded = persist.load(bad)
            except persist.CheckpointError:
                continue
            assert content(loaded) == content(ref), (i, mask)
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(persist.CorruptCheckpointError):
            persist.load(bad)


def test_a_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    persist.save(path, tiny_lr(seed=0))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        persist.save(path, tiny_lr(seed=1))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
