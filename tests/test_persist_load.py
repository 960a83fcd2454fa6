"""Loading a checkpoint builds its model once, from the file's own arrays."""
import tracemalloc

import numpy as np
import pytest

from ctrkd import persist
from ctrkd.models import FieldDims, Model, ModelSpec

DIMS = FieldDims((6, 4, 5), 2)


def test_build_model_moves_the_parameters_out_and_keeps_the_extras(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=3), DIMS, seed=5)
    extras = {"gate.w.0": np.array([[1.5, -0.25]])}
    path = tmp_path / "model.ckpt"
    persist.save(path, model, extras=extras)
    loaded = persist.load(path)
    arrays = dict(loaded.tensors)
    rebuilt = loaded.build_model()
    # the model holds the file's arrays themselves, and the checkpoint only the extras
    assert all(p.values is arrays[p.name] for p in rebuilt.parameters())
    assert list(loaded.tensors) == ["gate.w.0"]
    np.testing.assert_array_equal(loaded.tensors["gate.w.0"], extras["gate.w.0"])
    # so a second model cannot share the first one's arrays
    with pytest.raises(persist.CorruptCheckpointError, match="lacks parameters.*embed.0"):
        loaded.build_model()


def test_empty_extra_tensors_roundtrip(tmp_path):
    model = Model(ModelSpec.fm(3), DIMS, seed=1)
    extras = {"empty.0": np.zeros((0, 3)), "empty.1": np.zeros((4, 0, 2))}
    path = tmp_path / "model.ckpt"
    persist.save(path, model, extras=extras)
    loaded = persist.load(path)
    for name, arr in extras.items():
        assert loaded.tensors[name].shape == arr.shape
    rebuilt = loaded.build_model()
    for name, arr in model.state().items():
        np.testing.assert_array_equal(rebuilt.state()[name], arr)


def test_load_and_build_hold_one_copy_of_the_parameters(tmp_path):
    # one 100k-row table holds nearly all of the parameter bytes
    model = Model(ModelSpec.dnn((4,), embedding_dim=8), FieldDims((100_000,), 1), seed=2)
    param_bytes = sum(p.values.nbytes for p in model.parameters())
    path = tmp_path / "model.ckpt"
    persist.save(path, model)
    tracemalloc.start()
    try:
        rebuilt = persist.load(path).build_model()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * param_bytes, (peak, param_bytes)
    for name, arr in model.state().items():
        np.testing.assert_array_equal(rebuilt.state()[name], arr)
