"""Additional checkpoint I/O edge cases."""

import numpy as np

from repro.io import load_checkpoint, save_checkpoint


def test_checkpoint_nested_keys(tmp_path):
    state = {"f/species/with/slashes": np.eye(3)}
    save_checkpoint(tmp_path / "x.npz", state, {"a": 1})
    back, meta = load_checkpoint(tmp_path / "x.npz")
    assert back.keys() == state.keys()
    assert all(np.array_equal(back[k], state[k]) for k in state)
    assert meta == {"a": 1, "layout": "cell-major"}


def test_checkpoint_keys_with_underscores_roundtrip(tmp_path):
    """Regression: the old '/' -> '__' munging destroyed keys containing
    literal '__' (or mixes of both); the key manifest stores them losslessly."""
    state = {
        "f/ion__fast": np.arange(4.0),
        "f/ion/fast": np.arange(3.0),
        "a__b": np.eye(2),
        "state__tricky": np.ones(2),
        "plain": np.zeros(1),
    }
    save_checkpoint(tmp_path / "u.npz", state, {})
    back, _ = load_checkpoint(tmp_path / "u.npz")
    assert set(back) == set(state)
    assert all(np.array_equal(back[k], state[k]) for k in state)


def test_checkpoint_meta_types(tmp_path):
    meta = {"time": 1.5, "steps": 10, "name": "elc", "list": [1, 2]}
    save_checkpoint(tmp_path / "m.npz", {"a": np.zeros(2)}, meta)
    _, back = load_checkpoint(tmp_path / "m.npz")
    assert back == {**meta, "layout": "cell-major"}
