import numpy as np
import pytest

from bertfit.checkpoint import load_checkpoint, load_into, save_checkpoint
from bertfit.model import EncoderConfig, init_model
from bertfit.rng import Rng


class TestRoundTrip:
    def test_byte_exact(self, tmp_path):
        tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.array([1.5], dtype=np.float32)}
        p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
        save_checkpoint(p1, tensors, meta={"step": 3})
        meta, loaded = load_checkpoint(p1)
        assert meta == {"step": 3}
        save_checkpoint(p2, loaded, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_and_shapes(self, tmp_path):
        rng = Rng(0)
        tensors = {"w": rng.normal((4, 5)), "scalar": np.float32(2.0)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, tensors)
        _, loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], tensors["w"])
        assert loaded["w"].dtype == np.float32

    def test_float64_preserved(self, tmp_path):
        tensors = {"w": np.array([1 / 3], dtype=np.float64)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, tensors)
        _, loaded = load_checkpoint(path)
        assert loaded["w"].dtype == np.float64
        assert loaded["w"][0] == 1 / 3

    def test_model_checkpoint_bitwise_deterministic(self, tmp_path):
        cfg = EncoderConfig(n_layers=1, hidden=8, n_heads=2, vocab_size=20,
                            max_positions=8, dropout=0.0)
        p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        for path in (p1, p2):
            model = init_model(cfg, Rng(11))
            save_checkpoint(path, model.named_parameters(),
                            meta={"config": cfg.to_dict(), "step": 0})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_length_prefixed_json(self, tmp_path):
        import json
        import struct
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.float32)},
                        meta={"k": "v"})
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8:8 + hlen])
        assert header["meta"] == {"k": "v"}
        assert header["tensors"][0]["name"] == "x"
        assert len(raw) == 8 + hlen + 2 * 4


class TestLoadInto:
    def _model(self, seed):
        cfg = EncoderConfig(n_layers=1, hidden=8, n_heads=2, vocab_size=20,
                            max_positions=8, dropout=0.0)
        return init_model(cfg, Rng(seed))

    def test_installs_every_tensor(self, tmp_path):
        src, dst = self._model(1), self._model(2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, src.named_parameters())
        load_into(dst.named_parameters(), load_checkpoint(path)[1])
        for k, p in src.params.items():
            assert p.data.tobytes() == dst.params[k].data.tobytes()

    @pytest.mark.parametrize("change, found", [
        (lambda a: a.pop("block0.wq"), "missing"),
        (lambda a: a.update({"block0.wq": np.zeros((8, 4), np.float32)}),
         r"float32 \(8, 4\)"),
        (lambda a: a.update({"block0.wq": np.zeros((8, 8))}),
         r"float64 \(8, 8\)")])
    def test_mismatch_named_and_nothing_installed(self, change, found):
        src, dst = self._model(1), self._model(2)
        arrays = {k: p.data.copy() for k, p in src.params.items()}
        change(arrays)
        before = {k: p.data for k, p in dst.params.items()}
        with pytest.raises(ValueError, match=f"'block0.wq' is {found}"):
            load_into(dst.named_parameters(), arrays)
        assert all(dst.params[k].data is a for k, a in before.items())
