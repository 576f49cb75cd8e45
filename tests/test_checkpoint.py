import numpy as np
import pytest

from bertfit.checkpoint import (install, load_checkpoint, load_into,
                                save_checkpoint, save_model)
from bertfit.data import InputError
from bertfit.model import ClassifierHead, EncoderConfig, init_model
from bertfit.rng import Rng
from bertfit.tokenizer import RESERVED, Vocabulary


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
        tensors = {"w": rng.truncated_normal((4, 5), 1.0),
                   "scalar": np.float32(2.0)}
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


class TestUnreadable:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.zeros(3, np.float32),
                               "b": np.zeros((2, 2), np.float64)})
        return path, path.read_bytes()

    def test_missing_file(self, tmp_path):
        path = tmp_path / "none.ckpt"
        with pytest.raises(InputError, match=f"^{path}: cannot open"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [0, 4, 8, 20])
    def test_header_cut_short(self, saved, cut):
        path, raw = saved
        path.write_bytes(raw[:cut])
        with pytest.raises(InputError,
                           match=f"^{path}: unreadable checkpoint header$"):
            load_checkpoint(path)

    def test_header_not_json(self, saved):
        path, raw = saved
        path.write_bytes(raw[:8] + b"\xff" * (len(raw) - 8))
        with pytest.raises(InputError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut,name,have,want", [
        (1, "b", 31, 32), (32, "b", 0, 32), (40, "a", 4, 12)])
    def test_payload_cut_short_names_tensor(self, saved, cut, name, have,
                                            want):
        path, raw = saved
        path.write_bytes(raw[:-cut])
        with pytest.raises(InputError, match=(
                f"^{path}: checkpoint tensor '{name}' is cut short: "
                f"{have} of {want} bytes$")):
            load_checkpoint(path)

    def test_trailing_bytes_counted(self, saved):
        path, raw = saved
        path.write_bytes(raw + b"\x00" * 21)
        with pytest.raises(InputError, match=(
                f"^{path}: 21 bytes after the last checkpoint tensor$")):
            load_checkpoint(path)


class TestAtomicSave:
    def test_overwrite_leaves_only_the_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, np.float32)})
        save_checkpoint(path, {"a": np.ones(2, np.float32)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        assert load_checkpoint(path)[1]["a"].tolist() == [1.0, 1.0]

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, np.float32)})
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr("bertfit.checkpoint.os.replace", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"a": np.ones(2, np.float32)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        assert path.read_bytes() == before


class TestInstall:
    CFG = dict(n_layers=1, hidden=8, n_heads=2, vocab_size=len(RESERVED) + 2,
               max_positions=8, dropout=0.0)

    @pytest.fixture
    def vocab(self):
        return Vocabulary(RESERVED + ["x", "y"])

    def _model(self, seed, **change):
        cfg = EncoderConfig(**{**self.CFG, **change})
        return init_model(cfg, Rng(seed)), ClassifierHead.init(
            8, 2, Rng(seed + 1))

    def _named(self, model, head=None):
        named = dict(model.named_parameters())
        if head:
            named.update((p.name, p) for p in head.parameters())
        return named

    def test_save_model_meta(self, tmp_path, vocab):
        model, _ = self._model(1)
        path = tmp_path / "m.ckpt"
        save_model(path, self._named(model), model.config, vocab, 7,
                   combiner="attn")
        assert load_checkpoint(path)[0] == {
            "config": model.config.to_dict(), "combiner": "attn",
            "vocab_hash": vocab.content_hash(), "step": 7}

    def test_round_trip_installs(self, tmp_path, vocab):
        (src, src_head), (dst, dst_head) = self._model(1), self._model(5)
        path = tmp_path / "m.ckpt"
        save_model(path, self._named(src, src_head), src.config, vocab, 0)
        install(path, self._named(dst, dst_head), dst.config, vocab, None)
        for name, p in self._named(src, src_head).items():
            assert p.data.tobytes() == \
                self._named(dst, dst_head)[name].data.tobytes()

    @pytest.mark.parametrize("change,message", [
        ({"dropout": 0.3}, None),
        ({"n_heads": 4}, "checkpoint config n_heads 2 does not match the "
                         "model's 4"),
        ({"dtype": "f8"}, "checkpoint config dtype 'f4' does not match the "
                          "model's 'f8'")])
    def test_config_fields_but_dropout_checked(self, tmp_path, vocab,
                                               change, message):
        src, _ = self._model(1)
        dst, _ = self._model(5, **change)
        path = tmp_path / "m.ckpt"
        save_model(path, self._named(src), src.config, vocab, 0)
        before = {n: p.data for n, p in self._named(dst).items()}
        if message is None:
            install(path, self._named(dst), dst.config, vocab, None)
            return
        with pytest.raises(InputError, match=f"^{path}: {message}$"):
            install(path, self._named(dst), dst.config, vocab, None)
        assert all(p.data is before[n] for n, p in self._named(dst).items())

    def test_vocab_hash_checked(self, tmp_path, vocab):
        src, _ = self._model(1)
        other = Vocabulary(RESERVED + ["y", "x"])
        path = tmp_path / "m.ckpt"
        save_model(path, self._named(src), src.config, vocab, 0)
        with pytest.raises(InputError, match=(
                f"vocab_hash {vocab.content_hash()} does not match the "
                f"vocabulary's {other.content_hash()}")):
            install(path, self._named(src), src.config, other, None)

    def test_combiner_checked_only_with_classifier(self, tmp_path, vocab):
        src, head = self._model(1)
        path = tmp_path / "m.ckpt"
        save_model(path, self._named(src, head), src.config, vocab, 0,
                   combiner="attn")
        install(path, self._named(src), src.config, vocab, None)
        with pytest.raises(InputError, match=(
                "checkpoint combiner 'attn' does not match the config's "
                "'mean'")):
            install(path, self._named(src, head), src.config, vocab, "mean")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, vocab, bad):
        src, _ = self._model(1)
        dst, _ = self._model(5)
        named = self._named(src)
        named["block0.wq"].data[1, 2] = bad
        path = tmp_path / "m.ckpt"
        save_model(path, named, src.config, vocab, 0)
        before = {n: p.data for n, p in self._named(dst).items()}
        with pytest.raises(InputError, match=(
                f"^{path}: checkpoint tensor 'block0.wq' holds a NaN or "
                f"inf$")):
            install(path, self._named(dst), dst.config, vocab, None)
        assert all(p.data is before[n] for n, p in self._named(dst).items())

    def test_tensor_mismatch_named(self, tmp_path, vocab):
        src, _ = self._model(1)
        path = tmp_path / "m.ckpt"
        named = self._named(src)
        del named["block0.wq"]
        save_checkpoint(path, named)
        with pytest.raises(InputError,
                           match=f"^{path}: checkpoint tensor 'block0.wq'"):
            install(path, self._named(src), src.config, vocab, None)
