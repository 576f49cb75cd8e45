import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.autodiff import Tensor
from bertfit.model import ClassifierHead, EncoderConfig, init_model
from bertfit.optim import (Adam, DivergedError, LayerwiseLrSchedule,
                           NanGradientError, ParameterGroup, StlrSchedule,
                           effective_rate, group_parameters, layer_rates,
                           stlr, train_step)
from bertfit.rng import Rng


class TestGrouping:
    def test_l2_model_has_four_groups(self, toy_model):
        groups = group_parameters(toy_model)
        assert [g.depth for g in groups] == [0, 1, 2, 3]

    def test_partition_is_exact(self, toy_model):
        groups = group_parameters(toy_model)
        grouped = [id(p) for g in groups for p in g.params]
        assert sorted(grouped) == sorted(id(p) for p in toy_model.parameters())
        assert len(grouped) == len(set(grouped))

    def test_extra_heads_join_top_group(self, toy_model):
        head = ClassifierHead.init(8, 3, Rng(1))
        groups = group_parameters(toy_model, extra_heads=[head])
        top = groups[-1]
        assert head.W in top.params and head.b in top.params

    def test_embedding_to_top_ratio(self):
        # 12-block model: embeddings sit 13 decay steps below the heads
        lw = LayerwiseLrSchedule(base_lr=1.0, decay_factor=0.95)
        ratio = lw.multiplier(0, 13) / lw.multiplier(13, 13)
        assert ratio == pytest.approx(0.95 ** 13)


class TestStlr:
    def test_golden_points(self):
        T, peak = 1000, 2e-5
        assert stlr(0, T, 0.1, peak) == 0.0
        assert stlr(100, T, 0.1, peak) == peak
        assert stlr(T, T, 0.1, peak) == 0.0
        assert stlr(50, T, 0.1, peak) == pytest.approx(peak / 2)

    def test_piecewise_linear_continuous(self):
        T, w, peak = 400, 0.1, 3e-4
        rates = [stlr(s, T, w, peak) for s in range(T + 1)]
        assert max(rates) == pytest.approx(peak)
        diffs = np.diff(rates)
        # one positive slope then one negative slope
        assert np.allclose(diffs[: int(w * T)], diffs[0])
        assert np.allclose(diffs[int(w * T) + 1:], diffs[-1])

    def test_step_past_total_clamps_with_warning(self):
        sched = StlrSchedule(total_steps=100, peak_lr=1e-3)
        with pytest.warns(UserWarning):
            assert sched.rate(101) == 0.0


class TestEffectiveRate:
    @pytest.mark.parametrize("xi", [0.85, 0.90, 0.95, 1.00])
    def test_adjacent_ratio_is_xi(self, toy_model, xi):
        groups = group_parameters(toy_model)
        lw = LayerwiseLrSchedule(base_lr=2e-5, decay_factor=xi)
        sched = StlrSchedule(total_steps=100, peak_lr=2e-5)
        top = toy_model.config.n_layers + 1
        for step in (1, 10, 50, 99):
            rates = [effective_rate(g, lw, sched, step, top) for g in groups]
            for lo, hi in zip(rates, rates[1:]):
                if hi > 0:
                    assert lo / hi == pytest.approx(xi, rel=1e-15)

    def test_xi_one_all_equal(self, toy_model):
        groups = group_parameters(toy_model)
        lw = LayerwiseLrSchedule(base_lr=2e-5, decay_factor=1.0)
        sched = StlrSchedule(total_steps=100, peak_lr=2e-5)
        rates = {effective_rate(g, lw, sched, 10, 3) for g in groups}
        assert len(rates) == 1

    def test_one_below_top_at_peak(self):
        lw = LayerwiseLrSchedule(base_lr=2.0e-5, decay_factor=0.95)
        sched = StlrSchedule(total_steps=100, peak_lr=2.0e-5)
        g = ParameterGroup(depth=2, params=[])
        assert effective_rate(g, lw, sched, 10, 3) == \
            pytest.approx(1.9e-5, rel=1e-12)


class TestAdam:
    def _scalar_group(self, value=0.0):
        p = Tensor(np.array([value], dtype=np.float64), name="p")
        return p, [ParameterGroup(depth=0, params=[p])]

    def test_first_step_is_minus_rate(self):
        p, groups = self._scalar_group()
        opt = Adam(groups)
        p.grad = np.array([1.0])
        opt.step({0: 1e-2})
        assert p.data[0] == pytest.approx(-1e-2, rel=1e-6)

    def test_zero_grad_no_change(self):
        p, groups = self._scalar_group(3.0)
        opt = Adam(groups)
        p.grad = np.array([0.0])
        opt.step({0: 1e-2})
        assert p.data[0] == 3.0

    def test_group_rate_ratio(self):
        pa = Tensor(np.array([1.0]), name="a")
        pb = Tensor(np.array([1.0]), name="b")
        groups = [ParameterGroup(0, [pa]), ParameterGroup(1, [pb])]
        opt = Adam(groups)
        for _ in range(3):
            pa.grad = np.array([0.3])
            pb.grad = np.array([0.3])
            opt.step({0: 0.95 * 1e-3, 1: 1e-3})
        da, db = 1.0 - pa.data[0], 1.0 - pb.data[0]
        assert da / db == pytest.approx(0.95, rel=1e-9)

    def test_nan_gradient_names_tensor(self):
        p, groups = self._scalar_group()
        p.name = "block0.wq"
        opt = Adam(groups)
        p.grad = np.array([np.nan])
        with pytest.raises(NanGradientError, match="block0.wq"):
            opt.step({0: 1e-3})

    def test_deterministic_updates(self):
        def run():
            cfg = EncoderConfig(n_layers=1, hidden=8, n_heads=2,
                                vocab_size=20, max_positions=8, dropout=0.0)
            model = init_model(cfg, Rng(0))
            groups = group_parameters(model)
            opt = Adam(groups)
            rng = Rng(9)
            for step in range(3):
                for g in groups:
                    for p in g.params:
                        p.grad = rng.normal(p.shape, dtype=p.dtype)
                opt.step({d: 1e-3 for d in range(3)})
            return np.concatenate([p.data.ravel()
                                   for p in model.parameters()])
        a, b = run(), run()
        assert (a == b).all()

    def test_clip_norm(self):
        p, groups = self._scalar_group()
        opt = Adam(groups, clip_norm=0.5)
        p.grad = np.array([10.0])
        opt.step({0: 1e-2})
        assert abs(p.grad[0]) <= 0.5 + 1e-12


class TestLayerRates:
    def test_matches_effective_rate(self, toy_model):
        groups = group_parameters(toy_model)
        lw = LayerwiseLrSchedule(base_lr=1e-3, decay_factor=0.9)
        sched = StlrSchedule(total_steps=20, peak_lr=1e-3)
        rates = layer_rates(groups, lw, sched, 7)
        top = toy_model.config.n_layers + 1
        assert rates == {g.depth: effective_rate(g, lw, sched, 7, top)
                         for g in groups}

    def test_decay_one_is_the_schedule_rate(self, toy_model):
        groups = group_parameters(toy_model)
        sched = StlrSchedule(total_steps=20, peak_lr=3e-4)
        rates = layer_rates(groups, LayerwiseLrSchedule(decay_factor=1.0),
                            sched, 5)
        assert set(rates.values()) == {sched.rate(5)}


class TestTrainStep:
    def _setup(self):
        w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), name="w")
        groups = [ParameterGroup(depth=0, params=[w])]
        x = Tensor(np.array([[1.0, 2.0]]))
        return w, Adam(groups), x

    def test_matches_hand_written_step(self):
        w, opt, x = self._setup()
        w2 = Tensor(w.data.copy(), name="w")
        opt2 = Adam([ParameterGroup(depth=0, params=[w2])])
        for _ in range(3):
            out = train_step(
                opt, lambda: (ad.tsum(ad.matmul(x, w)), "aux"), [w], {0: 1e-2})
            assert out[1] == "aux"
            with ad.Tape() as tape:
                loss = ad.tsum(ad.matmul(x, w2))
            opt2.zero_grad()
            ad.backward(tape, loss, parameters=[w2])
            opt2.step({0: 1e-2})
            assert np.array_equal(w.data, w2.data)
        assert opt.t == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_leaves_parameters(self, bad):
        w, opt, x = self._setup()
        before = w.data.copy()
        with pytest.raises(DivergedError, match="step 1"):
            train_step(opt, lambda: (ad.scale(ad.tsum(ad.matmul(x, w)),
                                              bad),), [w], {0: 1e-2})
        assert np.array_equal(w.data, before)
        assert w.grad is None and opt.t == 0

    def test_nan_gradient_becomes_diverged(self):
        w, opt, _ = self._setup()

        def loss_fn():      # finite loss whose gradient is NaN
            def bwd(g):
                w.grad = np.full_like(w.data, np.nan)
            return (ad._make(np.array(1.0), (w,), bwd),)

        with pytest.raises(DivergedError, match="NaN gradient in parameter w"):
            train_step(opt, loss_fn, [w], {0: 1e-2})

    def test_numerical_error_becomes_diverged(self):
        w, opt, x = self._setup()
        x.data[0, 0] = np.nan
        with pytest.raises(DivergedError, match="NaN"):
            train_step(opt, lambda: (ad.tsum(ad.softmax(ad.matmul(x, w),
                                                        axis=-1)),),
                       [w], {0: 1e-2})
