import warnings
import weakref

import numpy as np
import pytest

from bertfit import autodiff as ad
from bertfit.autodiff import Tensor
from bertfit.model import ClassifierHead, EncoderConfig, init_model
from bertfit.optim import (Adam, LayerwiseLrSchedule, ParameterGroup,
                           StlrSchedule, build_optimizer, effective_rate,
                           group_parameters, train_step)
from bertfit.rng import Rng
from conftest import weighted_sum


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


def _rate(step, total_steps, warmup, peak):
    return StlrSchedule(total_steps=total_steps, peak_lr=peak,
                        warmup_proportion=warmup).rate(step)


class TestStlr:
    def test_golden_points(self):
        T, peak = 1000, 2e-5
        assert _rate(0, T, 0.1, peak) == 0.0
        assert _rate(100, T, 0.1, peak) == peak
        assert _rate(T, T, 0.1, peak) == 0.0
        assert _rate(50, T, 0.1, peak) == pytest.approx(peak / 2)

    def test_piecewise_linear_continuous(self):
        T, w, peak = 400, 0.1, 3e-4
        rates = [_rate(s, T, w, peak) for s in range(T + 1)]
        assert max(rates) == pytest.approx(peak)
        diffs = np.diff(rates)
        # one positive slope then one negative slope
        assert np.allclose(diffs[: int(w * T)], diffs[0])
        assert np.allclose(diffs[int(w * T) + 1:], diffs[-1])

    def test_step_past_total_clamps_with_warning(self):
        sched = StlrSchedule(total_steps=100, peak_lr=1e-3)
        with pytest.warns(UserWarning):
            assert sched.rate(101) == 0.0

    @pytest.mark.parametrize("total", [0, -3])
    def test_no_steps_rejected_where_built(self, total):
        with pytest.raises(ValueError, match="total_steps must be >= 1"):
            StlrSchedule(total_steps=total)

    @pytest.mark.parametrize("warmup", [0.0, 1.0, -0.1, 1.5])
    def test_warmup_outside_unit_interval_rejected_where_built(self, warmup):
        with pytest.raises(ValueError, match=r"warmup proportion"):
            StlrSchedule(total_steps=100, warmup_proportion=warmup)


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
        with pytest.raises(ad.NumericalError, match="block0.wq"):
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
                        p.grad = rng.gen.normal(size=p.shape).astype(p.dtype)
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

    def test_clip_scales_a_shared_gradient_once(self):
        def run(shared):
            pa = Tensor(np.array([1.0, -2.0]), np.float64, name="a")
            pb = Tensor(np.array([0.5, 3.0]), np.float64, name="b")
            opt = Adam([ParameterGroup(0, [pa, pb])], clip_norm=0.5)
            with ad.Tape() as tape:
                loss = weighted_sum(ad.add(pa, pb), np.array([3.0, 4.0]))
            ad.backward(tape, loss, parameters=[pa, pb])
            assert pa.grad is pb.grad       # add hands both one array
            if not shared:
                pa.grad, pb.grad = pa.grad.copy(), pb.grad.copy()
            opt.step({0: 1e-2})
            return pa, pb

        pa, pb = run(shared=True)
        scale = 0.5 / (np.sqrt(50.0) + 1e-12)
        assert np.array_equal(pa.grad, np.array([3.0, 4.0]) * scale)
        assert np.array_equal(pb.grad, np.array([3.0, 4.0]) * scale)
        qa, qb = run(shared=False)
        assert np.array_equal(pa.data, qa.data)
        assert np.array_equal(pb.data, qb.data)

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_as_before(self, dtype, clip_norm):
        """The in-place step gives the bits of the former one, which built
        every expression in a fresh array; a tensor without a gradient
        keeps its data and moments."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        shapes = [(3, 5), (4,), (2, 2)]
        ps = [Tensor(Rng(i).gen.normal(size=s).astype(dtype), name=f"p{i}")
              for i, s in enumerate(shapes)]
        opt = Adam([ParameterGroup(0, ps[:2]), ParameterGroup(1, ps[2:])],
                   clip_norm=clip_norm)
        ref = [[p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)]
               for p in ps]
        rates = {0: 3e-3, 1: 1e-2}
        for t in range(1, 4):
            grads = [Rng(10 * t + i).gen.normal(0.0, 10.0 ** (i - 1),
                                                size=s).astype(dtype)
                     for i, s in enumerate(shapes[:2])] + [None]
            for p, g in zip(ps, grads):
                p.grad = g
            opt.step(rates)
            if clip_norm is not None:
                norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                   for g in grads[:2]))
                if norm > clip_norm:
                    scale = clip_norm / (norm + 1e-12)
                    grads[:2] = [(g * scale).astype(dtype) for g in grads[:2]]
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for (data, m, v), g, lr in zip(ref, grads, (3e-3, 3e-3, 1e-2)):
                if g is None:
                    continue
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                data -= (lr * (m / c1) / (np.sqrt(v / c2) + eps)).astype(
                    data.dtype)
            for p, (data, m, v) in zip(ps, ref):
                assert p.data.tobytes() == data.tobytes()
                assert opt.m[id(p)].tobytes() == m.tobytes()
                assert opt.v[id(p)].tobytes() == v.tobytes()


class TestLayerRates:
    """The per-depth rates `build_optimizer` returns."""

    def test_matches_effective_rate(self, toy_model):
        groups = group_parameters(toy_model)
        lw = LayerwiseLrSchedule(base_lr=1e-3, decay_factor=0.9)
        sched = StlrSchedule(total_steps=20, peak_lr=1e-3)
        opt, rates_at = build_optimizer(toy_model, (), sched, 0.9)
        top = toy_model.config.n_layers + 1
        assert [g.depth for g in opt.groups] == [g.depth for g in groups]
        assert rates_at(7) == {g.depth: effective_rate(g, lw, sched, 7, top)
                               for g in groups}

    def test_decay_one_is_the_schedule_rate(self, toy_model):
        """Pre-training's optimizer: every depth at the schedule's rate,
        bit for bit, in the warm-up, at the peak, in the decay, at the
        end and past it."""
        sched = StlrSchedule(total_steps=20, peak_lr=3e-4)
        opt, rates_at = build_optimizer(toy_model, (), sched)
        assert opt.clip_norm is None
        for step in (1, 2, 5, 19, 20, 21):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # step 21 is past the end
                rates, want = rates_at(step), sched.rate(step)
            assert sorted(rates) == list(range(toy_model.config.n_layers + 2))
            assert {r.hex() for r in rates.values()} == {want.hex()}

    def test_recipe_options_reach_adam(self, toy_model):
        head = ClassifierHead.init(8, 3, Rng(1))
        opt, _ = build_optimizer(toy_model, [head, None],
                                 StlrSchedule(total_steps=4), 0.9, 0.5)
        assert opt.clip_norm == 0.5
        assert head.W in opt.groups[-1].params
        with pytest.raises(ValueError, match="decay factor"):
            build_optimizer(toy_model, (), StlrSchedule(total_steps=4), 1.5)


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
                opt, lambda: (weighted_sum(ad.matmul(x, w), 1.0), "aux"),
                {0: 1e-2})
            assert out[1] == "aux"
            with ad.Tape() as tape:
                loss = weighted_sum(ad.matmul(x, w2), 1.0)
            opt2.zero_grad()
            ad.backward(tape, loss, parameters=[w2])
            opt2.step({0: 1e-2})
            assert np.array_equal(w.data, w2.data)
        assert opt.t == 3

    def test_tape_freed_when_step_returns(self):
        w, opt, x = self._setup()
        arrays = []

        def loss_fn():      # Tensor has no weakref slot; its data stands in
            h = ad.matmul(x, w)
            arrays.append(weakref.ref(h.data))
            return (weighted_sum(h, 1.0),)

        train_step(opt, loss_fn, {0: 1e-2})
        assert arrays[0]() is None

    def test_previous_gradient_released_before_the_forward(self):
        w, opt, x = self._setup()
        refs, alive = [], []

        def loss_fn():
            alive.append([r() is not None for r in refs])
            return (weighted_sum(ad.matmul(x, w), 1.0),)

        train_step(opt, loss_fn, {0: 1e-2})
        refs.append(weakref.ref(w.grad))
        train_step(opt, loss_fn, {0: 1e-2})
        assert alive == [[], [False]] and w.grad is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_leaves_parameters(self, bad):
        w, opt, x = self._setup()
        before = w.data.copy()
        with pytest.raises(ad.NumericalError, match="step 1"):
            train_step(opt, lambda: (weighted_sum(ad.matmul(x, w),
                                                  [bad, 1.0]),), {0: 1e-2})
        assert np.array_equal(w.data, before)
        assert w.grad is None and opt.t == 0

    def test_nan_gradient_becomes_diverged(self):
        w, opt, _ = self._setup()

        def loss_fn():      # finite loss whose gradient is NaN
            def bwd(g):
                w.grad = np.full_like(w.data, np.nan)
            return (ad._make(np.array(1.0), bwd),)

        with pytest.raises(ad.NumericalError,
                           match="NaN gradient in parameter w"):
            train_step(opt, loss_fn, {0: 1e-2})

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    @pytest.mark.parametrize("kind, bad", [("NaN", np.nan), ("inf", np.inf)])
    def test_non_finite_gradient_changes_nothing(self, kind, bad, clip_norm):
        """A NaN or inf in the last tensor's gradient raises before Adam
        moves anything: every parameter, both moments and `t` keep their
        bits, with clipping or without."""
        w, _, x = self._setup()
        u = Tensor(np.array([[1.5, -0.5], [0.25, 3.0]]), name="u")
        opt = Adam([ParameterGroup(0, [w]), ParameterGroup(1, [u])],
                   clip_norm=clip_norm)
        rates = {0: 1e-2, 1: 1e-2}
        train_step(opt, lambda: (weighted_sum(ad.matmul(ad.matmul(x, w), u),
                                              1.0),), rates)

        def state():
            return [opt.t] + [a.tobytes() for p in (w, u)
                              for a in (p.data, opt.m[id(p)], opt.v[id(p)])]

        kept = state()
        w.grad = np.ones_like(w.data)
        u.grad = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ad.NumericalError,
                           match=f"{kind} gradient in parameter u"):
            opt.step(rates)
        assert state() == kept

    def test_numerical_error_becomes_diverged(self):
        w, opt, x = self._setup()
        x.data[0, 0] = np.nan
        with pytest.raises(ad.NumericalError, match="NaN"):
            train_step(opt, lambda: (weighted_sum(
                ad.softmax(ad.matmul(x, w)), 1.0),), {0: 1e-2})

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    def test_tensor_the_loss_misses_is_left_as_it_was(self, clip_norm):
        """What trains is what the loss reaches: after a step that trained
        `u`, a step whose loss does not reach it leaves its data and Adam
        moments as they were, and so does the clip norm."""
        w, _, x = self._setup()
        u = Tensor(np.array([[1.5, -0.5], [0.25, 3.0]]), name="u")
        opt = Adam([ParameterGroup(0, [w]), ParameterGroup(1, [u])],
                   clip_norm=clip_norm)
        rates = {0: 1e-2, 1: 1e-2}
        train_step(opt, lambda: (weighted_sum(ad.matmul(ad.matmul(x, w), u),
                                              1.0),), rates)
        kept = [a.tobytes() for a in (u.data, opt.m[id(u)], opt.v[id(u)])]
        assert opt.m[id(u)].any()
        w_alone = Tensor(w.data.copy(), name="w")
        ref = Adam([ParameterGroup(0, [w_alone])], clip_norm=clip_norm)
        ref.t, ref.m[id(w_alone)], ref.v[id(w_alone)] = \
            opt.t, opt.m[id(w)].copy(), opt.v[id(w)].copy()
        for o, p in ((opt, w), (ref, w_alone)):
            train_step(o, lambda: (weighted_sum(ad.matmul(x, p), 1.0),),
                       rates)
        assert u.grad is None
        assert [a.tobytes() for a in (u.data, opt.m[id(u)],
                                      opt.v[id(u)])] == kept
        assert w.data.tobytes() == w_alone.data.tobytes()
