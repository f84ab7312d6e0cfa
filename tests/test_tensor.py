"""Tensor core: forward semantics, backward rules against finite differences."""

import os
import platform
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

import composed_reference as ref
from energyformer import tensor as tt
from energyformer.tensor import (
    DimensionError,
    DomainError,
    Tape,
    TapeError,
    Tensor,
    clip_by_global_norm,
    gather_rows,
    global_norm,
    softmax_lastdim,
)
from energyformer.verify import finite_diff_grad, rel_error

FD_TOL = 1e-5


def scalar_loss_grad(build, x0):
    """Gradient of a tape-built scalar w.r.t. a single input array."""
    x = Tensor(x0)
    with Tape() as tape:
        tape.watch(x)
        loss = build(x)
    return tape.backward(loss)[x].data


def check_against_fd(build_tensor, build_np, x0, tol=FD_TOL):
    analytic = scalar_loss_grad(build_tensor, x0)
    numeric = finite_diff_grad(build_np, x0)
    assert rel_error(numeric, analytic) <= tol


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(3, 5))
    out = tt.matmul(Tensor(np.eye(3)), Tensor(b))
    npt.assert_array_equal(out.data, b)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_add_broadcast_mismatch_raises():
    with pytest.raises(DimensionError):
        tt.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_silu_at_zero():
    assert tt.silu(Tensor(0.0)).item() == 0.0


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between same-sign float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_sigmoid_matches_expit_within_ulps():
    # wherever the true value is a normal float; extended precision gives
    # the correctly rounded reference. Near a = -37, where exp(-a) passes
    # 2**53, sigmoid and expit each round to within 2 ulp of it from
    # opposite sides, so they can differ from each other by up to 4.
    x = np.concatenate([
        np.linspace(-708.0, 745.0, 400_001),
        np.linspace(-40.0, 40.0, 400_001),
        np.linspace(-37.0, -36.7, 100_001),
    ])
    truth = (1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))).astype(np.float64)
    got = tt.sigmoid(x)
    assert _ulps(got, truth).max() <= 2
    assert _ulps(expit(x), truth).max() <= 2
    assert _ulps(got, expit(x)).max() <= 4
    # below a = -708 the true value is subnormal; the numpy form flushes to 0
    tail = np.linspace(-745.0, -708.0, 10_001)
    assert np.all(np.abs(tt.sigmoid(tail) - expit(tail)) <= np.finfo(np.float64).tiny)


def test_sigmoid_extremes_shapes_and_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = np.array([-np.inf, -1000.0, 0.0, 1000.0, np.inf])
        npt.assert_array_equal(tt.sigmoid(ends), [0.0, 0.0, 0.5, 1.0, 1.0])
        npt.assert_array_equal(tt.sigmoid(ends), expit(ends))
        assert np.isnan(tt.sigmoid(np.array([1.0, np.nan]))[1])
        zero_d = tt.sigmoid(np.array(-2.0))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert _ulps(zero_d, expit(np.array(-2.0))) <= 2
        assert tt.sigmoid(np.empty((2, 0))).shape == (2, 0)
        out, s = tt.silu_forward(np.array(3.0))
        assert out.shape == () and s.shape == ()
        a = np.linspace(-5.0, 5.0, 11)
        want, _ = tt.silu_forward(a)
        got, _ = tt.silu_forward(a, out=a)  # in place: a becomes silu(a)
        assert got is a
        npt.assert_array_equal(got, want)


def test_softplus_at_zero():
    npt.assert_allclose(tt.softplus(Tensor(0.0)).item(), np.log(2.0), rtol=0, atol=1e-15)


def test_softplus_extremes_without_warnings():
    # e^800 overflows, but softplus never forms it: its ends are 0 and x,
    # and its gradient, sigmoid, is 0 and 1 there
    x = Tensor(np.array([-800.0, 800.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            tape.watch(x)
            out = tt.softplus(x)
            grad = tape.backward(tt.tsum(out))[x].data
    npt.assert_array_equal(out.data, [0.0, 800.0])
    npt.assert_array_equal(grad, [0.0, 1.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(4, 7))
        out = softmax_lastdim(Tensor(x))
        npt.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 6))
    shift = rng.normal(size=(5, 1)) * 50.0
    a = softmax_lastdim(Tensor(x)).data
    b = softmax_lastdim(Tensor(x + shift)).data
    npt.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_softmax_large_logits_no_overflow():
    out = softmax_lastdim(Tensor(np.array([[1000.0, 1000.0, -1000.0]])))
    assert np.all(np.isfinite(out.data))
    npt.assert_allclose(out.data[0, :2], [0.5, 0.5], atol=1e-12)


def test_softmax_masked_entries_get_zero_probability():
    x = np.zeros((3, 3))
    mask = np.triu(np.full((3, 3), -np.inf), k=1)
    mask[np.tril_indices(3)] = 0.0
    out = softmax_lastdim(Tensor(x), mask=mask).data
    assert out[0, 1] == 0.0 and out[0, 2] == 0.0 and out[1, 2] == 0.0
    npt.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-12)


def test_softmax_lastdim_leaves_its_input_alone():
    # softmax_forward works in place; softmax_lastdim hands it a fresh array
    x = np.random.default_rng(4).normal(size=(3, 3))
    before = x.copy()
    softmax_lastdim(Tensor(x))
    softmax_lastdim(Tensor(x), mask=np.triu(np.full((3, 3), -np.inf), k=1))
    npt.assert_array_equal(x, before)


def test_softmax_fully_masked_row_raises():
    x = np.zeros((2, 3))
    mask = np.zeros((2, 3))
    mask[1, :] = -np.inf
    with pytest.raises(DomainError):
        softmax_lastdim(Tensor(x), mask=mask)


def test_log_domain_error():
    with pytest.raises(DomainError):
        ref.log(Tensor(np.array([1.0, -2.0])))


def test_rsqrt_domain_error():
    with pytest.raises(DomainError):
        ref.rsqrt(Tensor(np.array([0.0])))


def test_gather_rows_forward_and_range_check():
    table = np.arange(12.0).reshape(4, 3)
    idx = np.array([[0, 2], [3, 3]])
    out = gather_rows(Tensor(table), idx)
    npt.assert_array_equal(out.data, table[idx])
    with pytest.raises(DomainError):
        gather_rows(Tensor(table), np.array([4]))


def test_take_along_lastdim_forward():
    x = np.arange(6.0).reshape(2, 3)
    idx = np.array([2, 0])
    out = ref.take_along_lastdim(Tensor(x), idx)
    npt.assert_array_equal(out.data, [2.0, 3.0])


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 5)))
    with Tape() as tape:
        tape.watch(x)
        loss = tt.tsum(x)
    g = tape.backward(loss)[x].data
    npt.assert_array_equal(g, np.ones((4, 5)))


def test_backward_half_sq_norm_is_x():
    x0 = np.random.default_rng(4).normal(size=(7,))
    x = Tensor(x0)
    with Tape() as tape:
        tape.watch(x)
        loss = tt.mul(tt.tsum(tt.mul(x, x)), 0.5)
    npt.assert_allclose(tape.backward(loss)[x].data, x0, rtol=0, atol=1e-15)


def test_backward_non_scalar_root_raises():
    x = Tensor(np.zeros((3,)))
    with Tape() as tape:
        tape.watch(x)
        y = tt.mul(x, 2.0)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_backward_root_from_other_tape_raises():
    x = Tensor(np.zeros(()))
    with Tape() as tape:
        tape.watch(x)
        y = tt.mul(x, 2.0)
    with Tape() as other:
        with pytest.raises(TapeError):
            other.backward(y)


def test_unwatched_root_raises():
    with Tape() as tape:
        loss = Tensor(1.0)  # constant, never recorded
        with pytest.raises(TapeError):
            tape.backward(loss)


def test_unused_watched_tensor_gets_zero_grad():
    x, y = Tensor(np.ones(3)), Tensor(np.ones(4))
    with Tape() as tape:
        tape.watch(x, y)
        loss = tt.tsum(x)
    g = tape.backward(loss)
    npt.assert_array_equal(g[y].data, np.zeros(4))


def test_no_recording_outside_tape():
    x = Tensor(np.ones(3))
    y = tt.mul(x, 2.0)
    assert y.node is None


def test_reused_operand_accumulates():
    x0 = np.array([1.5, -2.0])
    x = Tensor(x0)
    with Tape() as tape:
        tape.watch(x)
        loss = tt.tsum(tt.add(tt.mul(x, x), x))  # x^2 + x
    npt.assert_allclose(tape.backward(loss)[x].data, 2.0 * x0 + 1.0, atol=1e-15)


def test_shared_subexpression_fanout():
    # y used by two consumers; add with identical operands shares the cotangent
    x = Tensor(np.array([2.0, 3.0]))
    with Tape() as tape:
        tape.watch(x)
        y = tt.mul(x, x)
        loss = tt.tsum(tt.add(y, y))
    npt.assert_allclose(tape.backward(loss)[x].data, 4.0 * x.data, atol=1e-15)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_many_cotangents_sum_and_returned_gradients_are_unaliased(shape):
    # a 0-d sum of two cotangents comes back as a numpy scalar, which an
    # in-place add would rebind instead of accumulate; and no returned
    # gradient may share memory with the graph or with another gradient
    w = Tensor(np.full(shape, 2.0))
    v = Tensor(np.full(shape, 1.0))
    with Tape() as tape:
        tape.watch(w, v)
        y = tt.add(w, v)  # v's gradient is a view of this add's cotangent
        loss = tt.tsum(tt.add(tt.add(tt.mul(w, 3.0), tt.mul(w, 5.0)), tt.mul(y, 7.0)))
    grads = tape.backward(loss)
    npt.assert_array_equal(grads[w].data, np.full(shape, 15.0))
    npt.assert_array_equal(grads[v].data, np.full(shape, 7.0))
    for g in (grads[w].data, grads[v].data):
        assert isinstance(g, np.ndarray) and g.base is None and g.flags.writeable
    grads[v].data[...] = 0.0
    npt.assert_array_equal(tape.backward(loss)[v].data, np.full(shape, 7.0))


def test_add_and_sub_keep_no_operand_alive():
    # their VJPs need only the operands' shapes, so an intermediate fed
    # only to add or sub is freed with its Tensor, not kept by the tape
    x = Tensor(np.array([1.0, -1.0, 2.0]))
    with Tape() as tape:
        tape.watch(x)
        for op, sign in ((tt.add, 1.0), (tt.sub, -1.0)):
            a = tt.mul(x, 2.0)
            alive = weakref.ref(a.data)
            out = op(Tensor(np.ones((2, 3))), a)
            del a
            assert alive() is None
            npt.assert_array_equal(tape.backward(tt.tsum(out))[x].data, np.full(3, 4.0 * sign))


def test_backward_twice_same_tape_is_stable():
    x = Tensor(np.array([1.0, -1.0, 2.0]))
    with Tape() as tape:
        tape.watch(x)
        loss = tt.tsum(tt.mul(x, x))
    g1 = tape.backward(loss)[x].data.copy()
    g2 = tape.backward(loss)[x].data
    npt.assert_array_equal(g1, g2)


def test_tape_replay_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(4, 3)))
        with Tape() as tape:
            tape.watch(w)
            z = tt.silu(tt.matmul(x, w))
            loss = tt.tmean(tt.mul(z, z))
        return loss.item(), tape.backward(loss)[w].data

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    npt.assert_array_equal(g1, g2)


# ---------------------------------------------------------------------------
# finite-difference sweep over every differentiable primitive


def random_cotangent(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


UNARY_CASES = [
    ("exp", ref.exp, lambda r: r.normal(scale=1.5, size=(3, 4))),
    ("log", ref.log, lambda r: r.uniform(0.2, 5.0, size=(3, 4))),
    ("silu", tt.silu, lambda r: r.normal(scale=3.0, size=(3, 4))),
    ("softplus", tt.softplus, lambda r: r.normal(scale=3.0, size=(3, 4))),
    ("rsqrt", ref.rsqrt, lambda r: r.uniform(0.3, 4.0, size=(3, 4))),
    ("neg", ref.neg, lambda r: r.normal(size=(3, 4))),
]


@pytest.mark.parametrize("name,op,sample", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_grads_match_fd(name, op, sample):
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x0 = sample(rng)
        c = random_cotangent(x0.shape, 2000 + seed)

        def build(t):
            return tt.tsum(tt.mul(op(t), Tensor(c)))

        def build_np(a):
            return float(np.sum(op(Tensor(a)).data * c))

        check_against_fd(build, build_np, x0)


BINARY_CASES = [
    ("add", tt.add, (3, 4), (3, 4)),
    ("add_broadcast", tt.add, (3, 4), (4,)),
    ("sub", tt.sub, (3, 4), (3, 4)),
    ("mul", tt.mul, (3, 4), (3, 4)),
    ("mul_broadcast", tt.mul, (3, 1), (3, 4)),
    # the preconditioner's diagonal: rows times a softplus broadcast over them
    ("mul_softplus_broadcast", lambda a, b: tt.mul(a, tt.softplus(b)), (2, 3, 2, 4), (3, 1, 4)),
    ("matmul", tt.matmul, (3, 4), (4, 5)),
    ("matmul_batched", tt.matmul, (2, 3, 4), (4, 5)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_grads_match_fd_both_slots(name, op, sa, sb):
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        a0 = rng.normal(size=sa)
        b0 = rng.normal(size=sb)
        out_shape = op(Tensor(a0), Tensor(b0)).shape
        c = random_cotangent(out_shape, 4000 + seed)

        for slot in (0, 1):
            fixed = Tensor(b0) if slot == 0 else Tensor(a0)
            x0 = a0 if slot == 0 else b0

            def build(t):
                args = (t, fixed) if slot == 0 else (fixed, t)
                return tt.tsum(tt.mul(op(*args), Tensor(c)))

            def build_np(arr):
                args = (Tensor(arr), fixed) if slot == 0 else (fixed, Tensor(arr))
                return float(np.sum(op(*args).data * c))

            check_against_fd(build, build_np, x0)


REDUCE_CASES = [
    ("sum_all", lambda t: tt.tsum(t)),
    ("sum_axis0", lambda t: tt.tsum(tt.mul(tt.tsum(t, axis=0), tt.tsum(t, axis=0)))),
    ("sum_keepdims", lambda t: tt.tsum(tt.mul(t, tt.tsum(t, axis=-1, keepdims=True)))),
    ("mean_all", lambda t: tt.tmean(tt.mul(t, t))),
    ("mean_axis", lambda t: tt.tsum(tt.mul(tt.tmean(t, axis=1), 3.0))),
]


@pytest.mark.parametrize("name,build", REDUCE_CASES, ids=[c[0] for c in REDUCE_CASES])
def test_reduction_grads_match_fd(name, build):
    for seed in range(40):
        x0 = np.random.default_rng(5000 + seed).normal(size=(3, 4))
        check_against_fd(build, lambda a: float(build(Tensor(a)).data), x0)


def test_softmax_grad_matches_fd():
    for seed in range(60):
        rng = np.random.default_rng(6000 + seed)
        x0 = rng.normal(scale=2.0, size=(3, 5))
        c = random_cotangent((3, 5), 6500 + seed)

        def build(t):
            return tt.tsum(tt.mul(softmax_lastdim(t), Tensor(c)))

        check_against_fd(build, lambda a: float(np.sum(softmax_lastdim(Tensor(a)).data * c)), x0)


def test_softmax_grad_with_mask_matches_fd():
    mask = np.zeros((4, 4))
    mask[np.triu_indices(4, k=1)] = -np.inf
    for seed in range(30):
        rng = np.random.default_rng(7000 + seed)
        x0 = rng.normal(scale=2.0, size=(4, 4))
        c = random_cotangent((4, 4), 7500 + seed)

        def build(t):
            return tt.tsum(tt.mul(softmax_lastdim(t, mask=mask), Tensor(c)))

        check_against_fd(
            build, lambda a: float(np.sum(softmax_lastdim(Tensor(a), mask=mask).data * c)), x0
        )


def test_transpose_reshape_grads_match_fd():
    for seed in range(30):
        rng = np.random.default_rng(8000 + seed)
        x0 = rng.normal(size=(3, 4))
        c = random_cotangent((12,), 8500 + seed)

        def build(t):
            return tt.tsum(tt.mul(tt.reshape(tt.swap_last2(t), (12,)), Tensor(c)))

        check_against_fd(build, lambda a: float(build(Tensor(a)).data), x0)


def test_gather_rows_grad_scatter_adds():
    table0 = np.random.default_rng(9000).normal(size=(5, 3))
    idx = np.array([1, 1, 4, 0])
    c = random_cotangent((4, 3), 9001)

    def build(t):
        return tt.tsum(tt.mul(gather_rows(t, idx), Tensor(c)))

    analytic = scalar_loss_grad(build, table0)
    expected = np.zeros_like(table0)
    np.add.at(expected, idx, c)
    npt.assert_allclose(analytic, expected, atol=1e-15)
    check_against_fd(build, lambda a: float(np.sum(gather_rows(Tensor(a), idx).data * c)), table0)


def test_take_along_lastdim_grad_matches_fd():
    x0 = np.random.default_rng(9100).normal(size=(3, 5))
    idx = np.array([0, 4, 2])
    c = random_cotangent((3,), 9101)

    def build(t):
        return tt.tsum(tt.mul(ref.take_along_lastdim(t, idx), Tensor(c)))

    check_against_fd(
        build, lambda a: float(np.sum(ref.take_along_lastdim(Tensor(a), idx).data * c)), x0
    )


def test_composed_mlp_chain_matches_fd():
    # deeper composition stresses the accumulation order
    rng = np.random.default_rng(9200)
    w1 = rng.normal(size=(6, 4)) * 0.5
    w2 = rng.normal(size=(4, 6)) * 0.5
    x0 = rng.normal(size=(3, 6))

    def forward(t):
        hdn = tt.silu(tt.matmul(t, Tensor(w1)))
        out = tt.matmul(hdn, Tensor(w2))
        return tt.tmean(tt.mul(out, out))

    check_against_fd(forward, lambda a: float(forward(Tensor(a)).data), x0)


# ---------------------------------------------------------------------------
# gradient utilities


def test_clip_noop_inside_threshold():
    g = {"a": np.array([0.3, 0.4])}  # norm 0.5
    out, norm = clip_by_global_norm(g, 1.0)
    npt.assert_array_equal(out["a"], g["a"])
    assert norm == 0.5


def test_clip_scales_exactly():
    g = {"a": np.array([4.0, 0.0]), "b": np.zeros(3)}
    out, norm = clip_by_global_norm(g, 1.0)
    assert norm == 4.0
    npt.assert_array_equal(out["a"], np.array([1.0, 0.0]))


def test_clip_post_norm_bounded():
    rng = np.random.default_rng(9300)
    for _ in range(20):
        g = {str(i): rng.normal(size=(5,)) * 10 for i in range(3)}
        out, _ = clip_by_global_norm(g, 1.0)
        assert global_norm(out) <= 1.0 + 1e-9


def test_global_norm_concatenation_semantics():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_norm(g) == 5.0


def test_clip_keeps_finite_gradients_whose_squares_overflow():
    # 1e200 squared overflows; a norm of inf would scale every gradient
    # to zero instead of to the threshold
    out, norm = clip_by_global_norm({"a": np.array([1e200, 1.0])}, 1.0)
    assert norm == 1e200
    npt.assert_allclose(out["a"], [1.0, 1e-200], rtol=1e-15, atol=0)
    g = {"a": np.array([3e200]), "b": np.array([-4e200, 0.0])}
    npt.assert_allclose(global_norm(g), 5e200, rtol=1e-15)
    # a non-finite entry still reads as a non-finite norm
    assert global_norm({"a": np.array([1e200]), "b": np.array([np.inf])}) == np.inf
    assert np.isnan(global_norm({"a": np.array([1e200, np.nan])}))


# ---------------------------------------------------------------------------
# process allocator policy

FAULT_PROBE = """
import resource
import numpy as np
from energyformer import model as md, train as tr
model = md.build_model(md.preset("lm-smoke"), seed=0)
windows = np.random.default_rng(0).integers(0, 256, size=(4, 257))
for _ in range(2):
    tr.lm_eval(model, windows, batch_size=4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    tr.lm_eval(model, windows, batch_size=4)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def faults_per_eval(**env) -> float:
    # a fresh interpreter: how much heap a process already holds decides
    # whether glibc trims it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=300, check=True)
    return float(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
def test_tape_off_forward_does_not_fault_its_heap_back_in():
    # with glibc's default policy each 4x256 forward faults about 7.5k
    # pages back in after the last one's were returned
    assert faults_per_eval() < 500


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
def test_threaded_eval_does_not_fault_its_heap_back_in():
    # one BLAS thread on a multi-core host spreads lm_eval over worker
    # threads; they share the one heap and its high-water mark
    assert faults_per_eval(OPENBLAS_NUM_THREADS="1") < 500
