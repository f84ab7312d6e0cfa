"""Energy functions against brute-force, quadrature and finite-difference oracles."""

import numpy as np
import numpy.testing as npt
import pytest

import composed_reference as ref
from energyformer import energy as en
from energyformer import tensor as tt
from energyformer.tensor import DimensionError, DomainError, Tape, Tensor
from energyformer.verify import (
    elementwise_energy_quadrature,
    finite_diff_grad,
    interaction_energy_bruteforce,
    rel_error,
)


def random_interaction_instance(seed, force_full=False, with_alibi=None, with_diag=None):
    rng = np.random.default_rng(seed)
    d_h = int(rng.choice([4, 8, 16]))
    d_r = int(rng.choice([2, 4]))
    n_heads = int(rng.choice([1, 2, 3]))
    n_ctx = int(rng.integers(1, 7))
    tau = float(rng.choice([0.7, 1.0, np.sqrt(d_r), 3.0]))
    use_alibi = bool(rng.integers(0, 2)) if with_alibi is None else with_alibi
    use_diag = bool(rng.integers(0, 2)) if with_diag is None else with_diag

    alibi = None
    if use_alibi:
        alibi = en.AlibiSpec(
            slopes=en.alibi_slopes(n_heads),
            b_self=float(rng.normal(scale=0.5)),
            b_cross=float(rng.normal(scale=0.5)),
        )
    if force_full:
        spec = en.InteractionEnergySpec(
            tau=tau,
            full=rng.normal(size=(n_heads, d_h, d_h)),
            alibi=alibi,
        )
    else:
        spec = en.InteractionEnergySpec(
            tau=tau,
            w_q=rng.normal(size=(n_heads, d_r, d_h)),
            w_k=rng.normal(size=(n_heads, d_r, d_h)),
            diag=rng.normal(size=(n_heads, d_h)) if use_diag else None,
            alibi=alibi,
        )
    x = rng.normal(size=d_h)
    history = rng.normal(size=(n_ctx, d_h))
    return x, history, spec


def materialized_bias(spec, n_ctx):
    if spec.alibi is None:
        return None
    i = n_ctx
    return np.stack(
        [spec.alibi.bias_row(i, n_ctx, k) for k in range(spec.n_heads)]
    )


# ---------------------------------------------------------------------------
# interaction energy


def test_interaction_energy_matches_bruteforce_200():
    worst = 0.0
    for seed in range(200):
        x, history, spec = random_interaction_instance(seed)
        val = en.interaction_energy(x, history, spec)
        oracle = interaction_energy_bruteforce(
            x,
            history,
            [spec.head_matrix(k) for k in range(spec.n_heads)],
            spec.tau,
            bias=materialized_bias(spec, history.shape[0]),
        )
        worst = max(worst, rel_error(val, oracle))
    assert worst <= 1e-10


def test_interaction_grad_matches_fd_200():
    worst = 0.0
    for seed in range(200):
        x, history, spec = random_interaction_instance(10_000 + seed)
        analytic = en.interaction_energy_grad(x, history, spec)
        numeric = finite_diff_grad(
            lambda v: en.interaction_energy(v, history, spec), x
        )
        worst = max(worst, rel_error(numeric, analytic))
    assert worst <= 1e-5


def test_full_and_factored_heads_agree():
    for seed in range(50):
        x, history, spec = random_interaction_instance(20_000 + seed, force_full=False)
        full_spec = en.InteractionEnergySpec(
            tau=spec.tau,
            full=np.stack([spec.head_matrix(k) for k in range(spec.n_heads)]),
            alibi=spec.alibi,
        )
        npt.assert_allclose(
            en.interaction_energy(x, history, spec),
            en.interaction_energy(x, history, full_spec),
            rtol=1e-10,
        )
        npt.assert_allclose(
            en.interaction_energy_grad(x, history, spec),
            en.interaction_energy_grad(x, history, full_spec),
            rtol=0,
            atol=1e-10,
        )


def test_single_context_token_closed_form():
    # one visible token: softmax weight is 1, energy = -beta.x - tau*bias
    rng = np.random.default_rng(42)
    d_h = 6
    w_q = rng.normal(size=(1, 3, d_h))
    w_k = rng.normal(size=(1, 3, d_h))
    spec = en.InteractionEnergySpec(tau=2.0, w_q=w_q, w_k=w_k)
    x = rng.normal(size=d_h)
    h1 = rng.normal(size=d_h)
    beta = w_q[0].T @ (w_k[0] @ h1)
    npt.assert_allclose(
        en.interaction_energy(x, h1[None, :], spec), -float(beta @ x), rtol=1e-12
    )
    npt.assert_allclose(
        en.interaction_energy_grad(x, h1[None, :], spec), -beta, rtol=1e-12
    )


def test_bias_shift_moves_energy_not_grad():
    # adding a constant to every logit of a head shifts the energy by
    # -tau*c and leaves the gradient untouched
    x, history, spec = random_interaction_instance(777, with_alibi=False)
    shift = 1.3
    shifted = en.InteractionEnergySpec(
        tau=spec.tau,
        w_q=spec.w_q,
        w_k=spec.w_k,
        diag=spec.diag,
        alibi=en.AlibiSpec(
            slopes=np.zeros(spec.n_heads), b_self=shift, b_cross=shift
        ),
    )
    e0 = en.interaction_energy(x, history, spec)
    e1 = en.interaction_energy(x, history, shifted)
    npt.assert_allclose(e1 - e0, -spec.tau * shift * spec.n_heads, rtol=1e-9)
    npt.assert_allclose(
        en.interaction_energy_grad(x, history, spec),
        en.interaction_energy_grad(x, history, shifted),
        rtol=0,
        atol=1e-10,
    )


def test_interaction_energy_extreme_scale_finite():
    # large-norm states push single logits to +-1e4; log-sum-exp must hold
    rng = np.random.default_rng(3)
    d_h = 8
    spec = en.InteractionEnergySpec(
        tau=1.0,
        w_q=rng.normal(size=(1, 4, d_h)) * 10,
        w_k=rng.normal(size=(1, 4, d_h)) * 10,
    )
    x = rng.normal(size=d_h) * 30
    history = rng.normal(size=(5, d_h)) * 30
    val = en.interaction_energy(x, history, spec)
    grad = en.interaction_energy_grad(x, history, spec)
    assert np.isfinite(val) and np.all(np.isfinite(grad))


def test_interaction_errors():
    x, history, spec = random_interaction_instance(5)
    with pytest.raises(DomainError):
        en.interaction_energy(x, history[:0], spec)
    with pytest.raises(DimensionError):
        en.interaction_energy(np.zeros(x.shape[0] + 1), history, spec)
    with pytest.raises(DomainError):
        en.InteractionEnergySpec(tau=-1.0, full=(np.eye(2),))
    with pytest.raises(DomainError):
        en.InteractionEnergySpec(tau=1.0)  # neither full nor factored


def test_query_index_before_history_rejected():
    x, history, spec = random_interaction_instance(6, with_alibi=True)
    with pytest.raises(DomainError):
        en.interaction_energy(x, history, spec, query_index=history.shape[0] - 1)


# ---------------------------------------------------------------------------
# silu antiderivative


def test_phi_at_zero_is_dilog_constant():
    npt.assert_allclose(
        en.silu_antiderivative(0.0), -(np.pi**2) / 12.0, rtol=0, atol=1e-14
    )
    npt.assert_allclose(en.silu_antiderivative(0.0), -0.8224670334241132, atol=1e-13)


def test_phi_vanishes_at_minus_infinity():
    # true value at -30 is about -31 e^-30 ~ -2.9e-12
    assert abs(en.silu_antiderivative(-30.0)) <= 1e-11
    assert abs(en.silu_antiderivative(-700.0)) <= 1e-300


def test_phi_prime_is_silu():
    zs = np.linspace(-8.0, 8.0, 41)
    for z in zs:
        fd = (en.silu_antiderivative(z + 1e-6) - en.silu_antiderivative(z - 1e-6)) / 2e-6
        npt.assert_allclose(fd, en.silu_np(z), rtol=1e-6, atol=1e-8)


def test_phi_matches_simpson_quadrature():
    # independent route: integrate silu numerically from -40
    def phi_simpson(b, n=20000, lower=-40.0):
        t = np.linspace(lower, b, n + 1)
        y = t / (1.0 + np.exp(-t))
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return (b - lower) / (3.0 * n) * float(w @ y)

    for b in [-5.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5, 6.0]:
        npt.assert_allclose(en.silu_antiderivative(b), phi_simpson(b), rtol=0, atol=1e-9)


def test_phi_large_argument_stable():
    # phi(z) ~ z^2/2 - pi^2/6 + (z+1)e^-z for large z; no overflow at 700
    z = 700.0
    val = en.silu_antiderivative(z)
    assert np.isfinite(val)
    npt.assert_allclose(val, z * z / 2.0 - (np.pi**2) / 6.0, rtol=1e-12)
    assert np.all(np.isfinite(en.silu_antiderivative(np.array([-750.0, 750.0]))))


# ---------------------------------------------------------------------------
# elementwise energy


def random_elementwise_instance(seed):
    rng = np.random.default_rng(seed)
    d_h = int(rng.choice([4, 8, 16]))
    d_m = int(rng.choice([8, 16, 32]))
    spec = en.ElementwiseEnergySpec(
        w=rng.normal(size=(d_m, d_h)), v=rng.normal(size=(d_m, d_h))
    )
    return rng.normal(size=d_h), rng.normal(size=d_h), spec


def test_elementwise_energy_matches_quadrature_200():
    worst = 0.0
    for seed in range(200):
        x, h, spec = random_elementwise_instance(seed)
        val = en.elementwise_energy(x, h, spec)
        oracle = elementwise_energy_quadrature(x, h, spec.w, spec.v)
        worst = max(worst, abs(val - oracle) / max(abs(oracle), 1.0))
    assert worst <= 1e-6


def test_elementwise_grad_matches_fd_200():
    worst = 0.0
    for seed in range(200):
        x, h, spec = random_elementwise_instance(30_000 + seed)
        analytic = en.elementwise_energy_grad(x, h, spec)
        numeric = finite_diff_grad(lambda v: en.elementwise_energy(v, h, spec), x)
        worst = max(worst, rel_error(numeric, analytic))
    assert worst <= 1e-5


def test_elementwise_zero_hidden_gives_zero_energy():
    x, h, spec = random_elementwise_instance(9)
    assert en.elementwise_energy(x, np.zeros_like(h), spec) == 0.0
    npt.assert_array_equal(
        en.elementwise_energy_grad(x, np.zeros_like(h), spec), np.zeros_like(x)
    )


def test_elementwise_errors():
    x, h, spec = random_elementwise_instance(11)
    with pytest.raises(DimensionError):
        en.elementwise_energy(x[:-1], h[:-1], spec)
    with pytest.raises(DimensionError):
        en.ElementwiseEnergySpec(w=np.zeros((3, 4)), v=np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# stacks of states scored against one context


STACKS = [(), (5,), (2, 3)]  # leading axes: one (D_h,) state, (T, D_h), (a, b, D_h)


def stacked_instance(lead, diag, seed=40_004):
    """An interaction instance with ALiBi and a per-head or a shared
    (broadcast, as the layers' one-row diagonal reaches the energy) K/Q
    diagonal, its x replaced by a stack of states. The default seed
    draws 3 heads and 6 context rows."""
    _, history, spec = random_interaction_instance(seed, with_alibi=True, with_diag=True)
    if diag == "shared":
        spec = en.InteractionEnergySpec(
            tau=spec.tau, w_q=spec.w_q, w_k=spec.w_k, alibi=spec.alibi,
            diag=np.broadcast_to(spec.diag[:1], spec.diag.shape),
        )
    x = np.random.default_rng(seed + 1).normal(size=lead + history.shape[-1:])
    return x, history, spec


def one_state_loop(fn, x, *context):
    """fn called on each (D_h,) state of the stack x, in x's layout."""
    rows = [np.asarray(fn(row, *context)) for row in x.reshape(-1, x.shape[-1])]
    return np.stack(rows).reshape(x.shape[:-1] + rows[0].shape)


def assert_matches_loop(stacked, looped):
    assert stacked.shape == looped.shape
    assert np.all(np.abs(stacked - looped) <= 1e-12 * np.maximum(1.0, np.abs(looped)))


@pytest.mark.parametrize("diag", ["per-head", "shared"])
@pytest.mark.parametrize("lead", STACKS)
def test_interaction_energy_of_a_stack_matches_one_state_calls(lead, diag):
    x, history, spec = stacked_instance(lead, diag)
    for fn in (en.interaction_energy, en.interaction_energy_grad):
        assert_matches_loop(np.asarray(fn(x, history, spec)),
                            one_state_loop(fn, x, history, spec))


@pytest.mark.parametrize("lead", STACKS)
def test_elementwise_energy_of_a_stack_matches_one_state_calls(lead):
    _, h, spec = random_elementwise_instance(41_000)
    x = np.random.default_rng(41_001).normal(size=lead + h.shape)
    for fn in (en.elementwise_energy, en.elementwise_energy_grad):
        assert_matches_loop(np.asarray(fn(x, h, spec)), one_state_loop(fn, x, h, spec))


def test_one_state_keeps_its_return_types():
    x, history, spec = stacked_instance((), "per-head")
    assert type(en.interaction_energy(x, history, spec)) is float
    grad = en.interaction_energy_grad(x, history, spec)
    assert isinstance(grad, np.ndarray) and grad.shape == x.shape
    x, h, ew = random_elementwise_instance(42)
    assert type(en.elementwise_energy(x, h, ew)) is float
    grad = en.elementwise_energy_grad(x, h, ew)
    assert isinstance(grad, np.ndarray) and grad.shape == x.shape
    stack = np.stack([x, h])
    assert en.elementwise_energy(stack, h, ew).shape == (2,)


def test_stacked_shape_errors():
    x, history, spec = stacked_instance((3,), "per-head")
    for fn in (en.interaction_energy, en.interaction_energy_grad):
        with pytest.raises(DimensionError):
            fn(np.zeros((3, x.shape[-1] + 1)), history, spec)
        for bad_history in (history[0], history[None]):
            with pytest.raises(DimensionError):
                fn(x, bad_history, spec)
        with pytest.raises(DimensionError):
            fn(np.float64(1.0), history, spec)
    _, h, ew = random_elementwise_instance(43)
    for fn in (en.elementwise_energy, en.elementwise_energy_grad):
        with pytest.raises(DimensionError):
            fn(np.zeros((3, h.shape[0] + 1)), h, ew)
        with pytest.raises(DimensionError):
            fn(np.zeros((3, h.shape[0])), np.stack([h, h]), ew)
        with pytest.raises(DimensionError):
            fn(np.zeros((3, h.shape[0] + 1)), np.zeros(h.shape[0] + 1), ew)


@pytest.mark.parametrize("lead", STACKS)
def test_stacked_interaction_energy_matches_scipy_and_bruteforce(lead):
    from scipy.special import logsumexp

    x, history, spec = stacked_instance(lead, "per-head")
    got = np.asarray(en.interaction_energy(x, history, spec))
    bias = materialized_bias(spec, history.shape[0])
    heads = [spec.head_matrix(k) for k in range(spec.n_heads)]
    via_scipy = -spec.tau * sum(
        logsumexp(x @ (history @ heads[k].T).T / spec.tau + bias[k], axis=-1)
        for k in range(spec.n_heads)
    )
    npt.assert_allclose(got, via_scipy, rtol=1e-12, atol=1e-12)
    brute = one_state_loop(
        lambda row: interaction_energy_bruteforce(row, history, heads, spec.tau, bias=bias), x
    )
    assert rel_error(got, brute) <= 1e-10


# ---------------------------------------------------------------------------
# tape-composed energy agrees with the analytic module and finite differences


def lse_lastdim(t):
    m = float(np.max(t.data))
    return tt.add(ref.log(tt.tsum(ref.exp(tt.sub(t, m)))), m)


def tape_interaction_energy(x_t, history, spec):
    """Interaction energy rebuilt from tape primitives (no shared code)."""
    total = None
    for k in range(spec.n_heads):
        beta = spec.context_projections(history, k)  # constant: grads w.r.t. x only
        logits = tt.mul(
            tt.reshape(tt.matmul(Tensor(beta), tt.reshape(x_t, (-1, 1))), (beta.shape[0],)),
            1.0 / spec.tau,
        )
        if spec.alibi is not None:
            logits = tt.add(
                logits, Tensor(spec.alibi.bias_row(history.shape[0], history.shape[0], k))
            )
        term = tt.mul(lse_lastdim(logits), -spec.tau)
        total = term if total is None else tt.add(total, term)
    return total


def test_tape_energy_grad_triangle():
    # three routes to the same gradient: tape backward, analytic, FD
    for seed in range(25):
        x, history, spec = random_interaction_instance(40_000 + seed)
        x_t = Tensor(x)
        with Tape() as tape:
            tape.watch(x_t)
            loss = tape_interaction_energy(x_t, history, spec)
        tape_grad = tape.backward(loss)[x_t].data
        analytic = en.interaction_energy_grad(x, history, spec)
        numeric = finite_diff_grad(lambda v: en.interaction_energy(v, history, spec), x)
        npt.assert_allclose(loss.item(), en.interaction_energy(x, history, spec), rtol=1e-10)
        assert rel_error(tape_grad, analytic) <= 1e-9
        assert rel_error(numeric, tape_grad) <= 1e-5
