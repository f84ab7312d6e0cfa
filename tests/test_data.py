"""Kernel correctness against literal per-pair formulas, sampling
statistics against the covariance they should have, and the byte-text
plumbing."""

import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from energyformer.data import (
    DataError,
    GpKernelSpec,
    NumericalError,
    RegressionBatch,
    batch_iterator,
    corpus_path,
    detokenize,
    gp_sample,
    KERNEL_KINDS,
    gp_targets,
    ingest_text,
    jittered_cholesky,
    kernel_matrix,
    synthetic_corpus,
)

ALL_SPECS = [
    GpKernelSpec("rbf", lengthscale=0.9, variance=1.3),
    GpKernelSpec("matern", lengthscale=0.7, variance=0.8, nu=0.5),
    GpKernelSpec("matern", lengthscale=1.1, variance=1.0, nu=1.5),
    GpKernelSpec("matern", lengthscale=0.8, variance=2.0, nu=2.5),
    GpKernelSpec("periodic", lengthscale=1.2, variance=0.7, period=0.9),
    GpKernelSpec("rational-quadratic", lengthscale=0.6, variance=1.1, alpha=1.7),
    GpKernelSpec("non-stationary", lengthscale=0.5, variance=1.4),
]


def _scalar_kernel(spec, x, y):
    """Independent per-pair evaluation, written as plainly as possible."""
    d = np.asarray(x) - np.asarray(y)
    r2 = float(np.dot(d, d))
    r = np.sqrt(r2)
    v, ell = spec.variance, spec.lengthscale
    if spec.kind == "rbf":
        return v * np.exp(-r2 / (2.0 * ell**2))
    if spec.kind == "matern":
        q = r / ell
        if spec.nu == 0.5:
            return v * np.exp(-q)
        if spec.nu == 1.5:
            return v * (1.0 + np.sqrt(3.0) * q) * np.exp(-np.sqrt(3.0) * q)
        return (
            v
            * (1.0 + np.sqrt(5.0) * q + 5.0 * q**2 / 3.0)
            * np.exp(-np.sqrt(5.0) * q)
        )
    if spec.kind == "periodic":
        acc = 1.0
        for i in range(len(x)):
            delta = abs(float(x[i]) - float(y[i]))
            acc *= np.exp(-2.0 * np.sin(np.pi * delta / spec.period) ** 2 / ell**2)
        return v * acc
    if spec.kind == "rational-quadratic":
        return v * (1.0 + r2 / (2.0 * spec.alpha * ell**2)) ** (-spec.alpha)
    la = ell * (1.0 + float(x[0]))
    lb = ell * (1.0 + float(y[0]))
    pref = (2.0 * la * lb / (la**2 + lb**2)) ** (len(x) / 2.0)
    return v * pref * np.exp(-r2 / (la**2 + lb**2))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-nu{s.nu}")
def test_kernel_matrix_matches_scalar_loop(spec):
    rng = np.random.default_rng(3)
    xa = rng.uniform(size=(9, 4))
    xb = rng.uniform(size=(7, 4))
    got = kernel_matrix(spec, xa, xb)
    assert got.shape == (9, 7)
    for i in range(9):
        for j in range(7):
            assert got[i, j] == pytest.approx(_scalar_kernel(spec, xa[i], xb[j]), abs=1e-12)


def _cdist_kernel(spec, xa, xb):
    """The kernels with distances from scipy's cdist, as a bitwise reference."""
    v, ell = spec.variance, spec.lengthscale
    sq = cdist(xa, xb, "sqeuclidean")
    if spec.kind == "rbf":
        return v * np.exp(-sq / (2.0 * ell**2))
    if spec.kind == "matern":
        r = cdist(xa, xb) / ell
        if spec.nu == 0.5:
            return v * np.exp(-r)
        if spec.nu == 1.5:
            s = np.sqrt(3.0) * r
            return v * (1.0 + s) * np.exp(-s)
        s = np.sqrt(5.0) * r
        return v * (1.0 + s + s**2 / 3.0) * np.exp(-s)
    if spec.kind == "periodic":
        diff = xa[:, None, :] - xb[None, :, :]
        s = np.sum(np.sin(np.pi * np.abs(diff) / spec.period) ** 2, axis=-1)
        return v * np.exp(-2.0 * s / ell**2)
    if spec.kind == "rational-quadratic":
        return v * (1.0 + sq / (2.0 * spec.alpha * ell**2)) ** (-spec.alpha)
    la = ell * (1.0 + xa[:, 0])[:, None]
    lb = ell * (1.0 + xb[:, 0])[None, :]
    ssum = la**2 + lb**2
    return v * (2.0 * la * lb / ssum) ** (xa.shape[1] / 2.0) * np.exp(-sq / ssum)


@pytest.mark.parametrize("in_dim", [1, 4, 10])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-nu{s.nu}")
def test_kernel_matrix_matches_cdist_bitwise(spec, in_dim):
    rng = np.random.default_rng(in_dim)
    xa = rng.uniform(size=(23, in_dim))
    xb = rng.uniform(size=(17, in_dim))
    assert np.array_equal(kernel_matrix(spec, xa, xb), _cdist_kernel(spec, xa, xb))
    assert np.array_equal(kernel_matrix(spec, xa), _cdist_kernel(spec, xa, xa))


# sha256 prefixes of the seed-3 draws (64 points, in_dim 10), taken while
# the kernels still measured distances with scipy's cdist
GP_SAMPLE_HASHES = {
    "rbf": "73c58b2c11597f1f",
    "matern": "deec2660298960fb",
    "periodic": "2bd673bc41b203cc",
    "rational-quadratic": "3e074d8cf5666b41",
    "non-stationary": "740914ba776b192c",
}


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_gp_sample_targets_are_pinned(kind):
    train, test = gp_sample(GpKernelSpec(kind), n_points=64, seed=3)
    digest = hashlib.sha256(train.targets.tobytes() + test.targets.tobytes()).hexdigest()
    assert digest[:16] == GP_SAMPLE_HASHES[kind]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-nu{s.nu}")
def test_kernel_symmetry_and_unit_diagonal(spec):
    x = np.random.default_rng(4).uniform(size=(20, 10))
    k = kernel_matrix(spec, x)
    assert np.max(np.abs(k - k.T)) <= 1e-12
    np.testing.assert_allclose(np.diag(k), spec.variance, atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-nu{s.nu}")
def test_kernel_factorizable_after_jitter(spec):
    x = np.random.default_rng(5).uniform(size=(64, 10))
    factor = jittered_cholesky(kernel_matrix(spec, x))  # must not raise
    assert np.all(np.isfinite(factor))


def test_matern_smoothness_ordering():
    # at matched scales and r > 0: exponential < nu=5/2 < squared-exponential
    x = np.random.default_rng(6).uniform(size=(12, 5))
    rough = kernel_matrix(GpKernelSpec("matern", nu=0.5), x)
    mid = kernel_matrix(GpKernelSpec("matern", nu=2.5), x)
    smooth = kernel_matrix(GpKernelSpec("rbf"), x)
    off = ~np.eye(12, dtype=bool)
    assert np.all(rough[off] < mid[off])
    assert np.all(mid[off] < smooth[off])


def test_periodic_kernel_wraps_exactly():
    spec = GpKernelSpec("periodic", period=0.5)
    x = np.array([[0.1, 0.2, 0.3]])
    y = x + np.array([[0.5, 0.0, 0.0]])  # one full period along the first axis
    assert kernel_matrix(spec, x, y)[0, 0] == pytest.approx(spec.variance, abs=1e-12)


def test_non_stationary_kernel_depends_on_position():
    # same separation, different location along the first coordinate
    spec = GpKernelSpec("non-stationary", lengthscale=0.5)
    near = kernel_matrix(spec, np.array([[0.0, 0.0]]), np.array([[0.0, 0.3]]))[0, 0]
    far = kernel_matrix(spec, np.array([[0.9, 0.0]]), np.array([[0.9, 0.3]]))[0, 0]
    assert abs(near - far) > 1e-3


def test_bad_kernel_specs_rejected():
    with pytest.raises(DataError):
        GpKernelSpec("sinc")
    with pytest.raises(DataError):
        GpKernelSpec("rbf", lengthscale=0.0)
    with pytest.raises(DataError):
        GpKernelSpec("rbf", variance=-1.0)
    with pytest.raises(DataError):
        GpKernelSpec("matern", nu=2.0)
    with pytest.raises(DataError):
        kernel_matrix(GpKernelSpec("rbf"), np.zeros((3, 2)), np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# sampling


def test_empirical_covariance_matches_kernel():
    # 5000 joint draws at 8 fixed inputs; every covariance entry must sit
    # within 3 standard errors of the kernel value
    spec = GpKernelSpec("rbf", lengthscale=0.8)
    x = np.random.default_rng(8).uniform(size=(8, 10))
    k = kernel_matrix(spec, x)
    draws = np.stack([gp_targets(spec, x, seed=s)[:, 0] for s in range(5000)])
    emp = draws.T @ draws / draws.shape[0]
    se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k**2) / draws.shape[0])
    assert np.all(np.abs(emp - k) <= 3.0 * se + 1e-6)


def test_variance_scales_samples():
    x = np.random.default_rng(9).uniform(size=(4, 10))
    base = GpKernelSpec("rbf", variance=1.0)
    quad = GpKernelSpec("rbf", variance=4.0)
    # same seed: the factor scales exactly, up to the fixed jitter
    y1 = gp_targets(base, x, seed=0)
    y4 = gp_targets(quad, x, seed=0)
    np.testing.assert_allclose(y4, 2.0 * y1, rtol=1e-6)
    # across seeds: sample standard deviation doubles, within 10 percent
    s1 = np.std([gp_targets(base, x, seed=s)[0, 0] for s in range(1000)])
    s4 = np.std([gp_targets(quad, x, seed=s)[0, 0] for s in range(1000)])
    assert s4 / s1 == pytest.approx(2.0, rel=0.10)


def test_huge_lengthscale_gives_constant_sample():
    train, test = gp_sample(GpKernelSpec("rbf", lengthscale=1e9), n_points=50, seed=2)
    y = np.concatenate([train.targets[:, 0], test.targets[:, 0]])
    assert np.max(y) - np.min(y) <= 1e-3


def test_gp_sample_shapes_and_split():
    train, test = gp_sample(GpKernelSpec("rbf"), n_points=640, seed=1)
    assert train.inputs.shape == (512, 10) and train.targets.shape == (512, 1)
    assert test.inputs.shape == (128, 10) and test.targets.shape == (128, 1)
    assert train.split == "train" and test.split == "test"
    assert cdist(train.inputs, test.inputs).min() > 0.0


def test_gp_sample_deterministic_per_seed():
    a_train, a_test = gp_sample(GpKernelSpec("matern"), n_points=64, seed=5)
    b_train, b_test = gp_sample(GpKernelSpec("matern"), n_points=64, seed=5)
    c_train, _ = gp_sample(GpKernelSpec("matern"), n_points=64, seed=6)
    assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
    assert a_train.targets.tobytes() == b_train.targets.tobytes()
    assert a_test.targets.tobytes() == b_test.targets.tobytes()
    assert a_train.targets.tobytes() != c_train.targets.tobytes()


def test_gp_sample_rejects_bad_arguments():
    with pytest.raises(DataError):
        gp_sample(GpKernelSpec("rbf"), n_points=1)
    with pytest.raises(DataError):
        gp_sample(GpKernelSpec("rbf"), n_points=10, train_fraction=1.0)


def test_jitter_rescues_singular_psd_matrix():
    ones = np.ones((6, 6))  # rank one, strictly semidefinite
    factor = jittered_cholesky(ones)
    np.testing.assert_allclose(factor @ factor.T, ones + 1e-8 * np.eye(6), atol=1e-10)


def test_jitter_gives_up_on_negative_definite_matrix():
    with pytest.raises(NumericalError):
        jittered_cholesky(-np.eye(4))


def test_regression_batch_validation():
    with pytest.raises(DataError):
        RegressionBatch(np.zeros((3, 2)), np.zeros((2, 1)), "train")
    with pytest.raises(DataError):
        RegressionBatch(np.zeros((3, 2)), np.zeros((3, 1)), "validation")
    with pytest.raises(DataError):
        RegressionBatch(np.full((3, 2), np.nan), np.zeros((3, 1)), "train")


# ---------------------------------------------------------------------------
# byte text


def test_ingest_windows_and_drops_remainder(tmp_path):
    path = tmp_path / "ten.txt"
    path.write_bytes(b"abcdefghij")
    windows = ingest_text(path, seq_len=4)
    assert windows.shape == (2, 4)
    assert windows.dtype == np.int64
    assert detokenize(windows) == b"abcdefgh"


def test_ingest_rejects_empty_and_short(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    with pytest.raises(DataError):
        ingest_text(empty, seq_len=4)
    short = tmp_path / "short.txt"
    short.write_bytes(b"ab")
    with pytest.raises(DataError):
        ingest_text(short, seq_len=4)


def test_batch_iterator_deterministic_and_covering():
    windows = np.arange(12).reshape(6, 2)
    a = batch_iterator(windows, batch_size=2, seed=0)
    b = batch_iterator(windows, batch_size=2, seed=0)
    first_epoch = [next(a) for _ in range(3)]
    assert all(np.array_equal(next(b), batch) for batch in first_epoch)
    seen = np.sort(np.concatenate([batch[:, 0] for batch in first_epoch]))
    np.testing.assert_array_equal(seen, windows[:, 0])
    # a later epoch reshuffles but still yields full batches
    later = next(a)
    assert later.shape == (2, 2)


def test_batch_iterator_rejects_oversized_batch():
    with pytest.raises(DataError):
        next(batch_iterator(np.zeros((4, 8)), batch_size=5))


def test_bundled_corpus_is_reproducible():
    path = corpus_path()
    assert path.exists()
    blob = path.read_bytes()
    assert len(blob) == 65536
    assert blob == synthetic_corpus()
    allowed = set(range(32, 127)) | {10}
    assert set(blob) <= allowed
    windows = ingest_text(path, seq_len=64)
    assert windows.shape == (1024, 64)
