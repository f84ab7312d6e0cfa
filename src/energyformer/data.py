"""Synthetic regression data from Gaussian-process priors, plus byte-level
text ingestion for small language-model runs.

Regression targets are drawn jointly from a zero-mean Gaussian process
over inputs sampled uniformly on the unit cube, then split into disjoint
train and test sets. All draws are deterministic per seed. Pairwise
distances come from a numpy helper rather than scipy.spatial, so
importing the package loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Unusable input data (empty file, undersized corpus, bad shapes)."""


class NumericalError(RuntimeError):
    """Linear-algebra failure that jitter escalation could not rescue."""


KERNEL_KINDS = ("rbf", "matern", "periodic", "rational-quadratic", "non-stationary")
MATERN_NUS = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class GpKernelSpec:
    """Covariance family and scales for the synthetic regression draw.

    lengthscale doubles as the base scale of the non-stationary kernel,
    whose per-point scale grows linearly in the first input coordinate.
    """

    kind: str
    lengthscale: float = 1.0
    variance: float = 1.0
    period: float = 1.0
    alpha: float = 1.0
    nu: float = 2.5

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise DataError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        for name in ("lengthscale", "variance", "period", "alpha"):
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kind == "matern" and self.nu not in MATERN_NUS:
            raise DataError(f"matern nu must be one of {MATERN_NUS}, got {self.nu}")


def _sq_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between rows, shape (len(xa), len(xb)).

    Sums the squared differences one input dimension at a time, the
    order scipy's cdist accumulates in, so both give the same bits.
    """
    sq = np.zeros((xa.shape[0], xb.shape[0]))
    for k in range(xa.shape[1]):
        diff = xa[:, k, None] - xb[None, :, k]
        sq += diff * diff
    return sq


def kernel_matrix(
    spec: GpKernelSpec, xa: np.ndarray, xb: np.ndarray | None = None
) -> np.ndarray:
    """Dense covariance matrix between two input sets (xb defaults to xa)."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = xa if xb is None else np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise DataError(f"inputs must be 2-d with equal width, got {xa.shape} and {xb.shape}")
    ell, v = spec.lengthscale, spec.variance

    if spec.kind == "rbf":
        sq = _sq_distances(xa, xb)
        return v * np.exp(-sq / (2.0 * ell**2))

    if spec.kind == "matern":
        r = np.sqrt(_sq_distances(xa, xb)) / ell
        if spec.nu == 0.5:
            return v * np.exp(-r)
        if spec.nu == 1.5:
            s = np.sqrt(3.0) * r
            return v * (1.0 + s) * np.exp(-s)
        s = np.sqrt(5.0) * r
        return v * (1.0 + s + s**2 / 3.0) * np.exp(-s)

    if spec.kind == "periodic":
        # per-dimension periodic factors multiplied together: the log is a
        # sum of squared sines over dimensions
        diff = xa[:, None, :] - xb[None, :, :]
        s = np.sum(np.sin(np.pi * np.abs(diff) / spec.period) ** 2, axis=-1)
        return v * np.exp(-2.0 * s / ell**2)

    if spec.kind == "rational-quadratic":
        sq = _sq_distances(xa, xb)
        return v * (1.0 + sq / (2.0 * spec.alpha * ell**2)) ** (-spec.alpha)

    # non-stationary: input-dependent lengthscale ell*(1 + x[0]), combined
    # through the symmetric average construction that keeps the matrix
    # positive semidefinite for any positive scale function
    la = ell * (1.0 + xa[:, 0])[:, None]
    lb = ell * (1.0 + xb[:, 0])[None, :]
    ssum = la**2 + lb**2
    sq = _sq_distances(xa, xb)
    d = xa.shape[1]
    prefactor = (2.0 * la * lb / ssum) ** (d / 2.0)
    return v * prefactor * np.exp(-sq / ssum)


def jittered_cholesky(
    k: np.ndarray, jitter: float = 1e-8, max_escalations: int = 6
) -> np.ndarray:
    """Lower Cholesky factor of k plus the smallest workable jitter.

    The jitter starts at 1e-8 and grows tenfold per retry; running out of
    retries raises, since a matrix that defeats percent-level jitter is
    not a usable covariance.
    """
    for attempt in range(max_escalations + 1):
        try:
            return np.linalg.cholesky(k + (jitter * 10.0**attempt) * np.eye(k.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"factorization failed after {max_escalations} jitter escalations "
        f"(final jitter {jitter * 10.0**max_escalations:g})"
    )


@dataclass
class RegressionBatch:
    inputs: np.ndarray   # (n, in_dim)
    targets: np.ndarray  # (n, 1)
    split: str           # "train" or "test"

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0], 1):
            raise DataError(
                f"batch shapes inconsistent: inputs {self.inputs.shape}, "
                f"targets {self.targets.shape}"
            )
        if self.split not in ("train", "test"):
            raise DataError(f"split must be 'train' or 'test', got {self.split!r}")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise DataError("batch contains non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def gp_targets(spec: GpKernelSpec, inputs: np.ndarray, seed: int) -> np.ndarray:
    """One joint draw of targets at the given inputs, shape (n, 1)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    factor = jittered_cholesky(kernel_matrix(spec, inputs))
    z = np.random.default_rng(seed).standard_normal(inputs.shape[0])
    return (factor @ z)[:, None]


def gp_sample(
    spec: GpKernelSpec,
    n_points: int,
    seed: int = 0,
    in_dim: int = 10,
    train_fraction: float = 0.8,
) -> tuple[RegressionBatch, RegressionBatch]:
    """Draw one joint function sample and split it into train and test.

    The targets are sampled jointly over all points, so train and test
    come from the same function realization; the inputs are disjoint by
    construction (continuous draws, split by position).
    """
    if n_points < 2:
        raise DataError(f"n_points must be >= 2, got {n_points}")
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(n_points * train_fraction))
    n_train = min(max(n_train, 1), n_points - 1)

    rng = np.random.default_rng(seed)
    inputs = rng.uniform(size=(n_points, in_dim))
    targets = gp_targets(spec, inputs, seed=int(rng.integers(0, 2**31)))
    train = RegressionBatch(inputs[:n_train], targets[:n_train], "train")
    test = RegressionBatch(inputs[n_train:], targets[n_train:], "test")
    return train, test


# ---------------------------------------------------------------------------
# byte-level text


def ingest_text(path: str | Path, seq_len: int) -> np.ndarray:
    """Non-overlapping byte windows of a text file, shape (n, seq_len).

    Bytes are the tokens (vocabulary 256). The trailing remainder that
    does not fill a window is dropped; an empty or too-short file is an
    error rather than an empty result.
    """
    if seq_len < 2:
        raise DataError(f"seq_len must be >= 2, got {seq_len}")
    raw = Path(path).read_bytes()
    if not raw:
        raise DataError(f"empty input file: {path}")
    n = len(raw) // seq_len
    if n == 0:
        raise DataError(f"file shorter than one window ({len(raw)} bytes < {seq_len})")
    arr = np.frombuffer(raw[: n * seq_len], dtype=np.uint8)
    return arr.reshape(n, seq_len).astype(np.int64)


def detokenize(windows: np.ndarray) -> bytes:
    return np.asarray(windows, dtype=np.uint8).tobytes()


def batch_iterator(windows: np.ndarray, batch_size: int, seed: int = 0):
    """Endless shuffled batches of whole windows, deterministic per seed.

    Each epoch is a fresh permutation; partial batches at the end of an
    epoch are dropped so every yield has the full batch size.
    """
    windows = np.asarray(windows)
    n = windows.shape[0]
    if batch_size < 1 or batch_size > n:
        raise DataError(f"batch_size must be in [1, {n}], got {batch_size}")
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield windows[perm[start : start + batch_size]]


# ---------------------------------------------------------------------------
# bundled corpus

# small Zipf-weighted vocabulary; enough structure (letter frequencies,
# spaces, short words) for a byte model to cut its loss quickly
_WORDS = (
    "the of stone river and light a wind to under over cold iron small "
    "gate moss deep water she he it was went saw old grey tower north "
    "rain fell long road dark bell rang thin smoke rose far hill stood "
    "still near door wood ash salt snow"
).split()


def synthetic_corpus(n_bytes: int = 65536, seed: int = 7) -> bytes:
    """Deterministic pseudo-prose for smoke training, exactly n_bytes."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(_WORDS) + 1)
    weights /= weights.sum()
    pieces: list[str] = []
    total = 0
    sentences = 0
    while total < n_bytes + 256:
        length = 3 + int(rng.geometric(0.35))
        words = [_WORDS[i] for i in rng.choice(len(_WORDS), size=length, p=weights)]
        sentence = " ".join(words).capitalize() + ". "
        sentences += 1
        if sentences % 6 == 0:
            sentence += "\n"
        pieces.append(sentence)
        total += len(sentence)
    return "".join(pieces).encode("ascii")[:n_bytes]


def corpus_path() -> Path:
    """Location of the bundled smoke-training corpus."""
    return Path(__file__).resolve().parent / "corpus" / "smoke.txt"
