"""Signal model: complex/real channel forms, one-bit quantization, instance generation."""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Identity string recorded in experiment metadata so runs can be reproduced
# with the exact same random stream construction.
RNG_IDENTITY = "numpy.default_rng(seed[, trial])/PCG64"


class InstanceFormatError(ValueError):
    """Raised when an instance file fails schema validation."""


@dataclass(frozen=True)
class GenConfig:
    """Random-instance configuration: antenna/user counts, SNR in dB, RNG seed."""

    n_antennas: int
    n_users: int
    snr_db: float
    seed: int

    def __post_init__(self):
        if not (self.n_antennas >= self.n_users >= 1):
            raise ValueError(
                f"need n_antennas >= n_users >= 1, got {self.n_antennas}, {self.n_users}"
            )
        _noise_std(self)  # refuses an SNR the calibration cannot take


@dataclass
class ComplexScene:
    """One draw of the complex model: channel, QPSK symbols, noise, quantized output."""

    H_c: np.ndarray  # complex (n_antennas, n_users)
    x_c: np.ndarray  # complex QPSK, entries in {+-1 +-1j}
    v_c: np.ndarray  # complex noise
    r_c: np.ndarray  # complex quantized received signal, entries in {+-1 +-1j}


@dataclass
class RealInstance:
    """Real-valued detection problem consumed by every solver.

    H is N x K, r in {-1,+1}^N, sigma the real-domain noise standard
    deviation, x_true the transmitted signs when known.
    """

    H: np.ndarray
    r: np.ndarray
    sigma: float
    x_true: np.ndarray | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.H.ndim != 2:
            raise ValueError("H must be a 2-D matrix")
        if self.H.shape[0] == 0:
            raise ValueError("H must have at least one row")
        if self.r.shape != (self.H.shape[0],):
            raise ValueError("r length must match the row count of H")
        if not np.all(np.isfinite(self.H)):
            raise ValueError("H must be finite")
        if not np.all(np.abs(self.r) == 1.0):
            raise ValueError("r entries must be -1 or +1")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, dtype=float)
            if self.x_true.shape != (self.H.shape[1],):
                raise ValueError("x_true length must match the column count of H")
            if not np.all(np.abs(self.x_true) == 1.0):
                raise ValueError("x_true entries must be -1 or +1")
        # shared across trial workers; freeze the arrays
        for a in (self.H, self.r, self.x_true):
            if a is not None:
                a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def k(self) -> int:
        return self.H.shape[1]


def real_expand_channel(H_c: np.ndarray) -> np.ndarray:
    """Expand a complex channel into its real block form [[Re,-Im],[Im,Re]]."""
    H_c = np.asarray(H_c)
    return np.block([[H_c.real, -H_c.imag], [H_c.imag, H_c.real]])


def stack_complex(z: np.ndarray) -> np.ndarray:
    """Stack a complex vector as [Re(z); Im(z)]."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag])


def quantize_one_bit(y: np.ndarray) -> np.ndarray:
    """Elementwise sign with the convention sgn(0) = +1."""
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0.0, 1.0, -1.0)


def _noise_std(cfg: GenConfig) -> tuple[float, float]:
    """The complex-domain and real-domain noise standard deviations at ``cfg.snr_db``.

    The complex per-entry noise variance is 2*n_users / snr_linear, which makes
    the expected signal-to-noise energy ratio equal the configured value; each
    real entry carries half of it. An SNR whose linear value is not finite and
    positive, or so small that the noise overflows, is refused.
    """
    try:
        snr_lin = 10.0 ** (cfg.snr_db / 10.0)
        sigma_c = np.sqrt(2.0 * cfg.n_users / snr_lin)  # 0 at an infinite snr_lin, inf at a tiny one
    except (OverflowError, ZeroDivisionError):  # snr_lin beyond the double range, or 0
        sigma_c = math.nan
    if not 0 < sigma_c < math.inf:
        raise ValueError(f"snr_db must give a finite, positive linear SNR and a finite noise level, got {cfg.snr_db!r}")
    return sigma_c, np.sqrt(cfg.n_users / snr_lin)


def generate_scene(cfg: GenConfig, trial: int | None = None) -> ComplexScene:
    """Draw one complex scene: i.i.d. CN(0,1) channel, uniform QPSK symbols, noise as ``_noise_std``."""
    rng = _rng(cfg.seed, trial)
    nt, ku = cfg.n_antennas, cfg.n_users
    H_c = (rng.standard_normal((nt, ku)) + 1j * rng.standard_normal((nt, ku))) / np.sqrt(2.0)
    x_c = (2.0 * rng.integers(0, 2, size=ku) - 1.0) + 1j * (2.0 * rng.integers(0, 2, size=ku) - 1.0)
    sigma_c = _noise_std(cfg)[0]
    v_c = sigma_c / np.sqrt(2.0) * (rng.standard_normal(nt) + 1j * rng.standard_normal(nt))
    y_c = H_c @ x_c + v_c
    r_c = quantize_one_bit(y_c.real) + 1j * quantize_one_bit(y_c.imag)
    return ComplexScene(H_c=H_c, x_c=x_c, v_c=v_c, r_c=r_c)


def generate_instance(cfg: GenConfig, trial: int | None = None) -> RealInstance:
    """Generate a real-valued instance at the configured SNR, deterministic in the seed.

    ``trial`` selects an independent substream so Monte-Carlo trial counts can
    grow without reshuffling earlier trials.
    """
    scene = generate_scene(cfg, trial)
    H = real_expand_channel(scene.H_c)
    x = stack_complex(scene.x_c)
    v = stack_complex(scene.v_c)
    r = quantize_one_bit(H @ x + v)
    return RealInstance(H=H, r=r, sigma=float(_noise_std(cfg)[1]), x_true=x)


def _rng(seed: int, trial: int | None) -> np.random.Generator:
    if trial is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([seed, trial])


def bit_error_rate(x_true: np.ndarray, x_est: np.ndarray) -> float:
    """Fraction of mismatched sign entries."""
    x_true = np.asarray(x_true)
    x_est = np.asarray(x_est)
    if x_true.shape != x_est.shape:
        raise ValueError(f"length mismatch: {x_true.shape} vs {x_est.shape}")
    return float(np.mean(x_true != x_est))


# ---------------------------------------------------------------------------
# Instance file format (JSON): n, k, sigma, H row-major, r, optional x_true.


def save_instance(instance: RealInstance, path: str) -> None:
    """Write an instance as JSON, one field a line; each double reads back bit for bit."""
    fields = {
        "n": instance.n,
        "k": instance.k,
        "sigma": instance.sigma,
        "H": instance.H.ravel().tolist(),
        "r": [int(v) for v in instance.r],
    }
    if instance.x_true is not None:
        fields["x_true"] = [int(v) for v in instance.x_true]
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, allow_nan=False)}" for k, v in fields.items())
    write_atomically(path, "{\n" + lines + "\n}\n")


def write_atomically(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as it stands: to a temporary file, then renamed over ``path``,
    so a reader never finds it half-written. A failed write removes the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_instance(path: str) -> RealInstance:
    """Read an instance file, validating the schema field by field."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object at top level")
    for fieldname in ("n", "k", "sigma", "H", "r"):
        if fieldname not in raw:
            raise InstanceFormatError(f"{path}: missing required field '{fieldname}'")
    n, k = raw["n"], raw["k"]
    # a bool is an int to isinstance, so the types are compared exactly
    if not (type(n) is int and type(k) is int and n >= 1 and k >= 1):
        raise InstanceFormatError(f"{path}: fields 'n' and 'k' must be positive integers")
    if type(raw["sigma"]) not in (int, float):
        raise InstanceFormatError(f"{path}: field 'sigma' must be a number")
    lists = {"H": (n * k, "n*k"), "r": (n, "n")}
    if raw.get("x_true") is not None:
        lists["x_true"] = (k, "k")
    for name, (size, expected) in lists.items():
        v = raw[name]
        if not (isinstance(v, list) and all(type(u) in (int, float) for u in v)):
            raise InstanceFormatError(f"{path}: field '{name}' must be a list of numbers")
        if len(v) != size:
            raise InstanceFormatError(f"{path}: field '{name}' has {len(v)} entries, expected {expected} = {size}")
    try:
        H = np.asarray(raw["H"], dtype=float).reshape(n, k)
        return RealInstance(H=H, r=raw["r"], sigma=float(raw["sigma"]), x_true=raw.get("x_true"))
    except (ValueError, OverflowError) as e:  # OverflowError: an integer beyond the float range
        raise InstanceFormatError(f"{path}: {e}") from e
