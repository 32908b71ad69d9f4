"""Frequency-domain geometric source separation.

Per-bin demixing matrices adapt by stochastic gradient descent on two
soft-constraint costs: decorrelation of the outputs (from instantaneous
correlation estimates, one frame at a time) and closeness of demix times
steering to identity.  Initialization is the delay-and-sum solution, so a
single-source state is a delay-and-sum beamformer and stays there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StreamError
from .geometry import SteeringMatrix
from .stft import SpectralFrame

DEFAULT_STEP_SIZE = 0.01
# Bins quieter than this skip the decorrelation term so its power
# normalization cannot blow up; the geometric term still anchors them.
POWER_FLOOR = 1e-12


@dataclass
class SeparationState:
    """Per-bin demixing matrices, ``demix`` is (n_bins, M, N)."""

    steering: SteeringMatrix
    demix: np.ndarray
    step_size: float = DEFAULT_STEP_SIZE
    power_floor: float = POWER_FLOOR

    @property
    def num_sources(self) -> int:
        return self.demix.shape[1]

    @property
    def num_mics(self) -> int:
        return self.demix.shape[2]

    @property
    def source_ids(self) -> list[str]:
        return self.steering.sources.ids


@dataclass
class GradientPair:
    """Conjugate-coordinate gradients of both costs, each (n_bins, M, N)."""

    decorrelation: np.ndarray
    geometric: np.ndarray


def init_delay_and_sum(steering: SteeringMatrix, step_size: float = DEFAULT_STEP_SIZE) -> SeparationState:
    """Demixing initialized as conjugate steering over N: a delay-and-sum beamformer per source."""
    demix = steering.values.conj().transpose(0, 2, 1) / steering.num_mics
    return SeparationState(steering, np.ascontiguousarray(demix), step_size)


def _check_frame(state: SeparationState, frame: SpectralFrame) -> np.ndarray:
    x = frame.bins
    if x.shape[0] != state.num_mics:
        raise StreamError(
            f"frame {frame.frame_index}: {x.shape[0]} channels, demix expects {state.num_mics}"
        )
    if x.shape[1] != state.demix.shape[0]:
        raise StreamError(
            f"frame {frame.frame_index}: {x.shape[1]} bins, demix expects {state.demix.shape[0]}"
        )
    return x


def separate(state: SeparationState, frame: SpectralFrame) -> SpectralFrame:
    """Apply the demixing matrices: one output channel per source."""
    x = _check_frame(state, frame)
    # (n_bins, M, N) @ (n_bins, N, 1) -> (n_bins, M)
    y = np.matmul(state.demix, x.T[:, :, np.newaxis])[:, :, 0]
    return SpectralFrame(y.T, frame.frame_index, frame.fft_size, frame.rate)


def _output_correlation_offdiag(y: np.ndarray) -> np.ndarray:
    """E(k) = y y^H minus its diagonal, from the instantaneous estimate; (n_bins, M, M)."""
    corr = y[:, :, np.newaxis] * y.conj()[:, np.newaxis, :]
    m = y.shape[1]
    corr[:, np.arange(m), np.arange(m)] = 0.0
    return corr


def decorrelation_cost(state: SeparationState, frame: SpectralFrame) -> float:
    """Sum over bins of the squared off-diagonal output correlation."""
    y = np.matmul(state.demix, _check_frame(state, frame).T[:, :, np.newaxis])[:, :, 0]
    off = _output_correlation_offdiag(y)
    return float(np.sum(np.abs(off) ** 2))


def geometric_cost(state: SeparationState) -> float:
    """Sum over bins of || demix @ steering - I ||^2."""
    residual = np.matmul(state.demix, state.steering.values)
    m = state.num_sources
    residual[:, np.arange(m), np.arange(m)] -= 1.0
    return float(np.sum(np.abs(residual) ** 2))


def _raw_gradients(demix: np.ndarray, steering: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both gradients plus the separated bins; x is (N, n_bins).

    Gradients follow the convention grad = d/dRe + j*d/dIm, which is what a
    finite-difference probe of the real costs measures.  The decorrelation
    gradient uses the rank-one correlation shortcut (matrix-vector products
    only); the geometric one right-multiplies by the conjugate-transposed
    steering, the only placement that matches shapes for non-square
    steering and the finite-difference oracle.
    """
    xt = x.T  # (n_bins, N)
    y = np.matmul(demix, xt[:, :, np.newaxis])[:, :, 0]  # (n_bins, M)
    off = _output_correlation_offdiag(y)
    ey = np.matmul(off, y[:, :, np.newaxis])[:, :, 0]
    grad_dec = 4.0 * ey[:, :, np.newaxis] * xt.conj()[:, np.newaxis, :]

    residual = np.matmul(demix, steering)
    m = demix.shape[1]
    residual[:, np.arange(m), np.arange(m)] -= 1.0
    grad_geo = 2.0 * np.matmul(residual, steering.conj().transpose(0, 2, 1))
    return grad_dec, grad_geo, y


def gradients(state: SeparationState, frame: SpectralFrame) -> GradientPair:
    """Per-bin gradients of both costs at the current demixing matrices."""
    x = _check_frame(state, frame)
    grad_dec, grad_geo, _ = _raw_gradients(state.demix, state.steering.values, x)
    return GradientPair(grad_dec, grad_geo)


def adapt(state: SeparationState, frame: SpectralFrame) -> SeparationState:
    """One stochastic-gradient update of the demixing matrices (in place).

    The decorrelation term is scaled per bin by the inverse squared input
    power; bins below the power floor apply only the geometric term.
    """
    x = _check_frame(state, frame)
    grad_dec, grad_geo, _ = _raw_gradients(state.demix, state.steering.values, x)

    xpow = np.sum(np.abs(x) ** 2, axis=0)  # (n_bins,)
    scale = np.zeros_like(xpow)
    active = xpow >= state.power_floor
    scale[active] = xpow[active] ** -2.0

    state.demix -= state.step_size * (scale[:, np.newaxis, np.newaxis] * grad_dec + grad_geo)
    if not np.all(np.isfinite(state.demix)):
        raise StreamError(
            f"frame {frame.frame_index}: demixing matrices diverged (non-finite entries)"
        )
    return state

