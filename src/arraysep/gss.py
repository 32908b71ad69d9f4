"""Frequency-domain geometric source separation.

Per-bin demixing matrices adapt by stochastic gradient descent on two
soft-constraint costs: decorrelation of the outputs (from instantaneous
correlation estimates, one frame at a time) and closeness of demix times
steering to identity.  Initialization is the delay-and-sum solution, so a
single-source state is a delay-and-sum beamformer and stays there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StreamError
from .stft import SpectralFrame

DEFAULT_STEP_SIZE = 0.01
# Bins quieter than this skip the decorrelation term so its power
# normalization cannot blow up; the geometric term still anchors them.
POWER_FLOOR = 1e-12


@dataclass
class SeparationState:
    """Per-bin demixing matrices, ``demix`` is (n_bins, M, N), for the fixed
    steering matrix ``steering``, (n_bins, N, M)."""

    steering: np.ndarray
    demix: np.ndarray
    step_size: float = DEFAULT_STEP_SIZE

    @property
    def num_sources(self) -> int:
        return self.demix.shape[1]

    @property
    def num_mics(self) -> int:
        return self.demix.shape[2]

    @cached_property
    def _steering_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """A and A^H as ``_real_operator``s, built once since steering is fixed."""
        a = self.steering
        return _real_operator(a), _real_operator(a.conj().transpose(0, 2, 1))


def _real_operator(c: np.ndarray) -> np.ndarray:
    """The real (K, 2P, 2Q) op with x.view(float) @ op == (x @ c).view(float), c (K, P, Q).

    At these sizes a stacked real matmul is several times faster than
    numpy's complex one.  op[:, i, p, j, q] maps part p (re, im) of input i
    to part q of output j.
    """
    op = np.stack((np.stack((c.real, c.imag), -1), np.stack((-c.imag, c.real), -1)), 2)
    return op.reshape(c.shape[0], 2 * c.shape[1], 2 * c.shape[2])


@dataclass
class GradientPair:
    """Conjugate-coordinate gradients of both costs, each (n_bins, M, N)."""

    decorrelation: np.ndarray
    geometric: np.ndarray


def init_delay_and_sum(steering: np.ndarray, step_size: float = DEFAULT_STEP_SIZE) -> SeparationState:
    """Demixing initialized as conjugate steering over N: a delay-and-sum beamformer per source."""
    demix = steering.conj().transpose(0, 2, 1) / steering.shape[1]
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
    y = _demix(state, _check_frame(state, frame))
    return SpectralFrame(y.T, frame.frame_index)


def decorrelation_cost(state: SeparationState, frame: SpectralFrame) -> float:
    """Sum over bins of the squared off-diagonal output correlation."""
    y = _demix(state, _check_frame(state, frame))
    power = y.real ** 2 + y.imag ** 2  # |E_mj|^2 = |y_m|^2 |y_j|^2 for m != j
    return float(np.sum(power * (np.sum(power, axis=1, keepdims=True) - power)))


def geometric_cost(state: SeparationState) -> float:
    """Sum over bins of || demix @ steering - I ||^2."""
    residual = np.matmul(state.demix, state.steering)
    m = state.num_sources
    residual[:, np.arange(m), np.arange(m)] -= 1.0
    return float(np.sum(np.abs(residual) ** 2))


def _demix(state: SeparationState, x: np.ndarray) -> np.ndarray:
    """y = W x per bin: (n_bins, M) outputs of an (N, n_bins) frame."""
    return np.matmul(state.demix, x.T[:, :, np.newaxis])[:, :, 0]


def _gradients(state: SeparationState, x: np.ndarray,
               y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decorrelation and geometric gradients, each (n_bins, M, N), at the
    frame x (N, n_bins) and its outputs y = W x (n_bins, M).

    Gradients follow the convention grad = d/dRe + j*d/dIm, which is what a
    finite-difference probe of the real costs measures.  With E = y y^H
    minus its diagonal, E y = y * (sum_j |y_j|^2 - |y_m|^2), so the
    decorrelation gradient 4 (E y) x^H needs no correlation matrix.  The
    geometric gradient is 2 (W A - I) A^H: for M < N/2 that costs less time
    and memory than the affine form 2 (W A A^H - A^H).  Real factors scale
    the float64 view of the complex gradients: the products are those of a
    complex multiply, up to the sign of an exact zero.
    """
    grad_dec, grad_geo = np.empty((2,) + state.demix.shape, dtype=np.complex128)
    power = y.real ** 2 + y.imag ** 2
    ey = y * (np.sum(power, axis=1, keepdims=True) - power)
    # times x^H in place: no (n_bins, M, N) temporary, though numpy allocates its
    # 8192-element ufunc buffer for each broadcast product, here and in adapt
    grad_dec[...] = (4.0 * ey)[:, :, np.newaxis]
    grad_dec *= x.T.conj()[:, np.newaxis, :]
    a_op, a_h_op = state._steering_operators
    residual = np.matmul(state.demix.view(np.float64), a_op)
    m = residual.shape[1]
    residual.reshape(len(residual), -1)[:, :: 2 * m + 2] -= 1.0  # W A - I, on the real parts
    geo = grad_geo.view(np.float64)
    np.matmul(residual, a_h_op, out=geo)
    geo *= 2.0
    return grad_dec, grad_geo


def gradients(state: SeparationState, frame: SpectralFrame) -> GradientPair:
    """Per-bin gradients of both costs at the current demixing matrices."""
    x = _check_frame(state, frame)
    return GradientPair(*_gradients(state, x, _demix(state, x)))


def adapt(state: SeparationState, frame: SpectralFrame, separated: SpectralFrame) -> None:
    """One stochastic-gradient update of the demixing matrices (in place).

    ``separated`` is what ``separate(state, frame)`` returned for this frame
    before any update, so y = W x is not computed twice.  The decorrelation
    term is scaled per bin by the inverse squared input power; bins below
    the power floor apply only the geometric term.
    """
    x = _check_frame(state, frame)
    y = separated.bins.T
    if y.shape != state.demix.shape[:2]:
        raise StreamError(f"frame {frame.frame_index}: separated frame is {separated.bins.shape}, "
                          f"demix expects {(state.num_sources, state.demix.shape[0])}")
    # |x|^2 summed along a contiguous microphone axis: the memory layout sets
    # the order of the sum, so it is fixed here, as that of WAV-decoded frames;
    # its scratch is freed before the gradients are allocated
    xpow = np.sum(np.abs(np.ascontiguousarray(x.T)) ** 2, axis=1)  # (n_bins,)
    scale = np.power(xpow, -2.0, out=np.zeros_like(xpow), where=xpow >= POWER_FLOOR)
    grad_dec, grad_geo = _gradients(state, x, y)

    # demix -= step_size * (scale * grad_dec + grad_geo), on the float64 views
    step = grad_dec.view(np.float64)
    step *= scale[:, np.newaxis, np.newaxis]
    step += grad_geo.view(np.float64)
    step *= state.step_size
    demix = state.demix.view(np.float64)
    demix -= step
    with np.errstate(over="ignore"):  # a finite sum rules out a non-finite entry
        if not np.isfinite(np.sum(demix)) and not np.all(np.isfinite(demix)):
            raise StreamError(
                f"frame {frame.frame_index}: demixing matrices diverged (non-finite entries)"
            )

