"""Streaming microphone-array front-end.

Separates simultaneous far-field sources with adaptive geometric source
separation, cleans each stream with a multi-source MMSE post-filter, and
emits per-band reliability masks alongside log-mel-spectral features for
missing-feature recognition.
"""

from .audio import AudioBuffer, read_wav, resample_48k_to_16k, write_wav
from .errors import (ArraySepError, AudioIOError, ConfigError,
                     OverDeterminedSceneError, StreamError)
from .geometry import ArrayGeometry, far_field_delay, steering_matrix
from .stft import SpectralFrame, stft_analyze, stft_synthesize

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ArraySepError",
    "AudioBuffer",
    "AudioIOError",
    "ConfigError",
    "OverDeterminedSceneError",
    "SpectralFrame",
    "StreamError",
    "__version__",
    "far_field_delay",
    "read_wav",
    "resample_48k_to_16k",
    "steering_matrix",
    "stft_analyze",
    "stft_synthesize",
    "write_wav",
]
