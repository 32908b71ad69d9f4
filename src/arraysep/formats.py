"""The artifact file formats: binary files of one header then fixed-size
records, printf-exact CSV text, and the streamed post-filter dump."""

import os

import numpy as np

from .errors import AudioIOError


def write_records(path: str, header: np.ndarray, records: np.ndarray, kind: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(header.tobytes() + records.tobytes())
    except OSError as exc:
        raise AudioIOError(f"cannot write {kind} file {path}: {exc}") from exc


def read_records(path: str, header: np.dtype, magic: bytes, version: int, kind: str,
                 frame) -> tuple[np.void, np.ndarray]:
    """Check a header-plus-records file and view its body as ``frame(header)`` records."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise AudioIOError(f"cannot read {kind} file {path}: {exc}") from exc
    if data[:4] != magic:
        raise AudioIOError(f"{path}: not a {kind} file")
    if len(data) < header.itemsize:
        raise AudioIOError(f"{path}: truncated {kind} file header")
    head = np.frombuffer(data, header, count=1)[0]
    if head["version"] != version:
        raise AudioIOError(f"{path}: unsupported {kind} file version {head['version']}")
    record = frame(head)
    count = int(head["count"])
    if len(data) != header.itemsize + count * record.itemsize:
        raise AudioIOError(f"{path}: {len(data)} bytes do not hold {count} {kind} frames")
    return head, np.frombuffer(data, record, count=count, offset=header.itemsize)


# CSV text is printf text.  Each value becomes a fixed-width cell of
# little-endian words gathered from byte-string tables (sign and lead digit,
# 3-digit groups, exponent) and padded with NUL; the last byte of a cell is
# always NUL and takes the separator.  Dropping the NULs leaves the printf
# bytes.
_CSV_SLICE_CELLS = 8192  # bounds the encoder's scratch memory (~100 B per cell)
_SPAN = 340  # table offset: exponents of doubles span -324..309, scale powers -302..333
_POW10 = np.array([float(f"1e{min(max(k, -300), 300)}") for k in range(-_SPAN, _SPAN + 1)])
_EXPONENTS = np.array([f"e{e:+03d}" for e in range(-_SPAN, _SPAN + 1)], "S8").view("<u8")
# index lead + 11·sign; a mantissa rounded up to 10^(places+1) has lead 10, "1."
_LEADS = np.array([f"{sign}{d}." for sign in ("", "-") for d in (*range(10), 1)],
                  "S4").view("<u4")
_GROUPS = np.array([f"{g:03d}" for g in range(1000)], "S4").view("<u4")
# groups of an integer with no nonzero group above them: unpadded, 0 prints nothing
_INT_GROUPS = np.concatenate((np.array([b""] + [str(g) for g in range(1, 1000)], "S4")
                              .view("<u4"), _GROUPS))


def _encode_fixed(values: np.ndarray, places: int) -> tuple[np.ndarray, np.ndarray]:
    """``%.{places}e`` cells, and a flag for each value they may not show.

    The scaled value y = |x|·10^(places−e), with 10^k a correctly rounded
    literal, is within 10^(places+1)·2.3e-16 of exact, so rint(y) is the
    correctly rounded mantissa unless y lies that close to a tie.  Near-ties,
    non-finite values and |places − e| > 300 are flagged.  e = ⌊log10|x|⌋
    is off by one only within a relative 1e-13 of a power of ten, where y
    rounds to 10^places or 10^(places+1) and both print as that power.
    """
    # temporaries are overwritten in place or dropped once used: the
    # post-filter dump encodes every frame with this inside the stage loop
    scaled = np.abs(values)
    np.fmin(scaled, np.finfo(float).max, out=scaled)  # nan, inf: flagged below
    exponent = scaled + (scaled == 0)  # zero prints with exponent +00
    np.log10(exponent, out=exponent)
    exponent = np.floor(exponent, out=exponent).astype(np.intp)
    shift = places - exponent
    scaled *= _POW10[shift + _SPAN]
    mantissa = np.rint(scaled)
    scaled -= mantissa
    np.abs(scaled, out=scaled)
    scaled -= 0.5
    fallback = np.abs(scaled, out=scaled) <= 10.0 ** (places + 1) * 1e-15
    del scaled
    fallback |= np.abs(shift, out=shift) > 300
    del shift
    fallback |= ~np.isfinite(values)
    exponent += mantissa >= 10.0 ** (places + 1)

    digits = mantissa.astype(np.int64)
    del mantissa
    cells = np.empty((len(values), places // 3 + 3), "<u4")
    for j in range(places // 3, 0, -1):
        digits, group = np.divmod(digits, 1000)
        cells[:, j] = _GROUPS[group]
    digits += 11 * np.signbit(values)
    cells[:, 0] = _LEADS.take(digits, mode="clip")  # flagged cells may hold any lead
    exponent += _SPAN
    cells[:, -2:] = _EXPONENTS[exponent].view("<u4").reshape(-1, 2)
    return cells.view(np.uint8), fallback


def _encode_int(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` cells (truncation toward zero) for |x| < 2^53, and a flag for the rest."""
    fallback = ~(np.abs(values) < 2.0 ** 53)
    truncated = np.fmax(np.fmin(values, 2.0 ** 53), -2.0 ** 53).astype(np.int64)
    rest = np.abs(truncated)
    count = (len(str(int(rest.max()))) + 2) // 3 if len(values) else 1
    cells = np.zeros((len(values), count + 1), "<u4")
    cells[:, 0] = (truncated < 0) * np.uint32(ord("-"))
    cells[:, count] = (rest == 0) * np.uint32(ord("0"))
    for j in range(count, 0, -1):
        upper = rest // 1000
        cells[:, j] |= _INT_GROUPS[rest - 1000 * upper + 1000 * (upper > 0)]
        rest = upper
    return cells.view(np.uint8), fallback


_ENCODERS = {"%d": _encode_int, "%.6e": lambda v: _encode_fixed(v, 6),
             "%.9e": lambda v: _encode_fixed(v, 9)}


def _encode_cells(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, columns) block of one format as (rows, width) bytes, each cell
    ending in ``,``, and a flag for each row that they may not show."""
    if fmt not in _ENCODERS:
        raise ValueError(f"unsupported CSV format {fmt!r}")
    cells, bad = _ENCODERS[fmt](values.ravel())
    cells[:, -1] = ord(",")
    return cells.reshape(len(values), -1), bad.reshape(len(values), -1).any(axis=1)


def _join_rows(blocks: tuple[np.ndarray, ...], fallback: np.ndarray, row, fmt: list[str]) -> bytes:
    """The rows whose cells are ``blocks``, side by side, as text; flagged row
    i is ``",".join(fmt) % row(i)`` instead."""
    text = np.concatenate(blocks, axis=1)
    text[:, -1] = ord("\n")
    parts, done, line = [], 0, ",".join(fmt) + "\n"
    for i in np.flatnonzero(fallback):
        parts += [text[done:i].tobytes(), (line % row(i)).encode()]
        done = i + 1
    parts.append(text[done:].tobytes())
    return b"".join(parts).translate(None, b"\0")


def write_csv(path: str, header: str, table: np.ndarray, fmt: list[str], kind: str) -> None:
    """Write ``header``, then ``",".join(fmt) % tuple(row) + "\\n"`` for every
    row of the (rows, len(fmt)) ``table``.

    Formats are ``%d``, ``%.6e`` and ``%.9e``.  A row holding a value that
    its cell cannot show exactly goes through ``%`` itself.
    """
    step = max(1, _CSV_SLICE_CELLS // len(fmt))
    edges = [0] + [j for j in range(1, len(fmt)) if fmt[j] != fmt[j - 1]] + [len(fmt)]
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for start in range(0, len(table), step):
                rows = np.asarray(table[start:start + step], np.float64).reshape(-1, len(fmt))
                cells, bad = zip(*(_encode_cells(rows[:, a:b], fmt[a]) for a, b in zip(edges, edges[1:])))
                fh.write(_join_rows(cells, np.any(bad, axis=0), lambda i: tuple(rows[i]), fmt))
    except OSError as exc:
        raise AudioIOError(f"cannot write {kind} file {path}: {exc}") from exc


class PostfilterDump:
    """Each source's ``<id>_postfilter.csv``, appended frame by frame under
    the name ``staging(path)`` gives; nothing is opened before the first
    frame."""

    def __init__(self, output_dir: str, ids: list[str], staging):
        self.paths = [os.path.join(output_dir, f"{source_id}_postfilter.csv") for source_id in ids]
        self.staging = staging
        self.files = []

    def __call__(self, frame_index: int, internals) -> None:
        """Append every source's rows of one frame's internals, five (M, n_bins)
        arrays (noise_stat, noise_leak, snr_prior, presence, gain)."""
        num_sources, num_bins = internals[0].shape
        if not self.files:
            for path in self.paths:
                self.files.append(open(self.staging(path), "xb"))
                self.files[-1].write(b"frame,bin,noise_stat,noise_leak,snr_prior,presence,gain\n")
            self.bins = _encode_cells(np.arange(num_bins)[:, np.newaxis], "%d")[0]
        frame = np.frombuffer(b"%d," % frame_index, np.uint8)  # printf, once per frame
        frame = np.broadcast_to(frame, (num_bins, len(frame)))
        table = np.empty((num_sources, num_bins, 5))
        for i, part in enumerate(internals):
            table[:, :, i] = part
        values, bad = _encode_cells(table.reshape(-1, 5), "%.6e")
        values, bad = values.reshape(num_sources, num_bins, -1), bad.reshape(num_sources, -1)
        for m, fh in enumerate(self.files):
            fh.write(_join_rows((frame, self.bins, values[m]), bad[m],
                                lambda k: (frame_index, k, *table[m, k]),
                                ["%d", "%d"] + ["%.6e"] * 5))

    def close(self) -> None:
        for fh in self.files:
            fh.close()
