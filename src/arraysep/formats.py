"""The artifact file formats: binary files of one header then fixed-size
records, printf-exact CSV text, and the streamed post-filter dump."""

import os
from itertools import accumulate

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
# little-endian words gathered from byte-string tables and padded with NUL;
# dropping the NULs leaves the printf bytes.  A ``%.{places}e`` cell is
# places + 9 bytes, the widest such text with its ",": a sign-and-lead word
# (sign, the lead digits with "." after the first), 4-digit groups, and an
# exponent word "e±XX" or "e±XXX" with the "," at its sixth byte.  A ``%d``
# cell is a sign word and 3-digit groups, its last byte NUL until it takes
# the separator.
_CSV_SLICE_CELLS = 8192  # bounds the encoder's scratch memory (~95 B per cell)
_SPAN = 340  # table offset: exponents of doubles span -324..309, scale powers -302..333
_POW10 = np.array([float(f"1e{min(max(k, -300), 300)}") for k in range(-_SPAN, _SPAN + 1)])
_WIDE = np.abs(np.arange(-_SPAN, _SPAN + 1)) > 300  # scale powers past the literals
_EXPONENTS = np.array([f"e{e:+03d}".ljust(5, "\0") + "," for e in range(-_SPAN, _SPAN + 1)],
                      "S8").view("<u8")
_PLACES = {"%.6e": 6, "%.9e": 9}


def _lead_words(digits: int) -> np.ndarray:
    """Sign-and-lead words for ``digits`` lead digits, at index lead + (10^digits + 1)·sign:
    zero, the unused leads below 10^(digits−1), the digits, and 10^digits, the lead of a
    mantissa rounded up to 10^(places+1), which prints as 1 and zeros."""
    leads = [f"{h:0{digits}d}" for h in range(10 ** digits)] + ["1" + "0" * (digits - 1)]
    return np.array([f"{sign}{h[0]}.{h[1:]}" for sign in ("", "-") for h in leads],
                    "S8").view("<u8")


_LEADS = {places: _lead_words(places + 1 - 4 * (places // 4)) for places in _PLACES.values()}
_QUADS = np.array([f"{g:04d}" for g in range(10000)], "S4").view("<u4")
# an integer's 3-digit groups: g with no nonzero group above it unpadded (0 prints
# nothing), at 1000 + g padded
_INT_GROUPS = np.array([""] + [str(g) for g in range(1, 1000)] + [f"{g:03d}" for g in range(1000)],
                       "S4").view("<u4")


def _encode_fixed(values: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Write the ``%.{places}e`` cells of ``values`` (..., columns) side by side into
    ``text`` (..., columns·(places + 9) + 2), whose width fixes places and whose last
    axis is contiguous, and return a flag for each value they may not show.  The last two
    bytes of each row take the exponent words' spill and are left NUL.

    The scaled value y = |x|·10^(places−e), with 10^k a correctly rounded
    literal, is within 10^(places+1)·2.3e-16 of exact, so rint(y) is the
    correctly rounded mantissa unless y lies that close to a tie.  Near-ties,
    non-finite values and |places − e| > 300 are flagged.  e = ⌊log10|x|⌋
    is off by one only within a relative 1e-12 of a power of ten, where y
    rounds to 10^places or 10^(places+1) and both print as that power.
    """
    width = (text.shape[-1] - 2) // values.shape[-1]
    places, groups = width - 9, (width - 9) // 4

    def words(offset: int, dtype: str) -> np.ndarray:  # each cell's word at ``offset``
        size = np.dtype(dtype).itemsize
        skip = max(0, offset + size - width)  # the exponent word ends 2 bytes past its cell
        cells = text[..., skip : skip + values.shape[-1] * width].reshape(values.shape + (width,))
        return cells[..., offset - skip : offset - skip + size].view(dtype)[..., 0]

    # temporaries are overwritten in place or dropped once used: the
    # post-filter dump encodes every frame with this inside the stage loop
    scaled = np.abs(values)
    np.fmin(scaled, np.finfo(float).max, out=scaled)
    fallback = scaled == np.finfo(float).max  # nan, inf (and the largest double)
    power = np.fmax(scaled, scaled == 0)  # zero prints with exponent +00
    np.log10(power, out=power)
    power += _SPAN  # positive, so truncation floors
    index = power.astype(np.intp)  # the table index of e
    np.subtract(places + 2 * _SPAN, index, out=index)  # now of places − e
    fallback |= _WIDE[index]
    scaled *= _POW10.take(index, out=power)
    mantissa = np.rint(scaled, out=power)
    scaled -= mantissa
    fallback |= np.abs(scaled, out=scaled) >= 0.5 - 10.0 ** (places + 1) * 1e-15
    del scaled
    np.subtract(places + 2 * _SPAN, index, out=index)  # of e again
    index += mantissa >= 10.0 ** (places + 1)
    words(width - 6, "<u8")[...] = _EXPONENTS[index]  # spills into the next cell's lead
    del index

    digits = mantissa.astype(np.int64)
    del mantissa
    unit = 10 ** (4 * groups)
    lead = digits // unit
    digits -= lead * unit
    np.add(lead, len(_LEADS[places]) // 2, out=lead, where=np.signbit(values))
    words(0, "<u8")[...] = _LEADS[places].take(lead, mode="clip")  # flagged: any lead
    del lead
    for j in range(groups):  # the groups after the lead word overwrite its NUL tail
        unit //= 10000
        group = digits // unit if unit > 1 else digits
        words(width - 6 - 4 * (groups - j), "<u4")[...] = _QUADS[group]
        if unit > 1:
            digits -= group * unit
    return fallback


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


def _encode_cells(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, columns) block of one format as (rows, width) bytes, each cell
    ending in ``,``, and a flag for each row that they may not show."""
    if fmt == "%d":
        cells, bad = _encode_int(values.ravel())
        cells[:, -1] = ord(",")
    elif fmt in _PLACES:
        cells = np.empty((len(values), values.shape[1] * (_PLACES[fmt] + 9) + 2), np.uint8)
        bad = _encode_fixed(values, cells)
        cells = cells[:, :-2]
    else:
        raise ValueError(f"unsupported CSV format {fmt!r}")
    return cells.reshape(len(values), -1), bad.reshape(len(values), -1).any(axis=1)


def _join_rows(text: np.ndarray, fallback: np.ndarray, row, fmt: list[str]) -> bytes:
    """The (rows, width) lines ``text`` without their NULs; flagged row i is
    ``",".join(fmt) % row(i)`` instead."""
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
                text = np.concatenate(cells, axis=1)
                text[:, -1] = ord("\n")
                fh.write(_join_rows(text, np.any(bad, axis=0), lambda i: tuple(rows[i]), fmt))
    except OSError as exc:
        raise AudioIOError(f"cannot write {kind} file {path}: {exc}") from exc


_DUMP_LINE = "%d,%d," + ",".join(["%.6e"] * 5) + "\n"  # frame, bin and the five internals


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
            bins = _encode_cells(np.arange(num_bins)[:, np.newaxis], "%d")[0]
            self.bins = bins[:, 4:].copy()  # without the sign word: bins are not negative
        frame = np.frombuffer(b"%d," % frame_index, np.uint8)  # printf, once per frame
        lead = len(frame) + self.bins.shape[1]
        table = np.stack(internals, axis=-1)  # (M, n_bins, 5)
        # one line per source and bin, written in place: frame, bin and the five cells
        width = lead + len(internals) * (_PLACES["%.6e"] + 9) + 2  # + the exponent spill
        lines = bytearray(num_sources * num_bins * width)
        text = np.frombuffer(lines, np.uint8).reshape(num_sources, num_bins, -1)
        bad = _encode_fixed(table, text[..., lead:])
        text[..., : len(frame)] = frame
        text[..., len(frame) : lead].view("<u4")[...] = self.bins.view("<u4")  # as words
        text[..., -3] = ord("\n")
        # a flagged row goes through %, whose text is never wider than its cells
        for m, k in zip(*np.nonzero(bad.any(axis=-1))) if bad.any() else ():
            row = (_DUMP_LINE % (frame_index, k, *table[m, k])).encode()
            text[m, k] = 0
            text[m, k, : len(row)] = np.frombuffer(row, np.uint8)
        ends = list(accumulate(np.count_nonzero(text[m]) for m in range(num_sources)))
        printed = memoryview(lines.translate(None, b"\0"))
        for fh, start, end in zip(self.files, [0] + ends, ends):
            fh.write(printed[start:end])

    def close(self) -> None:
        for fh in self.files:
            fh.close()
