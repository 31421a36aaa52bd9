"""Convergence and noise studies over the manufactured benchmarks, plus CSV I/O.

Study runs invert the analytic measurement series of a benchmark (the
machine-precision roundtrip against discretely generated data lives in the
test suite, where it belongs).  Errors in the state are taken at the final
time over interior nodes; the coefficient error is the sup over the half-step
times where the recovery defines it.  All output is deterministic: rerunning
a study with the same configuration writes byte-identical files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .forward import SOLVERS, make_step_operators
from .grid import CoefficientSeries, Grid, Trajectory, make_grid
from .inverse import (
    DenominatorNearZero,
    NoiseSpec,
    perturb_measurements,
    run_inverse,
    run_inverse_batch,
    smooth_measurements,
)
from .manufactured import EXAMPLE_IDS, SOURCES, ManufacturedProblem, build_manufactured
from .riesz import SCHEMES, RieszOperator, assemble

__all__ = [
    "StudyConfig",
    "ConvergenceRow",
    "ConvergenceTable",
    "InverseRunResult",
    "NoiseCase",
    "NoiseStudyResult",
    "rate_fit",
    "run_inverse_case",
    "convergence_study_time",
    "convergence_study_space",
    "noise_study",
    "emit_outputs",
    "exact_comparison",
    "R_COLUMNS",
    "U_COLUMNS",
    "write_csv",
    "format_float",
    "load_config",
]


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one study; file keys and CLI flags map onto these fields."""

    example: str = "example1"
    s: float = 0.5
    l: float = 1.0
    t_final: float = 1.0
    n_values: Tuple[int, ...] = (800,)
    m_values: Tuple[int, ...] = (50, 100, 200, 400, 800)
    solver: Optional[str] = None
    tol: float = 1e-12
    deltas: Tuple[float, ...] = (0.01, 0.03, 0.05)
    seeds: Tuple[int, ...] = tuple(range(10))
    source: str = "discrete"
    scheme: str = "midpoint"
    smooth_window: int = 1
    out: str = "out"

    def __post_init__(self) -> None:
        if not self.n_values or not self.m_values:
            raise ValueError("n_values and m_values must be nonempty")
        if self.example not in EXAMPLE_IDS:
            raise ValueError(f"unknown example {self.example!r} (expected one of {EXAMPLE_IDS})")
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        if self.solver is not None and self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r} (expected one of {SOLVERS})")
        if not 0.0 < self.tol < math.inf:  # NaN fails this test
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r} (expected one of {SOURCES})")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and >= 1")
        for delta in self.deltas:
            for seed in self.seeds:
                NoiseSpec(delta=delta, seed=seed)  # raises on a bad delta or seed


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double, reproducibly."""
    return f"{x:.17g}"


# A float array's values are formatted with a NumPy kernel whose bytes equal
# format_float's.  A value x gets its exponent k = floor(log10|x|) and the
# 17-digit integer D nearest |x|·10^(16-k), read off a double-double product
# with 10^(16-k) held as an exact pair hi + lo (Dekker's split).  That product
# errs by less than 1e-14 of D's last unit, far inside _MIDPOINT_MARGIN, so D
# rounds as CPython's exact dtoa does.  A value that near a rounding midpoint,
# outside (_TABLE_MIN, _TABLE_MAX), zero or not finite goes through
# format_float instead.  The sign, the "0.000" prefix, D's digits, the point,
# the exponent and the separator fill slots of 4-byte words, unused bytes NUL,
# and bytes.translate deletes the NULs from each file's part of a chunk.
_VALUES_PER_CHUNK = 4096  # values per pass, across row and file ends: ~1 MB of temporaries
_POW_MIN, _POW_MAX = -270, 300  # the table holds 10^p for p in this range
_K_MIN = 16 - _POW_MAX  # the least exponent k the tables hold
_TABLE_MIN, _TABLE_MAX = 1e-280, 1e280  # |x| whose 16 - k, k off by one, the table holds
_MIDPOINT_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
# a value's slots at their widest, in words: the sign, a "0.000" prefix and the
# integer digits; the point and the fraction digits; the exponent and the
# separator.  Digit j of D sits at byte 3 + j of the integer and of the
# fraction words.  A chunk's integer slot keeps only the words its widest
# prefix or integer part reaches, and its exponent slot only the separator's
# word when every value is fixed-form; a chunk with a format_float fallback
# keeps the integer slot whole.
_INT, _FRAC, _EXP, _FIELD = 0, 5, 10, 12


def _words(texts: Sequence[str], width: int) -> np.ndarray:
    """ASCII texts as rows of ``width`` 4-byte words, NUL-padded."""
    return (np.array([t.encode() for t in texts], dtype=f"S{4 * width}")
            .view(np.uint32).reshape(len(texts), width))


class _FormatTables(NamedTuple):
    pows: np.ndarray  # hi, lo, hi's Dekker halves: 10^p = hi + lo to 2^-106, row p - _POW_MIN
    quads: np.ndarray  # the four digits of 0..9999, one word each
    lead: np.ndarray  # "\0\0.d" for the leading digit d: the point the fraction mask keeps
    ends: np.ndarray  # 1 - trailing zeros of 1..9999, -16 for 0: plus 4c, where group c's
    #                   significant digits end
    keep_int: np.ndarray  # masks of the first i digits, i = 0..17
    keep_frac: np.ndarray  # masks of digits i..n-1 and the point if 0 < i < n, row 18i + n
    prefix: np.ndarray  # or-ed over the integer digits, row 2z + sign: z zeros before D
    exponent: np.ndarray  # "e±XX" unless -4 <= k < 17, then "," or the newline; row
    #                       2(k - _K_MIN) + 1 ends in the newline


@functools.cache
def _format_tables() -> _FormatTables:
    """The kernel's tables, built on first use, off the import path."""
    pows = range(_POW_MIN, _POW_MAX + 1)
    pow_hi, pow_lo = np.empty(len(pows)), np.empty(len(pows))
    for j, p in enumerate(pows):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        pow_hi[j] = num / den  # correctly rounded, as is the remainder below
        a, b = pow_hi[j].as_integer_ratio()
        pow_lo[j] = (num * b - a * den) / (den * b)
    q = np.arange(10000)
    # a column at a time: no (10000, 4) int64 temporaries, and only loops the kernel runs
    quads = np.empty((q.size, 4), np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        quads[:, j] = 48 + q // p % 10
    trailing = sum((q % 10**j == 0).astype(int) for j in (1, 2, 3, 4))
    digit = np.arange(-3, 17)  # of each byte of five digit words
    i, n = np.ogrid[:18, :18]
    keep_frac = ((digit >= i[..., None]) & (digit < n[..., None])
                 | (digit == -1) & (0 < i[..., None]) & (i[..., None] < n[..., None]))
    return _FormatTables(
        np.column_stack((pow_hi, pow_lo, *_split(pow_hi))), quads.view(np.uint32)[:, 0],
        _words([f"\0\0.{d}" for d in range(10)], 1)[:, 0],
        np.where(q == 0, -16, 1 - trailing),
        (255 * ((0 <= digit) & (digit < i))).astype(np.uint8).view(np.uint32),
        (255 * keep_frac).astype(np.uint8).reshape(18 * 18, 20).view(np.uint32),
        _words(["", "\0\0-"] + [sign + "0." + "0" * z for z in range(4) for sign in ("", "-")],
               _FRAC - _INT),
        _words([("" if -4 <= k < 17 else f"e{k:+03d}") + sep
                for k in range(_K_MIN, 17 - _POW_MIN) for sep in ",\n"], _FIELD - _EXP),
    )


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(ax: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of ax·10^(16-k), from an error-free product."""
    hi, lo, bh, bl = np.take(_format_tables().pows, 16 - _POW_MIN - k, axis=0).T
    p = ax * hi
    ah, al = _split(ax)
    rest = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + ax * lo
    carry = np.floor(rest)
    # p is whole from 2^53 up; below, the integer part is under 10^16 either way
    return p.astype(np.int64) + carry.astype(np.int64), rest - carry


def _digit_groups(d: np.ndarray) -> np.ndarray:
    """The five 4-digit groups of each 17-digit D, (5, len(d)), the first its leading digit.

    One split gives D // 10^8 < 10^9 and D % 10^8, and each half is cut into
    its groups by floor division and subtraction, which take NumPy less
    time than the remainder.
    """
    high = d // 10**8
    groups = np.empty((5, d.size), np.intp)
    groups[2], groups[4] = high, d - high * 10**8  # the halves, each cut into groups below
    del high
    groups[0] = groups[2] // 10**8
    groups[2] -= groups[0] * 10**8
    groups[1::2] = groups[2::2] // 10**4
    groups[2::2] -= groups[1::2] * 10**4
    return groups


def _format_values(x: np.ndarray, newline: Union[bool, np.ndarray], labels: int = 0,
                   buffer: Optional[np.ndarray] = None) -> np.ndarray:
    """format_float of each x and a separator, NUL-padded into rows of 4-byte words.

    The separator is the newline where ``newline`` is true, the comma elsewhere.
    Each row starts with ``labels`` words left for the caller to fill, and the
    rows are a view of the flat ``buffer`` when one is given; the value slots
    are as narrow as the values allow, at most _FIELD words.
    """
    tables = _format_tables()
    ax = np.abs(x)
    table = (ax > _TABLE_MIN) & (ax < _TABLE_MAX)
    ax[~table] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, frac = _scaled(ax, k)
    # log10 may miss k by one: step it and scale again
    off = (d >= 10**17).astype(np.int64) - (d < 10**16)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        d[redo], frac[redo] = _scaled(ax[redo], k[redo])
    fallback = np.flatnonzero(~table | (np.abs(frac - 0.5) < _MIDPOINT_MARGIN)
                              | (d < 10**16) | (d >= 10**17))
    d += frac > 0.5
    del ax, table, frac, off
    carry = d == 10**17  # 99...9.5 rounds up to the next power of ten
    d[carry] = 10**16
    k += carry
    d[fallback], k[fallback] = 10**16, 0
    groups = _digit_groups(d)
    del d, carry
    digits = tables.quads[groups.T]
    digits[:, 0] = np.take(tables.lead, groups[0])
    # D's significant digits: 17 unless its last digit is 0
    nd = np.full(x.size, 17)
    short = np.flatnonzero(np.take(tables.ends, groups[4]) < 1)
    nd[short] = (np.take(tables.ends, groups[:, short])
                 + np.arange(0, 20, 4)[:, None]).max(axis=0)
    del groups, short
    fixed = (k >= -4) & (k < 17)
    ni = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point
    zeros = np.where(fixed & (k < 0), -k, 0)  # before D, the one before the point included
    ni[fallback] = nd[fallback] = zeros[fallback] = 0
    prefix = 2 * zeros + np.signbit(x)
    # the integer slot ends with D's integer digits, at byte 3 + ni, or with the
    # prefix, whose sign, zeros and point take 1 + z + sign bytes
    n_int = (_FRAC - _INT if fallback.size
             else -(-max(3 + int(ni.max()), 1 + int((prefix - zeros).max())) // 4))
    n_exp = 1 if fixed.all() else _FIELD - _EXP
    del fixed, zeros
    width = labels + n_int + (_EXP - _FRAC) + n_exp
    out = (np.empty(x.size * width, np.uint32) if buffer is None
           else buffer[: x.size * width]).reshape(x.size, width)
    ints = out[:, labels : labels + n_int]
    np.bitwise_and(digits[:, :n_int], np.take(tables.keep_int[:, :n_int], ni, axis=0), out=ints)
    ints |= np.take(tables.prefix[:, :n_int], prefix, axis=0)
    del prefix
    np.bitwise_and(digits, np.take(tables.keep_frac, 18 * ni + np.maximum(nd, ni), axis=0),
                   out=out[:, labels + n_int : width - n_exp])
    del digits, ni, nd
    out[:, width - n_exp :] = np.take(tables.exponent[:, :n_exp],
                                      2 * (k - _K_MIN) + newline, axis=0)
    if fallback.size:
        out[fallback, labels : labels + _EXP - _INT] = _words(
            [format_float(v) for v in x[fallback].tolist()], _EXP - _INT)
    return out


def _label_words(labels: Sequence[float]) -> np.ndarray:
    """format_float of each label and a comma, NUL-padded to a whole number of 4-byte words."""
    texts = [(format_float(v) + ",").encode() for v in np.asarray(labels, dtype=float).tolist()]
    return np.array(texts, dtype=f"S{-(-max(map(len, texts), default=0) // 4) * 4}")


def _fill_labels(rows: np.ndarray, words: np.ndarray, repeat: int, start: int) -> None:
    """Set each ``rows[i]`` to ``words[((start + i) // repeat) % len(words)]``.

    Whole runs of one label, up to the end of ``words``, take one broadcast
    copy; the rows past one period of ``repeat * len(words)`` repeat the first
    period, again in one copy, so a chunk takes a few copies whatever its size.
    """
    n, period = rows.size, repeat * words.size
    first, i = min(n, period), 0
    while i < first:
        label, into = divmod(start + i, repeat)
        j = label % words.size
        runs = 0 if into else min((first - i) // repeat, words.size - j)
        if runs:
            rows[i : i + runs * repeat].reshape(runs, repeat)[:] = words[j : j + runs, None]
            i += runs * repeat
        else:  # a run the chunk cuts
            step = min(first - i, repeat - into)
            rows[i : i + step] = words[j]
            i += step
    if n > period:
        whole = n // period * period
        rows[:whole].reshape(-1, period)[1:] = rows[:period]
        rows[whole:] = rows[: n - whole]


def _write_tables(
    paths: Sequence[Path],
    header: Sequence[str],
    tables: Sequence[np.ndarray],
    own: Union[slice, List[int]],
    labels: Sequence[Tuple[np.ndarray, int]],
) -> None:
    """Write each of a batch of same-shaped float tables to its path.

    A file's cells are its table's ``own`` columns, row-major; cell p ends
    its line if it ends its row, and for each ``(words, repeat)`` in
    ``labels`` the label words ``words[(p // repeat) % len(words)]`` come
    before it.  The cells of the whole batch go through the formatting kernel
    ``_VALUES_PER_CHUNK`` at a time, across row and file ends, into one row
    buffer that every chunk reuses, so no temporary grows with a table or
    with the batch; the label words are copied in by runs, and each file's
    part of a chunk takes one ``translate`` and one write.
    """
    head = (",".join(header) + "\n").encode()
    rows, width = tables[0].shape[0], tables[0][:0, own].shape[1]
    size = rows * width
    for parent in {path.parent for path in paths}:
        parent.mkdir(parents=True, exist_ok=True)
    if not size:
        for path in paths:
            path.write_bytes(head + b"\n" * rows)  # a row without cells is an empty line
        return
    total, fh = size * len(tables), None
    label_width = sum(words.itemsize // 4 for words, _ in labels)
    buffer = np.empty(min(total, _VALUES_PER_CHUNK) * (label_width + _FIELD), np.uint32)
    try:
        for start in range(0, total, _VALUES_PER_CHUNK):
            stop = min(start + _VALUES_PER_CHUNK, total)
            # each file the chunk reaches, with its cells a:b there
            parts = [(f, max(start - f * size, 0), min(stop - f * size, size))
                     for f in range(start // size, (stop - 1) // size + 1)]
            # cells a:b lie in rows a // width to b / width rounded up
            cells = [tables[f][a // width : -(-b // width), own].ravel()[a % width :][: b - a]
                     for f, a, b in parts]
            # files hold whole rows, so a cell's batch index tells where it falls in its row
            newline = True if width == 1 else np.arange(start, stop) % width == width - 1
            lines = _format_values(cells[0] if len(parts) == 1 else np.concatenate(cells),
                                   newline, label_width, buffer)
            end = 0
            for f, a, b in parts:
                part, column = lines[end : end + b - a], 0
                for words, repeat in labels:
                    span = words.itemsize // 4
                    _fill_labels(part[:, column : column + span].view(words.dtype)[:, 0],
                                 words, repeat, a)
                    column += span
                text = part.tobytes().translate(None, b"\0")
                end += b - a
                if not a:
                    if fh is not None:
                        fh.close()
                    fh, text = open(paths[f], "wb"), head + text
                fh.write(text)
                del text  # before the next part's bytes are made
    finally:
        if fh is not None:
            fh.close()


def write_csv(
    path: Path,
    header: Sequence[str],
    rows: Union[Iterable[Sequence], np.ndarray],
    index: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
) -> Path:
    """Write a CSV with LF endings and full-precision floats; overwrite quietly.

    ``rows`` is an iterable of rows, whose floats go through
    :func:`format_float` and other cells through ``str``, or a 2-D array,
    whose values are written as floats with the same bytes.  Given
    ``index = (times, nodes)``, ``rows`` is a 2-D array of values instead,
    and ``rows[k, i]`` is written as the row ``times[k], nodes[i], rows[k, i]``,
    again with the same bytes; each label is formatted once.  An array goes
    through :func:`_write_tables`, whose label columns carry the index.
    """
    path = Path(path)
    if index is None and not isinstance(rows, np.ndarray):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for row in rows:
                fh.write((",".join(format_float(v) if isinstance(v, float) else str(v)
                                   for v in row) + "\n").encode())
        return path
    rows = np.asarray(rows, dtype=float)
    labels: list = []
    if index is not None:
        lengths = tuple(len(column) for column in index)
        if lengths != rows.shape:
            raise ValueError(f"labels of lengths {lengths} do not index values of shape "
                             f"{rows.shape}")
        labels = [(_label_words(index[0]), lengths[1]), (_label_words(index[1]), 1)]
        rows = rows.reshape(-1, 1)  # one value a line
    elif rows.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {rows.shape}")
    _write_tables([path], header, [rows], slice(None), labels)
    return path


def rate_fit(errors: Sequence[float], steps: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(step)."""
    errors = np.asarray(errors, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if errors.size < 2 or errors.size != steps.size:
        raise ValueError("need at least two matching (error, step) pairs")
    if np.any(errors <= 0.0) or np.any(steps <= 0.0):
        raise ValueError("errors and steps must be positive")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


R_COLUMNS = ("t_mid", "r_recovered", "r_exact", "abs_error")
U_COLUMNS = ("x", "u_num", "u_exact", "abs_error")


def exact_comparison(coords: np.ndarray, exact: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows (coord, value, exact, abs_error) of computed values beside the exact ones.

    A vector of values gives one (len, 4) table; a (len, K) block gives the
    K tables of its columns, stacked (K, len, 4), all against the one exact
    vector.
    """
    block = values.reshape(values.shape[0], -1).T
    tables = np.stack(np.broadcast_arrays(coords, block, exact, np.abs(block - exact)), axis=-1)
    return tables[0] if values.ndim == 1 else tables


def _exact_tables(
    grid: Grid, problem: ManufacturedProblem, recovered: np.ndarray, final: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The r tables at the half-step times and the U^M tables at the interior nodes.

    ``recovered`` and ``final`` are single series or blocks of them, compared
    with one evaluation of the exact r and u(T).
    """
    x = grid.interior_x()
    return (exact_comparison(grid.midpoint_times(), problem.r_at_midpoints(grid), recovered),
            exact_comparison(x, problem.u_exact(grid.T, x), final))


def _error_norms(table: np.ndarray, step: float) -> Tuple[float, float]:
    """Max and discrete L2 norm (weight ``step``) of a table's abs_error column."""
    err = table[:, 3]
    return float(np.max(err)), float(np.sqrt(step * np.sum(err * err)))


@dataclass(frozen=True)
class InverseRunResult:
    """One inverse run against a benchmark, with its r and U^M beside the exact data."""

    trajectory: Trajectory
    recovered: CoefficientSeries
    r_table: np.ndarray  # rows (t_mid, r_recovered, r_exact, abs_error)
    u_table: np.ndarray  # rows (x, u_num, u_exact, abs_error) at time T
    linf_u: float
    l2_u: float
    linf_r: float
    l2_r: float
    measurement_provenance: str

    def csv_files(self) -> List[Tuple[str, Sequence[str], np.ndarray]]:
        return [("r_series.csv", R_COLUMNS, self.r_table), ("u_final.csv", U_COLUMNS, self.u_table)]


def run_inverse_case(
    example: str,
    grid: Grid,
    source: str = "discrete",
    solver: Optional[str] = None,
    tol: float = 1e-12,
    noise: Optional[NoiseSpec] = None,
    smooth_window: int = 1,
    scheme: str = "midpoint",
    op: Optional[RieszOperator] = None,
) -> InverseRunResult:
    """Invert one benchmark on one grid from its analytic measurements.

    Optional seeded noise is applied first, then a moving average over
    ``smooth_window`` points (1 = off); both are recorded in the result's
    measurement provenance.  ``scheme`` selects the stiffness matrix (see
    :func:`fracheat.riesz.assemble`); ``op``, when given, is that matrix
    already assembled on a grid of the same N, s and l, with any
    decomposition it holds.  One of another size raises ``ValueError``; one
    assembled for another s or l at the same N is not caught, since
    ``RieszOperator`` keeps neither.
    """
    if op is None:
        op = assemble(grid, scheme)
    spec, data = build_manufactured(example, grid, source=source, op=op)
    measurements = data.measurements
    noisy = noise is not None and noise.delta > 0.0
    if noisy:
        measurements = perturb_measurements(measurements, noise)
    if smooth_window > 1:
        measurements = smooth_measurements(measurements, smooth_window)
    ops = make_step_operators(grid, op=op, solver=solver, tol=tol)
    # noisy data is incompatible with phi at t=0 by construction
    trajectory, recovered = run_inverse(
        data, grid, measurements=measurements, ops=ops,
        compatibility_tol=math.inf if noisy else 1e-2,
    )
    r_table, u_table = _exact_tables(grid, spec, recovered.values, trajectory.final)
    linf_u, l2_u = _error_norms(u_table, grid.h)
    linf_r, l2_r = _error_norms(r_table, grid.tau)
    return InverseRunResult(
        trajectory=trajectory,
        recovered=recovered,
        r_table=r_table,
        u_table=u_table,
        linf_u=linf_u,
        l2_u=l2_u,
        linf_r=linf_r,
        l2_r=l2_r,
        measurement_provenance=measurements.provenance,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    tau: float
    linf_u: float
    l2_u: float
    linf_r: float
    order_u: Optional[float]  # between this row and the previous one
    order_r: Optional[float]


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of a refinement study plus least-squares fitted orders."""

    rows: Tuple[ConvergenceRow, ...]
    varied: str  # "tau" or "h"

    def steps(self) -> np.ndarray:
        return np.array([r.tau if self.varied == "tau" else r.h for r in self.rows])

    def fitted_order_u(self) -> float:
        return rate_fit([r.linf_u for r in self.rows], self.steps())

    def fitted_order_r(self) -> float:
        return rate_fit([r.linf_r for r in self.rows], self.steps())

    def csv_files(self) -> List[Tuple[str, Sequence[str], list]]:
        rows = [
            (r.h, r.tau, r.linf_u, r.l2_u, r.linf_r,
             "" if r.order_u is None else r.order_u, "" if r.order_r is None else r.order_r)
            for r in self.rows
        ]
        return [("table.csv", ("h", "tau", "linf_u", "l2_u", "linf_r", "order_u", "order_r"),
                 rows)]


def _order(prev_err: float, err: float, prev_step: float, step: float) -> float:
    return math.log(prev_err / err) / math.log(prev_step / step)


def _refinement_study(
    config: StudyConfig, sizes: Iterable[Tuple[int, int]], varied: str
) -> ConvergenceTable:
    """One inverse case per (N, M) grid size; orders are taken against ``varied``.

    Grids of one N share one operator, so time refinement assembles, and on
    the modal route decomposes, once per N rather than once per M.
    """
    rows: List[ConvergenceRow] = []
    prev = prev_step = op = None
    for n, m in sizes:
        grid = make_grid(config.l, config.t_final, n, m, config.s)
        if op is None or op.size != grid.interior_dim:
            op = assemble(grid, config.scheme)
        case = run_inverse_case(
            config.example, grid, config.source, config.solver, config.tol,
            scheme=config.scheme, op=op,
        )
        step = grid.tau if varied == "tau" else grid.h
        order_u = order_r = None
        if prev is not None:
            order_u = _order(prev.linf_u, case.linf_u, prev_step, step)
            order_r = _order(prev.linf_r, case.linf_r, prev_step, step)
        rows.append(
            ConvergenceRow(
                h=grid.h,
                tau=grid.tau,
                linf_u=case.linf_u,
                l2_u=case.l2_u,
                linf_r=case.linf_r,
                order_u=order_u,
                order_r=order_r,
            )
        )
        prev, prev_step = case, step
    return ConvergenceTable(rows=tuple(rows), varied=varied)


def convergence_study_time(config: StudyConfig) -> ConvergenceTable:
    """Refine tau at fixed N: errors should fall at the stepper's second order."""
    n = config.n_values[0]
    return _refinement_study(config, [(n, m) for m in config.m_values], varied="tau")


def convergence_study_space(config: StudyConfig) -> ConvergenceTable:
    """Refine h with tau = h: spatial consistency enters through the source mode."""
    sizes = [(n, max(round(n * config.t_final / config.l), 1)) for n in config.n_values]
    return _refinement_study(config, sizes, varied="h")


def _noise_tag(delta: float, seed: int) -> str:
    """The part of a noise case's file names that tells the case apart."""
    return f"delta{delta:g}_seed{seed}"


@dataclass(frozen=True)
class NoiseCase:
    """One (delta, seed) recovery, raw and (optionally) smoothed.

    ``r_table`` and ``u_table`` hold the raw series' r^{n+1/2} and U^M beside
    the exact values; they are NaN when the case did not complete.
    """

    delta: float
    seed: int
    completed: bool
    linf_r: float
    l2_r: float
    linf_r_smoothed: Optional[float]
    r_table: np.ndarray
    u_table: np.ndarray
    failure: str = ""

    @property
    def recovered(self) -> np.ndarray:
        return self.r_table[:, 1]

    @property
    def final(self) -> np.ndarray:
        return self.u_table[:, 1]


@dataclass(frozen=True)
class NoiseStudyResult:
    cases: Tuple[NoiseCase, ...]
    # every case's tables hold one evaluation of the coordinates and exact values
    shared_columns = ("t_mid", "r_exact", "x", "u_exact")

    def mean_linf_r(self) -> dict:
        """Mean raw coefficient error per noise level, over completed seeds."""
        out: dict = {}
        for delta in sorted({c.delta for c in self.cases}):
            errs = [c.linf_r for c in self.cases if c.delta == delta and c.completed]
            out[delta] = float(np.mean(errs)) if errs else float("nan")
        return out

    @property
    def all_completed(self) -> bool:
        return all(c.completed for c in self.cases)

    def csv_files(self) -> List[Tuple[str, Sequence[str], Union[list, np.ndarray]]]:
        files: list = []
        for c in self.cases:
            tag = _noise_tag(c.delta, c.seed)
            files += [(f"r_recovered_{tag}.csv", R_COLUMNS, c.r_table),
                      (f"u_final_{tag}.csv", U_COLUMNS, c.u_table)]
        summary = [
            (c.delta, c.seed, int(c.completed), c.linf_r, c.l2_r,
             float("nan") if c.linf_r_smoothed is None else c.linf_r_smoothed)
            for c in self.cases
        ]
        header = ("delta", "seed", "completed", "linf_r", "l2_r", "linf_r_smoothed")
        return files + [("noise_summary.csv", header, summary)]


def noise_study(config: StudyConfig) -> NoiseStudyResult:
    """Recover the coefficient from noisy measurements over a seed ensemble.

    Every (delta, seed) series, and its smoothed copy when the configured
    smoothing window exceeds 1, is recovered by one ``run_inverse_batch`` over
    one grid, operator and factorization (or eigendecomposition): the blocked
    Volterra solve on the modal route and one batched march on the others.  The
    recovery denominator does not depend on the data, so a denominator failure
    fails every case.  Two cases that would write the same files, such as equal
    seeds or deltas equal to ``:g``'s six digits, are rejected before any
    work.
    """
    keys = [(delta, seed) for delta in config.deltas for seed in config.seeds]
    if not keys:
        raise ValueError("the noise study needs at least one delta and one seed")
    tags = [_noise_tag(delta, seed) for delta, seed in keys]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ValueError(f"two noise cases share the output file tag {tag!r}")

    grid = make_grid(config.l, config.t_final, config.n_values[0], config.m_values[0], config.s)
    op = assemble(grid, config.scheme)
    spec, data = build_manufactured(config.example, grid, source=config.source, op=op)
    smooth = config.smooth_window > 1
    series = []
    for delta, seed in keys:
        noise = NoiseSpec(delta=delta, seed=seed)
        raw = perturb_measurements(data.measurements, noise) if delta > 0.0 else data.measurements
        series.append(raw.values)
        if smooth:
            series.append(smooth_measurements(raw, config.smooth_window).values)

    ops = make_step_operators(grid, op=op, solver=config.solver, tol=config.tol,
                              series=len(series))
    # noisy data is incompatible with phi at t=0 by construction
    noisy = any(delta > 0.0 for delta in config.deltas)
    failure = ""
    try:
        recovered, final = run_inverse_batch(
            data, grid, np.column_stack(series), ops,
            compatibility_tol=math.inf if noisy else 1e-2,
        )
    except DenominatorNearZero as exc:
        failure = str(exc)
        recovered = np.full((grid.M, len(series)), np.nan)
        final = np.full((grid.interior_dim, len(series)), np.nan)

    stride = 2 if smooth else 1
    r_tables, u_tables = _exact_tables(grid, spec, recovered[:, ::stride], final[:, ::stride])
    # the smoothed copies need only their largest r error, not a table each
    smoothed = (np.abs(recovered[:, 1::2].T - r_tables[0, :, 2]).max(axis=1).tolist() if smooth
                else [None] * len(keys))
    cases: List[NoiseCase] = []
    for k, (delta, seed) in enumerate(keys):
        linf_r, l2_r = _error_norms(r_tables[k], grid.tau)
        cases.append(NoiseCase(
            delta=delta, seed=seed, completed=not failure, linf_r=linf_r, l2_r=l2_r,
            linf_r_smoothed=smoothed[k],
            r_table=r_tables[k], u_table=u_tables[k], failure=failure,
        ))
    return NoiseStudyResult(cases=tuple(cases))


def emit_outputs(result, outdir) -> List[Path]:
    """Write the CSV files a study result lists in ``csv_files``; returns their paths.

    A result may name the columns it fills from one evaluation for every file
    of a header, in ``shared_columns``.  The array files of such a header are
    written as one batch: the shared columns become label words, formatted
    once from the first file, and the files' own columns are formatted
    together (see :func:`_write_tables`).  Every other file goes through
    :func:`write_csv` alone, with the same bytes.
    """
    if not hasattr(result, "csv_files"):
        raise TypeError(f"no CSV writer for result of type {type(result).__name__}")
    files = result.csv_files()
    paths = [Path(outdir) / name for name, _, _ in files]
    shared = set(getattr(result, "shared_columns", ()))
    batches: dict = {}
    for path, (_, header, rows) in zip(paths, files):
        if isinstance(rows, np.ndarray) and shared & set(header):
            batches.setdefault(tuple(header), []).append((path, rows))
        else:
            write_csv(path, header, rows)
    for header, batch in batches.items():
        first = batch[0][1]
        columns = [j for j, name in enumerate(header) if name in shared]
        own = [j + 1 for j in columns]  # the cells after each shared column's label words
        if (own != [j for j in range(first.shape[1]) if j not in columns]
                or any(rows.shape != first.shape for _, rows in batch)):
            raise ValueError(f"the {', '.join(header)} files must share a shape, and each "
                             f"shared column must lead one of a file's own")
        _write_tables([path for path, _ in batch], header, [rows for _, rows in batch], own,
                      [(_label_words(first[:, columns].ravel()), 1)])
    return paths


def _parse_value(default, value: str):
    """Convert one config value to the type of its field's default: a tuple default
    reads a comma list of its first item's type, a None default a string; a malformed
    number raises ValueError."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p) for p in value.split(",") if p.strip())
    return value if default is None else type(default)(value)


def load_config(path) -> StudyConfig:
    """Parse a flat ``key = value`` UTF-8 config file; unknown or repeated keys are rejected."""
    path = Path(path)
    defaults = {f.name: f.default for f in fields(StudyConfig)}
    values: dict = {}
    key_lines: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {key_lines[key]}")
        key_lines[key] = lineno
        try:
            values[key] = _parse_value(defaults[key], value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return StudyConfig(**values)
