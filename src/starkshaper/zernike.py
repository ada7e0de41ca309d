"""Projection of disk patterns onto the Zernike basis, reconstruction,
truncation-error maps and expansion.json.  A ZernikeExpansion keeps its
coefficients as one cos and one sin array per azimuthal order m, the form
its radial profiles, its reconstruction and the planner (one mirror
surface per order) all read; the projection fills those arrays directly.

Quadrature design: Gauss-Legendre in rho on [0, 1] with the rho measure
folded into the weights (exact for polynomial radial content up to degree
2*nodes - 2, i.e. far past the basis used here, and spectrally convergent
for the analytic patterns), times a uniform trapezoid rule in phi
(spectrally accurate for periodic integrands, exact for trig content far
below the aliasing order).  decompose sizes the rule itself: both node
counts double from BASE_RULE until two successive rules agree, up to
MAX_RULE.  A u = rho^2 substitution was tried first and rejected:
integrands with odd radial Taylor content acquire a sqrt(u) endpoint
singularity that stalls convergence near 1e-6.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, QuadratureError
from .patterns import TargetPattern
from .specfun import (
    ZernikeIndex, is_count, is_real, is_whole, zernike_radial_dot, zernike_radial_stack,
    zernike_radial_sum,
)

COEFFICIENT_EXPORT_FLOOR = 1e-12

# (radial, azimuthal) node counts: decompose projects on BASE_RULE first and
# refuses a pattern whose projection still moves on reaching MAX_RULE
# (3.1M nodes, 25 MB per array)
BASE_RULE = (96, 512)
MAX_RULE = (768, 4096)


@lru_cache(maxsize=16)
def _disk_nodes(radial: int, azimuthal: int):
    """(rho, w_rho, phi, w_phi): sum_i w_rho[i] = 1/2, w_phi = 2 pi / n."""
    x, w = np.polynomial.legendre.leggauss(radial)
    rho = 0.5 * (x + 1.0)
    w_rho = 0.5 * w * rho  # the rho from the disk measure rho drho
    phi = 2.0 * np.pi * np.arange(azimuthal) / azimuthal
    w_phi = 2.0 * np.pi / azimuthal
    return rho, w_rho, phi, w_phi


def disk_inner_product(f, g) -> float:
    """<f, g> = integral over the unit disk of f*g with measure rho drho dphi,
    on the BASE_RULE nodes."""
    rho, w_rho, phi, w_phi = _disk_nodes(*BASE_RULE)
    fg = np.asarray(f(rho[:, None], phi[None, :])) * np.asarray(g(rho[:, None], phi[None, :]))
    return float(w_phi * (w_rho @ fg.sum(axis=1)))


@dataclass(frozen=True, eq=False)
class ZernikeExpansion:
    """Finite Zernike sum F-tilde = A * sum alpha_n^m Z_n^m, held by
    azimuthal order: cos[m][k] = alpha_{m+2k}^m and sin[m][k] =
    alpha_{m+2k}^{-m} for 0 <= m <= m_max and k = 0..(n_max - m) // 2;
    sin[0] is empty."""

    amplitude: float
    n_max: int
    m_max: int
    cos: tuple[np.ndarray, ...]
    sin: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cos = tuple(np.asarray(c, dtype=float) for c in self.cos)
        sin = tuple(np.asarray(s, dtype=float) for s in self.sin)
        box = [((self.n_max - m) // 2 + 1,) for m in range(self.m_max + 1)]
        shapes = ([c.shape for c in cos], [s.shape for s in sin])
        if not 0 <= self.m_max <= self.n_max or shapes != (box, [(0,), *box[1:]]):
            raise ValueError(f"coefficient arrays do not fit the (n_max={self.n_max}, m_max={self.m_max}) box")
        if not np.isfinite(self.amplitude) or not all(np.isfinite(c).all() for c in cos + sin):
            raise ValueError("expansion amplitude and coefficients must be finite")
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    def coefficient(self, n: int, m: int) -> float:
        idx = ZernikeIndex(n, m)  # validates
        if n > self.n_max or abs(m) > self.m_max:
            return 0.0
        return float((self.cos if m >= 0 else self.sin)[abs(m)][idx.k])

    def items(self):
        """(ZernikeIndex, alpha) pairs in (|m|, m < 0, n) order."""
        for m in range(self.m_max + 1):
            for sign, table in ((1, self.cos), (-1, self.sin)):
                for k, alpha in enumerate(table[m].tolist()):
                    yield ZernikeIndex(m + 2 * k, sign * m), alpha

    def even(self, m: int, rho) -> np.ndarray:
        """P^m at rho (coefficient of cos(m phi) in F-tilde / A)."""
        return zernike_radial_sum(m, self.cos[m], rho)

    def odd(self, m: int, rho) -> np.ndarray:
        """Q^m at rho (coefficient of sin(m phi)); identically 0 for m = 0."""
        return zernike_radial_sum(m, self.sin[m], rho)

    def active_orders(self, floor: float = 0.0) -> list[int]:
        """Azimuthal orders with any coefficient above `floor`."""
        return [
            m for m in range(self.m_max + 1)
            if any(t[m].size and np.max(np.abs(t[m])) > floor for t in (self.cos, self.sin))
        ]

    def reconstruct(self, rho, phi) -> np.ndarray | float:
        """A * sum over m of P^m cos(m phi) + Q^m sin(m phi); the radial sums
        are evaluated on rho's own shape and broadcast against phi only in
        the products.  One radial sweep covers every order and both
        parities; each sum contracts its slice as `even` and `odd` do, so
        the result keeps their bits.  The radius sets it serves (the error
        map's 256 grid rows, the ions) keep that stack below 1 MB."""
        rho = np.asarray(rho, float)
        phi = np.asarray(phi, float)
        stack = zernike_radial_stack(range(self.m_max + 1), self.n_max // 2, rho)
        total = np.zeros(np.broadcast_shapes(rho.shape, phi.shape))
        for m in range(self.m_max + 1):
            if m == 0:
                total += zernike_radial_dot(self.cos[0], stack[0])
            else:
                total += (zernike_radial_dot(self.cos[m], stack[m]) * np.cos(m * phi)
                          + zernike_radial_dot(self.sin[m], stack[m]) * np.sin(m * phi))
        total *= self.amplitude
        if total.ndim == 0:
            return float(total)
        return total


def decompose(pattern: TargetPattern, n_max: int, m_max: int) -> ZernikeExpansion:
    """Project pattern / amplitude onto all valid Z_n^m with n <= n_max,
    |m| <= m_max:  alpha_n^m = (2n + 2) / (eps_m pi) * <F/A, Z_n^m>.

    The projection starts on BASE_RULE and is repeated with both node
    counts doubled until no coefficient moves by 1e-9 relative to the
    largest one; the coarser rule of that agreeing pair is returned.
    A QuadratureError names the last pair and its drift when MAX_RULE is
    reached first.
    """
    if not 0 <= m_max <= n_max:
        raise ValueError(f"need 0 <= m_max <= n_max, got n_max={n_max}, m_max={m_max}")
    if pattern.amplitude == 0:
        raise ValueError("pattern amplitude must be nonzero to decompose")

    rule = BASE_RULE
    coarse = _project(pattern, n_max, m_max, *rule)
    while True:
        finer = (2 * rule[0], 2 * rule[1])
        fine = _project(pattern, n_max, m_max, *finer)
        base = np.concatenate(coarse[0] + coarse[1])
        scale = max(float(np.max(np.abs(base))), 1e-30)
        drift = float(np.max(np.abs(np.concatenate(fine[0] + fine[1]) - base))) / scale
        if drift < 1e-9:
            return ZernikeExpansion(pattern.amplitude, n_max, m_max, *coarse)
        if finer == MAX_RULE:
            raise QuadratureError(
                f"decomposition not converged: the {rule[0]}x{rule[1]} and "
                f"{finer[0]}x{finer[1]} rules differ by {drift:.2e} (relative)"
            )
        rule, coarse = finer, fine


def _project(pattern: TargetPattern, n_max: int, m_max: int, radial: int, azimuthal: int):
    """The (cos, sin) coefficient arrays of ZernikeExpansion on the
    radial x azimuthal rule."""
    rho, w_rho, phi, w_phi = _disk_nodes(radial, azimuthal)
    values = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float) / pattern.amplitude

    orders = np.arange(m_max + 1)
    cos_moments = (values @ np.cos(np.outer(phi, orders))) * w_phi  # (nr, m_max+1)
    sin_moments = (values @ np.sin(np.outer(phi, orders))) * w_phi

    stacks = zernike_radial_stack(orders, n_max // 2, rho)  # (m_max+1, n_max//2+1, nr)
    cos, sin = [], [np.zeros(0)]
    for m in range(m_max + 1):
        k_max = (n_max - m) // 2
        stack = stacks[m, :k_max + 1]
        eps = 2.0 if m == 0 else 1.0
        n_vals = m + 2 * np.arange(k_max + 1)
        cos.append((2.0 * n_vals + 2.0) / (eps * np.pi) * (stack @ (w_rho * cos_moments[:, m])))
        if m > 0:
            sin.append((2.0 * n_vals + 2.0) / np.pi * (stack @ (w_rho * sin_moments[:, m])))
    return tuple(cos), tuple(sin)


@dataclass(frozen=True, eq=False)
class ErrorMap:
    """Truncation error |F - F_tilde| normalized by the pattern peak, on a
    polar grid, plus the same quantity at ion positions when a crystal was
    supplied.

    Peak normalization (max |F| over the disk, not the nominal amplitude)
    is what makes the serial infidelity law uniform across pattern
    families: the planner calibrates the peak ion to a pi rotation, so
    I = sin^2(pi * e / 2) holds with e measured in units of the peak.
    """

    rho: np.ndarray
    phi: np.ndarray
    error: np.ndarray  # (len(rho), len(phi))
    disk_max: float
    ion_error: np.ndarray | None = None
    ion_max: float | None = None

    def write_csv(self, path: str | Path) -> None:
        """rho,phi,error rows, every number exactly as `'%.17g' % x` writes it.

        The grid rows go through in blocks: each block's cells are laid out
        by `_G17` into NUL-padded fixed-width byte rows beside the rho and
        phi prefixes, which Python formats once per call, and the block is
        written with its NUL bytes dropped.  `_G17` explains why the digits
        are exact and which cells it leaves to `'%.17g' %`."""
        rho_txt = [b"%.17g," % r for r in self.rho.tolist()]
        phi_txt = [b"%.17g," % p for p in self.phi.tolist()]
        error = np.asarray(self.error, dtype=float)
        wr, wp = max(map(len, rho_txt), default=1), max(map(len, phi_txt), default=1)
        width = wr + wp + _G17_WIDTH + 1
        rows = max(1, _G17_BLOCK_CELLS // max(len(phi_txt), 1))
        g17 = _G17(rows * len(phi_txt), width)
        line = g17.lines.reshape(rows, len(phi_txt), width)
        line[:, :, wr:wr + wp] = np.array(phi_txt, f"S{wp}").view(np.uint8).reshape(len(phi_txt), wp)
        line[:, :, -1] = ord("\n")
        rho_field = np.array(rho_txt, f"S{wr}").view(np.uint8).reshape(len(rho_txt), wr)
        row_bytes = len(phi_txt) * width
        with Path(path).open("wb") as fh:
            fh.write(b"rho,phi,error\n")
            for start in range(0, len(rho_txt), rows):
                block = error[start:start + rows]
                line[:len(block), :, :wr] = rho_field[start:start + rows, None, :]
                g17(block.reshape(-1), g17.lines[:block.size, wr + wp:-1])
                for r in range(len(block)):
                    fh.write(g17.arena[r * row_bytes:(r + 1) * row_bytes].translate(None, b"\0"))


# ---------------------------------------------------------------------------
# '%.17g' for a block of doubles at a time

_G17_X_MIN, _G17_X_MAX = -38, 43  # the decimal exponents _G17 lays out itself
_G17_BAND = 1.5 * np.finfo(np.longdouble).eps * 1e17
_G17_WIDTH = 43  # slots: sign, "0.000", 17 digits each followed by a point slot, "e+XX"
_G17_BLOCK_CELLS = 4096


def _g17_tables():
    """The scale factors per exponent, the slot layout per (exponent, last
    nonzero digit), and per four-digit group its digits interleaved with
    0xFF point slots and its count of trailing zeros.  Built in small
    dtypes: import-time temporaries would stay resident."""
    tens = np.multiply.accumulate(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # exact
    p = 16 - np.arange(_G17_X_MIN - 1, _G17_X_MAX + 2)
    scale = np.stack([tens[np.clip(p, 0, 27)], tens[np.clip(p - 27, 0, 27)], tens[np.clip(-p, 0, 27)]])
    x = np.arange(_G17_X_MIN, _G17_X_MAX + 1)
    fixed = (-4 <= x) & (x < 17)
    last = np.arange(17)
    layout = np.zeros((x.size, 17, _G17_WIDTH), np.uint8)
    kept = np.where(fixed[:, None], np.maximum(last, x[:, None]), last)  # last digit written
    layout[:, :, 6:39:2] = np.where(last <= kept[:, :, None], 0xFF, 0)
    point = np.where(fixed, x, 0)  # the digit a point follows, where one is written
    i, j = np.nonzero(~(fixed & (x < 0))[:, None] & (last > point[:, None]))
    layout[i, j, 7 + 2 * point[i]] = ord(".")
    for e in range(-4, 0):
        layout[e - _G17_X_MIN, :, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
    exponents = b"".join(b"e%+03d" % e for e in x[~fixed])
    layout[~fixed, :, 39:] = np.frombuffer(exponents, np.uint8).reshape(-1, 1, 4)
    group = np.arange(10000, dtype=np.uint16)
    quads = np.full((10000, 8), 0xFF, np.uint8)
    zeros = np.zeros(10000, np.uint8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * k] = 48 + group // unit % 10
        zeros += group % (10 * unit) == 0
    return scale, layout.reshape(-1, _G17_WIDTH), quads.view(np.uint64).ravel(), zeros


_G17_SCALE, _G17_LAYOUT, _G17_QUADS, _G17_QUAD_ZEROS = _g17_tables()


class _G17:
    """Writes `'%.17g' % v` for up to `cells` doubles into rows of
    _G17_WIDTH NUL-padded ASCII slots, from buffers allocated once.

    For finite nonzero v with decimal exponent X, the 17 digits are
    N = round(y), y = |v| * 10**(16 - X).  y is formed in longdouble, where
    10**k is exact up to k = 27 (5**27 < 2**64): one factor for 16 - X <= 27,
    two up to 54, one division for X > 16.  So y carries at most two
    roundings, an error below eps * 1e17 on y < 1e17.  X comes from
    floor(log10 |v|), moved by one where trunc(y) leaves [1e16, 1e17); N is
    trunc(y) plus one where frac(y) > 1/2, and N = 1e17 becomes 1e16 with
    X + 1.  This is the correctly rounded N unless the exact fraction can
    lie on the other side of 1/2, so cells whose frac(y) lies within
    _G17_BAND = 1.5 eps 1e17 of 1/2 are formatted by `'%.17g' %` instead,
    as are zero, NaN, +-inf and X outside [-38, 43].  Where longdouble is a
    plain double the band exceeds 1/2 and every cell falls back.

    The digits go to fixed slots (each followed by a point slot); a
    table row per (X, last nonzero digit) supplies the "0.000" prefix, the
    point and the exponent by Python's `g` rules and masks the stripped
    trailing zeros to NUL."""

    def __init__(self, cells: int, width: int):
        # One anonymous map holds `cells` output rows of `width` bytes
        # (`lines`; the caller picks the slot columns) and every work
        # buffer.  It is unmapped when the last view of it goes; heap
        # buffers of this size stayed resident after each map and raised
        # the process's peak RSS by 1-2 MiB.
        fields = (("lines", np.uint8, (cells, width)), ("digits", np.uint64, (cells, 5)),
                  ("groups", np.intp, (4, cells)), ("y", np.longdouble, (cells,)),
                  ("mag", float, (cells,)), ("exp", np.intp, (cells,)), ("n", np.int64, (cells,)),
                  ("q", np.int64, (cells,)), ("ok", bool, (cells,)), ("flag", bool, (cells,)),
                  ("zeros", np.uint8, (cells,)), ("more", np.uint8, (cells,)))
        sizes = [-(-np.dtype(t).itemsize * int(np.prod(shape)) // 16) * 16 for _, t, shape in fields]
        self.arena = mmap.mmap(-1, max(sum(sizes), 1))
        offset = 0
        for (name, dtype, shape), size in zip(fields, sizes):
            view = np.frombuffer(self.arena, dtype, int(np.prod(shape)), offset).reshape(shape)
            setattr(self, name, view)
            offset += size
        # bytes 6, 7 of a cell's digits: leading digit and a point slot,
        # then four groups of four digits and point slots
        self.digits.fill(np.iinfo(np.uint64).max)

    @staticmethod
    def _scale(mag, exp, out) -> None:
        """out = mag * 10**(16 - exp) in longdouble, exp in [X_MIN - 1, X_MAX + 1]."""
        i = exp - (_G17_X_MIN - 1)
        np.multiply(mag, _G17_SCALE[0][i], out=out)
        out *= _G17_SCALE[1][i]
        out /= _G17_SCALE[2][i]

    def __call__(self, v: np.ndarray, slots: np.ndarray) -> None:
        size = v.size
        mag, ok, flag, exp, y, n, q, zeros, more = (
            b[:size] for b in (self.mag, self.ok, self.flag, self.exp, self.y,
                               self.n, self.q, self.zeros, self.more))
        groups, digits = self.groups[:, :size], self.digits[:size]
        np.abs(v, out=mag)
        log = q.view(float)  # q is free until the digit groups
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log10(mag, out=log)
        np.floor(log, out=log)
        np.less_equal(_G17_X_MIN, log, out=ok)  # false for 0, NaN and inf too
        np.greater_equal(_G17_X_MAX, log, out=flag)
        ok &= flag
        np.copyto(mag, 1.0, where=~ok)
        np.copyto(log, 0.0, where=~ok)
        np.copyto(exp, log, casting="unsafe")
        self._scale(mag, exp, y)
        np.copyto(n, y, casting="unsafe")  # trunc
        off = np.flatnonzero((n < 10**16) | (n >= 10**17))
        if off.size:
            exp[off] += np.where(n[off] < 10**16, -1, 1)
            y_off = np.empty(off.size, np.longdouble)
            self._scale(mag[off], exp[off], y_off)
            y[off] = y_off
            n[off] = y_off.astype(np.int64)
            ok[off] &= (n[off] >= 10**16) & (n[off] < 10**17)
        frac = y
        frac -= n
        np.greater(frac, 0.5, out=flag)
        n += flag
        frac -= 0.5
        np.abs(frac, out=frac)
        np.greater(frac, _G17_BAND, out=flag)
        ok &= flag
        np.equal(n, 10**17, out=flag)
        if flag.any():
            n[flag] = 10**16
            exp += flag
        np.less_equal(_G17_X_MIN, exp, out=flag)
        ok &= flag
        np.greater_equal(_G17_X_MAX, exp, out=flag)
        ok &= flag

        # four-digit groups, least significant first, then the leading digit
        np.floor_divide(n, 10**4, out=q)
        for g in groups:
            np.multiply(q, 10**4, out=g)
            np.subtract(n, g, out=g)
            n, q = q, n
            np.floor_divide(n, 10**4, out=q)
        ascii = digits.view(np.uint8)
        np.add(n, 48, out=ascii[:, 6], casting="unsafe")
        for k in range(4):
            np.take(_G17_QUADS, groups[3 - k], out=digits[:, 1 + k], mode="clip")
        np.take(_G17_QUAD_ZEROS, groups[0], out=zeros, mode="clip")
        for k in (1, 2, 3):
            np.equal(zeros, 4 * k, out=flag)
            if not flag.any():
                break
            np.take(_G17_QUAD_ZEROS, groups[k], out=more, mode="clip")
            more *= flag
            zeros += more

        # layout row (X, 16 - trailing zeros), digits masked into it
        np.clip(exp, _G17_X_MIN, _G17_X_MAX, out=exp)
        exp -= _G17_X_MIN
        exp *= 17
        exp += 16
        exp -= zeros
        np.take(_G17_LAYOUT, exp, axis=0, out=slots, mode="clip")
        slots[:, 6:39] &= ascii[:, 6:39]
        np.signbit(v, out=flag)
        np.copyto(slots[:, 0], ord("-"), where=flag)
        fallback = np.flatnonzero(~ok)
        if fallback.size:
            text = np.array(["%.17g" % x for x in v[fallback].tolist()], f"S{_G17_WIDTH}")
            slots[fallback] = text.view(np.uint8).reshape(-1, _G17_WIDTH)


def truncation_error_map(pattern: TargetPattern, exp: ZernikeExpansion, crystal=None) -> ErrorMap:
    """|F - F_tilde| / peak on a 256 x 512 polar grid, and at the ions of
    `crystal` when one is given."""
    rho = np.linspace(0.0, 1.0, 256)
    phi = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    scale = pattern.peak_value()
    target = np.asarray(pattern(rho[:, None], phi[None, :]), dtype=float)
    err = np.abs(target - exp.reconstruct(rho[:, None], phi[None, :])) / scale
    ion_error = ion_max = None
    if crystal is not None:
        ion_error = np.abs(
            np.asarray(pattern(crystal.rho, crystal.phi), dtype=float)
            - exp.reconstruct(crystal.rho, crystal.phi)
        ) / scale
        ion_max = float(np.max(ion_error))
    return ErrorMap(rho, phi, err, float(np.max(err)), ion_error, ion_max)


def expansion_to_json_dict(exp: ZernikeExpansion) -> dict:
    """The expansion with every |alpha| below COEFFICIENT_EXPORT_FLOOR dropped,
    coefficients in (|m|, m < 0, n) order."""
    return {
        "amplitude": exp.amplitude,
        "n_max": exp.n_max,
        "m_max": exp.m_max,
        "coefficients": [
            {"n": idx.n, "m": idx.m, "alpha": alpha}
            for idx, alpha in exp.items()
            if abs(alpha) >= COEFFICIENT_EXPORT_FLOOR
        ],
    }


def _number(record: dict, key: str, where: str = ""):
    """record[key], refused unless it is a finite number (amplitude, alpha),
    a whole number (m) or a whole number >= 0 (n, n_max, m_max): booleans,
    strings, NaN, inf and fractional indices are refused, not coerced."""
    value = record[key]
    check, must = {
        "amplitude": (is_real, "a finite number"),
        "alpha": (is_real, "a finite number"),
        "m": (is_whole, "a whole number"),
    }.get(key, (is_count, "a whole number >= 0"))
    if not check(value):
        raise ConfigError(f"expansion {where}{key} must be {must}, got {value!r}")
    return value


def expansion_from_json_dict(payload: dict) -> ZernikeExpansion:
    """Rebuild an expansion; coefficients the payload omits are 0.  Every
    index must be a valid (n, m) inside the (n_max, m_max) box."""
    try:
        n_max, m_max = int(_number(payload, "n_max")), int(_number(payload, "m_max"))
        cos = [np.zeros(max(0, (n_max - m) // 2 + 1)) for m in range(m_max + 1)]
        sin = [np.zeros(0)] + [np.zeros_like(c) for c in cos[1:]]
        for i, c in enumerate(payload["coefficients"]):
            where = f"coefficient {i}: "
            idx = ZernikeIndex(int(_number(c, "n", where)), int(_number(c, "m", where)))
            if idx.n > n_max or abs(idx.m) > m_max:
                raise ValueError(f"coefficient index {idx} outside (n_max, m_max) box")
            (cos if idx.m >= 0 else sin)[abs(idx.m)][idx.k] = _number(c, "alpha", where)
        amplitude = float(_number(payload, "amplitude"))
        return ZernikeExpansion(amplitude, n_max, m_max, tuple(cos), tuple(sin))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed expansion JSON: {exc!r}") from None


def save_expansion(exp: ZernikeExpansion, path: str | Path) -> None:
    Path(path).write_text(json.dumps(expansion_to_json_dict(exp), indent=2) + "\n")


def load_expansion(path: str | Path) -> ZernikeExpansion:
    path = Path(path)
    try:
        return expansion_from_json_dict(json.loads(path.read_text()))
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot load expansion {path}: {exc}") from None
