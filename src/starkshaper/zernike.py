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
import math
import mmap
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, QuadratureError
from .patterns import TargetPattern
from .specfun import (
    ZernikeIndex, is_count, is_real, is_whole, zernike_radial_dot, zernike_radial_stack,
)

COEFFICIENT_EXPORT_FLOOR = 1e-12

# (radial, azimuthal) node counts: decompose projects on BASE_RULE first and
# refuses a pattern whose projection still moves on reaching MAX_RULE
# (3.1M nodes, 25 MB per array)
BASE_RULE = (96, 512)
MAX_RULE = (768, 4096)

_MAP_ROWS = 32  # error-map grid rows per block: a block's three buffers stay in cache


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

    def active_orders(self, floor: float = 0.0) -> list[int]:
        """Azimuthal orders with any coefficient above `floor`."""
        return [
            m for m in range(self.m_max + 1)
            if any(t[m].size and np.max(np.abs(t[m])) > floor for t in (self.cos, self.sin))
        ]

    def radial_sums(self, rho) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(m, P^m, Q^m) for every order: the coefficients of cos(m phi)
        and sin(m phi) in F-tilde / A at rho, shaped like rho.  One radial
        sweep covers every order and both parities, each sum contracting
        its slice through `zernike_radial_dot` (so a sum over the same radii
        keeps its bits, whichever sweep it came from); Q^0 is 0.  The radius
        sets it serves (the ions, the error map's 256 grid rows) keep that
        sweep below 1 MB."""
        stack = zernike_radial_stack(range(self.m_max + 1), self.n_max // 2, rho)
        return [(m, zernike_radial_dot(self.cos[m], stack[m]), zernike_radial_dot(self.sin[m], stack[m]))
                for m in range(self.m_max + 1)]

    def reconstruct(self, rho, phi) -> np.ndarray | float:
        """A * sum over m of P^m cos(m phi) + Q^m sin(m phi); the radial sums
        are evaluated on rho's own shape and broadcast against phi only in
        the products."""
        rho = np.asarray(rho, float)
        phi = np.asarray(phi, float)
        total = np.zeros(np.broadcast_shapes(rho.shape, phi.shape))
        for m, even, odd in self.radial_sums(rho):
            if m == 0:
                total += even
            else:
                total += even * np.cos(m * phi) + odd * np.sin(m * phi)
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

        The grid rows go through in blocks: `_G17` lays out each block's
        cells into NUL-padded fixed-width byte rows beside the rho and phi
        prefixes, which Python formats once per call, and each grid row is
        written with its NUL bytes dropped.  A cell's 17 digits are the
        integer round-half-even(|x| 10**(16 - X)), formed exactly from the
        double's significand and exponent; only zeros, subnormals, NaN,
        +-inf and magnitudes outside [1e-37, 1) go through `'%.17g' %`.
        `_G17` says why the integer digits are exact."""
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

_G17_X_MIN, _G17_X_MAX = -37, -1  # the decimal exponents _G17 writes itself
_G17_P_NARROW = 27  # p = 16 - X up to which 5**p < 2**63 fits one word
_G17_WIDTH = 28  # slots: sign, "0.000", a digit, a point, 16 digits, "e-XX"
_G17_BLOCK_CELLS = 4096


def _g17_tables():
    """Per binade (the exponent field of |v|): p = 16 - X of its smallest
    value, the bits of the smallest double at or above the power of ten
    that starts the next decade, and the shift 1075 - field - p; 5**p as
    32-bit halves up to p = 27, and 5**p 2**4 as two words beyond; the
    slot layout per (p, trailing zeros); and per four-digit group its ASCII
    digits and its count of trailing zeros.  Built in small dtypes:
    import-time temporaries would stay resident."""
    p_max = 16 - _G17_X_MIN
    binades = np.arange(math.floor((_G17_X_MIN - 1) * math.log2(10)), math.ceil((_G17_X_MAX + 1) * math.log2(10)))
    x = np.array([len(str(2**b)) - 1 if b >= 0 else len(str(5**-b)) - 1 + b
                  for b in binades.tolist()])  # floor(log10 2**b)
    keep = (_G17_X_MIN - 1 <= x) & (x <= _G17_X_MAX)
    field, x = binades[keep] + 1023, x[keep]
    up = {}  # the smallest double >= 10**k (k <= 0): 10**k rounded, one ulp up if below
    for k in range(_G17_X_MIN, _G17_X_MAX + 2):
        t = float(f"1e{k}")
        n, d = t.as_integer_ratio()
        up[k] = t if n * 10**-k >= d else float(np.nextafter(t, np.inf))
    p = np.full(2048, 255, np.uint64)  # 255: no decimal exponent written here
    ten = np.zeros(2048, np.uint64)
    shift = np.zeros(2048, np.uint64)
    p[field] = 16 - x
    ten[field] = np.array([up[k + 1] for k in x.tolist()]).view(np.uint64)
    shift[field] = 1075 - field - (16 - x)
    five = np.array([5**k for k in range(_G17_P_NARROW + 1)], np.uint64)
    wide = np.array([divmod(5**k << 4, 2**64) for k in range(_G17_P_NARROW + 1, p_max + 1)], np.uint64)
    # (p, trailing zeros, slot), for p = 16 - X from X + 1 after rounding up
    layout = np.zeros((p_max + 1, 17, 32), np.uint8)
    rows = layout[16 - _G17_X_MAX - 1:]
    rows[:, :, 6] = 0xFF
    rows[:, :, 8:24] = np.where(np.arange(8, 24) < 24 - np.arange(17)[:, None], 0xFF, 0)
    exponent = np.arange(21, p_max + 1)  # X <= -5: d.ddde-XX
    layout[exponent, :16, 7] = ord(".")
    layout[exponent, :, 24:28] = np.frombuffer(
        b"".join(b"e%+03d" % (16 - k) for k in exponent.tolist()), np.uint8).reshape(-1, 1, 4)
    for k in range(17, 21):  # X in [-4, -1]: 0.000ddd
        layout[k, :, 1:k - 14] = np.frombuffer(b"0." + b"0" * (k - 17), np.uint8)
    group = np.arange(10000, dtype=np.uint16)
    quads = np.zeros((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.uint8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        quads[:, k] = 48 + group // unit % 10
        zeros += group % (10 * unit) == 0
    quads = quads.view(np.uint32).ravel().astype(np.uint64)
    return (p, ten, shift, five & 0xFFFFFFFF, five >> 32, wide, layout.view(np.uint64).reshape(-1, 4),
            quads, quads << 32, zeros)


(_G17_P, _G17_TEN, _G17_SHIFT, _G17_FIVE_LO, _G17_FIVE_HI, _G17_FIVE_WIDE, _G17_LAYOUT,
 _G17_QUADS, _G17_QUADS_HIGH, _G17_QUAD_ZEROS) = _g17_tables()


def _times(mh, ml, f):
    """(high, low) words of M f for M = mh 2**32 + ml < 2**53 and words f."""
    fh, fl = f >> 32, f & 0xFFFFFFFF
    cross = mh * fl
    mid = ml * fh + cross
    carry = (mid < cross).astype(np.uint64) << 32
    shifted = mid << 32
    low = ml * fl + shifted
    return mh * fh + (mid >> 32) + (low < shifted) + carry, low


class _G17:
    """Writes `'%.17g' % v` for up to `cells` doubles into rows of
    _G17_WIDTH NUL-padded ASCII slots, from buffers allocated once.

    A double with decimal exponent X in [-37, -1] (|v| in [1e-37, 1),
    where every error-map cell lies in practice) has the 17 digits
    N = round-half-even(|v| 10**p), p = 16 - X, computed exactly in
    integers (the method of Adams, "Ryu revisited: printf floating point
    conversion", OOPSLA 2019).  |v| = M 2**e with M the 53-bit
    significand; X is the decimal exponent of the binade, plus one where
    |v| reaches the smallest double at or above the next power of ten.
    N is the part of M 5**p above bit s = -(e + p), and the bits below
    decide the rounding: up above one half, to even at exactly one half.
    For p <= 27 (X >= -11, every registry map's cells), 5**p < 2**63 and
    M 5**p < 2**116 is formed exactly in two words from 32-bit pieces,
    with s in [35, 62].  Beyond, M 5**p 2**4 takes three words; N comes
    from the upper two (s + 4 - 64 in [1, 62]) and the lowest only tells
    whether anything nonzero lies below (no exact tie is possible there:
    it would need s - 1 > 52 trailing zero bits in M).  N = 10**17
    becomes 10**16 with X + 1.  Zero, subnormals, NaN, +-inf and |v|
    outside [1e-37, 1) are formatted by `'%.17g' %` instead.

    The digits go to fixed slots: the leading digit, a point slot, then
    16 digits.  A table row per (p, trailing zeros) supplies the "0.000"
    prefix or the point and the "e-XX" exponent by Python's `g` rules and
    masks the stripped trailing zeros to NUL."""

    _WORDS = ("a", "e", "p", "s", "hi", "lo", "mid", "t", "u", "n", "q")

    def __init__(self, cells: int, width: int):
        # One anonymous map holds `cells` output rows of `width` bytes
        # (`lines`; the caller picks the slot columns) and every work
        # buffer.  It is unmapped when the last view of it goes; heap
        # buffers of this size stayed resident after each map and raised
        # the process's peak RSS by 1-2 MiB.
        fields = (("lines", np.uint8, (cells, width)), ("text", np.uint64, (cells, 4)),
                  ("digits", np.uint64, (cells, 4)), ("groups", np.uint64, (4, cells)),
                  *((w, np.uint64, (cells,)) for w in self._WORDS),
                  ("ok", bool, (cells,)), ("flag", bool, (cells,)),
                  ("zeros", np.uint8, (cells,)), ("more", np.uint8, (cells,)))
        sizes = [-(-np.dtype(t).itemsize * int(np.prod(shape)) // 16) * 16 for _, t, shape in fields]
        self.arena = mmap.mmap(-1, max(sum(sizes), 1))
        offset = 0
        for (name, dtype, shape), size in zip(fields, sizes):
            view = np.frombuffer(self.arena, dtype, int(np.prod(shape)), offset).reshape(shape)
            setattr(self, name, view)
            offset += size
        # a cell's digit bytes: the leading digit at 6, the other 16 from 8
        # on; every other byte stays 0xFF, so the AND keeps the layout there
        self.digits.fill(np.iinfo(np.uint64).max)

    def __call__(self, v: np.ndarray, slots: np.ndarray) -> int:
        """Lay out the doubles `v` into `slots` (len(v) rows of
        _G17_WIDTH bytes); returns how many went through `'%.17g' %`."""
        size = v.size
        a, e, p, s, hi, lo, mid, t, u, n, q = (getattr(self, w)[:size] for w in self._WORDS)
        ok, flag, zeros, more = self.ok[:size], self.flag[:size], self.zeros[:size], self.more[:size]
        groups, digits, text = self.groups[:, :size], self.digits[:size], self.text[:size]

        # X (as p = 16 - X) and s from the binade of |v|
        np.abs(v, out=a.view(float))
        np.right_shift(a, 52, out=e)
        np.take(_G17_TEN, e.view(np.intp), out=t)
        np.greater_equal(a, t, out=flag)
        np.take(_G17_P, e.view(np.intp), out=p)
        p -= flag
        np.take(_G17_SHIFT, e.view(np.intp), out=s)
        s += flag
        np.subtract(p, 16 - _G17_X_MAX, out=t)
        np.less_equal(t, _G17_X_MAX - _G17_X_MIN, out=ok)  # unsigned: wraps below
        np.greater(p, _G17_P_NARROW, out=flag)
        flag &= ok
        wide = np.flatnonzero(flag) if flag.any() else None

        # M 5**p = hi 2**64 + lo, from M = mh 2**32 + ml and 5**p = fh 2**32 + fl
        np.right_shift(a, 32, out=hi)
        hi &= 0xFFFFF
        hi |= 0x100000  # mh
        np.bitwise_and(a, 0xFFFFFFFF, out=lo)  # ml
        np.take(_G17_FIVE_LO, p.view(np.intp), out=t, mode="clip")
        np.take(_G17_FIVE_HI, p.view(np.intp), out=u, mode="clip")
        np.multiply(lo, u, out=mid)  # ml fh
        lo *= t  # ml fl
        t *= hi  # mh fl
        mid += t  # below 2**63 + 2**53
        hi *= u  # mh fh
        np.left_shift(mid, 32, out=t)
        lo += t
        np.less(lo, t, out=flag)  # the carry out of lo
        mid >>= 32
        hi += mid
        hi += flag
        if wide is not None:  # words 2, 1 and 0 of M 5**p 2**4 = M (f1 2**64 + f0)
            aw = a[wide]
            mh, ml = (aw >> 32 & 0xFFFFF) | 0x100000, aw & 0xFFFFFFFF
            f = _G17_FIVE_WIDE[p[wide] - (_G17_P_NARROW + 1)]
            word2, word1 = _times(mh, ml, f[:, 0])
            carry, word0 = _times(mh, ml, f[:, 1])
            lo[wide] = word1 + carry
            hi[wide] = word2 + (lo[wide] < carry)
            s[wide] -= 64 - 4

        # N = (hi, lo) >> s, rounded half to even on the bits shifted out
        np.subtract(64, s, out=u)
        np.left_shift(hi, u, out=n)
        np.right_shift(lo, s, out=t)
        n |= t
        np.left_shift(lo, u, out=t)  # the bits shifted out, as a fraction of 2**64
        np.bitwise_and(n, 1, out=u)
        if wide is not None:
            u[wide] |= word0 != 0  # below the fraction's top word
        np.subtract(2**63, u, out=u)
        np.greater(t, u, out=flag)
        n += flag
        np.equal(n, 10**17, out=flag)
        if flag.any():
            n[flag] = 10**16
            p -= flag

        # four-digit groups, least significant first, then the leading
        # digit; a cell's digit words: 0xFF bytes but the leading digit at
        # byte 6, then two words of four-digit groups, 0xFF bytes after them
        for g in groups:
            np.floor_divide(n, 10**4, out=q)
            np.multiply(q, 10**4, out=g)
            np.subtract(n, g, out=g)
            n, q = q, n
        np.left_shift(n, 48, out=t)
        np.bitwise_or(t, 0xFF30FFFFFFFFFFFF, out=digits[:, 0])
        for k in (1, 2):
            np.take(_G17_QUADS, groups[5 - 2 * k].view(np.intp), out=t, mode="clip")
            np.take(_G17_QUADS_HIGH, groups[4 - 2 * k].view(np.intp), out=u, mode="clip")
            np.bitwise_or(t, u, out=digits[:, k])
        np.take(_G17_QUAD_ZEROS, groups[0].view(np.intp), out=zeros, mode="clip")
        for k in (1, 2, 3):
            np.equal(zeros, 4 * k, out=flag)
            if not flag.any():
                break
            np.take(_G17_QUAD_ZEROS, groups[k].view(np.intp), out=more, mode="clip")
            more *= flag
            zeros += more

        # layout row (p, trailing zeros), the digits masked into it
        p *= 17
        p += zeros
        np.take(_G17_LAYOUT, p.view(np.intp), axis=0, out=text, mode="clip")
        text &= digits
        chars = text.view(np.uint8)
        np.signbit(v, out=flag)
        if flag.any():
            np.copyto(chars[:, 0], ord("-"), where=flag)
        fallback = np.flatnonzero(~ok)
        if fallback.size:
            formatted = np.array(["%.17g" % x for x in v[fallback].tolist()], f"S{_G17_WIDTH}")
            chars[fallback, :_G17_WIDTH] = formatted.view(np.uint8).reshape(-1, _G17_WIDTH)
        slots[...] = chars[:, :_G17_WIDTH]
        return fallback.size


def truncation_error_map(pattern: TargetPattern, exp: ZernikeExpansion, crystal=None) -> ErrorMap:
    """|F - F_tilde| / peak on a 256 x 512 polar grid, and at the ions of
    `crystal` when one is given.

    The grid goes through in blocks of _MAP_ROWS rows, each block's
    pattern values, order-by-order products and |.| / peak formed in
    buffers of that size.  Every radial sum is contracted once over all
    256 radii (a contraction's bits depend on the array length) and every
    cos(m phi), sin(m phi) row is formed once, so each cell has the bits
    of `np.abs(pattern(rho, phi) - exp.reconstruct(rho, phi)) / peak` on
    the whole grid."""
    rho = np.linspace(0.0, 1.0, 256)
    phi = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    scale = pattern.peak_value()
    sums = [(m, even[:, None], odd[:, None], np.cos(m * phi), np.sin(m * phi))
            for m, even, odd in exp.radial_sums(rho)]
    err = np.empty((rho.size, phi.size))
    buffers = np.empty((2, _MAP_ROWS, phi.size))
    for start in range(0, rho.size, _MAP_ROWS):
        rows = slice(start, start + _MAP_ROWS)
        block = err[rows]
        part, other = buffers[:, :len(block)]
        block.fill(0.0)
        for m, even, odd, cos, sin in sums:
            if m == 0:
                block += even[rows]
            else:
                # the radial values are spread along the rows before the
                # products: a product broadcasting a (rows, 1) column runs
                # at about half the speed of a contiguous one
                np.copyto(part, even[rows])
                part *= cos
                np.copyto(other, odd[rows])
                other *= sin
                part += other
                block += part
        block *= exp.amplitude
        np.subtract(np.asarray(pattern(rho[rows, None], phi[None, :]), dtype=float), block, out=block)
        np.abs(block, out=block)
        block /= scale
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
