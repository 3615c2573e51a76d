"""The library's compiled code: one C source, built on first use and cached.

The source holds four kernels: the feedback loop that ``codec`` runs, and
three in double-double for ``shaping``: the multiband lags it designs from,
the residual it corrects its float64 designs against and proves their
rounding with, and the step-down with a running error bound that it
decides minimum phase with; the package writes double-double arithmetic
here alone.  It is compiled with the system's C compiler (``$CC``, default
``cc``) into one shared library, cached on disk under a name hashed from
the source, the flags and the compiler's identity, and loaded with
ctypes.  ``library()`` returns it, each function bound with its argument
types, or None, logged once with the reason, where no compiler is found or
the build or load fails; then the loop runs on the generated Python kernel
and the designs and the step-down in mpmath, with the same bits.

Every function performs its float64 operations in the order the source
states them: the flags forbid contraction into fused multiply-adds, and the
source refuses to build where double expressions are evaluated in a wider
format.  The double-double kernels take each pair of arrays as the two rows
of one, so a call passes few arrays for ctypes to check.

- ``dsq_loop``: the noise-feedback recursion (``codec``'s module docstring
  gives its operation order).
- ``toeplitz_residual_dd``: first the iterate's update a_j <- a_j -
  step_{j-1}, j = 1..p, in place, the high part by an exact ``two_sum``
  whose error goes into the low part; then rho_i = sum_j r_|i-j| a_j, rows
  i = 1..p, in double-double (a value is an unevaluated sum hi + lo of two
  doubles), and s_i = sum_j |r_|i-j|| |a_j| in double, from which the
  rounding bound of rho_i follows.  Products use Dekker's exact product
  (Veltkamp's split) and sums the accurate double-word addition; with
  u = 2^-53 their relative errors are below 7u^2 (DWTimesDW1) and 3u^2
  (AccurateDWPlusDW) where nothing underflows (Joldes, Muller & Popescu,
  "Tight and rigorous error bounds for basic building blocks of
  double-word arithmetic", ACM TOMS 44(2), 2017).
- ``multiband_lags_dd``: the lags r_d = sum_b w_b B_bd of n bands from the
  band basis B, with the same products and sums, added from band 0's
  product on, and m_d = sum_b |w_b| |B_bd| in double, from which
  ``shaping._multiband_lags_dd`` bounds each lag's error.
- ``stepdown_dd``: the Schur-Cohn step-down k_i = a_i/a_0, a_j <- a_j -
  k_i a_{i-j} in double-double, with the same products and sums and a
  division whose error below 13u^2 the source derives, and a float64 bound
  on each k_i's distance from the step-down mpmath runs
  (``shaping.min_phase_check`` derives it).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shlex
import shutil
import tempfile

import numpy as np

_log = logging.getLogger(__name__)

# The loop kernel is one statement per operation of codec's generated
# kernel, in the same order: terms j = m..2, where m = min(k, p), go to the
# partial sum t[(j - 2) % 4], oldest first; the switch peels the oldest ones
# until the rest come in whole groups of four.  A group runs as two 2-lane
# vectors (GCC/Clang vector extensions, SSE2 on x86-64), (t3, t2) and (t1,
# t0), over a copy of the tail reversed once per call, so that a group's
# four coefficients ascend in memory as its four errors do.  Each lane
# performs the scalar kernel's multiply and add in the same order, and the
# lanes are added as ((t0 + t1) + (t2 + t3)), so no bit moves.  The history
# is read straight from e, so the first k < p sums simply have fewer terms:
# with each partial sum starting from 0.0, the generated kernel's zero
# history adds nothing to them either.  The newest error, the one term that
# waits on the step before, is kept in a register rather than read back.
#
# Rounding is done in floating point, with no conversion to an integer on
# the error's path.  Let ay = |y| < 2^52.  Then ay + 2^52 lies in [2^52,
# 2^53], where the doubles are the integers, so it rounds ay to the nearest
# integer, ties to even (2^52 is even), and taking 2^52 off again is exact;
# rounding to nearest-even is odd-symmetric, so r = copysign(that, y) is y
# rounded to nearest-even.  y - r is exact: it is y where r = 0, and
# otherwise y and r share a sign and |r|/2 <= |y| <= 2|r| (Sterbenz).
# Rounding half up differs from nearest-even only at a tie that went down,
# y - r = +1/2, so qf = r + [y - r == 1/2] is floor(y) + [y - floor(y) >=
# 1/2]; adding 0.0 turns r = -0.0 into +0.0, the value of the generated
# kernel's integer 0.  From 2^52 on every double is an integer and r = y;
# the guard is needed, since the shift would take 2^52 + 1 to 2^52.  So qf
# is exact at every finite y, and the index (int64_t)qf, stored off the
# error's path, wherever |qf| < 2^63; delta_sigma_loop admits no block
# whose index could reach 2^52.
SOURCE = r"""
#include <float.h>
#include <stdint.h>

/* 16 (ISO/IEC TS 18661-3) widens only _Float16: GCC sets it where the
   target has half-precision arithmetic, as -march=native does on an
   AVX512-FP16 CPU, and evaluates double as double there too */
#if !defined(FLT_EVAL_METHOD) || (FLT_EVAL_METHOD != 0 && FLT_EVAL_METHOD != 16)
#error "double expressions must be evaluated in double precision"
#endif

typedef double v2d __attribute__((vector_size(16)));

static v2d load2(const double *x)
{
    v2d v;
    __builtin_memcpy(&v, x, sizeof v);
    return v;
}

void dsq_loop(const double *a, const double *z, int64_t n, const double *c,
              int64_t p, double step, int64_t *q, double *e, double *fb)
{
    double cr[p + 1]; /* cr[p - j] = c[j - 1]: term j's coefficient */
    for (int64_t i = 0; i < p; i++)
        cr[i] = c[p - 1 - i];
    double prev = 0.0; /* e[k - 1] */
    for (int64_t k = 0; k < n; k++) {
        /* term j is c[j - 1] * h[-j], c_j e_{k-j} */
        const double *h = e + k;
        int64_t j = k < p ? k : p;
        double t0 = 0.0, t1 = 0.0, t2 = 0.0;
        if (j >= 2) {
            switch ((j - 2) & 3) {
            case 2:
                t2 += c[j - 1] * h[-j];
                j--;
                /* fall through */
            case 1:
                t1 += c[j - 1] * h[-j];
                j--;
                /* fall through */
            case 0:
                t0 += c[j - 1] * h[-j];
                j--;
            }
        }
        /* lanes (t3, t2) take terms j, j - 1 and lanes (t1, t0) terms
           j - 2, j - 3: coefficients and errors both ascend in memory */
        v2d t32 = {0.0, t2}, t10 = {t1, t0};
        for (; j >= 5; j -= 4) {
            const double *cj = cr + (p - j), *hj = h - j;
            t32 += load2(cj) * load2(hj);
            t10 += load2(cj + 2) * load2(hj + 2);
        }
        double acc = (t10[1] + t10[0]) + (t32[1] + t32[0]);
        if (j == 1) /* m >= 1: the newest term, last */
            acc += c[0] * prev;
        double s = a[k] + acc;
        double y = (s + z[k]) / step;
        double ay = __builtin_fabs(y);
        double r = ay < 0x1p52 ? __builtin_copysign((ay + 0x1p52) - 0x1p52, y) : y;
        double qf = r + (y - r == 0.5 ? 1.0 : 0.0);
        q[k] = (int64_t)qf;
        prev = step * qf - z[k] - s;
        e[k] = prev;
        fb[k] = acc;
    }
}

typedef struct {
    double hi, lo;
} dd_t;

static dd_t two_sum(double a, double b)
{
    double s = a + b, bb = s - a;
    dd_t r = {s, (a - (s - bb)) + (b - bb)};
    return r;
}

/* exact where |a| >= |b| or a == 0 */
static dd_t fast_two_sum(double a, double b)
{
    double s = a + b;
    dd_t r = {s, b - (s - a)};
    return r;
}

/* Dekker's exact product with Veltkamp's split at 2^27 + 1 */
static dd_t two_prod(double a, double b)
{
    double p = a * b;
    double t = 134217729.0 * a, ah = t - (t - a), al = a - ah;
    t = 134217729.0 * b;
    double bh = t - (t - b), bl = b - bh;
    dd_t r = {p, ((ah * bh - p) + ah * bl + al * bh) + al * bl};
    return r;
}

/* AccurateDWPlusDW: relative error below 3u^2 */
static dd_t dd_add(dd_t x, dd_t y)
{
    dd_t s = two_sum(x.hi, y.hi), t = two_sum(x.lo, y.lo);
    dd_t v = fast_two_sum(s.hi, s.lo + t.hi);
    return fast_two_sum(v.hi, t.lo + v.lo);
}

/* DWTimesDW1: relative error below 7u^2 */
static dd_t dd_mul(dd_t x, dd_t y)
{
    dd_t c = two_prod(x.hi, y.hi);
    double tl = x.hi * y.lo, th = x.lo * y.hi;
    return fast_two_sum(c.hi, c.lo + (th + tl));
}

static double mag(double x)
{
    return x < 0.0 ? -x : x;
}

/* x / y for double-words (|lo| <= u |hi|, u = 2^-53): q1 = RN(xh / yh),
   then q2 = RN(r / yh), r the remainder x - q1 y.  Its part xh - q1 yh is
   exact: p.hi lies within 2.01u |xh| of xh, so xh - p.hi is exact
   (Sterbenz), and the remainder of a rounded quotient is a double.  The
   three roundings of r err by under 2.01u (|xh - q1 yh| + |xl| + |q1 yl|)
   < 6.1u^2 |q1 yh|, the one of r / yh by under 3.1u^2 |q1|, and r / yh
   differs from r / y by |yl / y| |r / yh| < 3.1u^2 |q1|.  So where nothing
   under- or overflows, |q1 + q2 - x/y| < 12.3u^2 |q1| < 13u^2 |x/y|, and
   fast_two_sum is exact since |q2| < 4u |q1|. */
static dd_t dd_div(dd_t x, dd_t y)
{
    double q1 = x.hi / y.hi;
    dd_t p = two_prod(q1, y.hi);
    double r = (((x.hi - p.hi) - p.lo) + x.lo) - q1 * y.lo;
    return fast_two_sum(q1, r / y.hi);
}

/* The iterate's update, a_j <- a_j - step_{j-1} for j = 1..p in place (row
   0 of a the high parts, row 1 the low parts): two_sum gives the new high
   part, and its error is added to the low part.  Then rows 1..p of the
   symmetric Toeplitz matrix of the lags r_0..r_p (rows as in a) times
   a_0..a_p: rho_{i-1} = sum_j r_|i-j| a_j in double-double, added in the
   order j = 0..p, goes to out[0][i-1] (high) and out[1][i-1] (low), and
   s_{i-1} = sum_j |r_|i-j|| |a_j| over the high parts to out[2][i-1]. */
void toeplitz_residual_dd(const double *r, double *a, const double *step, int64_t p, double *out)
{
    const double *r_lo = r + p + 1;
    double *a_lo = a + p + 1;
    for (int64_t j = 1; j <= p; j++) {
        dd_t v = two_sum(a[j], -step[j - 1]);
        a[j] = v.hi;
        a_lo[j] += v.lo;
    }
    for (int64_t i = 1; i <= p; i++) {
        dd_t s = {0.0, 0.0};
        double m = 0.0;
        for (int64_t j = 0; j <= p; j++) {
            int64_t d = i > j ? i - j : j - i;
            /* two_sum leaves each value as it is and makes it a double-word,
               which the error bounds of dd_mul and dd_add assume */
            dd_t rd = two_sum(r[d], r_lo[d]), aj = two_sum(a[j], a_lo[j]);
            s = dd_add(s, dd_mul(rd, aj));
            m += mag(rd.hi) * mag(aj.hi);
        }
        out[i - 1] = s.hi;
        out[p + i - 1] = s.lo;
        out[2 * p + i - 1] = m;
    }
}

/* The lags r_d = sum_b w_b B_bd, d = 0..p, of n bands: w the weights (row
   0 the high parts, row 1 the low parts) and B the band basis, an array
   (2, n, p + 1) of high and low parts.  The products dd_mul(w_b, B_bd) are
   summed by dd_add from band 0's product on, to out[0][d] (high) and
   out[1][d] (low), and m_d = sum_b |w_b| |B_bd| over the high parts to
   out[2][d] (shaping._multiband_lags_dd bounds the lags' error by it). */
void multiband_lags_dd(const double *w, const double *basis, int64_t n, int64_t p, double *out)
{
    const double *w_lo = w + n, *b_lo = basis + n * (p + 1);
    for (int64_t d = 0; d <= p; d++) {
        dd_t s = {0.0, 0.0};
        double m = 0.0;
        for (int64_t b = 0, k = d; b < n; b++, k += p + 1) {
            dd_t wb = {w[b], w_lo[b]}, bd = {basis[k], b_lo[k]}, t = dd_mul(wb, bd);
            s = b == 0 ? t : dd_add(s, t);
            m += mag(wb.hi) * mag(bd.hi);
        }
        out[d] = s.hi;
        out[p + 1 + d] = s.lo;
        out[2 * (p + 1) + d] = m;
    }
}

/* The Schur-Cohn step-down of c_0..c_p in double-double: for i = p..1,
   k_i = a_i / a_0 and a_j <- a_j - k_i a_{i-j}, j < i, with a running
   bound s_j on the distance of a_j from both the exact step-down and the
   one mpmath runs at prec bits, u_mp >= 2^(1-prec).  k_i's high part goes
   to out[0][n], its low part to out[1][n] and the bound dk on its distance
   from mpmath's k_i to out[2][n], n = p - i.  Returns the number of steps
   run, up to and including the first with |k_hi| >= 1, or -1 where a
   coefficient exceeds 2^100, the pivot a_0 falls below 2^-100 or its bound
   passes 2^-20 a_0, outside the range the bound is derived for
   (shaping.min_phase_check derives it). */
int64_t stepdown_dd(const double *c, int64_t p, double u_mp, double *out)
{
    const double u2 = 0x1p-106, up = 1.0 + 0x1p-52, slack = 1.0 + 0x1p-40, tiny = 0x1p-900;
    const double e_div = 16.0 * u2 + u_mp, e_add = 4.0 * u2 + u_mp, e_mul = 12.0 * u2 + 2.0 * u_mp;
    double buf[6 * (p + 1)];
    double *ah = buf, *al = ah + p + 1, *s = al + p + 1;
    double *bh = s + p + 1, *bl = bh + p + 1, *t = bl + p + 1, *swap;
    for (int64_t j = 0; j <= p; j++) {
        if (!(mag(c[j]) <= 0x1p100))
            return -1;
        ah[j] = c[j];
        al[j] = s[j] = 0.0;
    }
    int64_t n = 0;
    for (int64_t i = p; i >= 1; i--) {
        double a0 = mag(ah[0]) * (1.0 - 0x1p-52);
        if (!(a0 >= 0x1p-100 && s[0] <= 0x1p-20 * a0))
            return -1;
        double den = a0 - s[0];
        double g = (mag(ah[i]) * up + s[i]) / den;
        dd_t x = {ah[i], al[i]}, y = {ah[0], al[0]};
        dd_t k = dd_div(x, y);
        double dk = (e_div * g + (s[i] + g * s[0]) / den + tiny) * slack;
        out[n] = k.hi;
        out[p + n] = k.lo;
        out[2 * p + n] = dk;
        n++;
        if (mag(k.hi) >= 1.0)
            break;
        double km = mag(k.hi) * up + dk;
        dd_t neg_k = {-k.hi, -k.lo};
        for (int64_t j = 0; j < i; j++) {
            dd_t aj = {ah[j], al[j]}, am = {ah[i - j], al[i - j]};
            dd_t v = dd_add(aj, dd_mul(neg_k, am));
            bh[j] = v.hi;
            bl[j] = v.lo;
            double xj = mag(ah[j]) * up + s[j], xm = mag(ah[i - j]) * up + s[i - j];
            t[j] = (s[j] + km * s[i - j] + (dk + e_mul * km) * xm + e_add * xj + tiny) * slack;
        }
        swap = ah, ah = bh, bh = swap;
        swap = al, al = bl, bl = swap;
        swap = s, s = t, t = swap;
    }
    return n;
}
"""

# No -ffast-math or -Ofast: reassociated sums or fused multiply-adds would
# change the bits, and double-double arithmetic needs every rounding where
# the source puts it.  -ffp-contract=off keeps products unfused even where
# the target has FMA, so neither the -O level nor -march moves a bit (a
# test builds at -O0 and at -O3 -march=native); -march=native stays out
# because the cache name does not key on the CPU.
CC_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CC_TIMEOUT_S = 120


class _NoLibrary(Exception):
    """The library cannot be built or loaded; the message says why."""


def _compiler():
    """argv prefix of the C compiler, ``$CC`` (default ``cc``) with its first
    word resolved on PATH, or None where there is none."""
    words = shlex.split(os.environ.get("CC") or "cc")
    path = shutil.which(words[0]) if words else None
    return None if path is None else [path, *words[1:]]


def _library_name(cc) -> str:
    """File name keyed by the source, the flags and the compiler's identity
    (its resolved path, size and modification time), found without running
    it, so a cache hit starts no process."""
    exe = os.path.realpath(cc[0])
    st = os.stat(exe)
    key = "\0".join([SOURCE, *CC_FLAGS, *cc, exe, str(st.st_size), str(st.st_mtime_ns)])
    return f"mdsigma-native-{hashlib.sha256(key.encode()).hexdigest()[:20]}.so"


def _cache_dirs():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "mdsigma"), os.path.join(tempfile.gettempdir(), "mdsigma")


def _private_dir(directory: str) -> None:
    """Make ``directory`` if need be; PermissionError unless this user owns
    it and no one else can write to it, since the library it holds is
    loaded into the process (the temporary directory is shared)."""
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if hasattr(os, "getuid") and (st.st_uid != os.getuid() or st.st_mode & 0o022):
        raise PermissionError(f"{directory} is not private to this user")


def _build(cc, path: str) -> None:
    """Compile the source to ``path`` through a private directory beside it
    and ``os.replace``, so no process ever loads a half-written library.

    OSError means the directory cannot be written; a failed compiler run
    raises _NoLibrary.
    """
    import subprocess  # only a build starts a process, so a cache hit imports none of it

    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as work:
        src, lib = os.path.join(work, "native.c"), os.path.join(work, "native.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(SOURCE)
        argv = [*cc, *CC_FLAGS, "-o", lib, src]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=_CC_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _NoLibrary(f"{' '.join(argv)} did not run: {exc}") from exc
        if proc.returncode != 0:
            raise _NoLibrary(
                f"{' '.join(argv)} exited with {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
        os.replace(lib, path)


def _bind(path: str):
    """The loaded library, each function given its argument types (array
    arguments are C-contiguous numpy arrays) and result type; ctypes keeps
    one function object per name, so later lookups find them set."""
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    f64_2d = np.ctypeslib.ndpointer(dtype=np.float64, ndim=2, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    signatures = {
        # (a, z, n, c_tail, p, step, q, e, fb)
        "dsq_loop": ([f64, f64, n, f64, n, ctypes.c_double, i64, f64, f64], None),
        # (r, a, step, p, out): (2, p+1) lags and iterate, updated in place
        # by the (p,) step, and (3, p) output
        "toeplitz_residual_dd": ([f64_2d, f64_2d, f64, n, f64_2d], None),
        # (w, basis, n, p, out): (2, n) weights, (2, n, p+1) basis, (3, p+1) output
        "multiband_lags_dd": ([f64_2d, f64, n, n, f64_2d], None),
        # (c, p, u_mp, out): (3, p) output, returns the number of steps or -1
        "stepdown_dd": ([f64, n, ctypes.c_double, f64_2d], n),
    }
    try:
        lib = ctypes.CDLL(path)
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        raise _NoLibrary(f"cannot load {path}: {exc}") from exc
    return lib


@functools.lru_cache(maxsize=None)
def library():
    """The compiled library, built on first use and cached on disk; None,
    logged once with the reason, where it cannot be had."""
    try:
        cc = _compiler()
        if cc is None:
            raise _NoLibrary(f"no C compiler found (looked for {os.environ.get('CC') or 'cc'!r})")
        name = _library_name(cc)
        unwritable = []
        for directory in _cache_dirs():
            path = os.path.join(directory, name)
            try:
                _private_dir(directory)
                if not os.path.isfile(path):
                    _build(cc, path)
            except OSError as exc:
                unwritable.append(f"{directory} ({exc})")
                continue
            return _bind(path)
        raise _NoLibrary("no writable cache directory: " + "; ".join(unwritable))
    except _NoLibrary as exc:
        _log.warning(
            "the feedback loop runs on the generated Python kernel, and the filter designs"
            " and minimum-phase tests in mpmath, with the same bits: %s",
            exc,
        )
        return None
