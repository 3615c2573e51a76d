"""The library's compiled code: one C source, built on first use and cached.

The source holds the feedback-loop kernel that ``codec`` runs and the three
Levinson kernels that ``shaping``'s designs run.  It is compiled with the
system's C compiler (``$CC``, default ``cc``) into one shared library,
cached on disk under a name hashed from the source, the flags and the
compiler's identity, and loaded with ctypes.  ``library()`` returns it,
each function bound with its argument types, or None, logged once with the
reason, where no compiler is found or the build or load fails; then the
loop runs on the generated Python kernel and the designs in mpmath, with
the same bits.

Every function performs its float64 operations in the order the source
states them: the flags forbid contraction into fused multiply-adds, and the
source refuses to build where double expressions are evaluated in a wider
format.

- ``dsq_loop``: the noise-feedback recursion (``codec``'s module docstring
  gives its operation order).
- ``levinson_f64``: ``shaping._levinson`` on doubles, one statement per
  operation of the Python recursion and in its order, so each result keeps
  its bits; it returns 1 where the Python one raises, at a prediction error
  <= 0 (a NaN passes that test in both).
- ``levinson_dd``: the same recursion in double-double arithmetic (a value
  is an unevaluated sum hi + lo of two doubles).  Its accuracy is not
  assumed; ``toeplitz_residual_dd`` measures it.
- ``toeplitz_residual_dd``: rho_i = sum_j r_|i-j| a_j, rows i = 1..p, in
  double-double, and s_i = sum_j |r_|i-j|| |a_j| in double, from which the
  rounding bound of rho_i follows.  Products use Dekker's exact product
  (Veltkamp's split) and sums the accurate double-word addition; with
  u = 2^-53 their relative errors are below 7u^2 (DWTimesDW1) and 3u^2
  (AccurateDWPlusDW) where nothing underflows (Joldes, Muller & Popescu,
  "Tight and rigorous error bounds for basic building blocks of
  double-word arithmetic", ACM TOMS 44(2), 2017).
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
# until the rest come in whole groups of four.  It reads the history straight
# from e, so the first k < p sums simply have fewer terms: with each partial
# sum starting from 0.0, the generated kernel's zero history adds nothing to
# them either.  Rounding needs no floor and no branch on the data: the
# truncation (int64_t)y, less one where it lies above y, is floor(y), and the
# comparison adds the half-up step.  Both casts are exact because
# delta_sigma_loop admits no block whose index could reach 2^52.
SOURCE = r"""
#include <float.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

void dsq_loop(const double *a, const double *z, int64_t n, const double *c,
              int64_t p, double step, int64_t *q, double *e, double *fb)
{
    for (int64_t k = 0; k < n; k++) {
        /* term j is c[j - 1] * h[-j], c_j e_{k-j} */
        const double *h = e + k;
        int64_t j = k < p ? k : p;
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
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
        for (; j >= 5; j -= 4) {
            t3 += c[j - 1] * h[-j];
            t2 += c[j - 2] * h[1 - j];
            t1 += c[j - 3] * h[2 - j];
            t0 += c[j - 4] * h[3 - j];
        }
        double acc = (t0 + t1) + (t2 + t3);
        if (j == 1) /* m >= 1: the newest term, last */
            acc += c[0] * h[-1];
        double s = a[k] + acc;
        double y = (s + z[k]) / step;
        int64_t qi = (int64_t)y;
        qi -= (double)qi > y;
        qi += (y - (double)qi) >= 0.5;
        q[k] = qi;
        e[k] = step * (double)qi - z[k] - s;
        fb[k] = acc;
    }
}

/* shaping._levinson on doubles.  The coefficient update reads the previous
   step's a[j] and a[i - j]; updating both ends of each pair together keeps
   the old values without a copy. */
int levinson_f64(const double *r, int64_t p, double *a, double *energy)
{
    double en = r[0];
    a[0] = 1.0;
    for (int64_t i = 1; i <= p; i++) {
        if (en <= 0.0)
            return 1;
        double acc = r[i];
        for (int64_t j = 1; j < i; j++)
            acc += a[j] * r[i - j];
        double k = -acc / en;
        for (int64_t j = 1, m = i - 1; j <= m; j++, m--) {
            double aj = a[j], am = a[m];
            a[j] = aj + k * am;
            if (m != j)
                a[m] = am + k * aj;
        }
        a[i] = k;
        en = en * (1.0 - k * k);
    }
    *energy = en;
    return 0;
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

static dd_t dd_neg(dd_t x)
{
    dd_t r = {-x.hi, -x.lo};
    return r;
}

/* x / y by three quotient digits, each taken off the remainder */
static dd_t dd_div(dd_t x, dd_t y)
{
    dd_t minus_y = dd_neg(y);
    double q1 = x.hi / y.hi;
    dd_t q = {q1, 0.0};
    dd_t rem = dd_add(x, dd_mul(minus_y, q));
    double q2 = rem.hi / y.hi;
    dd_t q2_dd = {q2, 0.0};
    rem = dd_add(rem, dd_mul(minus_y, q2_dd));
    dd_t q3 = {rem.hi / y.hi, 0.0};
    return dd_add(fast_two_sum(q1, q2), q3);
}

/* The Levinson-Durbin recursion in double-double on the lags r_0..r_p;
   returns 1 where a prediction error is not positive. */
int levinson_dd(const double *r_hi, const double *r_lo, int64_t p,
                double *a_hi, double *a_lo)
{
    const dd_t one = {1.0, 0.0};
    dd_t en = {r_hi[0], r_lo[0]};
    a_hi[0] = 1.0;
    a_lo[0] = 0.0;
    for (int64_t i = 1; i <= p; i++) {
        if (!(en.hi > 0.0))
            return 1;
        dd_t acc = {r_hi[i], r_lo[i]};
        for (int64_t j = 1; j < i; j++) {
            dd_t aj = {a_hi[j], a_lo[j]}, rij = {r_hi[i - j], r_lo[i - j]};
            acc = dd_add(acc, dd_mul(aj, rij));
        }
        dd_t k = dd_div(dd_neg(acc), en);
        for (int64_t j = 1, m = i - 1; j <= m; j++, m--) {
            dd_t aj = {a_hi[j], a_lo[j]}, am = {a_hi[m], a_lo[m]};
            dd_t nj = dd_add(aj, dd_mul(k, am));
            a_hi[j] = nj.hi;
            a_lo[j] = nj.lo;
            if (m != j) {
                dd_t nm = dd_add(am, dd_mul(k, aj));
                a_hi[m] = nm.hi;
                a_lo[m] = nm.lo;
            }
        }
        a_hi[i] = k.hi;
        a_lo[i] = k.lo;
        en = dd_mul(en, dd_add(one, dd_neg(dd_mul(k, k))));
    }
    return 0;
}

/* Rows 1..p of the symmetric Toeplitz matrix of r_0..r_p times a_0..a_p:
   rho_{i-1} = sum_j r_|i-j| a_j in double-double, added in the order
   j = 0..p, and s_{i-1} = sum_j |r_|i-j|| |a_j| over the high parts. */
void toeplitz_residual_dd(const double *r_hi, const double *r_lo,
                          const double *a_hi, const double *a_lo, int64_t p,
                          double *res_hi, double *res_lo, double *abs_sum)
{
    for (int64_t i = 1; i <= p; i++) {
        dd_t s = {0.0, 0.0};
        double m = 0.0;
        for (int64_t j = 0; j <= p; j++) {
            int64_t d = i > j ? i - j : j - i;
            /* two_sum leaves each value as it is and makes it a double-word,
               which the error bounds of dd_mul and dd_add assume */
            dd_t rd = two_sum(r_hi[d], r_lo[d]), aj = two_sum(a_hi[j], a_lo[j]);
            s = dd_add(s, dd_mul(rd, aj));
            double ar = rd.hi < 0.0 ? -rd.hi : rd.hi;
            double aa = aj.hi < 0.0 ? -aj.hi : aj.hi;
            m += ar * aa;
        }
        res_hi[i - 1] = s.hi;
        res_lo[i - 1] = s.lo;
        abs_sum[i - 1] = m;
    }
}
"""

# No -ffast-math, -Ofast or -march=native: reassociated sums or fused
# multiply-adds would change the bits, and double-double arithmetic needs
# every rounding where the source puts it.
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
    i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    signatures = {
        # (a, z, n, c_tail, p, step, q, e, fb)
        "dsq_loop": ([f64, f64, n, f64, n, ctypes.c_double, i64, f64, f64], None),
        # (r, p, a, energy) -> 0, or 1 where not positive definite
        "levinson_f64": ([f64, n, f64, f64], ctypes.c_int),
        # (r_hi, r_lo, p, a_hi, a_lo) -> 0, or 1 where not positive definite
        "levinson_dd": ([f64, f64, n, f64, f64], ctypes.c_int),
        # (r_hi, r_lo, a_hi, a_lo, p, res_hi, res_lo, abs_sum)
        "toeplitz_residual_dd": ([f64, f64, f64, f64, n, f64, f64, f64], None),
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
            "the feedback loop runs on the generated Python kernel and the filter designs"
            " in mpmath, with the same bits: %s",
            exc,
        )
        return None
