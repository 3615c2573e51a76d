"""Committed outputs under ``tests/golden/`` and the check against them.

The files are the criterion-3 CSV that the acceptance run writes,
``SimResult.to_csv()`` of the criterion-8 run and of both criterion-9
runs, and the CSVs of the ``mdsigma sweep`` commands in ``SWEEPS``.  Each
starts with ``#`` lines naming the platform that wrote it: the numpy
version, the machine and its C library, a hash of the float64 primitives
the outputs go through (``numeric_probe``), and the loop backend.  Where
the first three match this process, an output must equal its file byte
for byte.  Elsewhere the bits of numpy's FFTs and of the transcendental
functions may differ, so each numeric cell must agree to 1e-12 relative.
The loop backend is named but does not decide the comparison: both
kernels must give the same bits.

Regenerate every file, after a change that moves the arithmetic, with

    PYTHONPATH=src python tests/golden_outputs.py
"""

import csv
import functools
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from mdsigma import cli
from mdsigma.codec import loop_backend

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

SWEEPS = {
    "sweep_rates.csv": ["sweep", "--rates", "2,3,4,30", "--delta", "4"],
    "sweep_deltas.csv": ["sweep", "--deltas", "1,2,4,8", "--sigma-e2", "0.01"],
}


@functools.lru_cache(maxsize=None)
def numeric_probe() -> str:
    """sha256 of the numpy primitives whose bits may differ between hosts
    and that the outputs go through, on fixed inputs: the Philox draws of
    the sources and the dither, exp of real and complex arguments, sin,
    cos, log and log2, rfft and irfft, the sums, means and variances of
    the statistics, and np.unique.  numpy picks the SIMD code of several
    of them by the CPU, so the probe follows the CPU where it moves a bit
    and ignores the features that move none.  A primitive missed here can
    only make the byte comparison fail on a host whose probe matches,
    never let a changed bit pass."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    x = rng.standard_normal(4096)
    ax = np.abs(x)
    spec = np.fft.rfft(x)
    parts = [
        x,
        rng.laplace(0.0, 0.5, 4096),
        rng.uniform(-0.5, 0.5, 4096),
        np.exp(x),
        np.exp(50j * x),
        np.sin(50.0 * x),
        np.cos(50.0 * x),
        np.log(ax),
        np.log2(ax),
        spec,
        np.fft.irfft(spec, 4096),
        np.array([x.sum(), x.mean(), x.var(), x.std(ddof=1), (x * x).mean()]),
        *np.unique(np.rint(8.0 * x).astype(np.int64), return_counts=True),
    ]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes())
    return digest.hexdigest()


def platform_lines() -> list:
    """The header lines that decide between the two comparisons."""
    libc = " ".join(platform.libc_ver()).strip() or "unknown libc"
    return [
        f"# numpy: {np.__version__}\n",
        f"# machine: {platform.system()} {platform.machine()}, {libc}\n",
        f"# numeric-probe: {numeric_probe()}\n",
    ]


def sweep_csv(argv) -> bytes:
    """The CSV that ``mdsigma <argv> --out FILE`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()


def check(name: str, output: bytes) -> str:
    """Compare an output with its committed file; return the comparison
    that ran.  A mismatch raises AssertionError."""
    lines = (GOLDEN_DIR / name).read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    body = "".join(lines[n:])
    if lines[:3] == platform_lines():
        assert output == body.encode("utf-8"), f"{name}: output differs from the committed bytes"
        return "byte for byte (platform matches)"
    got = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    want = list(csv.reader(io.StringIO(body)))
    assert [len(r) for r in got] == [len(r) for r in want], f"{name}: shape differs"
    for i, (row_got, row_want) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(row_got, row_want)):
            if g == w:
                continue
            try:
                a, b = float(g), float(w)
            except ValueError:
                raise AssertionError(f"{name} line {i + 1} column {j + 1}: {g!r} != {w!r}") from None
            assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)), (
                f"{name} line {i + 1} column {j + 1}: {g} vs committed {w}"
            )
    return f"each numeric cell to {REL_TOL:g} relative (platform differs)"


def regenerate() -> None:
    # the acceptance module holds the run configurations; this script's
    # directory is on sys.path when it is run as a file
    from mdsigma.harness import run
    from test_acceptance import K4_CONFIG, MC_CONFIG, universality_config

    outputs = {
        "criterion_03.csv": run(MC_CONFIG).to_csv().encode("utf-8"),
        "criterion_08.csv": run(K4_CONFIG).to_csv().encode("utf-8"),
    }
    for dist in ("laplace", "uniform"):
        outputs[f"criterion_09_{dist}.csv"] = run(universality_config(dist)).to_csv().encode("utf-8")
    for name, argv in SWEEPS.items():
        outputs[name] = sweep_csv(argv)
    header = "".join(platform_lines()) + f"# loop-backend: {loop_backend()}\n"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in outputs.items():
        (GOLDEN_DIR / name).write_bytes(header.encode("utf-8") + data)
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
