"""Set-up probe: import mdsigma in a fresh interpreter and run the warm-up.

Prints one JSON line ``{"import_s": ..., "warm_up_s": ...}`` when ready.
The parent times the span from spawning this interpreter to that line.
"""

import json
import time


def warm_up(mdsigma):
    """The acceptance suite's warm-up: one 2^14-sample K=2 run."""
    cfg = mdsigma.ExperimentConfig(
        sigma_e2=0.01, p=2, gamma=3.0, n_samples=1 << 14, n_trials=1, master_seed=1
    )
    mdsigma.run(cfg)


if __name__ == "__main__":
    start = time.perf_counter()
    import mdsigma

    imported = time.perf_counter()
    warm_up(mdsigma)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warm_up_s": done - imported}), flush=True)
