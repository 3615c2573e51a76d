"""Check the dither draws of one traced benchmark run.

Usage: python .github/check_dither_spans.py TRACE_FILE K

TRACE_FILE is a span list written by ``perfbench/run.py --trace 1``; each
span has a ``name`` and the index of its ``parent`` (-1 at the root).  The
run must draw dither 2K times: K draws under ``codec.encode`` and one per
description, K, under ``codec.decode_subsets``.  Exits 0 if so, 1 if not.
"""

import json
import sys


def ancestors(spans, i):
    """Names of the spans enclosing span i, innermost first."""
    names = []
    while i >= 0:
        names.append(spans[i]["name"])
        i = spans[i]["parent"]
    return names


def main(path, k):
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    draws = [s for s in spans if s["name"] == "ecdq.DitherStream.draw"]
    under = {
        f: sum(f in ancestors(spans, s["parent"]) for s in draws)
        for f in ("codec.encode", "codec.decode_subsets")
    }
    print("ecdq.DitherStream.draw spans:", len(draws), under)
    return 0 if len(draws) == 2 * k and under == {"codec.encode": k, "codec.decode_subsets": k} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
