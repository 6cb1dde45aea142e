"""One set-up of a benchmark run, in a fresh interpreter.

Times `import anchorlab.cli` (every CLI user pays it) and then the building
and saving of the workload's model and inputs. Writes the session facts to
OUTDIR/facts.json and prints {"import_s", "build_s"} as one JSON line.

    python3 perfbench/prepare.py WORKLOAD SEED SIZE OUTDIR

`src` must be on PYTHONPATH; run.py sets it.
"""

import time

_start = time.perf_counter()
import anchorlab.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    workload, seed, size, outdir = argv
    start = time.perf_counter()
    facts = workloads.prepare(workload, int(seed), size, outdir)
    with open(os.path.join(outdir, "facts.json"), "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": IMPORT_S, "build_s": build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
