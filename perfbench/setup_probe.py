"""One cold set-up, timed in a fresh interpreter:

    python3 perfbench/setup_probe.py SRC_DIR [MPS_FILE ...]

times ``import liftproject`` from ``SRC_DIR`` and then ``read_mps`` plus
``normalize`` of every file, and prints one JSON object with the total in
seconds and the path of the imported package.  ``run.py`` starts it several
times and reports the median.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, files = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import liftproject

    for path in files:
        liftproject.normalize(liftproject.read_mps(path))
    print(json.dumps({
        "module": liftproject.__file__,
        "setup_s": time.perf_counter() - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
