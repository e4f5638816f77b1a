"""Set-up time in a fresh interpreter: import tropsolve, then one op.

Usage: python setup_probe.py SRC_DIR < op

The op arrives on stdin as one JSON header line (kind, n, which
matrices follow) and then raw float64 bytes, so nothing but the standard
library is loaded before the clock starts.  Prints ``{"setup_s": ...}``.
"""

import json
import sys
import time


def main() -> None:
    header = json.loads(sys.stdin.buffer.readline())
    body = sys.stdin.buffer.read()
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import numpy as np

    import tropsolve as ts

    n, size = header["n"], header["n"] ** 2 * 8
    A, B = (np.frombuffer(body[i * size : (i + 1) * size]).reshape(n, n) for i in range(2))
    kind = header["kind"]
    if kind == "constrained":
        ts.solve_constrained(ts.ProblemInstance(A, B))
    elif kind == "unconstrained":
        ts.solve_unconstrained(A)
    else:
        ts.solve_linear_inequality(B)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
