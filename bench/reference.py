"""Fixed reference computations that time the host, not the program.

The benchmark's host is a virtual machine on a shared server. In stretches
that last from seconds to tens of minutes, the same code takes up to twice
the CPU time it takes in a calm stretch, whatever the code: a call of
time.perf_counter, an eigensolve and a HiGHS solve all slow down. The guest
kernel does not book this as steal, so CPU time carries it in full. A
reference computation that never changes, run on either side of each timed
piece of work, slows down in the same way; the ratio of the two is the
program's own speed.

Each reference mirrors the kind of work that dominates a workload:

- "python": a Python loop of small numpy operations, like the n=128
  `control` run, whose time goes to per-call overhead;
- "dense": an n=512 symmetric eigensolve and n=1024 dense products, like the
  n=1024 `control` run;
- "lp": small sparse LPs through scipy's HiGHS, in the form `specineq`
  solves once per grid cell, like the `specineq` sweeps;
- "imports": a fresh interpreter that imports the libraries the program
  stands on (IMPORTS_CODE), like a set-up, which imports them, the program
  and the benchmark, and writes the inputs.

Nothing here imports simulheat, so no change to the program moves a
reference. A time divided by its reference and multiplied by NOMINAL_S reads
in CPU seconds of the host in a calm stretch. NOMINAL_S holds each
reference's CPU time in such a stretch (Intel Xeon virtual machine, 2 cores,
Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31 on one thread):
the ops' CPU times from a calm stretch, divided by their ratio to the
reference measured in a slow one. The constants scale the figures and do
not change their spread.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse

from tracer import CLOCK

NOMINAL_S = {"python": 0.0200, "dense": 0.0412, "lp": 0.184, "imports": 0.450}

IMPORTS_CODE = "import time, numpy, scipy.linalg, scipy.optimize, scipy.sparse; print('ready', time.process_time())"


def _python(rng: np.random.Generator):
    decay = np.exp(-np.linspace(0.0, 40.0, 256))
    x0 = rng.standard_normal(256)

    def run() -> float:
        x, total = x0.copy(), 0.0
        for k in range(8000):
            x = decay * x + 1e-3 * x0[k % 256]
            total += float(np.sqrt(x @ x)) + k % 7
        return total

    return run


def _dense(rng: np.random.Generator):
    a = rng.standard_normal((512, 512))
    a = a + a.T
    b = rng.standard_normal((1024, 1024))
    v = rng.standard_normal((1024, 64))

    def run() -> float:
        w = np.linalg.eigh(a)[0]
        y = v
        for _ in range(4):
            y = b @ y
            y /= np.abs(y).max()
        return float(w[0] + y[0, 0])

    return run


def _lp(rng: np.random.Generator):
    # the peak-cell LP form of an exact-LP constant estimate: K free
    # coefficients, nw slacks, |(Ec)_j| <= s_j on the window, (Ec)_i fixed
    k, nw, cells = 5, 16, 96
    e = rng.standard_normal((cells, k))
    ew = scipy.sparse.csr_matrix(e[:nw])
    slack = scipy.sparse.eye(nw, format="csr")
    a_ub = scipy.sparse.vstack(
        [scipy.sparse.hstack([ew, -slack]), scipy.sparse.hstack([-ew, -slack])], format="csr"
    )
    b_ub = np.zeros(2 * nw)
    obj = np.concatenate([np.zeros(k), np.full(nw, 1.0 / nw)])
    bounds = [(None, None)] * k + [(0.0, None)] * nw

    def run() -> float:
        total = 0.0
        for i in range(cells):
            a_eq = np.concatenate([e[i], np.zeros(nw)])[None, :]
            res = scipy.optimize.linprog(obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
            total += res.fun
        return total

    return run


KINDS = {"python": _python, "dense": _dense, "lp": _lp}


class Reference:
    """One fixed in-process computation of `kind`; calling it returns its CPU seconds."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._run = KINDS[kind](np.random.default_rng(20230213))
        self._run()  # warm-up

    def __call__(self) -> float:
        t0 = CLOCK()
        self._run()
        return CLOCK() - t0
