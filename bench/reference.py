"""Fixed reference kernels that measure how fast the host runs right now.

The host's speed drifts by up to 2x over minutes (other tenants share the
physical cores), far more than any regression bound.  Each workload
therefore runs a reference kernel before its first repeat and after every
repeat, and its end-to-end times are scaled by ``nominal / measured`` kernel
time: they read as seconds at the reference speed.  A kernel does the same
kind of work as its workload's dominant layer (small least-squares solves,
large solves plus sorts, pair blocks plus per-object loops, extended-precision
arithmetic; unmarshalling and running module bodies for set-up, which is
mostly imports), so the two slow down together.  The kernels use numpy, scipy
and mpmath only, never surfspline: a change to the library cannot move them.
"""

from __future__ import annotations

import marshal
import time
from typing import NamedTuple

import mpmath as mp
import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

#: Time each kernel takes at the reference speed; sizes are set so that the
#: kernels take about this long on the 2-core host the baseline was taken on.
NOMINAL_S = 0.2


def _grid(half: int, step: float) -> np.ndarray:
    g = np.arange(-half, half + 1) * step
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _exponents(degree: int) -> np.ndarray:
    return np.array([(a, t - a) for t in range(degree + 1) for a in range(t + 1)])


def _solve(pts, tree, expo, x, radius):
    idx = np.asarray(tree.query_ball_point(x, radius), dtype=np.intp)
    dist = np.linalg.norm(pts[idx] - x, axis=1)
    idx = idx[np.lexsort((idx, dist))]
    scaled = (pts[idx] - x) / radius
    bmat = np.prod(scaled[None] ** expo[:, None, :], axis=2)
    rhs = np.zeros(len(expo))
    rhs[0] = 1.0
    scipy.linalg.lstsq(bmat, rhs, cond=1e-10, lapack_driver="gelsd")


class _Cube(NamedTuple):
    level: int
    corner: tuple


class Reference:
    """One kernel, with its inputs built once; :meth:`run` returns seconds."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "small_solves":
            self.pts = _grid(16, 1 / 8)
            self.expo = _exponents(7)
            self.queries = rng.uniform(-1, 1, (150, 2))
        elif kind == "large_solves":
            self.pts = _grid(90, 1 / 15)
            self.expo = _exponents(14)
            self.queries = rng.uniform(-2, 2, (12, 2))
            self.rows = rng.uniform(-6, 6, (4000, 2))
        elif kind == "pair_blocks":
            self.pts = rng.uniform(-0.5, 0.5, (2500, 2))
            self.vals = rng.uniform(0.01, 0.1, 2500)
            self.cubes = [_Cube(6, (i, j)) for i in range(-32, 32) for j in range(-32, 32)]
        elif kind == "interpreter":
            self.code = compile("\n".join(
                f"def f{i}(x):\n    return [x * {i}, str(x), {{'k': x, 'i': {i}}}]"
                for i in range(100)) + "\nfor i in range(1000): f7(i)\n", "<reference>", "exec")
        elif kind == "mp_arith":
            with mp.workdps(60):
                self.a = mp.matrix([[mp.mpf(rng.uniform(-1, 1)) for _ in range(64)]
                                    for _ in range(40)])
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        if kind in ("small_solves", "large_solves"):
            self.tree = cKDTree(self.pts)

    def run(self) -> float:
        t0 = time.perf_counter()
        getattr(self, "_" + self.kind)()
        return time.perf_counter() - t0

    def _interpreter(self):
        for _ in range(250):
            exec(marshal.loads(marshal.dumps(self.code)), {})

    def _small_solves(self):
        for x in self.queries:
            np.sort(np.linalg.norm(self.pts - x, axis=1))
            _solve(self.pts, self.tree, self.expo, x, 0.7)

    def _large_solves(self):
        for x in self.queries:
            np.sort(np.linalg.norm(self.pts - x, axis=1))
            _solve(self.pts, self.tree, self.expo, x, 0.5)
        text = "\n".join(f"{x:.17g},{y:.17g},3" for x, y in self.rows)
        [[float(v) for v in ln.split(",")] for ln in text.splitlines()]

    def _pair_blocks(self):
        for start in range(0, len(self.pts), 512):
            vx = self.vals[start:start + 512][:, None]
            d = cdist(self.pts[start:start + 512], self.pts)
            np.min(self.vals[None, :] / (vx * (1.0 + d / vx) ** -2.0))
        x = np.zeros(2)
        sum(1 for c in self.cubes if np.linalg.norm(x - np.array(c.corner) * 2.0**-c.level) <= 0.1)

    def _mp_arith(self):
        with mp.workdps(60):
            self.a * self.a.T
