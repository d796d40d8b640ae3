"""Seeded input generators whose verdict is known without asking ``peu``.

Every generator returns plain numpy arrays plus the fact the benchmark
checks against:

- Gaussian and PRBS signals are persistently exciting of the requested
  order; ``exciting_input`` confirms it with its own SVD and redraws
  otherwise, so the ground truth never rests on probability alone.
- A multisine with F distinct tones lives in a 2F-dimensional space of
  sequences, so its depth-k Hankel matrix has rank at most 2F and the
  signal is not exciting of any order k with k*m > 2F.
- A real exponential ``c * rho**t`` has rank-1 Hankel matrices; it covers
  the case m = 1, L = 1 of the cloud, where a single tone (rank 2) would
  still be exciting of order L + 1 = 2.

Tones sit in separate bins of (0.15, pi - 0.15), which keeps them away
from 0 and pi (where a tone loses rank) and from each other (where the
Hankel matrix becomes ill-conditioned). Samples stay bounded by the
coefficient sizes, unlike inputs built by running an annihilation
recursion forward.
"""

from __future__ import annotations

import json

import numpy as np

EXCITATION_MARGIN = 1e-3  # smallest/largest singular value a "universal" input must keep


def hankel(u, k):
    """Depth-k block-Hankel matrix of a (T, m) array: column j stacks u[j..j+k-1]."""
    T, m = u.shape
    windows = np.lib.stride_tricks.sliding_window_view(u, (k, m))[:, 0]
    return windows.reshape(T - k + 1, k * m).T


def excitation_ratio(u, k):
    """sigma_min / sigma_max of the depth-k Hankel matrix; 0 when it has too few columns."""
    s = np.linalg.svd(hankel(u, k), compute_uv=False)
    return float(s[-1] / s[0]) if k * u.shape[1] <= u.shape[0] - k + 1 else 0.0


def exciting_input(rng, family, T, m, order):
    """Gaussian or PRBS input, redrawn until it is exciting of ``order`` with margin."""
    while True:
        if family == "gauss":
            u = rng.standard_normal((T, m))
        else:
            u = rng.choice([-1.0, 1.0], size=(T, m))
        if excitation_ratio(u, order) > EXCITATION_MARGIN:
            return u


def tone_frequencies(rng, count):
    edges = np.linspace(0.15, np.pi - 0.15, count + 1)
    width = edges[1] - edges[0]
    return edges[:-1] + width * rng.uniform(0.2, 0.8, size=count)


def multisine(rng, T, m, tones):
    """Sum of ``tones`` sinusoids with random vector coefficients; Hankel rank <= 2*tones."""
    t = np.arange(T)[:, None]
    w = tone_frequencies(rng, tones)[None, :]
    return (np.cos(t * w) @ rng.standard_normal((tones, m))
            + np.sin(t * w) @ rng.standard_normal((tones, m)))


def exponential(rng, T, m):
    """``c * rho**t`` with |rho| < 1; every Hankel matrix has rank 1."""
    rho = rng.uniform(0.8, 0.97)
    return np.outer(rho ** np.arange(T), rng.standard_normal(m))


def non_exciting_input(rng, T, m, order):
    """Input that is not exciting of ``order``; returns (u, rank bound, family).

    A multisine with between half and all of the tones the order allows
    (2F < order*m); when it allows none, an exponential of rank 1 < order*m.
    """
    tones = (order * m - 1) // 2
    if tones == 0:
        return exponential(rng, T, m), 1, "exponential"
    tones = int(rng.integers((tones + 1) // 2, tones + 1))
    return multisine(rng, T, m, tones), 2 * tones, "multisine"


def pbh_margin(A, B):
    """Smallest sigma_n([A - lambda I, B]) over the eigenvalues, relative to ||[A, B]||.

    The Popov-Belevitch-Hautus test: (A, B) is controllable iff the
    margin is positive. A triangular A (the Jordan blocks of the
    certificates) has its diagonal as exact spectrum, which avoids the
    ill-conditioned eigenvalues of a large Jordan block.
    """
    n = A.shape[0]
    if not np.any(np.tril(A, -1)):
        eigs = np.diag(A).astype(complex)
    else:
        eigs = np.linalg.eigvals(A)
    scale = max(1.0, float(np.linalg.norm(np.hstack([A, B]), 2)))
    margin = np.inf
    for lam in np.unique(np.round(eigs, 12)):
        M = np.hstack([A - lam * np.eye(n), B])
        margin = min(margin, float(np.linalg.svd(M, compute_uv=False)[n - 1]) / scale)
    return margin


def unstable_system(rng, n, m, p, rho=1.02):
    """Random (A, B, C, D), controllable with margin, A scaled to spectral radius ``rho``."""
    while True:
        A = rng.standard_normal((n, n))
        A *= rho / float(np.abs(np.linalg.eigvals(A)).max())
        B = rng.standard_normal((n, m))
        if pbh_margin(A, B) > 1e-3:
            return A, B, rng.standard_normal((p, n)), rng.standard_normal((p, m))


def write_signal(path, u):
    """Signal CSV in the layout ``peu`` reads: header t,u1..um, full-precision cells."""
    lines = ["t," + ",".join(f"u{j + 1}" for j in range(u.shape[1]))]
    lines += [f"{t}," + ",".join(repr(float(x)) for x in row) for t, row in enumerate(u)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_system(path, A, B, C, D):
    obj = {"n": A.shape[0], "m": B.shape[1], "p": C.shape[0],
           "A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": D.tolist()}
    with open(path, "w") as fh:
        json.dump(obj, fh)
