"""Seeded random matrix generation and the structured falsification library.

All randomness in the package flows through :func:`make_rng`, which wraps a
counter-based generator keyed by a single 64-bit seed, so identical seeds
reproduce identical streams regardless of call interleaving elsewhere.

:func:`random_hermitians` is two steps, which :func:`~nctrace.certify.falsify`
also takes apart: the raw Gaussian Hermitian draws
(:func:`_draw_hermitians`) and their rescaling to norm R by given norms
(:func:`_scale_to_radius`).  ``random_hermitians`` rescales by the SVD
norm; falsify screens each chunk of draws rescaled by their largest
absolute eigenvalue, a cheaper norm that agrees to about 1e-15 relative,
and rebuilds a trial that passes the screen as ``random_hermitians`` would,
so its output is unchanged bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .moments import MatrixTuple, as_matrix_tuple


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_hermitian(rng: np.random.Generator, size: int, radius: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to spectral norm ``radius``."""
    return random_hermitians(rng, (), size, radius)


def random_hermitians(
    rng: np.random.Generator, shape: tuple, size: int, radius: float = 1.0
) -> np.ndarray:
    """Array of shape ``(*shape, size, size)`` of :func:`random_hermitian` draws.

    One ``rng.normal`` call of shape ``(*shape, 2, size, size)`` is the same
    stream as drawing the matrices one by one in C order, the real part of
    each before its imaginary part, so the result equals that loop's bit for
    bit.  A draw is multiplied by ``radius / norm``; one whose norm is so
    small that this factor overflows is divided by its norm first instead.
    """
    h = _draw_hermitians(rng, shape, size)
    return _scale_to_radius(h, np.linalg.norm(h, 2, axis=(-2, -1)), radius)


def _draw_hermitians(rng: np.random.Generator, shape: tuple, size: int) -> np.ndarray:
    """The unscaled Gaussian Hermitian draws of :func:`random_hermitians`."""
    g = rng.normal(size=(*shape, 2, size, size))
    a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _scale_to_radius(h: np.ndarray, norm: np.ndarray, radius: float) -> np.ndarray:
    """Draws h, of the given norms, rescaled to norm ``radius`` as
    :func:`random_hermitians` does; h itself is left as it is."""
    with np.errstate(over="ignore"):
        scale = np.divide(radius, norm, out=np.ones_like(norm), where=norm > 0)
    tiny = np.isinf(scale)
    if tiny.any():
        h = h.copy()
        h[tiny] /= norm[tiny][:, None, None]
        scale[tiny] = radius
    return h * scale[..., None, None]


def random_tuple(rng: np.random.Generator, nvars: int, size: int, radius: float = 1.0) -> MatrixTuple:
    return as_matrix_tuple(random_hermitians(rng, (nvars,), size, radius))


def pauli_pair() -> list[np.ndarray]:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return [sx, sz]


def _sign_patterns(size: int) -> list[np.ndarray]:
    alternating = np.array([(-1.0) ** i for i in range(size)])
    half = np.array([1.0 if i < (size + 1) // 2 else -1.0 for i in range(size)])
    spike = np.array([1.0] + [-1.0] * (size - 1)) if size > 1 else np.array([1.0])
    return [np.ones(size), alternating, half, spike]


def structured_library(nvars: int, size: int) -> list[MatrixTuple]:
    """Fixed tuples probed before random search when hunting counterexamples.

    Contains the all-zero tuple, identities, diagonal sign patterns rotated
    across the variables, and the Pauli x/z pair padded with identities to
    the requested number of variables.
    """
    out = [
        as_matrix_tuple([np.zeros((size, size), dtype=complex)] * nvars),
        as_matrix_tuple([np.eye(size, dtype=complex)] * nvars),
    ]
    patterns = _sign_patterns(size)
    for offset in range(len(patterns)):
        mats = [
            np.diag(patterns[(j + offset) % len(patterns)]).astype(complex)
            for j in range(nvars)
        ]
        out.append(as_matrix_tuple(mats))
    sx, sz = pauli_pair()
    pauli_mats = [sx, sz] + [np.eye(2, dtype=complex)] * max(0, nvars - 2)
    out.append(as_matrix_tuple(pauli_mats[:nvars]))
    return out


@lru_cache(maxsize=8)
def _library(nvars: int, size: int) -> tuple:
    """:func:`structured_library` as a tuple whose arrays are read-only.

    :func:`~nctrace.certify.falsify` keeps the libraries of the last 8
    (nvars, size) a process asked for that ``moments.cacheable(nvars, 2,
    size)`` admits, and builds any other for its call.
    """
    library = tuple(structured_library(nvars, size))
    for X in library:
        for M in X.matrices:
            M.flags.writeable = False
    return library
