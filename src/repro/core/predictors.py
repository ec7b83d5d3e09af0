"""Pluggable predictors: the registry behind compression step 2.

The paper ships the 1-D block-local Lorenzo predictor because the wafer
mapping demands *block locality* — each PE must be able to transform its
block without talking to neighbours. But prediction is a composable stage
(SZ3 makes it a first-class pipeline step), and multi-dimensional
predictors buy real ratio on smooth 2-D/3-D fields. This module makes the
predictor an explicit, registry-backed axis instead of a hardcoded branch.

Every predictor declares a **locality contract**:

``block_local``
    The transform of one ``(block_size,)`` block depends only on that
    block. These predictors run through the fused fast path, shard under
    ``jobs=`` with byte-identical output, support random access, and
    lower onto the WSE plan IR. API: :meth:`Predictor.predict_blocks` /
    :meth:`Predictor.reconstruct_blocks` over ``(num_blocks, L)`` views.

``whole_array``
    The transform needs the full N-D array (a global prefix/interpolation
    dependency). These predictors trade wafer-mappability for ratio — the
    paper's Section 3 trade — so they are host-only: the codec predicts
    once over the whole array, then the *residuals* flow through the
    block encoder (and can be sharded/fused freely, because encoding is
    block-local even when prediction is not). API:
    :meth:`Predictor.predict` / :meth:`Predictor.reconstruct` over the
    N-D code array.

Each predictor also carries a stable integer ``tag`` stored in the
container header (see :mod:`repro.core.format`), which is what makes
streams self-describing: decode dispatch is purely header-driven.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError

from repro.core.lorenzo import (
    lorenzo_predict_nd,
    lorenzo_reconstruct_nd,
)

#: Locality contract names (see the module docstring).
BLOCK_LOCAL = "block_local"
WHOLE_ARRAY = "whole_array"


class Predictor:
    """Base class: a named, tagged prediction transform.

    Subclasses implement exactly one of the two API pairs, matching their
    declared locality. Calling the wrong pair raises with a message that
    names the contract, so misuse surfaces as a diagnostic rather than a
    silently wrong stream.
    """

    #: Canonical registry name (also what ``--predictor`` accepts).
    name: str = ""
    #: Stable container tag (u8) stored in stream headers. Never reuse.
    tag: int = -1
    #: ``block_local`` or ``whole_array``.
    locality: str = ""
    #: One-line summary for docs/CLI listings.
    summary: str = ""

    @property
    def block_local(self) -> bool:
        return self.locality == BLOCK_LOCAL

    # -- block-local API ---------------------------------------------------
    def predict_blocks(
        self, codes: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Residuals of a ``(num_blocks, L)`` code array, row-independent."""
        raise CompressionError(
            f"predictor {self.name!r} declares locality {self.locality!r}; "
            "it has no per-block transform — use predict() on the full array"
        )

    def reconstruct_blocks(
        self, residuals: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact inverse of :meth:`predict_blocks`."""
        raise CompressionError(
            f"predictor {self.name!r} declares locality {self.locality!r}; "
            "it has no per-block inverse — use reconstruct() on the full array"
        )

    # -- whole-array API ---------------------------------------------------
    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Residuals of the full N-D code array (int64 in, int64 out)."""
        raise CompressionError(
            f"predictor {self.name!r} declares locality {self.locality!r}; "
            "apply it per block via predict_blocks()"
        )

    def reconstruct(self, residuals: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`predict`."""
        raise CompressionError(
            f"predictor {self.name!r} declares locality {self.locality!r}; "
            "invert it per block via reconstruct_blocks()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Predictor {self.name} tag={self.tag} {self.locality}>"


class Lorenzo1D(Predictor):
    """Block-local first-order difference — the paper's default.

    The transform here is bit-for-bit the one the fused fast path inlined
    before the registry existed; ``lorenzo1d`` streams are byte-identical
    to pre-refactor streams.
    """

    name = "lorenzo1d"
    tag = 0
    locality = BLOCK_LOCAL
    summary = "1-D block-local Lorenzo (paper default; wafer-mappable)"

    def predict_blocks(self, codes, out=None):
        c = np.asarray(codes)
        if out is None:
            out = np.empty_like(c)
        out[:, 0] = c[:, 0]
        np.subtract(c[:, 1:], c[:, :-1], out=out[:, 1:])
        return out

    def reconstruct_blocks(self, residuals, out=None):
        r = np.asarray(residuals)
        if out is None:
            out = np.empty_like(r)
        np.cumsum(r, axis=1, out=out)
        return out


class LorenzoND(Predictor):
    """Full N-D Lorenzo over every axis (``CereSZ(predictor="nd")``)."""

    name = "nd"
    tag = 1
    locality = WHOLE_ARRAY
    summary = "N-D Lorenzo over all axes (host-only)"

    def predict(self, codes):
        return lorenzo_predict_nd(codes)

    def reconstruct(self, residuals):
        return lorenzo_reconstruct_nd(residuals)


class _LorenzoKD(Predictor):
    """K-D Lorenzo over the *last* ``min(k, ndim)`` axes.

    On data with at least ``k`` dimensions this matches SZ3's k-D Lorenzo
    operator; on lower-dimensional data it degrades gracefully to the
    widest operator the shape supports (so ``lorenzo3d`` on a 2-D field
    behaves like ``lorenzo2d``, not like an error).
    """

    locality = WHOLE_ARRAY
    _k = 0

    def _axes(self, ndim: int) -> range:
        return range(max(0, ndim - self._k), ndim)

    def predict(self, codes):
        arr = np.asarray(codes)
        if arr.ndim < 1:
            raise CompressionError(f"{self.name} needs at least 1-D data")
        out = arr.astype(np.int64, copy=True)
        for axis in self._axes(arr.ndim):
            out = np.diff(out, axis=axis, prepend=0)
        return out

    def reconstruct(self, residuals):
        arr = np.asarray(residuals, dtype=np.int64)
        out = arr
        for axis in reversed(self._axes(arr.ndim)):
            out = np.cumsum(out, axis=axis, dtype=np.int64)
        return out


class Lorenzo2D(_LorenzoKD):
    name = "lorenzo2d"
    tag = 2
    summary = "2-D Lorenzo over the last two axes (host-only)"
    _k = 2


class Lorenzo3D(_LorenzoKD):
    name = "lorenzo3d"
    tag = 3
    summary = "3-D Lorenzo over the last three axes (host-only)"
    _k = 3


class Regression(Predictor):
    """Block-local linear extrapolation: ``pred_i = 2 c_{i-1} - c_{i-2}``.

    Equivalent to applying the first-order difference twice, so the
    residual is the within-block second derivative — zero wherever the
    quantized field is locally linear, which the plain Lorenzo predictor
    only achieves on locally *constant* fields. It stays block-local
    (each row transforms independently), so it runs the fused fast path,
    shards, random-accesses, and lowers onto the WSE like ``lorenzo1d``.
    """

    name = "regression"
    tag = 4
    locality = BLOCK_LOCAL
    summary = "block-local linear extrapolation (2nd difference; mappable)"

    def predict_blocks(self, codes, out=None):
        c = np.asarray(codes)
        if out is None:
            out = np.empty_like(c)
        out[:, 0] = c[:, 0]
        np.subtract(c[:, 1:], c[:, :-1], out=out[:, 1:])
        # Second pass; the copy pins the first-pass values so the
        # in-place subtraction reads them, not partially updated ones.
        out[:, 1:] -= out[:, :-1].copy()
        return out

    def reconstruct_blocks(self, residuals, out=None):
        r = np.asarray(residuals)
        if out is None:
            out = np.empty_like(r)
        np.cumsum(r, axis=1, out=out)
        np.cumsum(out, axis=1, out=out)
        return out


class Interpolation(Predictor):
    """SZ3-style binary interpolation along the last axis.

    Anchors index 0, then fills in points level by level: at stride ``s``
    every odd multiple of ``s`` is predicted as the floor-average of its
    two stride-``s`` neighbours (or copied from the left neighbour at the
    boundary). Those neighbours are even multiples of ``s`` — i.e. points
    of a *coarser* level — so decompression reconstructs coarse-to-fine
    and the transform is exactly invertible in int64. The dependency
    spans the whole axis, hence ``whole_array``.
    """

    name = "interpolation"
    tag = 5
    locality = WHOLE_ARRAY
    summary = "binary interpolation along the last axis (SZ3-style; host-only)"

    @staticmethod
    def _levels(n: int) -> list[int]:
        """Strides from coarsest down to 1 (empty for n <= 1)."""
        if n <= 1:
            return []
        s = 1
        while s * 2 < n:
            s *= 2
        levels = []
        while s >= 1:
            levels.append(s)
            s //= 2
        return levels

    @staticmethod
    def _predicted(known: np.ndarray, idx: np.ndarray, s: int, n: int):
        """Predictions for the level-``s`` points ``idx`` from ``known``."""
        pred = known[..., idx - s].copy()
        has_right = idx + s < n
        if has_right.any():
            ridx = idx[has_right]
            pair = known[..., ridx - s] + known[..., ridx + s]
            pred[..., has_right] = pair >> 1  # arithmetic shift = floor/2
        return pred

    def predict(self, codes):
        arr = np.asarray(codes)
        if arr.ndim < 1:
            raise CompressionError(f"{self.name} needs at least 1-D data")
        c = arr.astype(np.int64, copy=False)
        out = c.copy()
        n = arr.shape[-1]
        for s in self._levels(n):
            idx = np.arange(s, n, 2 * s)
            out[..., idx] = c[..., idx] - self._predicted(c, idx, s, n)
        return out

    def reconstruct(self, residuals):
        arr = np.asarray(residuals)
        out = arr.astype(np.int64, copy=True)
        n = arr.shape[-1] if arr.ndim else 0
        for s in self._levels(n):
            idx = np.arange(s, n, 2 * s)
            out[..., idx] += self._predicted(out, idx, s, n)
        return out


_REGISTRY: dict[str, Predictor] = {}
_BY_TAG: dict[int, Predictor] = {}


def register_predictor(predictor: Predictor) -> Predictor:
    """Add a predictor to the registry; names and tags must be unique."""
    if not predictor.name or predictor.tag < 0 or not predictor.locality:
        raise CompressionError(
            f"predictor {predictor!r} is missing a name, tag, or locality"
        )
    if predictor.locality not in (BLOCK_LOCAL, WHOLE_ARRAY):
        raise CompressionError(
            f"unknown locality {predictor.locality!r} for {predictor.name!r}"
        )
    if predictor.name in _REGISTRY:
        raise CompressionError(f"duplicate predictor name {predictor.name!r}")
    if predictor.tag in _BY_TAG:
        raise CompressionError(f"duplicate predictor tag {predictor.tag}")
    _REGISTRY[predictor.name] = predictor
    _BY_TAG[predictor.tag] = predictor
    return predictor


def get_predictor(name: str | Predictor) -> Predictor:
    """Resolve a predictor by name or pass one through."""
    if isinstance(name, Predictor):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise CompressionError(
            f"unknown predictor {name!r}; registered: {known}"
        ) from None


def predictor_from_tag(tag: int) -> Predictor:
    """Resolve a container predictor tag; raises on unknown tags."""
    try:
        return _BY_TAG[int(tag)]
    except KeyError:
        raise CompressionError(f"unknown predictor tag {tag}") from None


def registered_predictors() -> tuple[Predictor, ...]:
    """All registered predictors, ordered by container tag."""
    return tuple(_BY_TAG[t] for t in sorted(_BY_TAG))


def predictor_names() -> tuple[str, ...]:
    """Canonical names, tag order (what ``--predictor`` advertises)."""
    return tuple(p.name for p in registered_predictors())


LORENZO_1D = register_predictor(Lorenzo1D())
LORENZO_ND = register_predictor(LorenzoND())
LORENZO_2D = register_predictor(Lorenzo2D())
LORENZO_3D = register_predictor(Lorenzo3D())
REGRESSION = register_predictor(Regression())
INTERPOLATION = register_predictor(Interpolation())

#: The paper's default.
DEFAULT_PREDICTOR = LORENZO_1D.name
