"""Launch geometry derived from a tuning configuration.

The six paper parameters — thread coarsening ``(tx, ty, tz)`` and
work-group shape ``(wx, wy, wz)`` — determine, for a given problem size,
the whole launch geometry: block tiles, grid dimensions, padding waste and
the warp lane layout.  All downstream models (memory, compute, occupancy)
consume this one derived structure, so it is computed once per call.

The six inputs are *broadcastable* columns: an ``(n,)`` column each for a
batch of configuration rows, or one axis each of a configuration grid
(a full-space block fixes its leading parameters as 1-element arrays and
spans the trailing ones).  Every field then takes the broadcast shape of
only the parameters it depends on — ``block_threads`` is a
``wx x wy x wz`` grid, not one value per configuration — and the model's
downstream arithmetic broadcasts the rest.  The arithmetic is elementwise,
so a grid gives every configuration the same bits as a row of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workload import WorkloadProfile

__all__ = ["LaunchGeometry", "derive_geometry"]


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return -(-a // b)


@dataclass(frozen=True)
class LaunchGeometry:
    """Launch geometry; every field is an array over (broadcast) configs."""

    # Tile of output elements covered by one block, per dimension.
    tile_x: np.ndarray
    tile_y: np.ndarray
    tile_z: np.ndarray
    # Grid dimensions in blocks.
    grid_x: np.ndarray
    grid_y: np.ndarray
    grid_z: np.ndarray
    #: Total blocks in the launch.
    total_blocks: np.ndarray
    #: Threads per block (``wx * wy * wz``).
    block_threads: np.ndarray
    #: Total coarsening factor (``tx * ty * tz``) — nominal elements per
    #: thread.
    coarsening: np.ndarray
    #: Coarsening clipped by the image extents (``min(t, size)`` per dim):
    #: the elements a thread *actually* processes, which is what register
    #: pressure and ILP scale with (a z-loop over a 1-deep image never
    #: unrolls).
    effective_coarsening: np.ndarray
    #: Grid positions covered by the (padded) launch; positions outside
    #: the image execute only the boundary guard.
    padded_elements: np.ndarray
    #: padded_elements / true elements, >= 1.
    padding_factor: np.ndarray
    #: Fraction of launched threads that produce at least one element.
    #: Threads entirely outside the image exit at the guard almost for
    #: free, but their blocks still hold SM resources until completion, so
    #: this fraction dilutes achieved occupancy (latency hiding).  For 2-D
    #: images (z_size = 1) this is what makes the z parameters cheap
    #: instead of multiplying the work.
    useful_thread_fraction: np.ndarray
    #: Lanes of a warp that fall in the same output row (x-fastest layout).
    lanes_per_row: np.ndarray
    #: Distinct output rows a full warp spans.
    rows_per_warp: np.ndarray
    #: Fraction of warp lanes holding live threads
    #: (``block_threads / (warps_per_block * warp_size)``).
    warp_fill: np.ndarray


def derive_geometry(
    profile: WorkloadProfile,
    tx: np.ndarray,
    ty: np.ndarray,
    tz: np.ndarray,
    wx: np.ndarray,
    wy: np.ndarray,
    wz: np.ndarray,
    warp_size: int = 32,
) -> LaunchGeometry:
    """Derive launch geometry for each configuration (broadcasting).

    Thread coarsening follows ImageCL semantics: each thread produces a
    ``tx x ty x tz`` sub-tile of *consecutive* output elements, so one
    block covers a ``(wx*tx) x (wy*ty) x (wz*tz)`` tile.  The grid pads
    each dimension up to a whole number of tiles; padded elements are
    computed but discarded (boundary guard), wasting their work.
    """
    tx, ty, tz, wx, wy, wz = (
        np.asarray(a, dtype=np.int64) for a in (tx, ty, tz, wx, wy, wz)
    )
    if any((a < 1).any() for a in (tx, ty, tz, wx, wy, wz)):
        raise ValueError("all coarsening/work-group factors must be >= 1")

    tile_x = wx * tx
    tile_y = wy * ty
    tile_z = wz * tz
    grid_x = _ceil_div(np.int64(profile.x_size), tile_x)
    grid_y = _ceil_div(np.int64(profile.y_size), tile_y)
    grid_z = _ceil_div(np.int64(profile.z_size), tile_z)
    total_blocks = grid_x * grid_y * grid_z
    block_threads = wx * wy * wz
    coarsening = tx * ty * tz
    effective_coarsening = (
        np.minimum(tx, np.int64(profile.x_size))
        * np.minimum(ty, np.int64(profile.y_size))
        * np.minimum(tz, np.int64(profile.z_size))
    )

    padded = (grid_x * tile_x) * (grid_y * tile_y) * (grid_z * tile_z)
    padding_factor = padded / float(profile.elements)

    # Threads whose whole sub-tile lies inside the image in each dim.
    threads_x = _ceil_div(np.int64(profile.x_size), tx)
    threads_y = _ceil_div(np.int64(profile.y_size), ty)
    threads_z = _ceil_div(np.int64(profile.z_size), tz)
    useful_threads = threads_x * threads_y * threads_z
    launched_threads = total_blocks * block_threads
    useful_thread_fraction = useful_threads / launched_threads.astype(
        np.float64
    )

    lanes_per_row = np.minimum(wx, warp_size)
    # A warp linearizes threads x-fastest; with fewer than warp_size live
    # threads the warp still spans ceil(live/wx) rows.
    live = np.minimum(block_threads, warp_size)
    rows_per_warp = _ceil_div(live, np.maximum(lanes_per_row, 1))
    warps_per_block = _ceil_div(block_threads, np.int64(warp_size))
    warp_fill = block_threads / (warps_per_block * float(warp_size))

    return LaunchGeometry(
        tile_x=tile_x,
        tile_y=tile_y,
        tile_z=tile_z,
        grid_x=grid_x,
        grid_y=grid_y,
        grid_z=grid_z,
        total_blocks=total_blocks,
        block_threads=block_threads,
        coarsening=coarsening,
        effective_coarsening=effective_coarsening,
        padded_elements=padded,
        padding_factor=padding_factor,
        useful_thread_fraction=useful_thread_fraction,
        lanes_per_row=lanes_per_row,
        rows_per_warp=rows_per_warp,
        warp_fill=warp_fill,
    )
