"""Seeded inputs, generated once and cached under the checkout.

Generation never runs inside a timed region.  Drive frames depend on
the workload seed: it drives the scanner noise and the point sampling
of each frame, while the street scene itself stays fixed (scene seed
0), so runs on different seeds measure the same kind of scene.  The
million-point map is one fixed map (``city_block_map`` seed 0) shared
by every seed, because generating it takes about half a minute; what
the seed varies there is which stretches of the map are queried.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from common import cache_dir


@dataclass(frozen=True)
class DriveFrames:
    """Sensor-frame clouds of successive frames, with ground-truth poses."""

    clouds: list[np.ndarray]
    rotations: list[np.ndarray]
    translations: list[np.ndarray]
    seed: int

    def __len__(self) -> int:
        return len(self.clouds)

    def relative_translation(self, t: int) -> np.ndarray:
        """Translation of frame ``t``'s sensor pose in frame ``t-1``'s."""
        r_prev = self.rotations[t - 1]
        return r_prev.T @ (self.translations[t] - self.translations[t - 1])


def drive_frames(seed: int, n_frames: int, points: int) -> DriveFrames:
    """The first ``n_frames`` ground-removed frames of a seeded drive."""
    path = cache_dir() / f"drive-p{points}-s{seed}.npz"
    if path.exists():
        with np.load(path) as doc:
            if int(doc["n"]) >= n_frames:
                return DriveFrames(
                    clouds=[doc[f"xyz{i}"] for i in range(n_frames)],
                    rotations=[doc[f"rot{i}"] for i in range(n_frames)],
                    translations=[doc[f"trans{i}"] for i in range(n_frames)],
                    seed=seed,
                )
    from repro.datasets import DriveConfig, generate_drive
    from repro.datasets.drive import scanner_for

    config = DriveConfig(
        n_frames=n_frames, target_points=points, scene_seed=0,
        scanner=scanner_for(points) if points < 30_000 else DriveConfig().scanner,
    )
    arrays: dict[str, np.ndarray] = {"n": np.array(n_frames)}
    for i, frame in enumerate(generate_drive(config, seed=seed)):
        arrays[f"xyz{i}"] = np.ascontiguousarray(frame.sensor_cloud().xyz)
        arrays[f"rot{i}"] = frame.ego_pose.rotation
        arrays[f"trans{i}"] = frame.ego_pose.translation
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return drive_frames(seed, n_frames, points)


def city_map(points: int) -> np.ndarray:
    """Path-backed ``(points, 3)`` map of accumulated drive frames."""
    path = cache_dir() / f"city-{points}.npy"
    if not path.exists():
        from repro.datasets.city import city_block_map

        tmp = path.with_suffix(".tmp.npy")
        city_block_map(points, seed=0, out=tmp)
        os.replace(tmp, path)
    return np.load(path, mmap_mode="r")
