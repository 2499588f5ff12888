"""Procedural street scenes made of ray-traceable primitives.

A :class:`Scene` is a list of primitives, each supporting vectorized
ray intersection.  Primitives may carry a velocity, which the drive
generator uses to advance dynamic objects (vehicles, pedestrians)
between frames.

The default :func:`make_street_scene` lays out a straight urban road:
a ground plane, building facades along both sides, street poles, parked
and moving vehicles — the structures whose returns dominate a KITTI
frame after ground removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

_NO_HIT = np.inf


class Primitive:
    """Base class for ray-traceable scene objects.

    Subclasses implement :meth:`intersect` returning, for each ray, the
    distance ``t >= 0`` to the first hit or ``inf`` for a miss.
    """

    velocity: np.ndarray

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def moved(self, dt: float) -> "Primitive":
        """The primitive advanced ``dt`` seconds along its velocity."""
        raise NotImplementedError


@dataclass(frozen=True)
class GroundPlane(Primitive):
    """The horizontal plane ``z = height`` (infinite extent)."""

    height: float = 0.0
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        dz = directions[:, 2]
        oz = origins[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (self.height - oz) / dz
        t = np.where((np.abs(dz) > 1e-12) & (t > 1e-9), t, _NO_HIT)
        return t

    def moved(self, dt: float) -> "GroundPlane":
        return self  # ground does not move


@dataclass(frozen=True)
class Box(Primitive):
    """An axis-aligned box, optionally moving with constant velocity."""

    lo: np.ndarray
    hi: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))
        if (self.lo >= self.hi).any():
            raise ValueError(f"degenerate box: lo={self.lo}, hi={self.hi}")

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        # Standard slab test, vectorized across rays.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / directions
        t_lo = (self.lo - origins) * inv
        t_hi = (self.hi - origins) * inv
        t_near = np.minimum(t_lo, t_hi).max(axis=1)
        t_far = np.maximum(t_lo, t_hi).min(axis=1)
        hit = (t_far >= np.maximum(t_near, 0.0)) & (t_far > 1e-9)
        t = np.where(t_near > 1e-9, t_near, t_far)  # inside-box rays exit
        return np.where(hit, t, _NO_HIT)

    def moved(self, dt: float) -> "Box":
        if not self.velocity.any():
            return self
        offset = self.velocity * dt
        return replace(self, lo=self.lo + offset, hi=self.hi + offset)


@dataclass(frozen=True)
class Cylinder(Primitive):
    """A vertical cylinder (pole, trunk): center axis at ``(cx, cy)``."""

    cx: float
    cy: float
    radius: float
    z_lo: float
    z_hi: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")
        if self.z_lo >= self.z_hi:
            raise ValueError("cylinder must have z_lo < z_hi")

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        ox = origins[:, 0] - self.cx
        oy = origins[:, 1] - self.cy
        dx, dy = directions[:, 0], directions[:, 1]
        a = dx * dx + dy * dy
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - self.radius * self.radius
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
            t = (-b - sqrt_disc) / (2.0 * a)
        z = origins[:, 2] + t * directions[:, 2]
        hit = (disc >= 0.0) & (a > 1e-12) & (t > 1e-9) & (z >= self.z_lo) & (z <= self.z_hi)
        return np.where(hit, t, _NO_HIT)

    def moved(self, dt: float) -> "Cylinder":
        if not self.velocity.any():
            return self
        off = self.velocity * dt
        return replace(
            self,
            cx=self.cx + off[0],
            cy=self.cy + off[1],
            z_lo=self.z_lo + off[2],
            z_hi=self.z_hi + off[2],
        )


@dataclass(frozen=True)
class Scene:
    """An immutable collection of primitives."""

    primitives: tuple[Primitive, ...]

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """First-hit distance for each ray across all primitives.

        A running minimum keeps one primitive's hits alive at a time, and
        rays are chunked so per-primitive temporaries stay bounded even
        for the multi-million-ray scans of the scaling experiments.
        """
        n_rays = origins.shape[0]
        if not self.primitives:
            return np.full(n_rays, _NO_HIT)
        chunk = 200_000
        if n_rays <= chunk:
            first, *rest = self.primitives
            nearest = first.intersect(origins, directions).astype(np.float64)
            for p in rest:
                np.minimum(nearest, p.intersect(origins, directions), out=nearest)
            return nearest
        out = np.empty(n_rays)
        for start in range(0, n_rays, chunk):
            stop = min(start + chunk, n_rays)
            out[start:stop] = self.intersect(origins[start:stop], directions[start:stop])
        return out

    def advanced(self, dt: float) -> "Scene":
        """The scene with every dynamic primitive moved forward ``dt``."""
        return Scene(tuple(p.moved(dt) for p in self.primitives))

    def __len__(self) -> int:
        return len(self.primitives)


def _car(x: float, y: float, *, velocity=(0.0, 0.0, 0.0)) -> Box:
    """A car-sized box centered at (x, y) on the ground."""
    half_l, half_w, height = 2.2, 0.9, 1.5
    return Box(
        lo=(x - half_l, y - half_w, 0.0),
        hi=(x + half_l, y + half_w, height),
        velocity=np.asarray(velocity, dtype=np.float64),
    )


def make_highway_scene(
    *,
    road_length: float = 240.0,
    road_half_width: float = 15.0,
    n_moving_vehicles: int = 10,
    n_signs: int = 8,
    seed: int = 0,
) -> Scene:
    """A divided highway: the Ford-campus-style cross-check environment.

    Different statistics from the urban street — no building canyon,
    long guardrails, sparse tall signs, higher speeds, more moving
    vehicles — used to verify that results do not depend on the street
    scene's particular structure (the paper cross-checks KITTI results
    against the Ford Campus dataset the same way).
    """
    rng = np.random.default_rng(seed)
    primitives: list[Primitive] = [GroundPlane(height=0.0)]

    # Guardrails: long, low boxes along both edges and the median.
    for y in (-road_half_width, 0.0, road_half_width):
        primitives.append(
            Box(lo=(-road_length / 2, y - 0.15, 0.0),
                hi=(road_length / 2, y + 0.15, 0.8))
        )

    # Sound barriers / embankments beyond the shoulders, with gaps.
    for side in (-1.0, 1.0):
        x = -road_length / 2
        while x < road_length / 2:
            length = rng.uniform(25.0, 60.0)
            y0 = side * (road_half_width + rng.uniform(4.0, 8.0))
            primitives.append(
                Box(lo=(x, min(y0, y0 + side * 1.0), 0.0),
                    hi=(x + length, max(y0, y0 + side * 1.0), rng.uniform(2.0, 5.0)))
            )
            x += length + rng.uniform(15.0, 40.0)

    # Overhead sign gantries: tall poles near the shoulder.
    for _ in range(n_signs):
        px = rng.uniform(-road_length / 2, road_length / 2)
        side = rng.choice((-1.0, 1.0))
        py = side * (road_half_width + rng.uniform(0.5, 2.0))
        primitives.append(
            Cylinder(cx=px, cy=py, radius=0.2, z_lo=0.0, z_hi=rng.uniform(6.0, 9.0))
        )

    # Fast traffic in four lanes, including truck-sized boxes.
    for _ in range(n_moving_vehicles):
        px = rng.uniform(-road_length / 2, road_length / 2)
        lane = rng.choice((-0.75, -0.3, 0.3, 0.75))
        py = lane * road_half_width
        speed = rng.uniform(20.0, 33.0) * (1.0 if lane > 0 else -1.0)
        if rng.random() < 0.3:  # truck
            half_l, half_w, height = 6.0, 1.25, 3.8
        else:
            half_l, half_w, height = 2.2, 0.9, 1.5
        primitives.append(
            Box(lo=(px - half_l, py - half_w, 0.0),
                hi=(px + half_l, py + half_w, height),
                velocity=(speed, 0.0, 0.0))
        )

    return Scene(tuple(primitives))


def make_street_scene(
    *,
    road_length: float = 120.0,
    road_half_width: float = 8.0,
    n_moving_cars: int = 4,
    n_parked_cars: int = 8,
    n_poles: int = 12,
    seed: int = 0,
) -> Scene:
    """Build a straight urban street with buildings, poles, and cars.

    The ego vehicle is assumed to start near the origin driving along +x.
    Geometry is deterministic for a given ``seed``.
    """
    rng = np.random.default_rng(seed)
    primitives: list[Primitive] = [GroundPlane(height=0.0)]

    # Building facades: rows of boxes along both sides of the road with
    # randomized setbacks and heights, producing the jagged skyline a
    # real street presents to the scanner.
    for side in (-1.0, 1.0):
        x = -road_length / 2.0
        while x < road_length / 2.0:
            width = rng.uniform(8.0, 18.0)
            depth = rng.uniform(6.0, 12.0)
            height = rng.uniform(4.0, 15.0)
            setback = rng.uniform(0.0, 4.0)
            y0 = side * (road_half_width + setback)
            y1 = y0 + side * depth
            primitives.append(
                Box(lo=(x, min(y0, y1), 0.0), hi=(x + width, max(y0, y1), height))
            )
            x += width + rng.uniform(1.0, 5.0)

    # Street poles near the curb.
    for _ in range(n_poles):
        px = rng.uniform(-road_length / 2.0, road_length / 2.0)
        side = rng.choice((-1.0, 1.0))
        py = side * (road_half_width - rng.uniform(0.3, 1.2))
        primitives.append(
            Cylinder(cx=px, cy=py, radius=rng.uniform(0.1, 0.25), z_lo=0.0, z_hi=rng.uniform(4.0, 8.0))
        )

    # Parked cars by the curb.
    for _ in range(n_parked_cars):
        px = rng.uniform(-road_length / 2.0, road_length / 2.0)
        side = rng.choice((-1.0, 1.0))
        py = side * (road_half_width - 2.0)
        primitives.append(_car(px, py))

    # Moving cars in the travel lanes.
    for _ in range(n_moving_cars):
        px = rng.uniform(-road_length / 2.0, road_length / 2.0)
        lane = rng.choice((-1.0, 1.0))
        py = lane * road_half_width / 2.0
        speed = rng.uniform(5.0, 14.0) * (-lane)  # opposing lanes, opposing flow
        primitives.append(_car(px, py, velocity=(speed, 0.0, 0.0)))

    return Scene(tuple(primitives))
