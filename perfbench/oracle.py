"""Answer checks against ``scipy.spatial.cKDTree``, independent of the program.

Exact k-NN rows must give bit-equal distances and indices equal up to
exact-distance ties.  Capped radius rows must give the same capped
sets under the same rule.  Approximate rows are checked for what an
approximation can promise: every distance is at least the exact one.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class Oracle:
    """One reference cloud's oracle; counts checked rows and mismatches."""

    def __init__(self, reference: np.ndarray):
        self.reference = np.asarray(reference, dtype=np.float64)
        self.tree = cKDTree(self.reference)
        self.checked = 0
        self.mismatches = 0

    def _ties_ok(self, q, ours_idx, ours_d, ref_idx) -> bool:
        """Index differences are allowed only inside exact-distance ties."""
        if np.array_equal(ours_idx, ref_idx):
            return True
        if np.unique(ours_idx).size != ours_idx.size:
            return False
        for value in np.unique(ours_d):
            mine = set(ours_idx[ours_d == value].tolist())
            theirs = set(ref_idx[ours_d == value].tolist())
            if mine == theirs:
                continue
            # A differing group must sit at the boundary (k-th distance),
            # and each of our picks must lie at exactly that distance.
            if value != ours_d[-1]:
                return False
            ball = set(self.tree.query_ball_point(q, value))
            inner = set(ours_idx[ours_d < value].tolist())
            if not mine <= ball - inner:
                return False
        return True

    def check_knn(self, queries, indices, distances) -> int:
        """Exact k-NN rows; returns this call's mismatch count."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = indices.shape[1]
        ref_d, ref_i = self.tree.query(q, k=k)
        ref_d = ref_d.reshape(q.shape[0], k)
        ref_i = ref_i.reshape(q.shape[0], k)
        bad = 0
        for row in range(q.shape[0]):
            if not np.array_equal(distances[row], ref_d[row]) or not self._ties_ok(
                q[row], indices[row], distances[row], ref_i[row]
            ):
                bad += 1
        self.checked += q.shape[0]
        self.mismatches += bad
        return bad

    def check_approx(self, queries, indices, distances) -> int:
        """Approximate rows: valid ids, sorted, never closer than exact."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = indices.shape[1]
        ref_d, _ = self.tree.query(q, k=k)
        ref_d = ref_d.reshape(q.shape[0], k)
        ok = (
            (indices >= 0).all(axis=1)
            & (indices < self.reference.shape[0]).all(axis=1)
            & (np.diff(distances, axis=1) >= 0).all(axis=1)
            & (distances >= ref_d).all(axis=1)
        )
        bad = int((~ok).sum())
        self.checked += q.shape[0]
        self.mismatches += bad
        return bad

    def check_radius(self, queries, radius: float, cap: int,
                     indices, distances, offsets) -> int:
        """Capped radius rows in CSR form."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        upper = np.nextafter(radius, np.inf)
        ref_d, ref_i = self.tree.query(q, k=cap, distance_upper_bound=upper)
        ref_d = ref_d.reshape(q.shape[0], cap)
        ref_i = ref_i.reshape(q.shape[0], cap)
        bad = 0
        for row in range(q.shape[0]):
            lo, hi = int(offsets[row]), int(offsets[row + 1])
            keep = ref_d[row] <= radius
            rd, ri = ref_d[row][keep], ref_i[row][keep]
            od, oi = distances[lo:hi], indices[lo:hi]
            if not np.array_equal(od, rd) or not self._ties_ok(q[row], oi, od, ri):
                bad += 1
        self.checked += q.shape[0]
        self.mismatches += bad
        return bad
