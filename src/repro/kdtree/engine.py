"""Batched, vectorized kNN query engine over a flat k-d tree layout.

The per-query searches in :mod:`repro.kdtree.search` are faithful to
the paper's algorithm but pay a Python-interpreter toll for every
query — the software analogue of the pointer-chasing memory behavior
QuickNN removes in hardware (Section 4).  This module restructures the
computation the same way the accelerator does:

* :class:`FlatKdTree` is a structure-of-arrays snapshot of a
  :class:`~repro.kdtree.node.KdTree`: split dimensions, thresholds and
  child indices as contiguous NumPy arrays plus the buckets in CSR form
  (offsets + one concatenated member array) — the software mirror of
  the hardware's word-addressable tree cache and bucket block store.
* :func:`knn_approx_batched` advances *all* queries level-by-level
  (:meth:`FlatKdTree.descend_fast`), then answers whole buckets at a
  time: queries are grouped by the leaf they reached (argsort over leaf
  ids) and each group is answered by one vectorized select-then-exact
  kernel.  No per-query Python loop runs on the hot path.
* :func:`knn_exact_batched` starts from the batched approximate answer,
  certifies the majority of queries exact through the leaf radius test
  (k-th distance vs. the smallest splitting-plane margin crossed on the
  way down), and resolves the rest with a *batched* backtracking pass:
  a vectorized frontier walk collects every (query, bucket) pair the
  branch-and-bound search could visit, then each visited bucket is
  scanned once for all the rows that reach it.

Both passes share one *select-then-exact* rule.  Per bucket group,
candidates are scored in float32 as ``|c|^2 - 2 q.c`` over the
bucket-ordered, centroid-centered ``bucket_xyz32`` / ``bucket_sq32``
blocks.  Centering makes the score's rounding error scale with the
cloud's extent rather than its distance from the origin, and the error
is bounded per query and bucket, so each score brackets the exact one.
Each row carries an upper bound on its exact k-th score: a bucket
holding at least ``k`` points tightens it to that bucket's k-th score
plus the error.  In the home pass that is the home bucket; in
backtracking every visited bucket tightens it further (a *progressive*
bound), so survivors stay near ``k`` per row however many buckets a row
visits.  A candidate survives while its score minus the error is within
the bound, so none the exact distances would rank in is dropped.  Only
survivors are re-derived in float64 with the same
``sqrt(((q - c)^2).sum())`` kernel the per-query paths use, and each
row is ordered once, canonically — ascending distance, ties by
ascending index.  Results are therefore element-for-element identical
to the loop implementations (which remain available — and tested
against — as ``knn_approx_loop`` / ``knn_exact(engine=False)``), ties
included.
"""

from __future__ import annotations

import numpy as np

from repro.kdtree.node import NO_NODE, KdTree
from repro.obs import get_registry


class FlatKdTree:
    """Structure-of-arrays layout of a bucketed k-d tree.

    Node arrays are indexed by node id (``nodes[i].index == i`` in the
    source tree); bucket membership is stored in CSR form
    (``bucket_offsets`` / ``bucket_members``).  The kNN selection stage
    scores candidates on ``bucket_xyz32`` / ``bucket_sq32``: the points
    in bucket order with ``centroid`` subtracted, in float32, so the
    float32 prefilter stays cancellation-safe for clouds far from the
    origin; ``points`` keeps the raw coordinates the exact
    re-derivation kernel uses.  Radius search additionally reads the
    float64 centered ``points_c`` / ``point_sq_c``, which kNN never
    builds.  All of them are derived lazily on first query —
    construction (``from_tree`` / ``from_arrays``) is purely
    structural, so the build pipeline never pays for query-stage
    artifacts it may not use.
    """

    ROOT = 0

    def __init__(
        self,
        *,
        points: np.ndarray,
        dim: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        is_leaf: np.ndarray,
        bucket_id: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ):
        self.points = points
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right
        self.is_leaf = is_leaf
        self.bucket_id = bucket_id
        self.bucket_offsets = bucket_offsets
        self.bucket_members = bucket_members
        self._centroid: np.ndarray | None = None
        self._points_c: np.ndarray | None = None
        self._point_sq_c: np.ndarray | None = None
        self._bucket_xyz32: np.ndarray | None = None
        self._bucket_sq32: np.ndarray | None = None
        self._levels: "_LevelPlan | None | bool" = False  # False = not built yet

    # -- lazy selection-stage arrays -----------------------------------
    @property
    def centroid(self) -> np.ndarray:
        if self._centroid is None:
            self._centroid = (
                self.points.mean(axis=0)
                if self.points.shape[0]
                else np.zeros(self.points.shape[1])
            )
        return self._centroid

    @property
    def points_c(self) -> np.ndarray:
        if self._points_c is None:
            self._points_c = self.points - self.centroid
        return self._points_c

    @property
    def point_sq_c(self) -> np.ndarray:
        if self._point_sq_c is None:
            pc = self.points_c
            self._point_sq_c = (pc * pc).sum(axis=1)
        return self._point_sq_c

    @property
    def bucket_xyz32(self) -> np.ndarray:
        if self._bucket_xyz32 is None:
            self._bucket_xyz32 = (
                self.points[self.bucket_members] - self.centroid
            ).astype(np.float32)
        return self._bucket_xyz32

    @property
    def bucket_sq32(self) -> np.ndarray:
        if self._bucket_sq32 is None:
            b32 = self.bucket_xyz32
            self._bucket_sq32 = (b32 * b32).sum(axis=1)
        return self._bucket_sq32

    @classmethod
    def from_arrays(
        cls,
        *,
        points: np.ndarray,
        dim: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        is_leaf: np.ndarray,
        bucket_id: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ) -> "FlatKdTree":
        """Assemble directly from prebuilt structural arrays.

        The entry point of the vectorized builder
        (:func:`repro.kdtree.flat_build.build_flat`), which never
        materializes :class:`~repro.kdtree.node.KdNode` objects.
        """
        return cls(
            points=points,
            dim=dim,
            threshold=threshold,
            left=left,
            right=right,
            is_leaf=is_leaf,
            bucket_id=bucket_id,
            bucket_offsets=bucket_offsets,
            bucket_members=bucket_members,
        )

    @classmethod
    def from_tree(cls, tree: KdTree) -> "FlatKdTree":
        """Build the flat layout once from a node-and-pointer tree."""
        n = len(tree.nodes)
        if n == 0:
            raise ValueError("cannot flatten a tree with no nodes")
        dim = np.zeros(n, dtype=np.int64)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.full(n, NO_NODE, dtype=np.int64)
        right = np.full(n, NO_NODE, dtype=np.int64)
        is_leaf = np.zeros(n, dtype=bool)
        bucket_id = np.full(n, NO_NODE, dtype=np.int64)
        for node in tree.nodes:
            i = node.index
            is_leaf[i] = node.is_leaf
            if node.is_leaf:
                bucket_id[i] = node.bucket_id
            else:
                dim[i] = node.dim
                threshold[i] = node.threshold
                left[i] = node.left
                right[i] = node.right

        n_buckets = len(tree.buckets)
        sizes = np.array([b.size for b in tree.buckets], dtype=np.int64)
        offsets = np.zeros(n_buckets + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = (
            np.concatenate(tree.buckets)
            if n_buckets and offsets[-1] > 0
            else np.empty(0, dtype=np.int64)
        )
        return cls(
            points=tree.points,
            dim=dim,
            threshold=threshold,
            left=left,
            right=right,
            is_leaf=is_leaf,
            bucket_id=bucket_id,
            bucket_offsets=offsets,
            bucket_members=members,
        )

    # ------------------------------------------------------------------
    def flat(self) -> "FlatKdTree":
        """Self view, mirroring :meth:`~repro.kdtree.node.KdTree.flat`.

        Lets code that accepts "anything with a ``flat()``" — the
        batched exact search, the serving layer's shard workers — take
        either a :class:`~repro.kdtree.node.KdTree` or a snapshot-loaded
        :class:`FlatKdTree` without converting.
        """
        return self

    @property
    def n_nodes(self) -> int:
        return self.dim.shape[0]

    @property
    def n_buckets(self) -> int:
        return self.bucket_offsets.shape[0] - 1

    def bucket(self, bucket_id: int) -> np.ndarray:
        """Member indices of one bucket (a view into the CSR arrays)."""
        return self.bucket_members[
            self.bucket_offsets[bucket_id] : self.bucket_offsets[bucket_id + 1]
        ]

    def stats(self) -> dict:
        """Layout summary: sizes of the arrays the engine streams over."""
        sizes = np.diff(self.bucket_offsets)
        return {
            "n_points": int(self.points.shape[0]),
            "n_nodes": int(self.n_nodes),
            "n_leaves": int(self.is_leaf.sum()),
            "n_buckets": int(self.n_buckets),
            "max_bucket_size": int(sizes.max()) if sizes.size else 0,
            "mean_bucket_size": float(sizes.mean()) if sizes.size else 0.0,
        }

    # ------------------------------------------------------------------
    def descend(self, queries: np.ndarray) -> np.ndarray:
        """Leaf node id for each query, all queries advanced level-by-level."""
        leaf_ids, _ = self._descend(queries, with_margin=False)
        return leaf_ids

    def descend_with_margin(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf ids plus, per query, the smallest ``|q[dim] - threshold]``
        over the splitting planes crossed on the way down.

        Every reference point *outside* a query's leaf lies across at
        least one of those planes, so the margin lower-bounds the
        distance to any out-of-leaf point — the exactness certificate
        (leaf radius test) :func:`knn_exact_batched` uses to skip
        backtracking.
        """
        return self._descend(queries, with_margin=True)

    def _descend(
        self, queries: np.ndarray, *, with_margin: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = q.shape[0]
        current = np.zeros(m, dtype=np.int64)
        margin = np.full(m, np.inf)
        active = ~self.is_leaf[current]
        while active.any():
            idx = current[active]
            dims = self.dim[idx]
            thresholds = self.threshold[idx]
            coords = q[active, dims]
            if with_margin:
                margin[active] = np.minimum(
                    margin[active], np.abs(coords - thresholds)
                )
            go_left = coords <= thresholds
            current[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = ~self.is_leaf[current]
        return current, margin

    # -- level-synchronous fast descent --------------------------------
    def level_plan(self) -> "_LevelPlan | None":
        """Per-level threshold tables for the slot-arithmetic descent.

        Built (and cached) on first use.  Returns ``None`` when the
        tree does not qualify — split dimensions must be uniform per
        level (true for every tree the cycling-dims builders produce)
        and the virtual complete-tree tables must stay small.
        """
        if self._levels is False:
            self._levels = _LevelPlan.from_flat(self)
        return self._levels

    def descend_fast(self, queries: np.ndarray) -> np.ndarray:
        """Leaf node id per query via per-level threshold tables.

        One threshold gather + compare + slot update per tree level —
        no per-point node-array gathers — which makes whole-frame
        placement and incremental re-bucketing several times faster
        than the generic :meth:`descend`.  Falls back to
        :meth:`descend` for trees without a :meth:`level_plan`.
        """
        plan = self.level_plan()
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if plan is None:
            return self.descend(q)
        return plan.descend(q)


class _LevelPlan:
    """Threshold tables of the virtual complete tree, one per level.

    Slot ``s`` at level ``l`` is the position a node would occupy in a
    complete binary tree; a leaf above the bottom level parks its
    points by always sending them left (``+inf`` threshold), so the
    final slot identifies the leaf via ``leaf_node_of_slot``.
    """

    #: Refuse to build tables beyond this many bottom-level slots.
    MAX_SLOTS = 1 << 22

    __slots__ = ("dims", "tables", "leaf_node_of_slot", "depth")

    def __init__(self, dims, tables, leaf_node_of_slot, depth):
        self.dims = dims
        self.tables = tables
        self.leaf_node_of_slot = leaf_node_of_slot
        self.depth = depth

    @classmethod
    def from_flat(cls, flat: "FlatKdTree") -> "_LevelPlan | None":
        n = flat.dim.shape[0]
        depth_of = np.zeros(n, dtype=np.int64)
        slot_of = np.zeros(n, dtype=np.int64)
        internal = ~flat.is_leaf
        idx = np.flatnonzero(internal)
        # Every builder in the repo numbers children after their parent,
        # which lets one ascending sweep resolve depths and slots.
        left, right = flat.left, flat.right
        if idx.size and (np.any(left[idx] <= idx) or np.any(right[idx] <= idx)):
            return None
        for i in idx:
            d1 = depth_of[i] + 1
            s2 = 2 * slot_of[i]
            depth_of[left[i]] = d1
            depth_of[right[i]] = d1
            slot_of[left[i]] = s2
            slot_of[right[i]] = s2 + 1

        depth = int(depth_of[flat.is_leaf].max()) if flat.is_leaf.any() else 0
        if depth >= 63 or (1 << depth) > cls.MAX_SLOTS:
            return None

        dims: list[int] = []
        tables: list[np.ndarray] = []
        for level in range(depth):
            at = internal & (depth_of == level)
            level_dims = np.unique(flat.dim[at])
            if level_dims.size > 1:
                return None          # mixed dims: generic descent only
            dims.append(int(level_dims[0]) if level_dims.size else 0)
            table = np.full(1 << level, np.inf)
            table[slot_of[at]] = flat.threshold[at]
            tables.append(table)

        leaf_node_of_slot = np.zeros(1 << depth, dtype=np.int64)
        leaves = np.flatnonzero(flat.is_leaf)
        bottom = slot_of[leaves] << (depth - depth_of[leaves])
        leaf_node_of_slot[bottom] = leaves
        return cls(dims, tables, leaf_node_of_slot, depth)

    def descend(self, q: np.ndarray) -> np.ndarray:
        cur = np.zeros(q.shape[0], dtype=np.int64)
        for dim, table in zip(self.dims, self.tables):
            cur = cur + cur + (q[:, dim] > table[cur])
        return self.leaf_node_of_slot[cur]


# ----------------------------------------------------------------------
# Select-then-exact kernel
# ----------------------------------------------------------------------
#: Float32 score error bound, per unit of ``eps32 * (|q|^2 + M_b)``
#: with ``q`` the centered query and ``M_b`` the largest centered
#: squared norm in the scored bucket.  Rounding the centered
#: coordinates to float32 and evaluating ``|c|^2 - 2 q.c`` in float32
#: errs by at most 5.75 such units; 8 also absorbs the rounding of the
#: bound arithmetic and the float64 re-derivation, so the prefilter
#: cannot drop a candidate the exact distances would rank in.
_ERR_EPS = np.float32(8.0 * np.finfo(np.float32).eps)

#: Rows per chunk of the exact re-derivation and canonical sort, so
#: their temporaries scale with the survivors of a chunk, not a call.
_ROW_CHUNK = 4096


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop offsets of the runs of equal keys in a sorted array."""
    head = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1:] = sorted_keys.size
    return starts, stops


def _centered32(flat: FlatKdTree, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``-2 (q - centroid)`` and ``|q - centroid|^2`` in float32."""
    qc = q - flat.centroid
    # Scaling by -2 is exact, so ``qm2 @ c + |c|^2`` is ``|c|^2 - 2 q.c``.
    return -2.0 * qc.astype(np.float32), (qc * qc).sum(axis=1).astype(np.float32)


def _select(
    flat: FlatKdTree,
    qm2: np.ndarray,
    qsq: np.ndarray,
    vq: np.ndarray,
    vb: np.ndarray,
    bound: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Float32 prefilter over ``(row, bucket)`` visit pairs.

    Pairs are grouped by bucket; each group scores its rows against
    every member as ``|c|^2 - 2 q.c`` (``|q - c|^2`` less the row
    constant ``|q|^2``), which brackets the exact score within
    ``+-err``.  ``bound`` (updated in place) is an upper bound on each
    row's exact k-th score: a bucket holding at least ``k`` points
    tightens it to its in-bucket k-th score plus ``err``.  A candidate
    survives while its score minus ``err`` is within the bound.
    Returns the survivors as ``(row, point index, score - err)`` arrays
    and the number of bucket groups scanned.
    """
    order = np.argsort(vb, kind="stable")
    sorted_b = vb[order]
    run_starts, run_stops = _runs(sorted_b)
    offsets = flat.bucket_offsets
    xyz32, sq32 = flat.bucket_xyz32, flat.bucket_sq32
    empty = np.empty(0, dtype=np.int64)
    rows, pos, lows = [empty], [empty], [np.empty(0, dtype=np.float32)]
    for start, stop in zip(run_starts, run_stops):
        bid = sorted_b[start]
        lo, hi = offsets[bid], offsets[bid + 1]
        if hi == lo:
            continue
        qids = vq[order[start:stop]]
        s = qm2[qids] @ xyz32[lo:hi].T
        s += sq32[lo:hi]
        err = _ERR_EPS * (qsq[qids] + sq32[lo:hi].max())
        lim = bound[qids]
        if hi - lo >= k:
            kth = s.min(axis=1) if k == 1 else np.partition(s, k - 1, axis=1)[:, k - 1]
            np.minimum(lim, kth + err, out=lim)
            bound[qids] = lim
        flat_pos = np.flatnonzero(s <= (lim + err)[:, None])
        gi, bj = np.divmod(flat_pos, hi - lo)
        rows.append(qids[gi])
        pos.append(bj + lo)
        lows.append(s.ravel()[flat_pos] - err[gi])
    return (
        np.concatenate(rows),
        flat.bucket_members[np.concatenate(pos)],
        np.concatenate(lows),
        run_starts.size,
    )


def _exact_topk(
    flat: FlatKdTree,
    q: np.ndarray,
    rows: np.ndarray,
    cand: np.ndarray,
    indices: np.ndarray,
    distances: np.ndarray,
) -> None:
    """Re-derive survivor distances exactly and keep each row's top-k.

    Distances use the per-query paths' ``sqrt(((q - c)^2).sum())``
    kernel on the raw float64 coordinates; each row is ordered once,
    canonically (ascending distance, ties by ascending index), and its
    first ``k`` entries are written into ``indices`` / ``distances``.
    Rows are processed ``_ROW_CHUNK`` at a time.
    """
    get_registry().counter("engine.select.survivors").inc(int(rows.size))
    k = indices.shape[1]
    # Small-integer keys let NumPy's stable sort run as a radix sort.
    chunk = rows // _ROW_CHUNK
    order = np.argsort(
        chunk.astype(np.min_scalar_type(q.shape[0] // _ROW_CHUNK)), kind="stable"
    )
    for a, z in zip(*_runs(chunk[order])):
        r, c = rows[order[a:z]], cand[order[a:z]]
        diff = q[r] - flat.points[c]
        d = np.sqrt((diff * diff).sum(axis=1))
        # Ascending distance, then (stably) ascending row.
        by = np.argsort(d)
        by = by[np.argsort((r[by] % _ROW_CHUNK).astype(np.uint16), kind="stable")]
        r, c, d = r[by], c[by], d[by]
        # Equal distances within a row: order those runs by index.
        tie = np.zeros(r.size + 1, dtype=bool)
        tie[1:-1] = (r[1:] == r[:-1]) & (d[1:] == d[:-1])
        if tie.any():
            t = np.flatnonzero(tie[1:] | tie[:-1])
            c[t] = c[t][np.lexsort((c[t], d[t], r[t]))]
        starts, stops = _runs(r)
        rank = np.arange(r.size) - np.repeat(starts, stops - starts)
        keep = rank < k
        indices[r[keep], rank[keep]] = c[keep]
        distances[r[keep], rank[keep]] = d[keep]


def _home_topk(
    flat: FlatKdTree, q: np.ndarray, leaf_ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top-k over each query's home bucket by select-then-exact.

    Returns ``(indices, distances)`` of shape ``(M, k)`` plus the
    float32 query terms from :func:`_centered32` and the per-row score
    bound the home bucket left behind (``inf`` where it holds fewer
    than ``k`` points) for backtracking to start from.
    """
    from repro.kdtree.search import PAD_INDEX

    m = q.shape[0]
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)
    qm2, qsq = _centered32(flat, q)
    bound = np.full(m, np.inf, dtype=np.float32)
    rows, cand, _, groups = _select(
        flat, qm2, qsq, np.arange(m), flat.bucket_id[leaf_ids], bound, k
    )
    get_registry().counter("engine.leaf_groups").inc(groups)
    _exact_topk(flat, q, rows, cand, indices, distances)
    return indices, distances, qm2, qsq, bound


def knn_approx_batched(flat: FlatKdTree, queries: np.ndarray, k: int):
    """Single-bucket approximate kNN for a whole query batch at once."""
    from repro.kdtree.search import QueryResult

    if k < 1:
        raise ValueError("k must be positive")
    obs = get_registry()
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    with obs.timer("engine.approx"):
        indices, distances, *_ = _home_topk(flat, q, flat.descend_fast(q), k)
    if obs.enabled:
        obs.counter("engine.approx.calls").inc()
        obs.counter("engine.approx.queries").inc(q.shape[0])
    return QueryResult(indices=indices, distances=distances)


# ----------------------------------------------------------------------
# Batched exact search
# ----------------------------------------------------------------------
def _collect_backtrack_visits(
    flat: FlatKdTree,
    q: np.ndarray,
    unsettled: np.ndarray,
    home_leaf: np.ndarray,
    bound: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized frontier walk of the branch-and-bound visit set.

    Re-descends every unsettled query from the root, always following
    the near child and forking into the far child whenever the
    splitting-plane margin does not exceed the query's bound — exactly the
    pruning rule of the per-query exact search, with the (already
    computed) single-bucket k-th distance as a conservative bound.
    Returns the ``(query_id, bucket_id)`` pairs to scan, excluding each
    query's home leaf.
    """
    frontier_q = unsettled.copy()
    frontier_n = np.zeros(unsettled.size, dtype=np.int64)
    visit_q: list[np.ndarray] = []
    visit_b: list[np.ndarray] = []
    while frontier_q.size:
        at_leaf = flat.is_leaf[frontier_n]
        if at_leaf.any():
            lq = frontier_q[at_leaf]
            ln = frontier_n[at_leaf]
            keep = ln != home_leaf[lq]
            if keep.any():
                visit_q.append(lq[keep])
                visit_b.append(flat.bucket_id[ln[keep]])
            frontier_q = frontier_q[~at_leaf]
            frontier_n = frontier_n[~at_leaf]
            if frontier_q.size == 0:
                break
        dims = flat.dim[frontier_n]
        delta = q[frontier_q, dims] - flat.threshold[frontier_n]
        go_left = delta <= 0
        near = np.where(go_left, flat.left[frontier_n], flat.right[frontier_n])
        far = np.where(go_left, flat.right[frontier_n], flat.left[frontier_n])
        fork = np.abs(delta) <= bound[frontier_q]
        frontier_n = np.concatenate([near, far[fork]])
        frontier_q = np.concatenate([frontier_q, frontier_q[fork]])
    if not visit_q:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(visit_q), np.concatenate(visit_b)


def knn_exact_batched(
    tree: "KdTree | FlatKdTree",
    queries: np.ndarray,
    k: int,
    *,
    max_visits: int | None = None,
):
    """Exact kNN: batched single-bucket pass, leaf radius test, then
    batched backtracking for the minority of queries that need it.

    ``tree`` may be a :class:`~repro.kdtree.node.KdTree` or a
    :class:`FlatKdTree` (e.g. loaded from a snapshot) — the search only
    touches the flat layout.  ``max_visits`` bounds how many *extra*
    buckets (beyond the home leaf) backtracking may scan per query, in
    the order the branch-and-bound walk reaches them: ``None`` is the
    unbounded exact search, ``0`` degenerates to the single-bucket
    approximate answer, and intermediate budgets trade accuracy for
    bounded work — the ladder :mod:`repro.serve` degrades along under
    load.  With a finite budget the result is no longer guaranteed
    exact.

    Returns ``(result, visits)`` where ``visits`` counts buckets
    scanned per query (1 for every query the radius test settles).
    """
    from repro.kdtree.search import QueryResult

    if k < 1:
        raise ValueError("k must be positive")
    if max_visits is not None and max_visits < 0:
        raise ValueError("max_visits must be non-negative")
    obs = get_registry()
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    with obs.timer("engine.exact"):
        indices, distances, visits = _exact_batched_impl(
            tree, q, k, obs, max_visits=max_visits
        )
    if obs.enabled:
        obs.counter("engine.exact.calls").inc()
        obs.counter("engine.exact.queries").inc(q.shape[0])
    return QueryResult(indices=indices, distances=distances), visits


def _truncate_visits(
    vq: np.ndarray, vb: np.ndarray, max_visits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep each query's first ``max_visits`` (query, bucket) pairs.

    Pairs arrive in the order the frontier walk reached the buckets; a
    stable sort by query groups them while preserving that arrival
    order, so the budget keeps the earliest-reached buckets.
    """
    order = np.argsort(vq, kind="stable")
    vq_s, vb_s = vq[order], vb[order]
    starts, stops = _runs(vq_s)
    rank = np.arange(vq_s.size) - np.repeat(starts, stops - starts)
    keep = rank < max_visits
    return vq_s[keep], vb_s[keep]


def _exact_batched_impl(
    tree: "KdTree | FlatKdTree", q: np.ndarray, k: int, obs, *, max_visits=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    from repro.kdtree.search import PAD_INDEX

    flat = tree.flat()
    leaf_ids, margins = flat.descend_with_margin(q)
    indices, distances, qm2, qsq, bound = _home_topk(flat, q, leaf_ids, k)
    visits = np.ones(q.shape[0], dtype=np.int64)

    # Leaf radius test: a query is settled iff it found k neighbors all
    # strictly closer than every splitting plane it crossed, so no point
    # across a plane can beat or tie (with a lower index) its k-th.
    kth = distances[:, k - 1]
    unsettled = np.flatnonzero(~(kth < margins))
    if obs.enabled:
        obs.counter("engine.exact.unsettled").inc(int(unsettled.size))
    if unsettled.size == 0 or max_visits == 0:
        return indices, distances, visits

    vq, vb = _collect_backtrack_visits(flat, q, unsettled, leaf_ids, kth)
    if max_visits is not None and vq.size:
        before = vq.size
        vq, vb = _truncate_visits(vq, vb, max_visits)
        if obs.enabled:
            obs.counter("engine.exact.budget_truncated").inc(int(before - vq.size))
    if obs.enabled:
        obs.counter("engine.exact.bucket_scans").inc(int(vq.size))
        obs.distribution("engine.exact.frontier").observe(int(vq.size))
    if vq.size == 0:
        return indices, distances, visits

    # Backtracking continues the home pass's per-row score bound: every
    # visited bucket with at least k points tightens it, and only the
    # candidates still within the final bound join the home top-k in
    # the exact re-derivation.
    visits += np.bincount(vq, minlength=q.shape[0])
    rows, cand, low, _ = _select(flat, qm2, qsq, vq, vb, bound, k)
    live = low <= bound[rows]
    touched = np.unique(vq)
    home_idx = indices[touched]
    home = home_idx != PAD_INDEX
    rows = np.concatenate([np.repeat(touched, home.sum(axis=1)), rows[live]])
    cand = np.concatenate([home_idx[home], cand[live]])
    _exact_topk(flat, q, rows, cand, indices, distances)
    return indices, distances, visits
