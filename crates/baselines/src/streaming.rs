//! Streaming (2k−1)-spanners (related work, Sect. 1.4).
//!
//! The paper's related-work section cites Elkin \[21\] and Baswana \[5\]
//! for spanners in the online streaming model: *"edges arrive one at a
//! time and the algorithm can only keep O(n^{1+1/k}) edges in memory."*
//! [`StreamingSpanner`] implements the correctness-equivalent online
//! filter: keep an arriving edge iff the current spanner distance between
//! its endpoints exceeds 2k−1. The kept subgraph always has girth > 2k,
//! hence ≤ O(n^{1+1/k}) edges — the stated memory bound — and is a
//! (2k−1)-spanner of the stream's prefix at every point.
//!
//! (Baswana's algorithm \[5\] achieves O(1) *processing time* per edge
//! with clustering; we trade that for the simple distance filter, whose
//! per-edge cost is a BFS bounded to depth 2k−1 in the sparse kept
//! subgraph — the same space profile, which is what the model constrains.
//! Documented as a substitution in DESIGN.md §4.)
//!
//! [`DynamicSpanner`] extends the same filter to the *fully dynamic*
//! model (insertions **and** deletions), the scenario behind the
//! log-structured update path of `spanner-store`. It maintains the
//! edge-cover invariant — every current graph edge `{u, v}` satisfies
//! δ_S(u, v) ≤ 2k−1 in the maintained subgraph S — which is exactly the
//! (2k−1)-spanner property. Insertion is the streaming filter; removing
//! spanner edges repairs the invariant by re-checking every graph edge
//! with an endpoint in the ball of radius **k−1** around the removed
//! edges' endpoints, computed in S *before* the removal. The (k−1) rule:
//! a cover path of length ≤ 2k−1 that uses removed edges splits at its
//! first and last removed edge into p + (≥ 1) + q ≤ 2k−1 hops, so
//! min(p, q) ≤ k−1 — one endpoint of every edge whose cover may have
//! broken lies in that ball, and nothing outside it needs a re-check.

use std::collections::{BTreeSet, VecDeque};

use spanner_graph::{EdgeSet, Graph, LinkedAdjacency, NodeId};

/// An online (2k−1)-spanner over an edge stream on a fixed vertex set.
///
/// # Example
///
/// ```
/// use spanner_baselines::streaming::StreamingSpanner;
/// use spanner_graph::{LinkedAdjacency, NodeId};
///
/// let mut s = StreamingSpanner::new(4, 2);
/// assert!(s.offer(NodeId(0), NodeId(1)));
/// assert!(s.offer(NodeId(1), NodeId(2)));
/// assert!(s.offer(NodeId(2), NodeId(3)));
/// // 0-3 closes a cycle of length 4 <= 2k = 4: redundant, filtered out.
/// assert!(!s.offer(NodeId(0), NodeId(3)));
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSpanner {
    k: u32,
    adj: LinkedAdjacency,
    kept: Vec<(NodeId, NodeId)>,
    bfs: BfsScratch,
}

impl StreamingSpanner {
    /// An empty spanner over `n` vertices with stretch parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        StreamingSpanner {
            k,
            adj: LinkedAdjacency::new(n),
            kept: Vec::new(),
            bfs: BfsScratch::new(n),
        }
    }

    /// The stretch guarantee 2k−1.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// Number of edges currently kept.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether no edges are kept.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Processes the next stream edge; returns whether it was kept.
    /// Duplicate edges and self-loops are filtered (never kept).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn offer(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.adj.node_count() && v.index() < self.adj.node_count(),
            "endpoint out of range"
        );
        if u == v {
            return false;
        }
        if self.bfs.distance_at_most(&self.adj, u, v, self.stretch()) {
            return false;
        }
        self.adj.add_edge(u, v);
        self.kept.push((u.min(v), u.max(v)));
        true
    }

    /// The kept edges, in arrival order, as (min, max) endpoint pairs.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.kept
    }
}

/// Reusable scratch for bounded BFS over a [`LinkedAdjacency`]:
/// timestamped marks (a new epoch per search instead of clearing), the
/// forward distances of the bidirectional search, and one queue kept
/// across calls.
#[derive(Debug, Clone)]
struct BfsScratch {
    /// Backward (or ball) marks.
    mark: Vec<u32>,
    /// Forward marks.
    fmark: Vec<u32>,
    /// Forward distances, valid where `fmark` is the current epoch.
    fdist: Vec<u32>,
    epoch: u32,
    queue: VecDeque<(NodeId, u32)>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            mark: vec![0; n],
            fmark: vec![0; n],
            fdist: vec![0; n],
            epoch: 0,
            queue: VecDeque::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.queue.clear();
        self.epoch
    }

    /// Bidirectional bounded BFS in `adj`: is δ(u, v) ≤ `limit`?
    ///
    /// Meet-in-the-middle: a forward sweep from `u` to radius ⌈limit/2⌉
    /// records its ball, then a backward sweep from `v` to the remaining
    /// radius reports success as soon as it touches a node `y` with
    /// `fdist(y) + bdist(y) ≤ limit`. Both balls have roughly the square
    /// root of the unidirectional frontier size, which is what makes the
    /// per-edge filter cheap on dense streams. Soundness: the distances on
    /// both sides are exact within their radii, so a meeting certifies a
    /// walk of length ≤ limit; conversely a shortest path of length
    /// D ≤ limit has a node at distance min(⌈limit/2⌉, D) from `u` that
    /// the backward sweep reaches within limit − ⌈limit/2⌉ hops.
    fn distance_at_most(
        &mut self,
        adj: &LinkedAdjacency,
        u: NodeId,
        v: NodeId,
        limit: u32,
    ) -> bool {
        let epoch = self.next_epoch();
        let forward_radius = limit.div_ceil(2);
        self.fmark[u.index()] = epoch;
        self.fdist[u.index()] = 0;
        self.queue.push_back((u, 0));
        while let Some((x, d)) = self.queue.pop_front() {
            if x == v {
                return true;
            }
            if d == forward_radius {
                continue;
            }
            for y in adj.neighbors(x) {
                if self.fmark[y.index()] != epoch {
                    self.fmark[y.index()] = epoch;
                    self.fdist[y.index()] = d + 1;
                    self.queue.push_back((y, d + 1));
                }
            }
        }
        let backward_radius = limit - forward_radius;
        self.mark[v.index()] = epoch;
        self.queue.push_back((v, 0));
        while let Some((x, d)) = self.queue.pop_front() {
            if self.fmark[x.index()] == epoch && self.fdist[x.index()] + d <= limit {
                return true;
            }
            if d == backward_radius {
                continue;
            }
            for y in adj.neighbors(x) {
                if self.mark[y.index()] != epoch {
                    self.mark[y.index()] = epoch;
                    self.queue.push_back((y, d + 1));
                }
            }
        }
        false
    }

    /// The original single-direction bounded BFS, kept as the reference
    /// the proptest suite cross-checks the bidirectional version against.
    #[cfg(test)]
    fn distance_at_most_unidirectional(
        &mut self,
        adj: &LinkedAdjacency,
        u: NodeId,
        v: NodeId,
        limit: u32,
    ) -> bool {
        let epoch = self.next_epoch();
        self.mark[u.index()] = epoch;
        self.queue.push_back((u, 0));
        while let Some((x, d)) = self.queue.pop_front() {
            if x == v {
                return true;
            }
            if d == limit {
                continue;
            }
            for y in adj.neighbors(x) {
                if self.mark[y.index()] != epoch {
                    self.mark[y.index()] = epoch;
                    self.queue.push_back((y, d + 1));
                }
            }
        }
        false
    }

    /// Multi-source bounded BFS in `adj`: all nodes within `radius` of
    /// `sources` (repeats allowed), ascending.
    fn ball(&mut self, adj: &LinkedAdjacency, sources: &[NodeId], radius: u32) -> Vec<NodeId> {
        let epoch = self.next_epoch();
        for &s in sources {
            if self.mark[s.index()] != epoch {
                self.mark[s.index()] = epoch;
                self.queue.push_back((s, 0));
            }
        }
        let mut ball: Vec<NodeId> = Vec::new();
        while let Some((x, d)) = self.queue.pop_front() {
            ball.push(x);
            if d == radius {
                continue;
            }
            for y in adj.neighbors(x) {
                if self.mark[y.index()] != epoch {
                    self.mark[y.index()] = epoch;
                    self.queue.push_back((y, d + 1));
                }
            }
        }
        ball.sort_unstable();
        ball
    }
}

/// Statistics of one [`DynamicSpanner::compact`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Dirty nodes re-clustered.
    pub region: usize,
    /// Nodes in the repair ball: those within k−1 of an endpoint of a
    /// removed spanner edge, in the spanner before the removal (the (k−1)
    /// rule of the module docs). Empty when no spanner edge was removed.
    pub ball: usize,
    /// Spanner edges dropped (both endpoints dirty) before re-clustering.
    pub removed: usize,
    /// Edges chosen by the re-clustering hook and installed.
    pub reclustered: usize,
    /// Edges re-added by the invariant fixup pass over the ball.
    pub refilled: usize,
}

/// A fully dynamic (2k−1)-spanner over a fixed vertex set: edge
/// insertions *and* deletions, with periodic compaction that re-clusters
/// only the dirty region through the repo's construction hooks
/// (`skeleton::recluster_region` / `baswana_sen::recluster_region`).
///
/// The maintained invariant is the edge cover: every current graph edge
/// `{u, v}` has δ_S(u, v) ≤ 2k−1 inside the maintained subgraph S —
/// equivalent to S being a (2k−1)-spanner. The spanner is always a
/// subgraph of the current graph (deleting a graph edge deletes it from
/// S too, then repairs the cover).
///
/// # Example
///
/// ```
/// use spanner_baselines::streaming::DynamicSpanner;
/// use spanner_graph::NodeId;
///
/// let mut s = DynamicSpanner::new(4, 2);
/// for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
///     s.insert(NodeId(u), NodeId(v));
/// }
/// // The 4-cycle closes within stretch 3: one edge stays graph-only.
/// assert_eq!(s.graph_len(), 4);
/// assert_eq!(s.spanner_len(), 3);
/// // Deleting a spanner edge re-promotes the bypass to repair the cover.
/// let (a, b) = s.spanner_edges().next().unwrap();
/// s.delete(a, b);
/// assert_eq!(s.spanner_len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSpanner {
    k: u32,
    /// Current graph edges, canonical `(min, max)` pairs.
    graph: BTreeSet<(u32, u32)>,
    /// Maintained spanner edges — always a subset of `graph`.
    spanner: BTreeSet<(u32, u32)>,
    /// Graph adjacency (for enumerating edges incident to a repair ball).
    gadj: LinkedAdjacency,
    /// Spanner adjacency (for the bounded-distance cover checks).
    sadj: LinkedAdjacency,
    /// Nodes touched by edits since the last compaction.
    dirty: BTreeSet<u32>,
    bfs: BfsScratch,
}

impl DynamicSpanner {
    /// An empty dynamic spanner over `n` vertices with stretch 2k−1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        DynamicSpanner {
            k,
            graph: BTreeSet::new(),
            spanner: BTreeSet::new(),
            gadj: LinkedAdjacency::new(n),
            sadj: LinkedAdjacency::new(n),
            dirty: BTreeSet::new(),
            bfs: BfsScratch::new(n),
        }
    }

    /// Rebuilds a dynamic spanner from persisted state: the current graph
    /// edges and the maintained spanner edges (canonical or not — pairs
    /// are normalized). The spanner property itself is **not** re-derived
    /// here (the differential tests own that); only structural sanity is.
    ///
    /// # Errors
    ///
    /// A message if a pair is a self-loop, out of range, duplicated, or a
    /// spanner edge is not a graph edge.
    pub fn from_state<I, J>(n: usize, k: u32, graph: I, spanner: J) -> Result<Self, String>
    where
        I: IntoIterator<Item = (u32, u32)>,
        J: IntoIterator<Item = (u32, u32)>,
    {
        assert!(k >= 1, "k must be at least 1");
        let graph = Self::keys_checked(n, graph, "graph")?;
        let spanner = Self::keys_checked(n, spanner, "spanner")?;
        // Merge-join: both lists are sorted, so one pass shows spanner ⊆ graph.
        let mut in_graph = graph.iter().peekable();
        for &(u, v) in &spanner {
            while in_graph.next_if(|&&e| e < (u, v)).is_some() {}
            if in_graph.next_if_eq(&&(u, v)).is_none() {
                return Err(format!("spanner edge {u}-{v} is not a graph edge"));
            }
        }
        let mut s = DynamicSpanner::new(n, k);
        for (keys, adj) in [(&graph, &mut s.gadj), (&spanner, &mut s.sadj)] {
            for &(u, v) in keys {
                adj.add_edge(NodeId(u), NodeId(v));
            }
        }
        s.graph = BTreeSet::from_iter(graph);
        s.spanner = BTreeSet::from_iter(spanner);
        Ok(s)
    }

    /// Normalizes and checks `pairs`, returning them sorted.
    fn keys_checked<I>(n: usize, pairs: I, what: &str) -> Result<Vec<(u32, u32)>, String>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut keys = pairs
            .into_iter()
            .map(|(u, v)| Self::key_checked(n, u, v))
            .collect::<Result<Vec<_>, _>>()?;
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            let (u, v) = w[0];
            return Err(format!("duplicate {what} edge {u}-{v}"));
        }
        Ok(keys)
    }

    fn key_checked(n: usize, u: u32, v: u32) -> Result<(u32, u32), String> {
        if u == v {
            return Err(format!("self-loop {u}-{v}"));
        }
        if u as usize >= n || v as usize >= n {
            return Err(format!("edge {u}-{v} out of range for n = {n}"));
        }
        Ok((u.min(v), u.max(v)))
    }

    /// The stretch guarantee 2k−1.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// The clustering parameter k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.gadj.node_count()
    }

    /// Number of current graph edges.
    pub fn graph_len(&self) -> usize {
        self.graph.len()
    }

    /// Number of maintained spanner edges.
    pub fn spanner_len(&self) -> usize {
        self.spanner.len()
    }

    /// Whether `{u, v}` is a current graph edge.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.graph.contains(&(u.0.min(v.0), u.0.max(v.0)))
    }

    /// Whether `{u, v}` is a maintained spanner edge.
    pub fn spanner_contains(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.spanner.contains(&(u.0.min(v.0), u.0.max(v.0)))
    }

    /// Current graph edges in canonical sorted order.
    pub fn graph_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.graph.iter().map(|&(u, v)| (NodeId(u), NodeId(v)))
    }

    /// Maintained spanner edges in canonical sorted order.
    pub fn spanner_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.spanner.iter().map(|&(u, v)| (NodeId(u), NodeId(v)))
    }

    /// Nodes dirtied by edits since the last [`DynamicSpanner::compact`].
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Materializes the current graph. Edge ids follow the canonical
    /// lexicographic order of [`Graph::from_edges`].
    pub fn to_graph(&self) -> Graph {
        Graph::from_sorted_edges(self.node_count(), self.graph.iter().copied())
    }

    /// The maintained spanner as an [`EdgeSet`] over `g`, which must be
    /// [`DynamicSpanner::to_graph`] of the current state.
    ///
    /// # Panics
    ///
    /// Panics if a spanner edge is missing from `g`.
    pub fn spanner_edge_set(&self, g: &Graph) -> EdgeSet {
        let mut set = EdgeSet::new(g);
        for &(u, v) in &self.spanner {
            let e = g
                .find_edge(NodeId(u), NodeId(v))
                .expect("spanner edge must be a graph edge");
            set.insert(e);
        }
        set
    }

    /// Inserts the graph edge `{u, v}`; returns whether the graph changed
    /// (false for self-loops and duplicates). The edge joins the spanner
    /// iff the current spanner distance between its endpoints exceeds
    /// 2k−1 — the invariant for every other edge is untouched, since
    /// adding edges never increases spanner distances.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "endpoint out of range"
        );
        if u == v {
            return false;
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        if !self.graph.insert(key) {
            return false;
        }
        self.gadj.add_edge(u, v);
        self.dirty.extend([key.0, key.1]);
        if !self.bfs.distance_at_most(&self.sadj, u, v, self.stretch()) {
            self.spanner.insert(key);
            self.sadj.add_edge(u, v);
        }
        true
    }

    /// Deletes the graph edge `{u, v}`; returns whether the graph changed.
    ///
    /// A graph-only edge just disappears. Deleting a *spanner* edge
    /// additionally repairs the cover invariant: the ball of radius k−1
    /// around `{u, v}` in S is computed **before** the removal, the edge
    /// is dropped, and every remaining graph edge with an endpoint in the
    /// ball is re-checked — re-entering S when its endpoints drifted
    /// beyond 2k−1 apart. The ball suffices: a cover path of length
    /// ≤ 2k−1 through `{u, v}` has p + 1 + q hops, so min(p, q) ≤ k−1.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> bool {
        self.delete_repairing(u, v, self.k - 1)
    }

    /// [`DynamicSpanner::delete`] with the repair ball's radius as a
    /// parameter (the tests check that a smaller one breaks the repair).
    fn delete_repairing(&mut self, u: NodeId, v: NodeId, radius: u32) -> bool {
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "endpoint out of range"
        );
        if u == v {
            return false;
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        if !self.graph.remove(&key) {
            return false;
        }
        self.gadj.remove_edge(u, v);
        self.dirty.extend([key.0, key.1]);
        if self.spanner.remove(&key) {
            let ball = self.bfs.ball(&self.sadj, &[u, v], radius);
            self.sadj.remove_edge(u, v);
            self.refill(&ball);
        }
        true
    }

    /// Compacts the accumulated edits: re-clusters the dirty region
    /// through `recluster` (a hook like
    /// `baswana_sen::recluster_region(g, region, ...)` partially applied),
    /// replacing every spanner edge internal to the region with the
    /// hook's choice, then restores the cover invariant with one fixup
    /// pass over the graph edges incident to the repair ball: the nodes
    /// within k−1 of a removed edge's endpoint in the spanner before the
    /// removal. As for [`DynamicSpanner::delete`], a cover path of length
    /// ≤ 2k−1 splits at its first and last removed edge into
    /// p + (≥ 1) + q hops with min(p, q) ≤ k−1, so no edge outside the
    /// ball can lose its cover. Clears the dirty set.
    ///
    /// The hook receives the materialized current graph and the sorted
    /// dirty region, and must return a subset of the graph's edges. The
    /// fixup pass restores the cover whatever that subset is; a hook that
    /// spans the induced subgraph within stretch 2k−1 (both
    /// `recluster_region` hooks do) leaves it little to add.
    pub fn compact<F>(&mut self, recluster: F) -> CompactStats
    where
        F: FnOnce(&Graph, &[NodeId]) -> EdgeSet,
    {
        self.compact_repairing(recluster, self.k - 1)
    }

    /// [`DynamicSpanner::compact`] with the repair ball's radius as a
    /// parameter.
    fn compact_repairing<F>(&mut self, recluster: F, radius: u32) -> CompactStats
    where
        F: FnOnce(&Graph, &[NodeId]) -> EdgeSet,
    {
        if self.dirty.is_empty() {
            return CompactStats::default();
        }
        let region: Vec<NodeId> = self.dirty.iter().map(|&v| NodeId(v)).collect();
        let doomed = self.doomed_edges();
        let ends: Vec<NodeId> = doomed
            .iter()
            .flat_map(|&(a, b)| [NodeId(a), NodeId(b)])
            .collect();
        let ball = self.bfs.ball(&self.sadj, &ends, radius);
        let g = self.to_graph();
        let chosen = recluster(&g, &region);
        for &(a, b) in &doomed {
            self.spanner.remove(&(a, b));
            self.sadj.remove_edge(NodeId(a), NodeId(b));
        }
        let mut reclustered = 0usize;
        for e in chosen.iter() {
            let (a, b) = g.endpoints(e);
            let key = (a.0.min(b.0), a.0.max(b.0));
            debug_assert!(self.graph.contains(&key), "hook chose a non-graph edge");
            if self.spanner.insert(key) {
                self.sadj.add_edge(a, b);
                reclustered += 1;
            }
        }
        let refilled = self.refill(&ball);
        let stats = CompactStats {
            region: region.len(),
            ball: ball.len(),
            removed: doomed.len(),
            reclustered,
            refilled,
        };
        self.dirty.clear();
        stats
    }

    /// The spanner edges with both endpoints dirty, ascending: found by
    /// walking the spanner neighbors of each dirty node.
    fn doomed_edges(&self) -> Vec<(u32, u32)> {
        let mut doomed = Vec::new();
        for &a in &self.dirty {
            for b in self.sadj.neighbors(NodeId(a)) {
                if b.0 > a && self.dirty.contains(&b.0) {
                    doomed.push((a, b.0));
                }
            }
        }
        doomed.sort_unstable();
        doomed
    }

    /// Re-checks every graph edge with an endpoint in `ball` against the
    /// current spanner, adding the ones whose cover broke. Candidates are
    /// visited in canonical sorted order so the result is deterministic.
    /// Returns the number of edges added.
    fn refill(&mut self, ball: &[NodeId]) -> usize {
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for &x in ball {
            for y in self.gadj.neighbors(x) {
                candidates.push((x.0.min(y.0), x.0.max(y.0)));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut added = 0usize;
        for (a, b) in candidates {
            if self.spanner.contains(&(a, b)) {
                continue;
            }
            let (u, v) = (NodeId(a), NodeId(b));
            if !self.bfs.distance_at_most(&self.sadj, u, v, self.stretch()) {
                self.spanner.insert((a, b));
                self.sadj.add_edge(u, v);
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use spanner_graph::girth::girth_exceeds;
    use spanner_graph::{generators, Graph};
    use ultrasparse::Spanner;

    /// Streams all edges of `g` in the given order; returns the kept set
    /// as a spanner of `g`.
    fn stream_graph(g: &Graph, k: u32, shuffle_seed: Option<u64>) -> Spanner {
        let mut order: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        if let Some(seed) = shuffle_seed {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
        let mut s = StreamingSpanner::new(g.node_count(), k);
        for (u, v) in order {
            s.offer(u, v);
        }
        let mut edges = spanner_graph::EdgeSet::new(g);
        for &(u, v) in s.edges() {
            edges.insert(g.find_edge(u, v).expect("streamed edge"));
        }
        Spanner::from_edges(edges)
    }

    #[test]
    fn stretch_and_girth_any_order() {
        let g = generators::connected_gnm(150, 1_500, 3);
        for (k, shuffle) in [(2u32, None), (2, Some(7)), (3, Some(8))] {
            let s = stream_graph(&g, k, shuffle);
            assert!(s.is_spanning(&g));
            let r = s.stretch_exact(&g);
            assert!(
                r.satisfies_multiplicative((2 * k - 1) as f64),
                "k={k} shuffle={shuffle:?}: {}",
                r.max_multiplicative
            );
            let sub = s.edges.to_graph(&g);
            assert!(girth_exceeds(&sub, 2 * k));
        }
    }

    #[test]
    fn memory_bound_k2() {
        // Girth > 4 => O(n^{3/2}) kept edges regardless of stream length.
        let n = 400;
        let g = generators::connected_gnm(n, 15_000, 5);
        let s = stream_graph(&g, 2, Some(1));
        let bound = (n as f64).powf(1.5) + n as f64;
        assert!((s.len() as f64) < bound, "{} vs {bound}", s.len());
    }

    #[test]
    fn prefix_property() {
        // At every point of the stream the kept set spans the prefix.
        let g = generators::connected_gnm(60, 300, 9);
        let mut s = StreamingSpanner::new(60, 2);
        let mut prefix: Vec<(u32, u32)> = Vec::new();
        for (i, (_, u, v)) in g.edges().enumerate() {
            s.offer(u, v);
            prefix.push((u.0, v.0));
            if i % 50 == 49 {
                let pg = Graph::from_edges(60, prefix.iter().copied());
                let mut kept = spanner_graph::EdgeSet::new(&pg);
                for &(a, b) in s.edges() {
                    kept.insert(pg.find_edge(a, b).expect("kept edge in prefix"));
                }
                assert!(Spanner::from_edges(kept).is_spanning(&pg), "prefix {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn bidirectional_matches_unidirectional(
            n in 2usize..=40,
            m in 0usize..=160,
            k in 1u32..=4,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut s = StreamingSpanner::new(n, k);
            for _ in 0..m {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                if u != v {
                    s.offer(u, v);
                }
            }
            for _ in 0..64 {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                if u == v {
                    continue;
                }
                let limit = rng.gen_range(0..=2 * k + 2);
                prop_assert_eq!(
                    s.bfs.distance_at_most(&s.adj, u, v, limit),
                    s.bfs.distance_at_most_unidirectional(&s.adj, u, v, limit),
                    "query ({u}, {v}) limit {limit}"
                );
            }
        }
    }

    #[test]
    fn duplicates_and_loops_filtered() {
        let mut s = StreamingSpanner::new(3, 2);
        assert!(!s.offer(NodeId(1), NodeId(1)));
        assert!(s.offer(NodeId(0), NodeId(1)));
        assert!(!s.offer(NodeId(0), NodeId(1)));
        assert!(!s.offer(NodeId(1), NodeId(0)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    /// Asserts the cover invariant of `s` directly: the spanner is a
    /// subgraph of the graph and every graph edge's endpoints are within
    /// stretch in the spanner (checked by exact verification).
    fn assert_dynamic_invariant(s: &DynamicSpanner) {
        let g = s.to_graph();
        let set = s.spanner_edge_set(&g);
        let spanner = Spanner::from_edges(set);
        let r = spanner.stretch_exact(&g);
        assert!(
            r.satisfies_multiplicative(s.stretch() as f64),
            "cover invariant broken: stretch {} > {}",
            r.max_multiplicative,
            s.stretch()
        );
    }

    #[test]
    fn dynamic_insert_matches_streaming_filter() {
        // With insert-only traffic the dynamic spanner IS the streaming
        // filter: same kept set for the same arrival order.
        let g = generators::connected_gnm(80, 400, 13);
        let mut stream = StreamingSpanner::new(80, 2);
        let mut dynamic = DynamicSpanner::new(80, 2);
        for (_, u, v) in g.edges() {
            let kept = stream.offer(u, v);
            dynamic.insert(u, v);
            assert_eq!(kept, dynamic.spanner_contains(u, v), "edge {u}-{v}");
        }
        assert_eq!(dynamic.spanner_len(), stream.len());
        assert_eq!(dynamic.graph_len(), g.edge_count());
    }

    #[test]
    fn dynamic_delete_repairs_cover() {
        use rand::{Rng, SeedableRng};
        let g = generators::connected_gnm(60, 240, 21);
        let mut s = DynamicSpanner::new(60, 2);
        for (_, u, v) in g.edges() {
            s.insert(u, v);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut live: Vec<(NodeId, NodeId)> = s.graph_edges().collect();
        for _ in 0..120 {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            assert!(s.delete(u, v));
            assert!(!s.contains(u, v));
            assert!(!s.spanner_contains(u, v));
        }
        assert_eq!(s.graph_len(), g.edge_count() - 120);
        assert_dynamic_invariant(&s);
    }

    #[test]
    fn dynamic_compact_preserves_cover() {
        use rand::{Rng, SeedableRng};
        // Re-cluster through the real Baswana–Sen hook mid-stream. The
        // closure captures nothing, so it is `Copy` and reusable.
        let hook = |g: &Graph, region: &[NodeId]| {
            let params = crate::baswana_sen::BaswanaSenParams::new(2).unwrap();
            crate::baswana_sen::recluster_region(g, region, &params, 11)
        };
        let g = generators::connected_gnm(70, 300, 9);
        let mut s = DynamicSpanner::new(70, 2);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        for (i, (_, u, v)) in g.edges().enumerate() {
            s.insert(u, v);
            if i % 40 == 39 {
                // Also delete something to dirty more of the region.
                let (du, dv) = s
                    .graph_edges()
                    .nth(rng.gen_range(0..s.graph_len()))
                    .unwrap();
                s.delete(du, dv);
                assert!(s.dirty_len() > 0);
                let stats = s.compact(hook);
                assert!(stats.region > 0);
                assert_eq!(s.dirty_len(), 0);
                assert_dynamic_invariant(&s);
            }
        }
        assert_dynamic_invariant(&s);
        // Drain the tail edits, then compacting with nothing dirty is a
        // no-op.
        s.compact(hook);
        assert_eq!(s.dirty_len(), 0);
        let stats = s.compact(hook);
        assert_eq!(stats, CompactStats::default());
        assert_dynamic_invariant(&s);
    }

    #[test]
    fn dynamic_from_state_round_trips_and_validates() {
        let g = generators::connected_gnm(40, 150, 2);
        let mut s = DynamicSpanner::new(40, 3);
        for (_, u, v) in g.edges() {
            s.insert(u, v);
        }
        let graph: Vec<(u32, u32)> = s.graph_edges().map(|(u, v)| (u.0, v.0)).collect();
        let spanner: Vec<(u32, u32)> = s.spanner_edges().map(|(u, v)| (u.0, v.0)).collect();
        let back =
            DynamicSpanner::from_state(40, 3, graph.iter().copied(), spanner.iter().copied())
                .unwrap();
        assert_eq!(
            back.graph_edges().collect::<Vec<_>>(),
            s.graph_edges().collect::<Vec<_>>()
        );
        assert_eq!(
            back.spanner_edges().collect::<Vec<_>>(),
            s.spanner_edges().collect::<Vec<_>>()
        );
        // Structural validation failures are typed messages, not panics.
        assert!(DynamicSpanner::from_state(40, 3, [(1, 1)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 99)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1), (1, 0)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1)], [(0, 2)]).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1)], [(0, 1), (1, 0)]).is_err());
    }

    #[test]
    fn dynamic_delete_to_disconnection() {
        // Deleting a bridge disconnects the graph; the exempt pair stays
        // exempt and the spanner tracks the surviving components.
        let mut s = DynamicSpanner::new(6, 2);
        for (u, v) in [(0u32, 1), (1, 2), (3, 4), (4, 5), (2, 3)] {
            s.insert(NodeId(u), NodeId(v));
        }
        assert!(s.delete(NodeId(2), NodeId(3)));
        assert_eq!(s.graph_len(), 4);
        assert_dynamic_invariant(&s);
        // Delete everything: empty graph, empty spanner.
        let live: Vec<(NodeId, NodeId)> = s.graph_edges().collect();
        for (u, v) in live {
            assert!(s.delete(u, v));
        }
        assert_eq!(s.graph_len(), 0);
        assert_eq!(s.spanner_len(), 0);
        assert_dynamic_invariant(&s);
    }
    /// The cover repair before the (k−1) rule, kept as the differential
    /// oracle: a radius-2k−1 ball seeded by `u` alone on delete and by the
    /// whole dirty region on compaction, doomed edges found by scanning
    /// every spanner edge, and refill candidates collected in a set.
    impl DynamicSpanner {
        fn delete_reference(&mut self, u: NodeId, v: NodeId) -> bool {
            let key = (u.0.min(v.0), u.0.max(v.0));
            if u == v || !self.graph.remove(&key) {
                return false;
            }
            self.gadj.remove_edge(u, v);
            self.dirty.extend([key.0, key.1]);
            if self.spanner.remove(&key) {
                let ball = self.bfs.ball(&self.sadj, &[u], self.stretch());
                self.sadj.remove_edge(u, v);
                self.refill_reference(&ball);
            }
            true
        }

        fn compact_reference<F>(&mut self, recluster: F) -> CompactStats
        where
            F: FnOnce(&Graph, &[NodeId]) -> EdgeSet,
        {
            if self.dirty.is_empty() {
                return CompactStats::default();
            }
            let region: Vec<NodeId> = self.dirty.iter().map(|&v| NodeId(v)).collect();
            let ball = self.bfs.ball(&self.sadj, &region, self.stretch());
            let g = self.to_graph();
            let chosen = recluster(&g, &region);
            let doomed: Vec<(u32, u32)> = self
                .spanner
                .iter()
                .copied()
                .filter(|&(a, b)| self.dirty.contains(&a) && self.dirty.contains(&b))
                .collect();
            for &(a, b) in &doomed {
                self.spanner.remove(&(a, b));
                self.sadj.remove_edge(NodeId(a), NodeId(b));
            }
            let mut reclustered = 0usize;
            for e in chosen.iter() {
                let (a, b) = g.endpoints(e);
                if self.spanner.insert((a.0.min(b.0), a.0.max(b.0))) {
                    self.sadj.add_edge(a, b);
                    reclustered += 1;
                }
            }
            let refilled = self.refill_reference(&ball);
            self.dirty.clear();
            CompactStats {
                region: region.len(),
                ball: ball.len(),
                removed: doomed.len(),
                reclustered,
                refilled,
            }
        }

        fn refill_reference(&mut self, ball: &[NodeId]) -> usize {
            let mut candidates: BTreeSet<(u32, u32)> = BTreeSet::new();
            for &x in ball {
                for y in self.gadj.neighbors(x) {
                    candidates.insert((x.0.min(y.0), x.0.max(y.0)));
                }
            }
            let mut added = 0usize;
            for (a, b) in candidates {
                let (u, v) = (NodeId(a), NodeId(b));
                if !self.spanner.contains(&(a, b))
                    && !self.bfs.distance_at_most(&self.sadj, u, v, self.stretch())
                {
                    self.spanner.insert((a, b));
                    self.sadj.add_edge(u, v);
                    added += 1;
                }
            }
            added
        }
    }

    /// Runs `fast` and the reference side by side through one seeded
    /// stream of inserts, deletes (two in three aimed at
    /// spanner edges) and compactions, starting from the spanner of
    /// G(n, 3n). `fast` is the public `delete` and `compact` when `radius`
    /// is `None`, and their repair at that radius otherwise. Returns the
    /// first operation after which the spanners, or the compaction
    /// statistics other than `ball`, differ; a run that never differs
    /// must end with the cover invariant intact.
    ///
    /// Compactions alternate between the Baswana–Sen hook and one that
    /// keeps nothing. The Baswana–Sen choice re-covers the region by
    /// itself, so its refill rarely adds an edge; with the empty hook the
    /// refill alone must restore every cover the removal broke.
    fn differential_run(n: usize, k: u32, seed: u64, radius: Option<u32>) -> Result<(), String> {
        let g = generators::connected_gnm(n, (3 * n).min(n * (n - 1) / 2), seed);
        let mut fast = DynamicSpanner::new(n, k);
        for (_, u, v) in g.edges() {
            fast.insert(u, v);
        }
        let mut slow = fast.clone();
        let params = crate::baswana_sen::BaswanaSenParams::new(k).unwrap();
        let bs = |g: &Graph, region: &[NodeId]| {
            crate::baswana_sen::recluster_region(g, region, &params, seed)
        };
        let keep_none = |g: &Graph, _: &[NodeId]| EdgeSet::new(g);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for step in 0..160 {
            let op = if step % 40 == 39 {
                let (a, b) = if step % 80 == 79 {
                    let a = compact_at(&mut fast, keep_none, radius);
                    (a, slow.compact_reference(keep_none))
                } else {
                    (
                        compact_at(&mut fast, bs, radius),
                        slow.compact_reference(bs),
                    )
                };
                let ignore_ball = |s: CompactStats| CompactStats { ball: 0, ..s };
                if ignore_ball(a) != ignore_ball(b) {
                    return Err(format!("step {step}: compaction stats {a:?} vs {b:?}"));
                }
                "compact"
            } else if rng.gen_bool(0.5) && slow.graph_len() > 0 {
                let (u, v) = if rng.gen_range(0..3) < 2 && slow.spanner_len() > 0 {
                    slow.spanner_edges()
                        .nth(rng.gen_range(0..slow.spanner_len()))
                } else {
                    slow.graph_edges().nth(rng.gen_range(0..slow.graph_len()))
                }
                .unwrap();
                let deleted = match radius {
                    None => fast.delete(u, v),
                    Some(r) => fast.delete_repairing(u, v, r),
                };
                assert!(deleted && slow.delete_reference(u, v));
                "delete"
            } else {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                assert_eq!(fast.insert(u, v), slow.insert(u, v));
                "insert"
            };
            if fast.spanner != slow.spanner {
                return Err(format!("step {step} ({op}): spanners differ"));
            }
        }
        assert_dynamic_invariant(&fast);
        Ok(())
    }

    fn compact_at<F>(s: &mut DynamicSpanner, hook: F, radius: Option<u32>) -> CompactStats
    where
        F: FnOnce(&Graph, &[NodeId]) -> EdgeSet,
    {
        match radius {
            None => s.compact(hook),
            Some(r) => s.compact_repairing(hook, r),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn k_minus_1_repair_matches_reference(
            n in 8usize..=200,
            k in 1u32..=4,
            seed in any::<u64>(),
        ) {
            let run = differential_run(n, k, seed, None);
            prop_assert!(run.is_ok(), "n={} k={} seed={}: {:?}", n, k, seed, run);
        }
    }

    #[test]
    fn k_minus_2_repair_is_caught() {
        // The mutant check of the differential test: one ring smaller than
        // the (k−1) rule misses edges whose only cover ran through a
        // removed edge.
        for k in [2u32, 3] {
            assert!(
                differential_run(120, k, 4, Some(k - 2)).is_err(),
                "radius k-2 = {} went unnoticed at k = {k}",
                k - 2
            );
        }
    }
}
