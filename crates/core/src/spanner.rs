//! The spanner result type and distortion verification.
//!
//! Following the paper's definition (Sect. 1): a subgraph `S ⊆ E` is an
//! (α, β)-spanner of `G` if `δ_S(u, v) ≤ α·δ(u, v) + β` for all `u, v`.
//! [`Spanner`] holds the selected edges plus the construction's cost
//! accounting; [`StretchReport`] measures the realized distortion (exactly
//! or on sampled pairs) so experiments can compare against the analytic
//! envelopes.

use spanner_graph::components::preserves_connectivity;
use spanner_graph::distance::{sample_pairs, UNREACHABLE};
use spanner_graph::engine::BfsScratch;
use spanner_graph::{CsrAdjacency, DistanceEngine, EdgeSet, Graph, NodeId};
use spanner_netsim::RunMetrics;

/// A spanner of a host graph: the selected edge subset plus the cost of
/// constructing it (rounds / messages / max message words for distributed
/// constructions, `None` for centralized ones).
#[derive(Debug, Clone)]
pub struct Spanner {
    /// The selected edges, as a subset of the host graph's edges.
    pub edges: EdgeSet,
    /// Communication cost of the construction, if it was distributed.
    pub metrics: Option<RunMetrics>,
}

impl Spanner {
    /// Wraps an edge set as a centralized-construction spanner.
    pub fn from_edges(edges: EdgeSet) -> Self {
        Spanner {
            edges,
            metrics: None,
        }
    }

    /// Collects a distributed run's per-node edge selections, given as
    /// endpoint pairs of `csr` edges, into a spanner carrying the run's
    /// metrics. Edge ids come from [`CsrAdjacency::edge_index`], which
    /// reproduces [`Graph::from_edges`]' lexicographic id order, so the
    /// result is the one a `Graph` lookup would give.
    ///
    /// # Panics
    ///
    /// Panics if a pair is not an edge of `csr`.
    pub fn from_selections(
        csr: &CsrAdjacency,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        metrics: RunMetrics,
    ) -> Self {
        let index = csr.edge_index();
        let mut edges = EdgeSet::with_universe(index.edge_count());
        for (a, b) in pairs {
            edges.insert(
                index
                    .edge_id(csr, a, b)
                    .expect("selected edges are graph edges"),
            );
        }
        Spanner {
            edges,
            metrics: Some(metrics),
        }
    }

    /// Number of selected edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were selected.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edges per host node, the unit the paper reports sizes in.
    pub fn edges_per_node(&self, g: &Graph) -> f64 {
        self.edges.len() as f64 / g.node_count().max(1) as f64
    }

    /// Whether the spanner is a subgraph of `g` preserving all of `g`'s
    /// connectivity — the minimal correctness requirement.
    pub fn is_spanning(&self, g: &Graph) -> bool {
        self.edges.universe() == g.edge_count() && preserves_connectivity(g, &self.edges)
    }

    /// Exact distortion over **all** connected pairs (O(n·m/64) traversal
    /// work via the bit-parallel engine — use on verification-sized
    /// inputs).
    pub fn stretch_exact(&self, g: &Graph) -> StretchReport {
        self.stretch_exact_threads(g, 1)
    }

    /// [`Spanner::stretch_exact`] with the engine fanned out over
    /// `threads` workers. Distance rows are computed in parallel but
    /// recorded sequentially in (u, v) order, so the report — including
    /// its order-sensitive witness pair and float means — is identical at
    /// every thread count.
    pub fn stretch_exact_threads(&self, g: &Graph, threads: usize) -> StretchReport {
        let n = g.node_count();
        let host = DistanceEngine::new(g).with_threads(threads);
        let sub = DistanceEngine::for_subgraph(g, &self.edges).with_threads(threads);
        let mut report = StretchReport::empty();
        // One stride of sources per engine call bounds peak row memory at
        // 2 × 64 × threads × n cells while keeping every worker busy.
        let stride = 64 * threads.max(1);
        let mut start = 0usize;
        while start < n {
            let end = (start + stride).min(n);
            let sources: Vec<NodeId> = (start as u32..end as u32).map(NodeId).collect();
            let host_rows = host.many_distances(&sources);
            let sub_rows = sub.many_distances(&sources);
            for (i, &u) in sources.iter().enumerate() {
                let dg = &host_rows[i * n..(i + 1) * n];
                let ds = &sub_rows[i * n..(i + 1) * n];
                for v in (u.index() + 1)..n {
                    if dg[v] != UNREACHABLE {
                        report.record(u, NodeId(v as u32), dg[v], ds[v]);
                    }
                }
            }
            start = end;
        }
        report
    }

    /// Distortion on `count` sampled connected pairs (seeded), grouping BFS
    /// runs per source; suitable for large graphs.
    pub fn stretch_sampled(&self, g: &Graph, count: usize, seed: u64) -> StretchReport {
        self.stretch_sampled_threads(g, count, seed, 1)
    }

    /// [`Spanner::stretch_sampled`] with the engine fanned out over
    /// `threads` workers; same sequential-record determinism argument as
    /// [`Spanner::stretch_exact_threads`].
    pub fn stretch_sampled_threads(
        &self,
        g: &Graph,
        count: usize,
        seed: u64,
        threads: usize,
    ) -> StretchReport {
        let pairs = sample_pairs(g, count, seed);
        let n = g.node_count();
        let sub = DistanceEngine::for_subgraph(g, &self.edges).with_threads(threads);
        let mut report = StretchReport::empty();
        let stride = 64 * threads.max(1);
        let mut i = 0usize;
        while i < pairs.len() {
            // The next `stride` distinct sources (pairs arrive sorted by
            // source, so sources form contiguous runs).
            let mut sources: Vec<NodeId> = Vec::with_capacity(stride);
            let mut j = i;
            while j < pairs.len() {
                let u = pairs[j].u;
                if sources.last() != Some(&u) {
                    if sources.len() == stride {
                        break;
                    }
                    sources.push(u);
                }
                j += 1;
            }
            let rows = sub.many_distances(&sources);
            let mut si = 0usize;
            for p in &pairs[i..j] {
                while sources[si] != p.u {
                    si += 1;
                }
                report.record(p.u, p.v, p.dist, rows[si * n + p.v.index()]);
            }
            i = j;
        }
        report
    }

    /// Per-distance distortion profile on sampled pairs: for every host
    /// distance `d` that occurred, the worst and mean multiplicative
    /// stretch among sampled pairs at that distance. Used to regenerate the
    /// four-stage Fibonacci distortion curves (Theorem 7).
    pub fn stretch_profile(&self, g: &Graph, count: usize, seed: u64) -> Vec<DistanceBucket> {
        let pairs = sample_pairs(g, count, seed);
        let sub = DistanceEngine::for_subgraph(g, &self.edges);
        let mut scratch = BfsScratch::new(g.node_count());
        let mut row = vec![UNREACHABLE; g.node_count()];
        let mut cached: Option<NodeId> = None;
        let mut buckets: std::collections::BTreeMap<u32, DistanceBucket> =
            std::collections::BTreeMap::new();
        for p in pairs {
            if p.dist == 0 {
                continue;
            }
            if cached != Some(p.u) {
                sub.distances_into(p.u, &mut scratch, &mut row);
                cached = Some(p.u);
            }
            let dsv = row[p.v.index()];
            let b = buckets.entry(p.dist).or_insert(DistanceBucket {
                dist: p.dist,
                pairs: 0,
                max_stretch: 0.0,
                sum_stretch: 0.0,
                disconnected: 0,
            });
            b.pairs += 1;
            if dsv == UNREACHABLE {
                b.disconnected += 1;
            } else {
                let s = dsv as f64 / p.dist as f64;
                b.max_stretch = b.max_stretch.max(s);
                b.sum_stretch += s;
            }
        }
        buckets.into_values().collect()
    }
}

/// A pair that exceeded a distortion envelope, found by
/// [`Spanner::check_envelope_exact`] / [`Spanner::check_envelope_sampled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeViolation {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Host distance.
    pub host: u32,
    /// Spanner distance (`u32::MAX` if disconnected in the spanner).
    pub in_spanner: u32,
    /// The allowed bound `envelope(host)` that was exceeded.
    pub allowed: f64,
}

impl Spanner {
    /// Checks `δ_S(u,v) ≤ envelope(δ(u,v))` for **all** connected pairs;
    /// returns the first violation found, if any. The per-distance envelope
    /// is how the paper states Fibonacci distortion (Theorem 7): a
    /// different (α, β) at every distance.
    pub fn check_envelope_exact<F>(&self, g: &Graph, envelope: F) -> Option<EnvelopeViolation>
    where
        F: Fn(u32) -> f64,
    {
        let n = g.node_count();
        let host = DistanceEngine::new(g);
        let sub = DistanceEngine::for_subgraph(g, &self.edges);
        let mut host_scratch = BfsScratch::new(n);
        let mut sub_scratch = BfsScratch::new(n);
        let mut dg = vec![UNREACHABLE; n];
        let mut ds = vec![UNREACHABLE; n];
        for u in g.nodes() {
            host.distances_into(u, &mut host_scratch, &mut dg);
            sub.distances_into(u, &mut sub_scratch, &mut ds);
            for v in (u.index() + 1)..n {
                let d = dg[v];
                if d == UNREACHABLE || d == 0 {
                    continue;
                }
                let allowed = envelope(d);
                if ds[v] == UNREACHABLE || ds[v] as f64 > allowed + 1e-9 {
                    return Some(EnvelopeViolation {
                        u,
                        v: NodeId(v as u32),
                        host: d,
                        in_spanner: ds[v],
                        allowed,
                    });
                }
            }
        }
        None
    }

    /// Sampled-pair version of [`Spanner::check_envelope_exact`].
    pub fn check_envelope_sampled<F>(
        &self,
        g: &Graph,
        count: usize,
        seed: u64,
        envelope: F,
    ) -> Option<EnvelopeViolation>
    where
        F: Fn(u32) -> f64,
    {
        let pairs = sample_pairs(g, count, seed);
        let sub = DistanceEngine::for_subgraph(g, &self.edges);
        let mut scratch = BfsScratch::new(g.node_count());
        let mut row = vec![UNREACHABLE; g.node_count()];
        let mut cached: Option<NodeId> = None;
        for p in pairs {
            if p.dist == 0 {
                continue;
            }
            if cached != Some(p.u) {
                sub.distances_into(p.u, &mut scratch, &mut row);
                cached = Some(p.u);
            }
            let dsv = row[p.v.index()];
            let allowed = envelope(p.dist);
            if dsv == UNREACHABLE || dsv as f64 > allowed + 1e-9 {
                return Some(EnvelopeViolation {
                    u: p.u,
                    v: p.v,
                    host: p.dist,
                    in_spanner: dsv,
                    allowed,
                });
            }
        }
        None
    }
}

/// Distortion statistics at one host distance, produced by
/// [`Spanner::stretch_profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBucket {
    /// Host-graph distance of the pairs in this bucket.
    pub dist: u32,
    /// Number of sampled pairs at this distance.
    pub pairs: usize,
    /// Worst multiplicative stretch observed.
    pub max_stretch: f64,
    /// Sum of stretches (divide by connected pairs for the mean).
    pub sum_stretch: f64,
    /// Pairs disconnected in the spanner (0 for any valid spanner).
    pub disconnected: usize,
}

impl DistanceBucket {
    /// Mean multiplicative stretch over connected pairs in the bucket.
    pub fn mean_stretch(&self) -> f64 {
        let connected = self.pairs - self.disconnected;
        if connected == 0 {
            0.0
        } else {
            self.sum_stretch / connected as f64
        }
    }
}

/// Realized distortion of a spanner on a set of (host-connected) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchReport {
    /// Pairs evaluated.
    pub pairs: usize,
    /// Pairs disconnected in the spanner (0 for a valid spanner).
    pub disconnected: usize,
    /// Worst multiplicative stretch `δ_S / δ` over connected pairs.
    pub max_multiplicative: f64,
    /// Mean multiplicative stretch over connected pairs.
    pub mean_multiplicative: f64,
    /// Worst additive surplus `δ_S − δ` over connected pairs.
    pub max_additive: u32,
    /// Mean additive surplus over connected pairs.
    pub mean_additive: f64,
    /// Witness pair for the worst multiplicative stretch.
    pub worst_pair: Option<(NodeId, NodeId)>,
    sum_mult: f64,
    sum_add: f64,
}

impl StretchReport {
    fn empty() -> Self {
        StretchReport {
            pairs: 0,
            disconnected: 0,
            max_multiplicative: 1.0,
            mean_multiplicative: 1.0,
            max_additive: 0,
            mean_additive: 0.0,
            worst_pair: None,
            sum_mult: 0.0,
            sum_add: 0.0,
        }
    }

    fn record(&mut self, u: NodeId, v: NodeId, host: u32, in_spanner: u32) {
        debug_assert!(host != UNREACHABLE && host > 0);
        self.pairs += 1;
        if in_spanner == UNREACHABLE {
            self.disconnected += 1;
        } else {
            debug_assert!(in_spanner >= host, "spanner cannot shorten distances");
            let mult = in_spanner as f64 / host as f64;
            let add = in_spanner - host;
            if mult > self.max_multiplicative {
                self.max_multiplicative = mult;
                self.worst_pair = Some((u, v));
            }
            self.max_additive = self.max_additive.max(add);
            self.sum_mult += mult;
            self.sum_add += add as f64;
        }
        let connected = (self.pairs - self.disconnected) as f64;
        if connected > 0.0 {
            self.mean_multiplicative = self.sum_mult / connected;
            self.mean_additive = self.sum_add / connected;
        }
    }

    /// Whether every evaluated pair had `δ_S ≤ α·δ` (pure multiplicative).
    ///
    /// An (α, β) check with both parts nonzero is not recoverable from the
    /// aggregate maxima (the max-multiplicative and max-additive witnesses
    /// can be different pairs); a sufficient condition is
    /// `satisfies_multiplicative(alpha) || satisfies_additive(beta)`.
    pub fn satisfies_multiplicative(&self, alpha: f64) -> bool {
        self.disconnected == 0 && self.max_multiplicative <= alpha + 1e-9
    }

    /// Whether every evaluated pair had `δ_S ≤ δ + β` (pure additive).
    pub fn satisfies_additive(&self, beta: u32) -> bool {
        self.disconnected == 0 && self.max_additive <= beta
    }
}

impl std::fmt::Display for StretchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pairs={} max_mult={:.3} mean_mult={:.3} max_add={} mean_add={:.3} disconnected={}",
            self.pairs,
            self.max_multiplicative,
            self.mean_multiplicative,
            self.max_additive,
            self.mean_additive,
            self.disconnected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::{generators, EdgeId};

    /// Spanner = full graph: stretch exactly 1 everywhere.
    #[test]
    fn full_spanner_stretch_one() {
        let g = generators::erdos_renyi_gnm(40, 120, 1);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        assert!(s.is_spanning(&g));
        let r = s.stretch_exact(&g);
        assert_eq!(r.max_multiplicative, 1.0);
        assert_eq!(r.max_additive, 0);
        assert_eq!(r.disconnected, 0);
        assert!(r.satisfies_multiplicative(1.0));
        assert!(r.satisfies_additive(0));
    }

    /// Cycle minus one edge: the deleted edge's endpoints are at distance
    /// n−1 in the spanner, giving multiplicative stretch n−1.
    #[test]
    fn cycle_minus_edge() {
        let n = 11;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        let e = g.find_edge(NodeId(0), NodeId(n as u32 - 1)).unwrap();
        edges.remove(e);
        let s = Spanner::from_edges(edges);
        assert!(s.is_spanning(&g));
        let r = s.stretch_exact(&g);
        assert_eq!(r.max_multiplicative, (n - 1) as f64);
        assert_eq!(r.max_additive, (n - 2) as u32);
        assert_eq!(r.worst_pair, Some((NodeId(0), NodeId(n as u32 - 1))));
        assert!(r.satisfies_multiplicative((n - 1) as f64));
        assert!(!r.satisfies_multiplicative((n - 2) as f64));
    }

    #[test]
    fn empty_spanner_disconnects() {
        let g = generators::path(5);
        let s = Spanner::from_edges(EdgeSet::new(&g));
        assert!(!s.is_spanning(&g));
        let r = s.stretch_exact(&g);
        assert_eq!(r.disconnected, r.pairs);
        assert!(!r.satisfies_additive(1_000));
    }

    #[test]
    fn sampled_agrees_with_exact_on_full() {
        let g = generators::connected_gnm(60, 140, 2);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let r = s.stretch_sampled(&g, 200, 3);
        assert!(r.pairs > 0);
        assert_eq!(r.max_multiplicative, 1.0);
        assert_eq!(r.disconnected, 0);
    }

    #[test]
    fn sampled_detects_stretch() {
        let n = 16;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        edges.remove(EdgeId(0));
        let s = Spanner::from_edges(edges);
        let r = s.stretch_sampled(&g, 500, 9);
        assert!(r.max_multiplicative > 1.0);
        assert_eq!(r.disconnected, 0);
    }

    /// The float means and worst-pair witness are order-sensitive, so this
    /// also pins the sequential-record determinism contract.
    #[test]
    fn threaded_reports_identical() {
        let g = generators::connected_gnm(70, 200, 4);
        let mut edges = EdgeSet::full(&g);
        edges.remove(EdgeId(0));
        edges.remove(EdgeId(7));
        let s = Spanner::from_edges(edges);
        let base_exact = s.stretch_exact(&g);
        let base_sampled = s.stretch_sampled(&g, 300, 9);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                s.stretch_exact_threads(&g, threads),
                base_exact,
                "t={threads}"
            );
            assert_eq!(
                s.stretch_sampled_threads(&g, 300, 9, threads),
                base_sampled,
                "t={threads}"
            );
        }
    }

    #[test]
    fn profile_buckets_sorted_and_consistent() {
        let g = generators::grid(8, 8);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let profile = s.stretch_profile(&g, 300, 5);
        assert!(!profile.is_empty());
        for w in profile.windows(2) {
            assert!(w[0].dist < w[1].dist);
        }
        for b in &profile {
            assert_eq!(b.disconnected, 0);
            assert!((b.max_stretch - 1.0).abs() < 1e-9);
            assert!((b.mean_stretch() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn edges_per_node() {
        let g = generators::path(10);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        assert!((s.edges_per_node(&g) - 0.9).abs() < 1e-12);
        assert_eq!(s.len(), 9);
        assert!(!s.is_empty());
    }

    #[test]
    fn envelope_checks() {
        let n = 9;
        let g = generators::cycle(n);
        let mut edges = EdgeSet::full(&g);
        let e = g.find_edge(NodeId(0), NodeId(n as u32 - 1)).unwrap();
        edges.remove(e);
        let s = Spanner::from_edges(edges);
        // The deleted chord pair (distance 1) needs n-1; additive envelope
        // d + (n-2) passes, d + (n-3) fails.
        assert!(s
            .check_envelope_exact(&g, |d| d as f64 + (n - 2) as f64)
            .is_none());
        let viol = s
            .check_envelope_exact(&g, |d| d as f64 + (n - 3) as f64)
            .expect("violation");
        assert_eq!(viol.host, 1);
        assert_eq!(viol.in_spanner, (n - 1) as u32);
        // Sampled check agrees on the passing envelope.
        assert!(s
            .check_envelope_sampled(&g, 400, 3, |d| d as f64 + (n - 2) as f64)
            .is_none());
        // Disconnected spanner is always a violation.
        let empty = Spanner::from_edges(EdgeSet::new(&g));
        assert!(empty.check_envelope_exact(&g, |_| 1e18).is_some());
    }

    #[test]
    fn display_report() {
        let g = generators::path(4);
        let s = Spanner::from_edges(EdgeSet::full(&g));
        let r = s.stretch_exact(&g);
        assert!(r.to_string().contains("max_mult=1.000"));
    }
}
