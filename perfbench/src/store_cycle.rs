//! `store-cycle`: reads beside writes on a persisted Baswana–Sen spanner.
//!
//! `Store::save`, then repeated `Store::open`, then a seeded insert/delete
//! stream through `DynamicStore`, then `checkpoint()`, then a short tail
//! of edits left in the write-ahead log and `DynamicStore::open`
//! replaying it. The cycle repeats on the evolving snapshot. Compaction
//! runs the same `baselines` code as `construct` (`DynamicSpanner`,
//! `recluster_region`), incrementally.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spanner_baselines::baswana_sen::{self, recluster_region, BaswanaSenParams};
use spanner_baselines::streaming::DynamicSpanner;
use spanner_graph::{generators, CsrAdjacency, NodeId};
use spanner_store::manifest::{Manifest, DATA_SALT};
use spanner_store::{blocks, checksum, DynamicStore, Edit, SnapshotMeta, Store};

use crate::calib::{Calibration, Timings};
use crate::report::{median, peak_rss_mib, Outcome};
use crate::spans::Spans;
use crate::timed;

/// Sizes of the `store-cycle` workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nodes of the stored graph (m = 4n).
    pub n: usize,
    /// Edits applied between checkpoints.
    pub edits: usize,
    /// Edits left in the write-ahead log for the replay.
    pub tail: usize,
    /// `Store::open` calls per cycle.
    pub opens: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        n: 1 << 17,
        edits: 1_000,
        tail: 200,
        opens: 5,
        setups: 9,
    };
    /// Seconds-scale size for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        n: 1 << 10,
        edits: 200,
        tail: 50,
        opens: 2,
        setups: 2,
    };
}

const K: u32 = 2;

fn meta(seed: u64) -> SnapshotMeta {
    SnapshotMeta {
        k: K,
        seed,
        routing: false,
    }
}

/// The graph and its Baswana–Sen spanner as canonical pairs.
fn build(scale: &Scale, seed: u64) -> (Arc<CsrAdjacency>, Vec<(u32, u32)>) {
    let csr = Arc::new(generators::connected_gnm_csr(scale.n, 4 * scale.n, seed));
    let params = BaswanaSenParams::new(K).expect("k = 2 is valid");
    let s = baswana_sen::build_distributed_csr(&csr, &params, seed).expect("Baswana-Sen build");
    let pairs = csr
        .forward_edges()
        .filter(|&(e, _, _)| s.edges.contains(e))
        .map(|(_, a, b)| (a.0, b.0))
        .collect();
    (csr, pairs)
}

fn graph_pairs(csr: &CsrAdjacency) -> Vec<(u32, u32)> {
    csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect()
}

fn pairs_of(it: impl Iterator<Item = (NodeId, NodeId)>) -> Vec<(u32, u32)> {
    it.map(|(a, b)| (a.0, b.0)).collect()
}

/// The state a snapshot directory should reopen to.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Graph edges, canonical ascending pairs.
    pub graph: Vec<(u32, u32)>,
    /// Spanner edges, canonical ascending pairs.
    pub spanner: Vec<(u32, u32)>,
    /// Construction metadata.
    pub meta: SnapshotMeta,
    /// Edits in the write-ahead log.
    pub edits: Vec<Edit>,
}

/// Opens `dir` and checks that the CSR, the spanner pairs, the metadata
/// and the logged edits equal `want`.
pub fn check_snapshot(dir: &Path, want: &Expected) -> Result<(), String> {
    let st = Store::open(dir).map_err(|e| format!("open failed: {e}"))?;
    if graph_pairs(&st.csr) != want.graph {
        return Err("reopened graph differs from the saved one".to_string());
    }
    if st.spanner != want.spanner {
        return Err("reopened spanner pairs differ from the saved ones".to_string());
    }
    if st.meta != want.meta {
        return Err(format!(
            "reopened meta {:?} differs from {:?}",
            st.meta, want.meta
        ));
    }
    if st.edits != want.edits {
        return Err(format!(
            "reopened WAL has {} edits, expected {}",
            st.edits.len(),
            want.edits.len()
        ));
    }
    Ok(())
}

/// Checks that two dynamic spanners hold the same graph and spanner.
pub fn check_same(got: &DynamicSpanner, want: &DynamicSpanner) -> Result<(), String> {
    if !got.graph_edges().eq(want.graph_edges()) {
        return Err("graph edges differ from the in-memory state".to_string());
    }
    if !got.spanner_edges().eq(want.spanner_edges()) {
        return Err("spanner edges differ from the in-memory state".to_string());
    }
    Ok(())
}

/// Seeded edit stream: alternately inserts a uniform non-edge and deletes
/// the next edge of the original graph (in a seeded order), so every edit
/// applies and the graph keeps its size.
struct Edits {
    rng: SmallRng,
    originals: Vec<(u32, u32)>,
    next: usize,
    n: u32,
}

impl Edits {
    fn new(csr: &CsrAdjacency, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xED17_5EED);
        let mut originals = graph_pairs(csr);
        originals.shuffle(&mut rng);
        Edits {
            rng,
            originals,
            next: 0,
            n: csr.node_count() as u32,
        }
    }

    fn next(&mut self, live: &DynamicSpanner) -> Edit {
        if self.rng.gen::<bool>() && self.next < self.originals.len() {
            let (u, v) = self.originals[self.next];
            self.next += 1;
            if live.contains(NodeId(u), NodeId(v)) {
                return Edit::Delete(u, v);
            }
        }
        loop {
            let u = self.rng.gen_range(0..self.n);
            let v = self.rng.gen_range(0..self.n);
            if u != v && !live.contains(NodeId(u), NodeId(v)) {
                return Edit::Insert(u.min(v), u.max(v));
            }
        }
    }
}

/// Applies `count` edits through the store; returns them and the seconds.
fn apply(
    store: &mut DynamicStore,
    edits: &mut Edits,
    count: usize,
    out: &mut Outcome,
) -> (Vec<Edit>, f64) {
    let mut log = Vec::with_capacity(count);
    let start = Instant::now();
    for _ in 0..count {
        let e = edits.next(store.spanner());
        let r = match e {
            Edit::Insert(u, v) => store.insert(u, v),
            Edit::Delete(u, v) => store.delete(u, v),
        };
        match r {
            Ok(true) => log.push(e),
            Ok(false) => {
                out.check("edit", Err(format!("{e:?} did not apply")));
            }
            Err(err) => {
                out.check("edit", Err(err.to_string()));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    out.attempted += log.len() as u64;
    (log, secs)
}

fn expected_of(store: &DynamicStore, seed: u64) -> Expected {
    Expected {
        graph: pairs_of(store.spanner().graph_edges()),
        spanner: pairs_of(store.spanner().spanner_edges()),
        meta: meta(seed),
        edits: Vec::new(),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty directory `name` under `work`.
fn fresh(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The end-to-end pass.
pub fn run(scale: &Scale, seed: u64, seconds: f64, work: &Path, out: &mut Outcome) {
    let mut cal = Calibration::new();
    let mut setup_s = Timings::default();
    let mut built = None;
    for _ in 0..scale.setups.max(1) {
        let (b, t) = timed(|| build(scale, seed));
        setup_s.push(&cal, t);
        built = Some(b);
        cal.sample();
    }
    let (csr, pairs) = built.expect("at least one set-up");
    let dir = fresh(work, "snapshot");
    let r = Store::save(&dir, &csr, &pairs, meta(seed));
    out.check("Store::save", r.map(|_| ()).map_err(|e| e.to_string()));
    let snapshot_bytes = dir_bytes(&dir);
    let mut want = Expected {
        graph: graph_pairs(&csr),
        spanner: pairs,
        meta: meta(seed),
        edits: Vec::new(),
    };
    let mut edits = Edits::new(&csr, seed);
    drop(csr);
    let (mut load_s, mut edit_s, mut ckpt_s, mut reopen_s) = (
        Timings::default(),
        Timings::default(),
        Timings::default(),
        Timings::default(),
    );
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut store: Option<DynamicStore> = None;
    loop {
        cal.sample();
        for _ in 0..scale.opens {
            let (r, t) = timed(|| Store::open(&dir));
            load_s.push(&cal, t);
            out.check("Store::open", r.map(|_| ()).map_err(|e| e.to_string()));
        }
        out.check(
            "reopened snapshot equals what was saved",
            check_snapshot(&dir, &want),
        );
        let mut st = match store.take() {
            Some(s) => s,
            None => match DynamicStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    out.check("DynamicStore::open", Err(e.to_string()));
                    break;
                }
            },
        };
        cal.sample();
        let (_, t) = apply(&mut st, &mut edits, scale.edits, out);
        edit_s.push(&cal, t / scale.edits as f64);
        cal.sample();
        let (r, t) = timed(|| st.checkpoint());
        ckpt_s.push(&cal, t);
        cal.sample();
        out.check("checkpoint", r.map(|_| ()).map_err(|e| e.to_string()));
        want = expected_of(&st, seed);
        let (tail, _) = apply(&mut st, &mut edits, scale.tail, out);
        want.edits = tail;
        let memory = st.spanner().clone();
        drop(st);
        let (r, t) = timed(|| DynamicStore::open(&dir));
        reopen_s.push(&cal, t);
        match r {
            Ok(s) => {
                out.check(
                    "state after checkpoint and reopen equals memory",
                    check_same(s.spanner(), &memory),
                );
                store = Some(s);
            }
            Err(e) => {
                out.check("DynamicStore::open with WAL replay", Err(e.to_string()));
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.note(format!(
        "store-cycle: connected G({}, {}) with its Baswana-Sen k = 2 spanner; {} edits per \
         checkpoint, {} in the replayed WAL; {} cycles; snapshot {snapshot_bytes} bytes",
        scale.n,
        4 * scale.n,
        scale.edits,
        scale.tail,
        ckpt_s.raw().len()
    ));
    out.note(format!(
        "calibration: {} samples, median {:.5} s",
        cal.samples().len(),
        median(cal.samples())
    ));
    out.setup_timings(&setup_s, &cal);
    out.e2e("peak_rss_mib", peak_rss_mib(None), "MiB");
    out.slot_timings(1, "load_s", &load_s, &cal);
    out.slot_timings(2, "edits_per_s", &edit_s, &cal);
    out.slot_timings(3, "checkpoint_s", &ckpt_s, &cal);
    out.slot_timings(4, "reopen_s", &reopen_s, &cal);
}

/// The traced pass: one cycle with each store layer timed on its own.
pub fn run_traced(scale: &Scale, seed: u64, work: &Path, out: &mut Outcome, spans: &mut Spans) {
    if let Err(e) = traced_inner(scale, seed, work, out, spans) {
        out.check("store-cycle traced pass", Err(e));
    }
}

fn traced_inner(
    scale: &Scale,
    seed: u64,
    work: &Path,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let err = |e: spanner_store::StoreError| e.to_string();
    let (csr, pairs) = spans.scope("baselines.bs.build", || build(scale, seed));
    let m = csr.edge_count();
    let dir = fresh(work, "snapshot-traced");
    spans
        .scope("store.save", || Store::save(&dir, &csr, &pairs, meta(seed)))
        .map_err(err)?;
    let bytes = dir_bytes(&dir);
    out.layer("store.snapshot_bytes", bytes as f64, "bytes");
    out.layer("store.bytes_per_edge", bytes as f64 / m as f64, "bytes");

    // Open, and its parts timed one by one through the public functions.
    let mut open_s = Vec::new();
    for _ in 0..scale.opens.max(1) {
        let (r, t) = timed(|| Store::open(&dir));
        r.map_err(err)?;
        open_s.push(t);
    }
    let open_s = median(&open_s);
    let id = spans.enter("store.open");
    let (read, read_s) = spans.scope("store.read", || {
        timed(|| -> std::io::Result<(Vec<u8>, Vec<u8>)> {
            let manifest = std::fs::read(dir.join("MANIFEST"))?;
            let generation = Manifest::decode(&manifest)
                .map(|m| m.generation)
                .unwrap_or(0);
            let data = std::fs::read(dir.join(format!("blocks-{generation}.dat")))?;
            Ok((manifest, data))
        })
    });
    let (manifest, data) = read.map_err(|e| e.to_string())?;
    let generation = Manifest::decode(&manifest).map_err(err)?.generation;
    let (payload, blocks_s) = spans.scope("store.blocks", || {
        timed(|| blocks::decode_blocks(&data, generation))
    });
    payload.map_err(err)?;
    let (_, sum_s) = spans.scope("store.checksum", || {
        timed(|| checksum::checksum(DATA_SALT ^ generation, &data))
    });
    spans.exit(id);
    out.layer("store.read_s", read_s, "s");
    out.layer("store.blocks_s", blocks_s, "s");
    out.layer(
        "store.checksum_gbps",
        data.len() as f64 / sum_s / 1e9,
        "GB/s",
    );
    out.layer("store.decode_s", open_s - read_s - blocks_s, "s");

    let (st, base_open_s) =
        spans.scope("store.dynamic_open", || timed(|| DynamicStore::open(&dir)));
    let mut st = st.map_err(err)?;
    let mut bare = st.spanner().clone();
    let mut edits = Edits::new(&csr, seed);
    let (log, store_s) = spans.scope("store.edits", || {
        apply(&mut st, &mut edits, scale.edits, out)
    });
    let (_, bare_s) = spans.scope("baselines.dynamic.apply", || {
        timed(|| {
            for e in &log {
                match *e {
                    Edit::Insert(u, v) => bare.insert(NodeId(u), NodeId(v)),
                    Edit::Delete(u, v) => bare.delete(NodeId(u), NodeId(v)),
                };
            }
        })
    });
    let per = log.len().max(1) as f64;
    out.layer("baselines.dynamic.apply_us", bare_s * 1e6 / per, "us");
    out.layer("store.wal_append_us", (store_s - bare_s) * 1e6 / per, "us");

    let params = BaswanaSenParams::new(K).expect("k = 2 is valid");
    out.layer(
        "store.compact_dirty_nodes",
        bare.dirty_len() as f64,
        "count",
    );
    let (_, compact_s) = spans.scope("baselines.dynamic.compact", || {
        timed(|| bare.compact(|g, region| recluster_region(g, region, &params, seed)))
    });
    out.layer("store.compact_s", compact_s, "s");
    let ck = spans.enter("store.checkpoint");
    st.checkpoint().map_err(err)?;
    spans.exit(ck);
    out.check(
        "checkpoint equals compaction of the bare spanner",
        check_same(st.spanner(), &bare),
    );
    let csr2 = CsrAdjacency::from_edges(bare.node_count(), pairs_of(bare.graph_edges()));
    let sp2 = pairs_of(bare.spanner_edges());
    let target = fresh(work, "snapshot-save");
    let (r, save_s) = spans.scope("store.save", || {
        timed(|| Store::save(&target, &csr2, &sp2, meta(seed)))
    });
    r.map_err(err)?;
    out.layer("store.save_s", save_s, "s");

    let (_, _) = apply(&mut st, &mut edits, scale.tail, out);
    let memory = st.spanner().clone();
    drop(st);
    let (r, reopen_s) = spans.scope("store.replay", || timed(|| DynamicStore::open(&dir)));
    let reopened = r.map_err(err)?;
    out.check(
        "state after checkpoint and reopen equals memory",
        check_same(reopened.spanner(), &memory),
    );
    out.layer("store.wal_replay_s", reopen_s - base_open_s, "s");
    Ok(())
}
