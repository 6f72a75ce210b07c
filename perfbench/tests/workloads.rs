//! Each workload at a tiny scale: every metric `BENCHMARK.json` names is
//! emitted with its unit, and each correctness check fails closed on an
//! injected fault.

use std::path::PathBuf;
use std::sync::Arc;

use perfbench::construct::{check_parity, verify_spanner};
use perfbench::report::Metric;
use perfbench::serve_wire::{self, verify_answers, Planner, Req, Target};
use perfbench::store_cycle::{check_snapshot, Expected};
use perfbench::{Options, Scales, Workload};
use spanner_graph::{generators, CsrAdjacency, NodeId};
use spanner_oracle::DistanceOracle;
use spanner_serve::protocol::format_dist;
use spanner_store::{SnapshotMeta, Store};
use ultrasparse::skeleton::{distributed as skel, SkeletonParams};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn run(workload: Workload, trace: bool) -> perfbench::report::Outcome {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        serve: Target::InProcess,
        work_dir: work_dir(&format!("{}-{}", workload.name(), u8::from(trace))),
        scales: Scales::TINY,
    };
    perfbench::run(&opts)
}

fn assert_emits(metrics: &[Metric], section: &str) {
    let want = declared(section);
    assert!(!want.is_empty(), "{section} declares metrics");
    for (name, unit) in &want {
        let m = metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{name} not emitted"));
        assert_eq!(m.unit, unit, "unit of {name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    for m in metrics {
        assert!(
            want.iter().any(|(n, _)| n == &m.name),
            "{} is not declared",
            m.name
        );
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_on_every_workload() {
    for w in Workload::ALL {
        let out = run(w, false);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert_emits(&out.end_to_end, "end_to_end");
        assert!(
            out.end_to_end.iter().all(|m| m.value > 0.0),
            "{}: a zero metric",
            w.name()
        );
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric() {
    let out = run(Workload::StoreCycle, true);
    assert!(out.correct(), "{:?}", out.failures);
    assert_emits(&out.per_layer, "per_layer");
}

#[test]
fn a_dropped_spanner_edge_fails_the_construct_checks() {
    let csr = Arc::new(generators::connected_gnm_csr(256, 1024, 3));
    let s = skel::build_distributed_csr(&csr, &SkeletonParams::default(), 3).expect("build");
    let mut dropped = s.clone();
    let e = dropped.edges.iter().next().expect("non-empty spanner");
    dropped.edges.remove(e);
    assert!(check_parity(&s, &s).is_ok());
    assert!(check_parity(&s, &dropped).is_err());

    // On a tree every edge is a bridge: the verifier must notice the gap.
    let path = generators::path(64);
    let tree = CsrAdjacency::from_graph(&path);
    let full = ultrasparse::Spanner::from_edges(spanner_graph::EdgeSet::full(&path));
    let stretch = |d: u32| f64::from(d);
    assert!(verify_spanner(&tree, &full, f64::INFINITY, &stretch, 8, 1).is_ok());
    let mut cut = full.clone();
    cut.edges.remove(spanner_graph::EdgeId(10));
    assert!(verify_spanner(&tree, &cut, f64::INFINITY, &stretch, 8, 1).is_err());
}

#[test]
fn a_wrong_dist_line_fails_the_serve_check() {
    let scale = serve_wire::Scale::TINY;
    let g = generators::connected_gnm(scale.n as usize, scale.m as usize, 5);
    let oracle = DistanceOracle::build(&g, 2, 5);
    let plan = Planner::new(&scale, 5).plan(200.0, 20.0, 0.5);
    let answer = |u: u32, v: u32| format_dist(oracle.query(NodeId(u), NodeId(v)));
    let mut lines: Vec<Vec<String>> = plan
        .iter()
        .map(|p| match &p.req {
            Req::Dist(u, v) => vec![answer(*u, *v)],
            Req::Batch(pairs) => std::iter::once(format!("OK BATCH {}", pairs.len()))
                .chain(pairs.iter().map(|&(u, v)| answer(u, v)))
                .collect(),
        })
        .collect();
    let (checked, wrong, _) = verify_answers(&oracle, &plan, &lines);
    assert_eq!((checked, wrong), (plan.len() as u64, 0));
    let i = plan
        .iter()
        .position(|p| matches!(p.req, Req::Dist(..)))
        .expect("a DIST");
    lines[i][0] = "OK 999999".to_string();
    let (_, wrong, first) = verify_answers(&oracle, &plan, &lines);
    assert_eq!(wrong, 1);
    assert!(first.expect("mismatch reported").contains("999999"));
}

#[test]
fn a_flipped_snapshot_byte_fails_the_store_check() {
    let dir = work_dir("flip");
    let csr = generators::connected_gnm_csr(512, 2048, 9);
    let pairs: Vec<(u32, u32)> = csr
        .forward_edges()
        .take(600)
        .map(|(_, a, b)| (a.0, b.0))
        .collect();
    let meta = SnapshotMeta {
        k: 2,
        seed: 9,
        routing: false,
    };
    let generation = Store::save(&dir, &csr, &pairs, meta).expect("save");
    let want = Expected {
        graph: csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect(),
        spanner: pairs,
        meta,
        edits: Vec::new(),
    };
    assert!(check_snapshot(&dir, &want).is_ok());
    let data = dir.join(format!("blocks-{generation}.dat"));
    let mut bytes = std::fs::read(&data).expect("read data file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&data, bytes).expect("write data file");
    assert!(check_snapshot(&dir, &want).is_err());
}
