//! `construct`: the paper's product. Builds the skeleton on the sequential
//! `Network` and on `ParallelNetwork`, Baswana–Sen k = 2 on the same
//! graph and Fibonacci (order ≤ 3) on a smaller one, then verifies the
//! skeleton. No serve or store code runs here.
//!
//! The skeleton runs hundreds of rounds in which few nodes send;
//! Baswana–Sen runs two rounds in which every node sends. A change to the
//! simulator's stepping or scatter therefore shows on one of them and must
//! not cost the other.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_baselines::baswana_sen::{self, BaswanaSenParams};
use spanner_graph::distance::UNREACHABLE;
use spanner_graph::{generators, CsrAdjacency, DistanceEngine, NodeId, Strategy};
use spanner_netsim::{FaultPlan, Synchronizer};
use ultrasparse::fibonacci::{self, analysis::distortion_envelope, FibonacciParams};
use ultrasparse::skeleton::{self, distributed as skel, SkeletonParams};
use ultrasparse::Spanner;

use crate::calib::{Calibration, Timings};
use crate::report::{median, nproc, peak_rss_mib, quantile, Outcome};
use crate::spans::{Spans, StampSink};
use crate::timed;

/// Input sizes of the `construct` workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nodes of the skeleton / Baswana–Sen graph (m = 4n).
    pub n: usize,
    /// Nodes of the Fibonacci graph (m = 4n).
    pub fib_n: usize,
    /// Nodes of the asynchronous-executor graph of the traced run.
    pub async_n: usize,
    /// BFS sources for the sampled stretch check.
    pub sources: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        n: 1 << 14,
        fib_n: 1 << 13,
        async_n: 1 << 13,
        sources: 64,
        setups: 21,
    };
    /// Seconds-scale size for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        n: 1 << 10,
        fib_n: 1 << 9,
        async_n: 1 << 8,
        sources: 16,
        setups: 2,
    };
}

/// Baswana–Sen builds per cycle: each takes a fifteenth of a skeleton
/// build, so it can afford more samples for its median.
const BS_PER_CYCLE: usize = 6;
/// Fibonacci builds and skeleton verifications per cycle.
const FIB_PER_CYCLE: usize = 2;
/// Untraced/traced skeleton build pairs whose medians give the tracing
/// overhead of the traced pass.
const OVERHEAD_PAIRS: usize = 3;

struct Inputs {
    csr: Arc<CsrAdjacency>,
    fib_csr: Arc<CsrAdjacency>,
}

fn generate(scale: &Scale, seed: u64) -> Inputs {
    Inputs {
        csr: Arc::new(generators::connected_gnm_csr(scale.n, 4 * scale.n, seed)),
        fib_csr: Arc::new(generators::connected_gnm_csr(
            scale.fib_n,
            4 * scale.fib_n,
            seed ^ 0x9E37_79B9,
        )),
    }
}

/// Generates the inputs `setups` times, sampling `cal` after each;
/// returns the last inputs and every generation time.
fn setup(scale: &Scale, seed: u64, cal: &mut Calibration) -> (Inputs, Timings) {
    let mut secs = Timings::default();
    let mut inputs = None;
    for _ in 0..scale.setups.max(1) {
        let (i, s) = timed(|| generate(scale, seed));
        secs.push(cal, s);
        inputs = Some(i);
        cal.sample();
    }
    (inputs.expect("at least one set-up"), secs)
}

fn fib_params(n: usize) -> FibonacciParams {
    let order = FibonacciParams::max_order(n).min(3);
    FibonacciParams::new(n, order, 0.5, 4).expect("valid Fibonacci parameters")
}

fn bs_params() -> BaswanaSenParams {
    BaswanaSenParams::new(2).expect("k = 2 is valid")
}

/// The sequential and parallel executors must build the same spanner with
/// the same metrics.
pub fn check_parity(seq: &Spanner, par: &Spanner) -> Result<(), String> {
    if seq.edges != par.edges {
        return Err(format!(
            "edge sets differ: {} sequential vs {} parallel edges",
            seq.len(),
            par.len()
        ));
    }
    if seq.metrics != par.metrics {
        return Err(format!(
            "metrics differ: {:?} vs {:?}",
            seq.metrics, par.metrics
        ));
    }
    Ok(())
}

/// What a verification pass measured.
#[derive(Debug, Clone, Copy)]
pub struct Verified {
    /// BFS traversals run (host + spanner rows).
    pub bfs: usize,
    /// Seconds spent in those traversals.
    pub bfs_s: f64,
    /// The engine's batching strategy on the host graph.
    pub strategy: Strategy,
}

/// Checks that `s` is a spanner of `csr`: S ⊆ E, S spans (connects
/// whatever `csr` connects), |S| ≤ `max_edges`, and on every pair
/// `(source, v)` for `sources` seeded sources the spanner distance is at
/// least the host distance and at most `allowed(host distance)`.
/// Distances come from [`DistanceEngine`].
pub fn verify_spanner(
    csr: &CsrAdjacency,
    s: &Spanner,
    max_edges: f64,
    allowed: &dyn Fn(u32) -> f64,
    sources: usize,
    seed: u64,
) -> Result<Verified, String> {
    let n = csr.node_count();
    if s.edges.universe() != csr.edge_count() {
        return Err(format!(
            "S is not a subset of E: universe {} vs {} graph edges",
            s.edges.universe(),
            csr.edge_count()
        ));
    }
    if s.len() as f64 > max_edges {
        return Err(format!(
            "|S| = {} exceeds the bound {max_edges:.0}",
            s.len()
        ));
    }
    let sub = csr.subgraph(&s.edges);
    if csr.is_connected() && !sub.is_connected() {
        return Err("spanner does not span the graph".to_string());
    }
    let host = DistanceEngine::from_csr(csr.clone());
    let span = DistanceEngine::from_csr(sub);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F57);
    let mut src: Vec<NodeId> = (0..sources.min(n))
        .map(|_| NodeId(rng.gen_range(0..n as u32)))
        .collect();
    src.sort_unstable();
    src.dedup();
    let start = Instant::now();
    let dg = host.many_distances(&src);
    let ds = span.many_distances(&src);
    let bfs_s = start.elapsed().as_secs_f64();
    for (i, u) in src.iter().enumerate() {
        for v in 0..n {
            let (g, h) = (dg[i * n + v], ds[i * n + v]);
            if g == UNREACHABLE {
                continue;
            }
            if h == UNREACHABLE || h < g || f64::from(h) > allowed(g) + 1e-9 {
                return Err(format!(
                    "stretch violated on ({}, {v}): host {g}, spanner {h}, allowed {:.1}",
                    u.0,
                    allowed(g)
                ));
            }
        }
    }
    Ok(Verified {
        bfs: 2 * src.len(),
        bfs_s,
        strategy: host.resolved_strategy(),
    })
}

fn verify_skeleton(
    csr: &CsrAdjacency,
    s: &Spanner,
    scale: &Scale,
    seed: u64,
) -> Result<Verified, String> {
    let params = SkeletonParams::default();
    let n = csr.node_count();
    let bound = params.schedule(n).distortion_bound as f64;
    verify_spanner(
        csr,
        s,
        params.expected_size(n),
        &|d| bound * f64::from(d),
        scale.sources,
        seed,
    )
}

fn verify_bs(
    csr: &CsrAdjacency,
    s: &Spanner,
    scale: &Scale,
    seed: u64,
) -> Result<Verified, String> {
    let stretch = f64::from(bs_params().stretch());
    verify_spanner(
        csr,
        s,
        f64::INFINITY,
        &|d| stretch * f64::from(d),
        scale.sources,
        seed,
    )
}

fn verify_fib(
    csr: &CsrAdjacency,
    s: &Spanner,
    scale: &Scale,
    seed: u64,
) -> Result<Verified, String> {
    let p = fib_params(csr.node_count());
    verify_spanner(
        csr,
        s,
        f64::INFINITY,
        &|d| distortion_envelope(p.order, p.ell, u64::from(d)),
        scale.sources,
        seed,
    )
}

/// Unwraps a build result, counting it as one operation.
fn built(
    out: &mut Outcome,
    what: &str,
    r: Result<Spanner, spanner_netsim::RunError>,
) -> Option<Spanner> {
    match r {
        Ok(s) => {
            out.ok();
            Some(s)
        }
        Err(e) => {
            out.check(what, Err(e.to_string()));
            None
        }
    }
}

/// The end-to-end pass: interleaved builds until `seconds` have passed
/// (at least one cycle), medians per build kind.
pub fn run(scale: &Scale, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut cal = Calibration::new();
    let (inp, setup_s) = setup(scale, seed, &mut cal);
    let sk = SkeletonParams::default();
    let bs = bs_params();
    let fp = fib_params(scale.fib_n);
    let threads = nproc();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut seq_s, mut par_s, mut bs_s, mut fib_s, mut ver_s) = (
        Timings::default(),
        Timings::default(),
        Timings::default(),
        Timings::default(),
        Timings::default(),
    );
    let mut first: Option<Spanner> = None;
    let (mut last_bs, mut last_fib) = (None, None);
    loop {
        cal.sample();
        let (r, t) = timed(|| skel::build_distributed_csr(&inp.csr, &sk, seed));
        let seq = built(out, "skeleton (Network)", r);
        seq_s.push(&cal, t);
        cal.sample();
        let (r, t) = timed(|| skel::build_distributed_csr_parallel(&inp.csr, &sk, seed, threads));
        let par = built(out, "skeleton (ParallelNetwork)", r);
        par_s.push(&cal, t);
        if let (Some(a), Some(b)) = (&seq, &par) {
            out.check(
                "skeleton Network/ParallelNetwork parity",
                check_parity(a, b),
            );
        }
        cal.sample();
        for _ in 0..BS_PER_CYCLE {
            let (r, t) = timed(|| baswana_sen::build_distributed_csr(&inp.csr, &bs, seed));
            last_bs = built(out, "Baswana-Sen", r).or(last_bs);
            bs_s.push(&cal, t);
        }
        for _ in 0..FIB_PER_CYCLE {
            cal.sample();
            let (r, t) =
                timed(|| fibonacci::distributed::build_distributed_csr(&inp.fib_csr, &fp, seed));
            last_fib = built(out, "Fibonacci", r).or(last_fib);
            fib_s.push(&cal, t);
        }
        cal.sample();
        if let Some(s) = seq {
            for _ in 0..FIB_PER_CYCLE {
                let (v, t) = timed(|| verify_skeleton(&inp.csr, &s, scale, seed));
                ver_s.push(&cal, t);
                out.check("skeleton verification", v.map(|_| ()));
            }
            match &first {
                None => first = Some(s),
                Some(f) => {
                    out.check("skeleton determinism across builds", check_parity(f, &s));
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(s) = &last_bs {
        out.check(
            "Baswana-Sen verification",
            verify_bs(&inp.csr, s, scale, seed).map(|_| ()),
        );
    }
    if let Some(s) = &last_fib {
        out.check(
            "Fibonacci verification",
            verify_fib(&inp.fib_csr, s, scale, seed).map(|_| ()),
        );
    }
    let skel_len = first.as_ref().map_or(0, Spanner::len);
    out.note(format!(
        "construct: skeleton/Baswana-Sen on connected G({}, {}), Fibonacci order {} on G({}, {}); \
         {} cycles; |skeleton| = {skel_len}; threads = {threads}",
        scale.n,
        4 * scale.n,
        fp.order,
        scale.fib_n,
        4 * scale.fib_n,
        seq_s.raw().len()
    ));
    out.note(format!(
        "calibration: {} samples, median {:.5} s",
        cal.samples().len(),
        median(cal.samples()),
    ));
    out.setup_timings(&setup_s, &cal);
    out.e2e("peak_rss_mib", peak_rss_mib(None), "MiB");
    out.slot_timings(1, "skeleton_s", &seq_s, &cal);
    out.slot_timings(2, "baswana_sen_s", &bs_s, &cal);
    out.slot_timings(3, "fibonacci_s", &fib_s, &cal);
    out.slot_timings(4, "verify_s", &ver_s, &cal);
    // Reported, not gated: its two threads meet at a barrier every round,
    // so its time depends on whether another tenant holds the second core.
    out.timings("skeleton_par_s", &par_s, &cal);
}

/// Counts of a distributed run, recorded as `<prefix>.rounds` etc.
fn counts(out: &mut Outcome, prefix: &str, s: &Spanner) {
    if let Some(m) = &s.metrics {
        out.layer(&format!("{prefix}.rounds"), f64::from(m.rounds), "count");
        out.layer(&format!("{prefix}.messages"), m.messages as f64, "count");
        out.layer(&format!("{prefix}.words"), m.words as f64, "count");
    }
}

/// Sum of phase times whose name matches `pred`.
fn phase_sum(sink: &StampSink, pred: impl Fn(&str) -> bool) -> f64 {
    sink.phase_secs()
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(_, v)| v)
        .sum()
}

/// Times a traced distributed build and records its round spans as a
/// child of a `span` span. Returns the spanner, the sink and the call's
/// start and end.
fn traced_build<F>(
    spans: &mut Spans,
    span: &str,
    f: F,
) -> (
    Result<Spanner, spanner_netsim::RunError>,
    StampSink,
    Instant,
    Instant,
)
where
    F: FnOnce(&mut StampSink) -> Result<Spanner, spanner_netsim::RunError>,
{
    let mut sink = StampSink::default();
    let id = spans.enter(span);
    let start = Instant::now();
    let r = f(&mut sink);
    let end = Instant::now();
    if let (Some(first), Some(last)) = (sink.events.first(), sink.round_times(1).last_round) {
        spans.record("netsim.rounds", first.0, last, id);
    }
    spans.exit(id);
    (r, sink, start, end)
}

/// The traced pass: one build of each kind with a timestamping trace
/// sink, plus the untraced skeleton build it is compared against.
pub fn run_traced(scale: &Scale, seed: u64, out: &mut Outcome, spans: &mut Spans) {
    let sk = SkeletonParams::default();
    let bs = bs_params();
    let fp = fib_params(scale.fib_n);
    let n = scale.n;
    let mut cal = Calibration::new();
    let (inp, gen_s) = spans.scope("graph.gen", || setup(scale, seed, &mut cal));
    out.layer("graph.gen_s", median(gen_s.raw()), "s");

    // Untraced against traced: the difference is the tracing overhead.
    // The first traced build also supplies the layer times.
    let (plain, plain_s) = timed(|| skel::build_distributed_csr(&inp.csr, &sk, seed));
    let plain = built(out, "skeleton (Network)", plain);
    let (traced, sink, start, end) = traced_build(spans, "core.skeleton", |sink| {
        skel::build_distributed_csr_traced(&inp.csr, &sk, seed, sink)
    });
    let traced = built(out, "skeleton (Network, traced)", traced);
    if let (Some(a), Some(b)) = (&plain, &traced) {
        out.check("skeleton traced/untraced parity", check_parity(a, b));
        counts(out, "skeleton", b);
    }
    let mut plain_s = vec![plain_s];
    let mut traced_s = vec![end.duration_since(start).as_secs_f64()];
    for _ in 1..OVERHEAD_PAIRS {
        let (r, t) = timed(|| skel::build_distributed_csr(&inp.csr, &sk, seed));
        built(out, "skeleton (Network)", r);
        plain_s.push(t);
        let (r, t) = timed(|| {
            skel::build_distributed_csr_traced(&inp.csr, &sk, seed, &mut StampSink::default())
        });
        built(out, "skeleton (Network, traced)", r);
        traced_s.push(t);
    }
    let (plain_s, traced_s) = (median(&plain_s), median(&traced_s));
    let rt = sink.round_times(n);
    out.layer("netsim.sparse_round_s", rt.sparse_s, "s");
    out.layer("netsim.dense_round_s", rt.dense_s, "s");
    let rounds = rt.round_ms.len().max(1);
    out.layer(
        "netsim.active_frac",
        rt.active_sum as f64 / (n as f64 * rounds as f64),
        "ratio",
    );
    out.layer("netsim.round_ms_p50", quantile(&rt.round_ms, 0.5), "ms");
    out.layer("netsim.round_ms_max", quantile(&rt.round_ms, 1.0), "ms");
    let config_s = rt
        .first
        .map_or(0.0, |f| f.duration_since(start).as_secs_f64());
    let collect_s = rt
        .last_round
        .map_or(0.0, |l| end.duration_since(l).as_secs_f64());
    out.layer("core.skeleton.config_s", config_s, "s");
    out.layer("core.skeleton.collect_s", collect_s, "s");
    out.layer(
        "core.skeleton.expand_s",
        phase_sum(&sink, |k| k.starts_with("expand[")),
        "s",
    );
    out.layer(
        "trace.construct.overhead_frac",
        traced_s / plain_s - 1.0,
        "ratio",
    );

    let (par, par_s) = spans.scope("netsim.parallel", || {
        timed(|| skel::build_distributed_csr_parallel(&inp.csr, &sk, seed, nproc()))
    });
    if let (Some(a), Some(b)) = (&plain, &built(out, "skeleton (ParallelNetwork)", par)) {
        out.check(
            "skeleton Network/ParallelNetwork parity",
            check_parity(a, b),
        );
    }
    out.layer("netsim.par_over_seq", par_s / plain_s, "ratio");

    // The Graph-based entry points are the ones with trace hooks; the topology
    // is the same as the CSR one (same generator stream).
    let g = spans.scope("graph.gen", || generators::connected_gnm(n, 4 * n, seed));
    let (r, sink, _, _) = traced_build(spans, "baselines.bs", |sink| {
        baswana_sen::build_distributed_traced(&g, &bs, seed, sink)
    });
    if let Some(s) = built(out, "Baswana-Sen (traced)", r) {
        counts(out, "baswana_sen", &s);
        out.check(
            "Baswana-Sen verification",
            verify_bs(&inp.csr, &s, scale, seed).map(|_| ()),
        );
    }
    out.layer(
        "baselines.bs.cluster_s",
        phase_sum(&sink, |k| k.starts_with("cluster[")),
        "s",
    );
    out.layer(
        "baselines.bs.connect_s",
        phase_sum(&sink, |k| k == "connect"),
        "s",
    );
    drop(g);

    let gf = spans.scope("graph.gen", || {
        generators::connected_gnm(scale.fib_n, 4 * scale.fib_n, seed ^ 0x9E37_79B9)
    });
    let (r, sink, _, _) = traced_build(spans, "core.fibonacci", |sink| {
        fibonacci::distributed::build_distributed_traced(&gf, &fp, seed, sink)
    });
    if let Some(s) = built(out, "Fibonacci (traced)", r) {
        counts(out, "fibonacci", &s);
        out.check(
            "Fibonacci verification",
            verify_fib(&inp.fib_csr, &s, scale, seed).map(|_| ()),
        );
    }
    for stage in ["parent", "trunc", "ball", "cease", "fail", "tokens"] {
        let suffix = format!(".{stage}");
        out.layer(
            &format!("core.fibonacci.{stage}_s"),
            phase_sum(&sink, |k| k.ends_with(&suffix)),
            "s",
        );
    }

    if let Some(s) = &traced {
        let v = spans.scope("graph.engine.verify", || {
            verify_skeleton(&inp.csr, s, scale, seed)
        });
        match v {
            Ok(v) => {
                out.ok();
                let code = match v.strategy {
                    Strategy::BitParallel => 1.0,
                    Strategy::DirectionOptimizing => 2.0,
                    Strategy::Auto => 0.0,
                };
                out.layer("graph.engine.strategy", code, "code");
                out.layer("graph.engine.bfs_per_s", v.bfs as f64 / v.bfs_s, "1/s");
            }
            Err(e) => {
                out.check("skeleton verification", Err(e));
            }
        }
    }

    // The skeleton on the event-driven executor, synchronized over a
    // previously built skeleton (reported, not gated).
    let ga = generators::connected_gnm(scale.async_n, 4 * scale.async_n, seed);
    let base = skeleton::build_sequential(&ga, &sk, seed);
    let sync = Synchronizer::skeleton_of(&ga, base.edges.iter());
    let plan = FaultPlan::new(seed).with_delays(0.5, 4);
    let (r, async_s) = spans.scope("netsim.async", || {
        timed(|| skel::build_distributed_async(&ga, &sk, seed, &plan, sync))
    });
    if let Some(s) = built(out, "skeleton (AsyncNetwork)", r) {
        let reference = skel::build_distributed(&ga, &sk, seed).map_err(|e| e.to_string());
        out.check(
            "skeleton AsyncNetwork/Network edge parity",
            reference.and_then(|r| {
                (r.edges == s.edges)
                    .then_some(())
                    .ok_or_else(|| "edge sets differ".to_string())
            }),
        );
        let m = s.metrics.unwrap_or_default();
        out.layer("netsim.async.events", m.events as f64, "count");
        out.layer(
            "netsim.async.sync_messages",
            m.sync_messages as f64,
            "count",
        );
    }
    out.layer("netsim.async_s", async_s, "s");
    out.note(format!(
        "construct (traced): skeleton {plain_s:.3} s untraced, {traced_s:.3} s traced \
         (medians of {OVERHEAD_PAIRS}); {} rounds",
        rt.round_ms.len()
    ));
}
