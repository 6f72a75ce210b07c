//! The repository's benchmark: three workloads that drive the public
//! functions of every crate and check every output.
//!
//! * `construct` — distributed constructions on the simulator;
//! * `serve-wire` — the real `spanner-serve` binary over loopback TCP;
//! * `store-cycle` — snapshot save/open, logged edits and compaction.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics of
//! one workload. A traced run reports the per-layer metrics: it runs the
//! traced pass of every workload, the named one first, so each per-layer
//! metric is measured in every traced run.

use std::path::PathBuf;
use std::time::Instant;

pub mod calib;
pub mod construct;
pub mod report;
pub mod serve_wire;
pub mod spans;
pub mod store_cycle;

use report::Outcome;
use spans::Spans;

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distributed constructions.
    Construct,
    /// Open-loop requests over the wire.
    ServeWire,
    /// Snapshot and log-structured store.
    StoreCycle,
}

impl Workload {
    /// Every workload, in the order traced runs execute them.
    pub const ALL: [Workload; 3] = [
        Workload::Construct,
        Workload::ServeWire,
        Workload::StoreCycle,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Construct => "construct",
            Workload::ServeWire => "serve-wire",
            Workload::StoreCycle => "store-cycle",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes of all workloads.
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// `construct` sizes.
    pub construct: construct::Scale,
    /// `serve-wire` sizes and rates.
    pub serve: serve_wire::Scale,
    /// `store-cycle` sizes.
    pub store: store_cycle::Scale,
}

impl Scales {
    /// The benchmark's sizes.
    pub const FULL: Scales = Scales {
        construct: construct::Scale::FULL,
        serve: serve_wire::Scale::FULL,
        store: store_cycle::Scale::FULL,
    };
    /// Seconds-scale sizes for the tests.
    pub const TINY: Scales = Scales {
        construct: construct::Scale::TINY,
        serve: serve_wire::Scale::TINY,
        store: store_cycle::Scale::TINY,
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run (first, when traced).
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time of an untraced run, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// The server `serve-wire` talks to.
    pub serve: serve_wire::Target,
    /// Directory for snapshots and span files.
    pub work_dir: PathBuf,
    /// Input sizes.
    pub scales: Scales,
}

/// Runs one invocation; `spans` are written to `work_dir` when traced.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let s = &opts.scales;
    if !opts.trace {
        match opts.workload {
            Workload::Construct => construct::run(&s.construct, opts.seed, opts.seconds, &mut out),
            Workload::ServeWire => {
                serve_wire::run(&opts.serve, &s.serve, opts.seed, opts.seconds, &mut out)
            }
            Workload::StoreCycle => {
                store_cycle::run(&s.store, opts.seed, opts.seconds, &opts.work_dir, &mut out)
            }
        }
        return out;
    }
    let mut spans = Spans::new(true);
    let mut order = vec![opts.workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != opts.workload));
    for w in order {
        let run_id = Workload::ALL.iter().position(|&x| x == w).unwrap_or(0) as u32;
        spans.set_run(run_id);
        let (pass_start, cost_before) = (Instant::now(), spans.cost_secs());
        let id = spans.enter(&format!("bench.{}", w.name()));
        match w {
            Workload::Construct => {
                construct::run_traced(&s.construct, opts.seed, &mut out, &mut spans)
            }
            Workload::ServeWire => {
                serve_wire::run_traced(&opts.serve, &s.serve, opts.seed, &mut out, &mut spans)
            }
            Workload::StoreCycle => {
                store_cycle::run_traced(&s.store, opts.seed, &opts.work_dir, &mut out, &mut spans)
            }
        }
        spans.exit(id);
        // `construct` traces inside the simulator and compares traced with
        // untraced builds itself. The other passes trace only through
        // `spans`, so their overhead is the recorder's own time.
        if w != Workload::Construct {
            out.layer(
                &format!("trace.{}.overhead_frac", w.name()),
                (spans.cost_secs() - cost_before) / pass_start.elapsed().as_secs_f64(),
                "ratio",
            );
        }
        out.layer(
            &format!("trace.{}.coverage", w.name()),
            spans.coverage(run_id),
            "ratio",
        );
    }
    let selfs = spans.layer_self_secs();
    for layer in [
        "graph",
        "netsim",
        "core",
        "baselines",
        "oracle",
        "serve",
        "store",
        "bench",
    ] {
        out.layer(
            &format!("self_s.{layer}"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    let path = opts.work_dir.join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    if let Err(e) = spans.write_jsonl(&path) {
        out.check("write spans", Err(format!("{}: {e}", path.display())));
    } else {
        out.note(format!("spans written to {}", path.display()));
    }
    out
}
