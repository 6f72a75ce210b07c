//! Every distributed construction on every executor.
//!
//! Each construction has one driver, `build_distributed_on`, that takes an
//! [`Executor`]. The executors realise one model, so the choice must never
//! show in the result: for each (construction, executor) cell of the table
//! below, the spanner edge set and the protocol-level [`RunMetrics`] equal
//! the sequential executor's. The table covers cells no per-executor
//! driver ever offered, such as Baswana–Sen and the BFS forest on the
//! worker pool.

use std::sync::Arc;

use ultrasparse_spanners::baselines::baswana_sen::{self, BaswanaSenParams};
use ultrasparse_spanners::baselines::bfs_skeleton;
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::{generators, CsrAdjacency, Graph};
use ultrasparse_spanners::netsim::{
    Executor, FaultPlan, NullSink, RunError, RunMetrics, Synchronizer,
};

type Build = fn(&Arc<CsrAdjacency>, &Executor) -> Result<Spanner, RunError>;

/// The four constructions, each with fixed parameters and seed.
const CONSTRUCTIONS: [(&str, Build); 4] = [
    ("skeleton", |csr, executor| {
        let params = SkeletonParams::default();
        skeleton::distributed::build_distributed_on(csr, &params, 7, executor, &mut NullSink)
    }),
    ("fibonacci", |csr, executor| {
        let params = FibonacciParams::new(csr.node_count(), 2, 0.5, 3).expect("valid params");
        fibonacci::distributed::build_distributed_on(csr, &params, 7, executor, &mut NullSink)
    }),
    ("baswana_sen", |csr, executor| {
        let params = BaswanaSenParams::new(3).expect("valid params");
        baswana_sen::build_distributed_on(csr, &params, 7, executor, &mut NullSink)
    }),
    ("bfs_skeleton", |csr, executor| {
        let max_rounds = 4 * csr.node_count() as u32;
        bfs_skeleton::build_distributed_on(csr, 7, max_rounds, executor, &mut NullSink)
    }),
];

/// The executors every construction runs on; the first is the reference.
fn executors() -> Vec<Executor> {
    vec![
        Executor::Sequential,
        Executor::Parallel { threads: 1 },
        Executor::Parallel { threads: 2 },
        Executor::Parallel { threads: 3 },
        Executor::Parallel { threads: 8 },
        Executor::Async {
            delays: FaultPlan::new(5).with_delays(0.4, 3),
            synchronizer: Synchronizer::Alpha,
        },
    ]
}

fn metrics(s: &Spanner) -> RunMetrics {
    s.metrics
        .expect("distributed build has metrics")
        .protocol_only()
}

#[test]
fn every_construction_agrees_on_every_executor() {
    let graphs: [(&str, Graph); 2] = [
        ("gnm", generators::connected_gnm(240, 960, 11)),
        ("grid", generators::grid(12, 12)),
    ];
    for (graph, g) in &graphs {
        let csr = Arc::new(CsrAdjacency::from_graph(g));
        for (construction, build) in CONSTRUCTIONS {
            let mut runs = executors().into_iter().map(|executor| {
                let s = build(&csr, &executor).expect("distributed build");
                (executor, s)
            });
            let (_, reference) = runs.next().expect("reference executor");
            assert!(reference.is_spanning(g), "{construction} on {graph}");
            for (executor, s) in runs {
                let cell = format!("{construction} on {graph}, {executor:?}");
                assert_eq!(reference.edges, s.edges, "{cell}: spanner differs");
                assert_eq!(metrics(&reference), metrics(&s), "{cell}: metrics differ");
            }
        }
    }
}
