//! Typed outcomes for fault-injected distributed builds.
//!
//! Every construction has one body that runs on an [`ExecutorNetwork`]
//! handle built from an [`Executor`](spanner_netsim::Executor);
//! `build_distributed_on` builds a fresh handle per call. The
//! `build_distributed_faulted` drivers (e.g.
//! [`skeleton::distributed::build_distributed_faulted`](crate::skeleton::distributed::build_distributed_faulted))
//! instead build a sequential handle with a
//! [`FaultPlan`](spanner_netsim::FaultPlan) attached
//! ([`ExecutorNetwork::with_faults`]) and hand it to [`build_certified`],
//! which owns it across the `catch_unwind`, so the partial metrics can
//! still be read after a contained panic. They promise exactly one of two
//! outcomes, never a panic and never a silently wrong spanner:
//!
//! * `Ok(spanner)` — the surviving output was *certified*: it spans the
//!   host graph and passes the construction's exact stretch check
//!   (re-verified against the fault-free graph, not trusted from the run);
//! * `Err(FaultError)` — a typed error that retains the partial
//!   [`RunMetrics`] accumulated before the failure, including the fault
//!   counters.
//!
//! Protocol-level panics provoked by a hostile schedule are contained by
//! the driver and surface as [`FaultError::Uncertified`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use spanner_graph::Graph;
use spanner_netsim::{ExecutorNetwork, RunError, RunMetrics};

use crate::Spanner;

/// Why a fault-injected distributed build produced no certified spanner.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The simulated run itself failed (round limit or budget violation).
    Run {
        /// The simulator error.
        error: RunError,
        /// Metrics accumulated up to the failure, fault counters included.
        metrics: RunMetrics,
    },
    /// The run finished (or was contained after a panic) but the output
    /// could not be certified correct.
    Uncertified {
        /// Human-readable certification failure.
        reason: String,
        /// Metrics of the uncertified run.
        metrics: RunMetrics,
    },
}

impl FaultError {
    /// The partial metrics retained from the failed run.
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            FaultError::Run { metrics, .. } | FaultError::Uncertified { metrics, .. } => metrics,
        }
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Run { error, .. } => write!(f, "faulted run failed: {error}"),
            FaultError::Uncertified { reason, .. } => {
                write!(f, "output not certified: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Runs `build` (a full simulate-and-collect closure) on `net` with panics
/// contained, then certifies the result with `check`; the harness behind
/// every `build_distributed_faulted` driver (spanner constructions outside
/// this crate use it for theirs too).
///
/// `net` outlives the build attempt, so the partial accounting it retained
/// is reported on the `Err` and panic paths too.
///
/// # Errors
///
/// [`FaultError::Run`] for simulator errors; [`FaultError::Uncertified`]
/// for contained panics, non-spanning output, or a failed `check`.
// The error intentionally carries the run's full `RunMetrics` for
// post-mortem accounting; callers match on it, so it is not boxed.
#[allow(clippy::result_large_err)]
pub fn build_certified<B, C>(
    g: &Graph,
    mut net: ExecutorNetwork,
    build: B,
    check: C,
) -> Result<Spanner, FaultError>
where
    B: FnOnce(&mut ExecutorNetwork) -> Result<Spanner, RunError>,
    C: FnOnce(&Spanner) -> Result<(), String>,
{
    let spanner = match catch_unwind(AssertUnwindSafe(|| build(&mut net))) {
        Err(payload) => {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            return Err(FaultError::Uncertified {
                reason: format!("protocol panicked under faults: {reason}"),
                metrics: net.metrics(),
            });
        }
        Ok(Err(error)) => {
            return Err(FaultError::Run {
                error,
                metrics: net.metrics(),
            })
        }
        Ok(Ok(spanner)) => spanner,
    };
    let run_metrics = spanner.metrics.unwrap_or_default();
    if !spanner.is_spanning(g) {
        return Err(FaultError::Uncertified {
            reason: "output does not span the graph".to_owned(),
            metrics: run_metrics,
        });
    }
    if let Err(reason) = check(&spanner) {
        return Err(FaultError::Uncertified {
            reason,
            metrics: run_metrics,
        });
    }
    Ok(spanner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use spanner_graph::{generators, CsrAdjacency, EdgeSet};
    use spanner_netsim::patterns::FloodProtocol;
    use spanner_netsim::{Executor, MessageBudget, NullSink};

    fn tiny() -> Graph {
        generators::cycle(4)
    }

    fn net(g: &Graph) -> ExecutorNetwork {
        let csr = Arc::new(CsrAdjacency::from_graph(g));
        Executor::Sequential.network(csr, MessageBudget::Unbounded, 1)
    }

    /// Floods from node 0 and stops at the round cap after round 1.
    fn flood_one_round(net: &mut ExecutorNetwork) -> Result<Vec<FloodProtocol>, RunError> {
        net.run_traced(|v, _| FloodProtocol::new(v.0 == 0, 8), 1, &mut NullSink)
    }

    #[test]
    fn certifies_good_output() {
        let g = tiny();
        let s = build_certified(
            &g,
            net(&g),
            |_| Ok(Spanner::from_edges(EdgeSet::full(&g))),
            |_| Ok(()),
        )
        .unwrap();
        assert!(s.is_spanning(&g));
    }

    #[test]
    fn maps_run_errors_with_metrics() {
        let g = tiny();
        let err = build_certified(
            &g,
            net(&g),
            |net| flood_one_round(net).map(|_| unreachable!("round cap is hit")),
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, FaultError::Run { .. }));
        // Node 0's broadcast plus its two neighbours' relays.
        assert_eq!(err.metrics().messages, 6);
    }

    #[test]
    fn rejects_non_spanning_output() {
        let g = tiny();
        let err = build_certified(
            &g,
            net(&g),
            |_| Ok(Spanner::from_edges(EdgeSet::new(&g))),
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, FaultError::Uncertified { .. }));
        assert!(err.to_string().contains("span"));
    }

    #[test]
    fn contains_panics() {
        let g = tiny();
        let err = build_certified(
            &g,
            net(&g),
            |net| {
                let _ = flood_one_round(net);
                panic!("scrambled invariant")
            },
            |_| Ok(()),
        )
        .unwrap_err();
        match err {
            FaultError::Uncertified { reason, metrics } => {
                assert!(reason.contains("scrambled invariant"), "{reason}");
                // The partial run before the panic is still accounted.
                assert_eq!(metrics.messages, 6);
            }
            other => panic!("expected Uncertified, got {other:?}"),
        }
    }

    /// Broadcasts every round until node 2 panics in round 1.
    struct Tripwire;

    impl spanner_netsim::Protocol for Tripwire {
        type Msg = u64;
        fn init(&mut self, ctx: &mut spanner_netsim::Ctx<'_, u64>) {
            ctx.broadcast(0);
        }
        fn round(
            &mut self,
            ctx: &mut spanner_netsim::Ctx<'_, u64>,
            _: &[(spanner_graph::NodeId, u64)],
        ) {
            assert!(ctx.me().0 != 2, "tripwire at node 2");
            ctx.broadcast(1);
        }
    }

    /// A protocol panic on the worker pool is contained like a sequential
    /// one, with the same partial metrics; a watchdog turns a hung pool
    /// into a failure.
    #[test]
    fn contains_panics_on_the_worker_pool() {
        let certify = |exec: Executor| {
            let g = tiny();
            let csr = Arc::new(CsrAdjacency::from_graph(&g));
            let net = exec.network(csr, MessageBudget::Unbounded, 1);
            build_certified(
                &g,
                net,
                |net| {
                    net.run_traced(|_, _| Tripwire, 8, &mut NullSink)
                        .map(|_| unreachable!("node 2 panics"))
                },
                |_| Ok(()),
            )
            .unwrap_err()
        };
        let seq = certify(Executor::Sequential);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(certify(Executor::Parallel { threads: 2 }));
        });
        let par = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the parallel build returns within 10 s");
        match &par {
            FaultError::Uncertified { reason, metrics } => {
                assert!(reason.contains("tripwire at node 2"), "{reason}");
                // Round 0's 8 sends plus nodes 0 and 1 in round 1.
                assert_eq!(metrics.messages, 12);
                assert_eq!(metrics.rounds, 1);
            }
            other => panic!("expected Uncertified, got {other:?}"),
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn rejects_failed_certification() {
        let g = tiny();
        let err = build_certified(
            &g,
            net(&g),
            |_| Ok(Spanner::from_edges(EdgeSet::full(&g))),
            |_| Err("stretch blown".to_owned()),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "output not certified: stretch blown".to_owned()
        );
    }
}
