//! One value naming the executor a construction runs on.
//!
//! The paper defines every construction once, in one model: synchronous
//! message passing with bounded words per message. Two executors realise
//! that model with byte-identical protocol-level results (states, metrics,
//! trace streams; asserted in `tests/executor_parity.rs`): the synchronous
//! [`Network`], whose thread count picks its round loop (inline at one
//! thread, a worker pool at more), and the event-driven [`AsyncNetwork`].
//! A construction driver therefore needs only *which* executor to use, not
//! a copy of itself per executor. [`Executor`] is that choice;
//! [`Executor::network`] builds an [`ExecutorNetwork`] handle over a shared
//! [`CsrAdjacency`] and each run dispatches once to the chosen executor.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use spanner_graph::generators;
//! use spanner_netsim::{patterns::FloodProtocol, CsrAdjacency, Executor, MessageBudget, NullSink};
//!
//! let csr = Arc::new(CsrAdjacency::from_graph(&generators::cycle(16)));
//! let mut net = Executor::Parallel { threads: 2 }.network(csr, MessageBudget::Unbounded, 42);
//! let states = net.run_traced(|v, _| FloodProtocol::new(v.0 == 0, 8), 64, &mut NullSink);
//! assert!(states.expect("flood terminates").iter().all(|s| s.reached()));
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;

use spanner_graph::NodeId;

use crate::async_exec::{AsyncNetwork, Synchronizer};
use crate::budget::MessageBudget;
use crate::csr::CsrAdjacency;
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::sync::{Network, Protocol, RunError};
use crate::trace::TraceSink;

/// Which executor runs a protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Executor {
    /// The synchronous [`Network`] at one thread: the sequential round
    /// loop, the reference executor.
    Sequential,
    /// The synchronous [`Network`] on `threads` threads
    /// ([`Network::with_threads`]); at one thread it runs what
    /// [`Executor::Sequential`] runs.
    Parallel {
        /// Threads; must be at least 1.
        threads: usize,
    },
    /// The event-driven executor ([`AsyncNetwork`]): per-link latencies
    /// from `delays` (only its delay clause is consulted), round semantics
    /// recovered by `synchronizer`. Passing a built spanner as
    /// [`Synchronizer::Skeleton`] edges is the Bitton et al.
    /// message-reduction transformation.
    Async {
        /// The delay plan.
        delays: FaultPlan,
        /// How round safety is disseminated.
        synchronizer: Synchronizer,
    },
}

impl Executor {
    /// A network handle of this kind over `adjacency`, with the given
    /// message budget and master seed.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`Executor::Parallel`] with zero threads.
    pub fn network(
        &self,
        adjacency: Arc<CsrAdjacency>,
        budget: MessageBudget,
        seed: u64,
    ) -> ExecutorNetwork {
        match self {
            Executor::Sequential => {
                ExecutorNetwork::Synchronous(Network::from_csr(adjacency, budget, seed))
            }
            Executor::Parallel { threads } => ExecutorNetwork::Synchronous(
                Network::from_csr(adjacency, budget, seed).with_threads(*threads),
            ),
            Executor::Async {
                delays,
                synchronizer,
            } => ExecutorNetwork::Async(
                AsyncNetwork::from_csr(adjacency, budget, seed)
                    .with_delays(delays.clone())
                    .with_synchronizer(synchronizer.clone()),
            ),
        }
    }
}

/// A network built by [`Executor::network`]: one of the two executors,
/// behind the surface they share.
pub enum ExecutorNetwork {
    /// A [`Network`], at the thread count the [`Executor`] named.
    Synchronous(Network),
    /// An [`AsyncNetwork`].
    Async(AsyncNetwork),
}

impl ExecutorNetwork {
    /// Injects faults from `plan` on subsequent runs (see
    /// [`Network::with_faults`]).
    ///
    /// # Panics
    ///
    /// Panics on an asynchronous network: fault injection belongs to the
    /// round-synchronous executor, and the asynchronous one takes only a
    /// delay plan.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        match self {
            ExecutorNetwork::Synchronous(net) => {
                ExecutorNetwork::Synchronous(net.with_faults(plan))
            }
            ExecutorNetwork::Async(_) => {
                panic!("fault injection needs a round-synchronous executor")
            }
        }
    }

    /// The message budget in force.
    pub fn budget(&self) -> MessageBudget {
        match self {
            ExecutorNetwork::Synchronous(net) => net.budget(),
            ExecutorNetwork::Async(net) => net.budget(),
        }
    }

    /// The shared sorted adjacency.
    pub fn adjacency(&self) -> &CsrAdjacency {
        match self {
            ExecutorNetwork::Synchronous(net) => net.adjacency(),
            ExecutorNetwork::Async(net) => net.adjacency(),
        }
    }

    /// Cost accounting of the most recent run, partial after a failed
    /// one; every executor leaves the same protocol-level counters.
    pub fn metrics(&self) -> RunMetrics {
        match self {
            ExecutorNetwork::Synchronous(net) => net.metrics(),
            ExecutorNetwork::Async(net) => net.metrics(),
        }
    }

    /// Runs `factory`-created protocols to quiescence on the chosen
    /// executor, streaming trace events into `sink` (see
    /// [`Network::run_traced`]).
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`] if not quiescent within `max_rounds`;
    /// [`RunError::Budget`] if any message exceeds the budget.
    pub fn run_traced<P, F>(
        &mut self,
        factory: F,
        max_rounds: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        match self {
            ExecutorNetwork::Synchronous(net) => net.run_traced(factory, max_rounds, sink),
            ExecutorNetwork::Async(net) => net.run_traced(factory, max_rounds, sink),
        }
    }
}
