//! The synchronous round-based runner.
//!
//! A [`Network`] couples a communication graph with a per-node [`Protocol`]
//! state machine and executes synchronized rounds: messages sent in round
//! `r` are delivered at the start of round `r + 1`; each node may send at
//! most one message per neighbor per round (enforced); message lengths are
//! checked against the [`MessageBudget`] and accounted in [`RunMetrics`].
//!
//! Execution stops when the network is *quiescent* — a round in which no
//! messages were sent and every node reports [`Protocol::done`] — or when
//! the round cap is hit (an error: the paper's algorithms have hard round
//! bounds and exceeding them is a bug, not a long run).
//!
//! # One executor, two round loops
//!
//! The thread count ([`Network::with_threads`], default 1) picks the round
//! loop: the sequential loop in this module, the reference, or the worker
//! pool (the crate's private `parallel` module). Both run on one round
//! core (the private `round` module): the same message acceptance (budget
//! check, metrics, trace accounting), the same inbox arena built between
//! rounds by one counting scatter — or, under a [`FaultPlan`], by the fault
//! engine — and the same round sequence, in which round 0 steps every
//! `init`.
//!
//! # Hot-path design
//!
//! The round loop performs no per-round heap allocation in steady state:
//! sends are staged in one reused buffer and counting-scattered into a flat
//! inbox arena with per-receiver offsets, both keeping their capacity; the
//! outbox is one reused `Vec`; duplicate-send detection is a per-node stamp
//! array ([`Ctx::send`] is O(log deg), [`Ctx::broadcast`] is O(deg)).
//! Adjacency is a flat [`CsrAdjacency`] shared with the other executors.
//!
//! Only the *active set* steps: the nodes with mail, which the scatter's
//! prefix-sum pass marks in a bitset, and the nodes whose
//! [`Protocol::next_wake`] hint named this round (next-round wakes in the
//! same bitset, later ones in a calendar bucketed by round). The bitset is
//! walked in ascending id order, so sends are staged in exactly the order
//! of a loop over every node. Each node's `done` bit is refreshed when it
//! steps, and a running count of nodes not done replaces a per-round scan
//! of all n. A protocol that keeps the default hint is stepped every round,
//! as before. Under a [`FaultPlan`] every node stays due every round.

use std::sync::Arc;

use rand::rngs::SmallRng;

use spanner_graph::{Graph, NodeId};

use crate::active::ActiveSet;
use crate::budget::{BudgetViolation, MessageBudget};
use crate::csr::CsrAdjacency;
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::rng::node_rng;
use crate::round::{drive, RoundCore};
use crate::trace::{NullSink, PhaseAction, TraceSink, Tracer};

/// Message length in words of O(log n) bits.
///
/// One word holds one node identifier or one bounded integer, mirroring the
/// paper's measurement of message length "in units of O(log n) bits".
pub trait MessageSize {
    /// The number of words this message occupies on the wire.
    fn words(&self) -> usize;
}

impl MessageSize for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for NodeId {
    fn words(&self) -> usize {
        1
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(MessageSize::words).sum()
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }
}

/// A per-node state machine run by [`Network`].
///
/// Implementations receive the full inbox of the round (sender plus message,
/// sorted by sender id — a deterministic order shared by every executor
/// and thread count) and send via the [`Ctx`].
pub trait Protocol {
    /// The message type exchanged by this protocol.
    type Msg: Clone + MessageSize;

    /// Called once before the first round; may send initial messages.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called every round with the messages delivered this round.
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(NodeId, Self::Msg)]);

    /// Whether this node is content to stop if the network goes quiet.
    ///
    /// The runner stops at the first round where no messages are in flight
    /// and all nodes are `done`. Defaults to `true` (pure quiescence).
    fn done(&self) -> bool {
        true
    }

    /// The earliest round after `round` in which this node must step even
    /// if its inbox is empty; `None` means "only when mail arrives".
    ///
    /// The synchronous executor ([`Network`], unfaulted, at any thread
    /// count) calls this after every step and skips the node until it has
    /// mail or its wake round comes. The default, `round + 1`, steps the
    /// node every round.
    ///
    /// A hint is a promise that stepping the node with an empty inbox in
    /// any round before the wake would be a **no-op**: no state change, no
    /// RNG draw, no send, and no phase action ([`Ctx::enter_phase`] or
    /// [`Ctx::exit_phase`]) — re-declaring the phase already open is the
    /// one allowed exception, since the executors deduplicate it. Waking
    /// early is therefore always safe; waking late changes the run.
    /// [`done`](Protocol::done) must only change when the node steps. Wakes
    /// past the run's round cap are dropped. Runs under a
    /// [`FaultPlan`] and on the asynchronous executor step every node
    /// every round and never consult the hint.
    fn next_wake(&self, round: u32) -> Option<u32> {
        Some(round + 1)
    }
}

/// Per-round, per-node execution context handed to [`Protocol`] methods.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    node: NodeId,
    n: usize,
    round: u32,
    neighbors: &'a [NodeId],
    rng: &'a mut SmallRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    /// Duplicate-send detection: `seen[u] == stamp` iff a message to `u` was
    /// queued by this node this round. The stamp is bumped per (node, round),
    /// so the array never needs clearing — O(1) per send, no per-round work.
    seen: &'a mut [u64],
    stamp: u64,
    /// Phase declarations buffered this round; the executor drains them in
    /// global sender order, which keeps trace streams executor-independent.
    phases: &'a mut Vec<PhaseAction>,
    /// Whether the current run collects trace events (see [`Ctx::tracing`]).
    tracing: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Internal constructor for the worker pool and the event-driven
    /// executor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_for_executor(
        node: NodeId,
        n: usize,
        round: u32,
        neighbors: &'a [NodeId],
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(NodeId, M)>,
        seen: &'a mut [u64],
        stamp: u64,
        phases: &'a mut Vec<PhaseAction>,
        tracing: bool,
    ) -> Self {
        Ctx {
            node,
            n,
            round,
            neighbors,
            rng,
            outbox,
            seen,
            stamp,
            phases,
            tracing,
        }
    }

    /// This node's identifier.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the network (`n` is global knowledge in the
    /// model: bounds like `4 s_i ln n` are computed locally from it).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number (0 during `init`).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Identifiers of this node's neighbors, ascending.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// This node's private deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Queues a message to neighbor `to` for delivery next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor (the model only allows messages
    /// along edges) or if a message was already queued to `to` this round
    /// (one message per neighbor per round).
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "{} attempted to message non-neighbor {}",
            self.node,
            to
        );
        self.mark_sent(to);
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every neighbor.
    ///
    /// Equivalent to [`Ctx::send`] per neighbor, but skips the per-neighbor
    /// membership search: O(deg) total, which keeps a broadcast from a
    /// degree-Δ hub linear instead of quadratic.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let neighbors = self.neighbors;
        self.outbox.reserve(neighbors.len());
        for &to in neighbors {
            self.mark_sent(to);
            self.outbox.push((to, msg.clone()));
        }
    }

    /// Whether the current run is collecting trace events.
    ///
    /// Protocols that build phase names dynamically should gate the
    /// formatting on this so untraced runs stay allocation-free:
    ///
    /// ```ignore
    /// if ctx.tracing() {
    ///     ctx.enter_phase(format!("expand[{call:02}]"));
    /// }
    /// ```
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Declares that this node entered the named phase this round.
    ///
    /// Phase spans are a *global* notion: timetable-driven protocols have
    /// every node declare the same phase in the same round, and the
    /// executors deduplicate consecutive identical declarations into one
    /// [`PhaseEnter`](crate::TraceEvent::PhaseEnter) event. Entering a
    /// different phase implicitly closes the current one. No-op (and free)
    /// when the run is untraced — but see [`Ctx::tracing`] for avoiding the
    /// cost of *building* the name.
    pub fn enter_phase(&mut self, name: impl Into<String>) {
        if self.tracing {
            self.phases.push(PhaseAction::Enter(name.into()));
        }
    }

    /// Declares that the current phase ended this round.
    ///
    /// Deduplicated like [`Ctx::enter_phase`]; a no-op when no phase is
    /// open or the run is untraced. Runs that end (or fail) with a phase
    /// still open have the span closed automatically.
    pub fn exit_phase(&mut self) {
        if self.tracing {
            self.phases.push(PhaseAction::Exit);
        }
    }

    /// Records a send to `to` this round; panics on the second one.
    #[inline]
    fn mark_sent(&mut self, to: NodeId) {
        let slot = &mut self.seen[to.index()];
        assert!(
            *slot != self.stamp,
            "{} queued two messages to {} in one round",
            self.node,
            to
        );
        *slot = self.stamp;
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The round cap was reached before quiescence.
    RoundLimit {
        /// The cap that was exceeded.
        max_rounds: u32,
    },
    /// A message exceeded the [`MessageBudget`].
    Budget(BudgetViolation),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RoundLimit { max_rounds } => {
                write!(f, "network not quiescent after {max_rounds} rounds")
            }
            RunError::Budget(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<BudgetViolation> for RunError {
    fn from(v: BudgetViolation) -> Self {
        RunError::Budget(v)
    }
}

/// A synchronous network over a graph.
///
/// Construct once per run; [`Network::run`] drives a fresh set of protocol
/// instances to quiescence and leaves cost accounting in
/// [`Network::metrics`] — including after a failed run, where the metrics
/// cover everything accepted up to the error.
///
/// The thread count picks the round loop. At one thread (the default) the
/// nodes step inline, in ascending id order: the reference loop. With
/// [`Network::with_threads`] at two or more, a worker pool steps
/// contiguous chunks of nodes in parallel. Both loops run on one round
/// core — the same message acceptance, inbox arena and fault engine — and
/// accept sends in global sender order, so a run's final states, metrics
/// (partial ones after a failure included) and trace stream do not depend
/// on the thread count.
///
/// The topology is one `Arc`'d [`CsrAdjacency`]; a [`Graph`] is only an
/// optional convenience input ([`Network::new`]), never a requirement —
/// [`Network::from_csr`] runs straight off a streamed adjacency, which is
/// what the million-node construction drivers do.
#[derive(Debug)]
pub struct Network {
    budget: MessageBudget,
    seed: u64,
    threads: usize,
    metrics: RunMetrics,
    /// Sorted flat adjacency (the Ctx hands slices of it out and `send`
    /// binary searches them), shared with drivers and other executors.
    adjacency: Arc<CsrAdjacency>,
    /// Fault schedule, if any; `None` selects the pre-fault code path.
    faults: Option<FaultPlan>,
}

impl Network {
    /// A network on `graph` with the given message budget and master seed.
    pub fn new(graph: &Graph, budget: MessageBudget, seed: u64) -> Self {
        Network::from_csr(Arc::new(CsrAdjacency::from_graph(graph)), budget, seed)
    }

    /// A network straight over a shared CSR adjacency — the zero-`Graph`
    /// construction path. Runs are byte-identical (states, metrics,
    /// traces) to a [`Network::new`] over the equivalent graph.
    pub fn from_csr(adjacency: Arc<CsrAdjacency>, budget: MessageBudget, seed: u64) -> Self {
        Network {
            budget,
            seed,
            threads: 1,
            metrics: RunMetrics::default(),
            adjacency,
            faults: None,
        }
    }

    /// Runs subsequent runs on `threads` threads: one steps the nodes
    /// inline, two or more on a worker pool. Results do not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Injects faults from `plan` on subsequent runs (see
    /// [`FaultPlan`]). Without this call — or with an empty plan — the
    /// round loop is the exact pre-fault monomorphization, so the unfaulted
    /// hot path costs nothing.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The message budget in force.
    pub fn budget(&self) -> MessageBudget {
        self.budget
    }

    /// Cost accounting of the most recent [`Network::run`].
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// The shared sorted adjacency.
    pub fn adjacency(&self) -> &CsrAdjacency {
        &self.adjacency
    }

    /// Runs `factory`-created protocols to quiescence.
    ///
    /// `factory(v, rng)` builds node `v`'s initial state; `rng` is the
    /// node's private RNG (stream 0), which the protocol may use for its
    /// own up-front random choices. The factory runs on the calling
    /// thread, in node order, whatever the thread count. Returns the final
    /// node states.
    ///
    /// A protocol panic propagates to the caller with its original
    /// payload, on the worker pool too.
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`] if not quiescent within `max_rounds`;
    /// [`RunError::Budget`] if any message exceeds the budget.
    pub fn run<P, F>(&mut self, factory: F, max_rounds: u32) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        self.run_traced(factory, max_rounds, &mut NullSink)
    }

    /// Like [`Network::run`], streaming [`TraceEvent`](crate::TraceEvent)s
    /// into `sink` as the run executes.
    ///
    /// With a disabled sink ([`NullSink`]) this is exactly `run`. The event
    /// stream is deterministic and the same at every thread count —
    /// byte-for-byte when serialized: protocols buffer their phase
    /// declarations, and the round core applies them together with the
    /// per-message accounting in global sender order, on the calling
    /// thread. On a failed run the partial round and the open phase span
    /// are flushed before the closing [`RunEnd`](crate::TraceEvent::RunEnd),
    /// so the trace always accounts for exactly what [`Network::metrics`]
    /// reports.
    ///
    /// # Errors
    ///
    /// Same as [`Network::run`].
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
        let mut tracer = Tracer::new(sink);
        // Monomorphize the round loop on the tracing and fault decisions:
        // the untraced unfaulted instantiation carries no per-message
        // branches at all, so `run` costs exactly what it did before
        // tracing and fault injection existed.
        let result = match (tracer.enabled(), self.faults.is_some()) {
            (false, false) => self.run_on::<P, F, false, false>(factory, max_rounds, &mut tracer),
            (true, false) => self.run_on::<P, F, true, false>(factory, max_rounds, &mut tracer),
            (false, true) => self.run_on::<P, F, false, true>(factory, max_rounds, &mut tracer),
            (true, true) => self.run_on::<P, F, true, true>(factory, max_rounds, &mut tracer),
        };
        tracer.finish(&self.metrics, result.as_ref().err());
        result
    }

    /// Builds the node states and the round core, then runs the loop the
    /// thread count picks.
    fn run_on<P, F, const TRACED: bool, const FAULTS: bool>(
        &mut self,
        mut factory: F,
        max_rounds: u32,
        tracer: &mut Tracer<'_>,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let n = self.adjacency.node_count();
        self.metrics = RunMetrics::default();
        let mut core = RoundCore::new(n, self.budget, self.faults.as_ref());
        let mut rngs: Vec<SmallRng> = (0..n as u32).map(|v| node_rng(self.seed, v, 0)).collect();
        let nodes: Vec<P> = (0..n as u32)
            .map(|v| factory(NodeId(v), &mut rngs[v as usize]))
            .collect();
        let run = Run {
            adjacency: &self.adjacency,
            core: &mut core,
            metrics: &mut self.metrics,
            tracer,
            max_rounds,
        };
        if self.threads == 1 {
            run.sequential::<P, TRACED, FAULTS>(nodes, rngs)
        } else {
            run.pooled::<P, TRACED, FAULTS>(nodes, rngs, self.threads)
        }
    }
}

/// One run's shared inputs, handed to the round loop the thread count
/// picks.
pub(crate) struct Run<'a, 't, M> {
    pub(crate) adjacency: &'a CsrAdjacency,
    pub(crate) core: &'a mut RoundCore<M>,
    pub(crate) metrics: &'a mut RunMetrics,
    pub(crate) tracer: &'a mut Tracer<'t>,
    pub(crate) max_rounds: u32,
}

impl<M: MessageSize + Clone> Run<'_, '_, M> {
    /// The sequential round loop, the reference: each round the due nodes
    /// step inline in ascending id order, and each node's sends are
    /// accepted as soon as it returns.
    ///
    /// Only the *active set* steps: the nodes with mail, which the inbox
    /// build marks in a bitset, and the nodes whose [`Protocol::next_wake`]
    /// hint named this round (next-round wakes in the same bitset, later
    /// ones in a calendar bucketed by round). Each node's `done` bit is
    /// refreshed when it steps, and a running count of nodes not done
    /// replaces a per-round scan of all n. Round 0 steps every node's
    /// `init`; under a [`FaultPlan`] every node stays due every round.
    fn sequential<P, const TRACED: bool, const FAULTS: bool>(
        self,
        mut nodes: Vec<P>,
        mut rngs: Vec<SmallRng>,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol<Msg = M>,
    {
        let adjacency = self.adjacency;
        let n = adjacency.node_count();
        let mut outbox: Vec<(NodeId, M)> = Vec::new();
        let mut seen = vec![0u64; n];
        let mut stamp = 0u64;
        let mut phase_actions: Vec<PhaseAction> = Vec::new();
        // Who steps each round, and how many nodes are not done.
        let mut active = ActiveSet::new(n, self.max_rounds);

        drive::<M, TRACED, FAULTS>(
            self.core,
            self.metrics,
            self.tracer,
            self.max_rounds,
            |core, round, metrics, tracer| {
                if round > 0 {
                    core.deliver::<FAULTS>(round, |v, mail| active.mark_mail(v, mail));
                    active.begin_round(round);
                }
                let mut due = active.cursor();
                while let Some(v) = active.next_due(&mut due) {
                    let node = NodeId(v as u32);
                    if !(FAULTS && core.plan().skips(node, round)) {
                        let inbox = core.inbox(v);
                        debug_assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
                        outbox.clear();
                        stamp += 1;
                        let mut ctx = Ctx {
                            node,
                            n,
                            round,
                            neighbors: adjacency.neighbors(node),
                            rng: &mut rngs[v],
                            outbox: &mut outbox,
                            seen: &mut seen,
                            stamp,
                            phases: &mut phase_actions,
                            tracing: TRACED,
                        };
                        if round == 0 {
                            nodes[v].init(&mut ctx);
                        } else {
                            nodes[v].round(&mut ctx, inbox);
                        }
                        if TRACED {
                            tracer.apply_actions(&mut phase_actions);
                        }
                        core.accept::<TRACED, FAULTS>(
                            node,
                            round,
                            outbox.drain(..),
                            metrics,
                            tracer,
                        )?;
                    }
                    active.settle::<P, FAULTS>(v, node, round, &nodes[v], core.plan());
                }
                Ok(active.quiet())
            },
        )?;
        Ok(nodes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spanner_graph::generators;

    /// Counts rounds until it has heard from every neighbor, then stops.
    struct HelloOnce {
        heard: usize,
        expected: usize,
    }

    impl Protocol for HelloOnce {
        type Msg = u64;

        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.expected = ctx.degree();
            ctx.broadcast(ctx.me().0 as u64);
        }

        fn round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            self.heard += inbox.len();
        }
    }

    #[test]
    fn hello_once_quiesces_in_one_round() {
        let g = generators::cycle(10);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| HelloOnce {
                    heard: 0,
                    expected: 0,
                },
                10,
            )
            .unwrap();
        assert!(states.iter().all(|s| s.heard == s.expected));
        let m = net.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, 20);
        assert_eq!(m.max_message_words, 1);
    }

    /// Forwards a token along a path; used to test multi-round runs.
    pub(crate) struct Relay {
        pub(crate) has_token: bool,
        pub(crate) delivered: bool,
    }

    impl Protocol for Relay {
        type Msg = u64;

        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.has_token {
                // Send to the higher neighbor (path direction).
                if let Some(&next) = ctx.neighbors().last() {
                    if next > ctx.me() {
                        ctx.send(next, 7);
                    }
                }
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            for &(_, tok) in inbox {
                self.delivered = true;
                let me = ctx.me();
                if let Some(&next) = ctx.neighbors().iter().find(|&&u| u > me) {
                    ctx.send(next, tok);
                }
            }
        }
    }

    #[test]
    fn relay_takes_path_length_rounds() {
        let g = generators::path(6);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |v, _| Relay {
                    has_token: v.0 == 0,
                    delivered: false,
                },
                100,
            )
            .unwrap();
        assert!(states.iter().skip(1).all(|s| s.delivered));
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().messages, 5);
    }

    /// Runs the wrapped protocol but steps only on mail.
    pub(crate) struct MailOnly<P>(pub(crate) P);

    impl<P: Protocol> Protocol for MailOnly<P> {
        type Msg = P::Msg;
        fn init(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
            self.0.init(ctx);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[(NodeId, P::Msg)]) {
            self.0.round(ctx, inbox);
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn next_wake(&self, _: u32) -> Option<u32> {
            None
        }
    }

    /// Node 0 sleeps until round `at`, then messages its neighbors; every
    /// node records the rounds it stepped in.
    #[derive(Debug)]
    pub(crate) struct Alarm {
        pub(crate) armed: bool,
        pub(crate) at: u32,
        pub(crate) stepped: Vec<u32>,
    }

    impl Alarm {
        pub(crate) fn new(v: NodeId, at: u32) -> Self {
            Alarm {
                armed: v == NodeId(0),
                at,
                stepped: Vec::new(),
            }
        }
    }

    impl Protocol for Alarm {
        type Msg = u64;
        fn init(&mut self, _: &mut Ctx<'_, u64>) {}
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {
            self.stepped.push(ctx.round());
            if self.armed && ctx.round() == self.at {
                self.armed = false;
                ctx.broadcast(1);
            }
        }
        fn done(&self) -> bool {
            !self.armed
        }
        fn next_wake(&self, _: u32) -> Option<u32> {
            self.armed.then_some(self.at)
        }
    }

    /// Never done, never wakes on its own.
    #[derive(Debug)]
    pub(crate) struct Sleeper;

    impl Protocol for Sleeper {
        type Msg = u64;
        fn init(&mut self, _: &mut Ctx<'_, u64>) {}
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
        fn done(&self) -> bool {
            false
        }
        fn next_wake(&self, _: u32) -> Option<u32> {
            None
        }
    }

    #[test]
    fn mail_only_relay_matches_default_wake() {
        let g = generators::path(9);
        let relay = |v: NodeId| Relay {
            has_token: v.0 == 0,
            delivered: false,
        };
        let mut every = Network::new(&g, MessageBudget::CONGEST, 1);
        let a = every.run(|v, _| relay(v), 100).unwrap();
        let mut mail = Network::new(&g, MessageBudget::CONGEST, 1);
        let b = mail.run(|v, _| MailOnly(relay(v)), 100).unwrap();
        assert_eq!(every.metrics(), mail.metrics());
        assert_eq!(mail.metrics().rounds, 8);
        let a: Vec<bool> = a.iter().map(|s| s.delivered).collect();
        let b: Vec<bool> = b.iter().map(|s| s.0.delivered).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sleeping_node_that_is_not_done_hits_the_round_limit() {
        let g = generators::cycle(5);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let err = net.run(|_, _| Sleeper, 7).unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 7 });
        assert_eq!(net.metrics().rounds, 7);
    }

    #[test]
    fn calendar_wake_steps_only_the_sleeper_then_its_mail() {
        let g = generators::path(3);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let states = net.run(|v, _| Alarm::new(v, 4), 10).unwrap();
        assert_eq!(states[0].stepped, vec![4]);
        assert_eq!(states[1].stepped, vec![5]);
        assert!(states[2].stepped.is_empty());
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().messages, 1);
    }

    #[test]
    fn wake_past_the_round_cap_is_dropped() {
        let g = generators::path(3);
        for at in [11, u32::MAX] {
            let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
            let err = net.run(|v, _| Alarm::new(v, at), 10).unwrap_err();
            assert_eq!(err, RunError::RoundLimit { max_rounds: 10 });
            assert_eq!(net.metrics().messages, 0);
        }
    }

    #[derive(Debug)]
    struct Chatterbox;

    impl Protocol for Chatterbox {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[(NodeId, u64)]) {
            ctx.broadcast(1);
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = generators::cycle(4);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let err = net.run(|_, _| Chatterbox, 5).unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 5 });
    }

    #[derive(Debug)]
    struct BigTalker;

    impl Protocol for BigTalker {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![0; 10]);
        }
        fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {}
    }

    #[test]
    fn budget_violation_detected() {
        let g = generators::cycle(4);
        let mut net = Network::new(&g, MessageBudget::Words(4), 1);
        match net.run(|_, _| BigTalker, 5) {
            Err(RunError::Budget(v)) => {
                assert_eq!(v.words, 10);
                assert_eq!(v.budget, MessageBudget::Words(4));
            }
            other => panic!("expected budget violation, got {other:?}"),
        }
        // Unbounded accepts the same protocol.
        let mut net2 = Network::new(&g, MessageBudget::Unbounded, 1);
        assert!(net2.run(|_, _| BigTalker, 5).is_ok());
        assert_eq!(net2.metrics().max_message_words, 10);
    }

    struct NonNeighborSender;

    impl Protocol for NonNeighborSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(3), 1); // not adjacent on a path of 5
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        let g = generators::path(5);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| NonNeighborSender, 5);
    }

    struct DoubleSender;

    impl Protocol for DoubleSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), 1);
                ctx.send(NodeId(1), 2);
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn double_send_panics() {
        let g = generators::path(3);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| DoubleSender, 5);
    }

    struct SendThenBroadcast;

    impl Protocol for SendThenBroadcast {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                let first = ctx.neighbors()[0];
                ctx.send(first, 1);
                ctx.broadcast(2); // would double-send to `first`
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn broadcast_after_send_panics() {
        let g = generators::star(4);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| SendThenBroadcast, 5);
    }

    /// A node may send to the same neighbor again in a *later* round; the
    /// stamp-based duplicate check must not leak across rounds.
    struct RepeatSender {
        received: u32,
    }

    impl Protocol for RepeatSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), 0);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            if ctx.me() == NodeId(0) && ctx.round() <= 3 {
                ctx.send(NodeId(1), ctx.round() as u64);
            }
            self.received += inbox.len() as u32;
        }
    }

    #[test]
    fn resend_in_later_round_is_allowed() {
        let g = generators::path(2);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let states = net.run(|_, _| RepeatSender { received: 0 }, 10).unwrap();
        assert_eq!(states[1].received, 4); // rounds 1..=4 deliver
    }

    #[test]
    fn inbox_sorted_by_sender() {
        struct Check {
            ok: bool,
            fired: bool,
        }
        impl Protocol for Check {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.broadcast(0);
            }
            fn round(&mut self, _: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
                if !inbox.is_empty() {
                    self.fired = true;
                    self.ok &= inbox.windows(2).all(|w| w[0].0 < w[1].0);
                }
            }
        }
        let g = generators::star(8);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| Check {
                    ok: true,
                    fired: false,
                },
                5,
            )
            .unwrap();
        assert!(states[0].fired);
        assert!(states.iter().all(|s| s.ok));
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::Rng;
        struct Coin {
            flips: Vec<bool>,
        }
        impl Protocol for Coin {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                let b = ctx.rng().gen::<bool>();
                self.flips.push(b);
                ctx.broadcast(b as u64);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
                if ctx.round() <= 3 && !inbox.is_empty() {
                    let b = ctx.rng().gen::<bool>();
                    self.flips.push(b);
                    ctx.broadcast(b as u64);
                }
            }
        }
        let g = generators::erdos_renyi_gnm(30, 60, 5);
        let run = |seed| {
            let mut net = Network::new(&g, MessageBudget::CONGEST, seed);
            let s = net.run(|_, _| Coin { flips: vec![] }, 50).unwrap();
            s.into_iter().map(|c| c.flips).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn shared_adjacency_constructor() {
        let g = generators::cycle(6);
        let csr = CsrAdjacency::from_graph(&g);
        let mut net = Network::from_csr(Arc::new(csr.clone()), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| HelloOnce {
                    heard: 0,
                    expected: 0,
                },
                10,
            )
            .unwrap();
        assert!(states.iter().all(|s| s.heard == s.expected));
        assert_eq!(net.adjacency(), &csr);
    }
}
