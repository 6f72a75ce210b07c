//! The worker-pool round loop of [`Network`](crate::Network).
//!
//! Round-synchronous simulation parallelizes naturally: within a round every
//! node reads only its inbox and private state, so nodes can be processed
//! concurrently. A [`Network`](crate::Network) built
//! [`with_threads`](crate::Network::with_threads) at two or more runs this
//! loop instead of the sequential one, **deterministically**: the factory
//! runs on the calling thread in node order, per-node RNGs are derived from
//! the master seed as in the sequential loop, inboxes are sorted by sender,
//! and the coordinator accepts every send in global sender order through
//! the shared round core, so the two loops produce identical final states,
//! metrics and trace streams — including the partial accounting left
//! behind by a failed run (tested below and in `tests/executor_parity.rs`).
//!
//! # Hot-path design
//!
//! The worker pool is created **once per run** with `std::thread::scope` and
//! parked on a pair of round barriers; no threads are spawned per round.
//! Each worker owns one contiguous chunk of nodes behind a `Mutex` (locked
//! by the coordinator only between rounds, so never contended). Between
//! rounds the coordinator builds the round core's one inbox arena — the
//! same counting scatter, or fault engine, the sequential loop uses — and
//! hands each chunk its part of it, last chunk first so each part is the
//! arena's tail. During the round a worker steps its chunk's due nodes in
//! ascending order and appends their sends to the chunk's outbox arena,
//! recording each node's boundary; after it the coordinator accepts the
//! arenas in global sender order. All buffers keep their capacity across
//! rounds, so the steady-state loop performs no per-round heap allocation.
//!
//! Each chunk carries its slice of the active set (see the sequential
//! loop): a worker marks its mail receivers from the chunk's inbox offsets,
//! then steps only the due nodes — mail receivers and nodes whose
//! [`Protocol::next_wake`] hint is due — and the coordinator accepts only
//! the nodes that stepped. The chunk's count of nodes not done replaces a
//! scan of every node's `done` flag.
//!
//! A protocol that panics on a worker is caught there, while the worker
//! still holds its chunk's lock, so the lock is not poisoned and the worker
//! still reaches the round barrier. The coordinator accepts the sends of
//! the nodes before the panicking one, as the sequential loop would have,
//! shuts the pool down, and re-raises the original panic payload.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::SmallRng;

use spanner_graph::pool::RoundGate;
use spanner_graph::NodeId;

use crate::active::ActiveSet;
use crate::csr::CsrAdjacency;
use crate::faults::FaultPlan;
use crate::round::drive;
use crate::sync::{Ctx, MessageSize, Protocol, Run, RunError};
use crate::trace::PhaseAction;

/// Everything one worker thread owns: a contiguous chunk of nodes with their
/// RNGs, inboxes, and outboxes. Locked by the worker while a round executes
/// and by the coordinator between rounds; the two phases are separated by
/// barriers, so the lock is never contended.
struct ChunkSlot<P: Protocol> {
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    /// The chunk's part of the round core's inbox arena: node `i`'s inbox
    /// is `inbox_flat[inbox_off[i] - inbox_off[0]..inbox_off[i + 1] -
    /// inbox_off[0]]`, sender-sorted.
    inbox_flat: Vec<(NodeId, P::Msg)>,
    inbox_off: Vec<u32>,
    /// Flat outbox arena: workers append in node order and record the end
    /// of node `i`'s sends in `out_end[i]` (written only for nodes that
    /// stepped), so the coordinator can drain the arena front-to-back while
    /// attributing every message to its sender.
    out_flat: Vec<(NodeId, P::Msg)>,
    out_end: Vec<u32>,
    /// Duplicate-send stamps (indexed by *target* node, so length n).
    seen: Vec<u64>,
    stamp: u64,
    /// Per-node phase declarations buffered during the round; the
    /// coordinator drains them in global sender order.
    phases: Vec<Vec<PhaseAction>>,
    /// The chunk's slice of the active set, over local indices: the worker
    /// marks its mail receivers and steps its due nodes, the coordinator
    /// accepts their sends.
    active: ActiveSet,
    /// The node stepping now, and the panic payload of a node whose step
    /// panicked this round.
    stepping: usize,
    panicked: Option<(usize, Box<dyn Any + Send>)>,
}

impl<P: Protocol> ChunkSlot<P> {
    /// Steps the chunk's due nodes of `round` (`init` in round 0); `base`
    /// is the id of the chunk's first node.
    fn step<const TRACED: bool, const FAULTS: bool>(
        &mut self,
        base: usize,
        round: u32,
        adjacency: &CsrAdjacency,
        plan: &FaultPlan,
    ) {
        self.out_flat.clear();
        let first = self.inbox_off[0];
        if round > 0 {
            for i in 0..self.nodes.len() {
                let mail = self.inbox_off[i + 1] != self.inbox_off[i];
                self.active.mark_mail(i, mail);
            }
            self.active.begin_round(round);
        }
        let mut due = self.active.cursor();
        while let Some(i) = self.active.next_due(&mut due) {
            let v = NodeId((base + i) as u32);
            // Crashed or stuttering nodes execute nothing this round; an
            // empty outbox range keeps the coordinator from accepting on
            // their behalf. (Their inbox slice is necessarily empty: the
            // fault engine never delivers to a skipped node.) The skip
            // decision is a pure function of (plan, v, round), identical on
            // every thread.
            if !(FAULTS && plan.skips(v, round)) {
                let (lo, hi) = (self.inbox_off[i] - first, self.inbox_off[i + 1] - first);
                let inbox = &self.inbox_flat[lo as usize..hi as usize];
                debug_assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
                self.stamp += 1;
                self.stepping = i;
                let mut ctx = Ctx::new_for_executor(
                    v,
                    adjacency.node_count(),
                    round,
                    adjacency.neighbors(v),
                    &mut self.rngs[i],
                    &mut self.out_flat,
                    &mut self.seen,
                    self.stamp,
                    &mut self.phases[i],
                    TRACED,
                );
                if round == 0 {
                    self.nodes[i].init(&mut ctx);
                } else {
                    self.nodes[i].round(&mut ctx, inbox);
                }
            }
            self.out_end[i] = self.out_flat.len() as u32;
            self.active
                .settle::<P, FAULTS>(i, v, round, &self.nodes[i], plan);
        }
    }
}

/// Releases the parked workers for good when the coordinator leaves the
/// pool, on every way out: a result, an error, or a re-raised panic.
struct Shutdown<'a>(&'a RoundGate);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

impl<M: MessageSize + Clone + Send> Run<'_, '_, M> {
    /// The worker-pool round loop on `threads` workers (see the module
    /// docs); `nodes` and `rngs` are in node order.
    pub(crate) fn pooled<P, const TRACED: bool, const FAULTS: bool>(
        self,
        nodes: Vec<P>,
        rngs: Vec<SmallRng>,
        threads: usize,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol<Msg = M> + Send,
    {
        let adjacency = self.adjacency;
        let n = adjacency.node_count();
        let chunk = n.div_ceil(threads).max(1);
        let (mut nodes, mut rngs) = (nodes.into_iter(), rngs.into_iter());
        let slots: Vec<Mutex<ChunkSlot<P>>> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let len = chunk.min(n - lo);
                Mutex::new(ChunkSlot {
                    nodes: nodes.by_ref().take(len).collect(),
                    rngs: rngs.by_ref().take(len).collect(),
                    inbox_flat: Vec::new(),
                    inbox_off: vec![0; len + 1],
                    out_flat: Vec::new(),
                    out_end: vec![0; len],
                    seen: vec![0; n],
                    stamp: 0,
                    phases: (0..len).map(|_| Vec::new()).collect(),
                    active: ActiveSet::new(len, self.max_rounds),
                    stepping: 0,
                    panicked: None,
                })
            })
            .collect();
        // The workers consult the plan for their skip decisions (pure
        // functions, so no coordination is needed); the coordinator owns
        // the round core and with it the fault engine.
        let plan = self.core.plan().clone();
        let gate = RoundGate::new(slots.len());
        let round_no = AtomicU32::new(0);

        std::thread::scope(|scope| {
            for (ci, slot) in slots.iter().enumerate() {
                let (gate, round_no, plan) = (&gate, &round_no, &plan);
                scope.spawn(move || {
                    while gate.worker_begin() {
                        let round = round_no.load(Ordering::Acquire);
                        let mut guard = slot.lock().expect("worker lock");
                        let g = &mut *guard;
                        let stepped = panic::catch_unwind(AssertUnwindSafe(|| {
                            g.step::<TRACED, FAULTS>(ci * chunk, round, adjacency, plan)
                        }));
                        if let Err(payload) = stepped {
                            g.panicked = Some((g.stepping, payload));
                        }
                        drop(guard);
                        gate.worker_end();
                    }
                });
            }

            let _shutdown = Shutdown(&gate);
            drive::<M, TRACED, FAULTS>(
                self.core,
                self.metrics,
                self.tracer,
                self.max_rounds,
                |core, round, metrics, tracer| {
                    if round > 0 {
                        core.deliver::<FAULTS>(round, |_, _| {});
                        for (ci, slot) in slots.iter().enumerate().rev() {
                            let g = &mut *slot.lock().expect("split lock");
                            core.split_off(ci * chunk, &mut g.inbox_off, &mut g.inbox_flat);
                        }
                    }
                    round_no.store(round, Ordering::Release);
                    gate.open();
                    gate.close();

                    let mut guards: Vec<MutexGuard<'_, ChunkSlot<P>>> = slots
                        .iter()
                        .map(|m| m.lock().expect("accept lock"))
                        .collect();
                    let mut panicked = None;
                    'accept: for (ci, g) in guards.iter_mut().enumerate() {
                        let g = &mut **g;
                        let mut sends = g.out_flat.drain(..);
                        let mut start = 0u32;
                        // Only the nodes that stepped this round can have
                        // phase declarations or sends.
                        let mut stepped = g.active.cursor();
                        while let Some(i) = g.active.next_due(&mut stepped) {
                            if g.panicked.as_ref().is_some_and(|&(at, _)| at == i) {
                                panicked = g.panicked.take();
                                break 'accept;
                            }
                            // Phase declarations first, then the node's
                            // messages — the order the sequential loop uses.
                            if TRACED {
                                tracer.apply_actions(&mut g.phases[i]);
                            }
                            let end = g.out_end[i];
                            core.accept::<TRACED, FAULTS>(
                                NodeId((ci * chunk + i) as u32),
                                round,
                                sends.by_ref().take((end - start) as usize),
                                metrics,
                                tracer,
                            )?;
                            start = end;
                        }
                    }
                    let quiet = guards.iter().all(|g| g.active.quiet());
                    drop(guards);
                    if let Some((_, payload)) = panicked {
                        panic::resume_unwind(payload);
                    }
                    Ok(quiet)
                },
            )
        })?;

        Ok(slots
            .into_iter()
            .flat_map(|m| m.into_inner().expect("slot poisoned").nodes)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::MinIdBroadcast;
    use crate::sync::Network;
    use crate::MessageBudget;
    use spanner_graph::generators;

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::erdos_renyi_gnm(80, 240, 7);
        let sources = |v: NodeId| v.0.is_multiple_of(13);
        let mut net = Network::new(&g, MessageBudget::Words(2), 99);
        let seq = net
            .run(|v, _| MinIdBroadcast::new(sources(v), 40), 256)
            .unwrap();
        for threads in [1, 2, 4] {
            let mut par_net = Network::new(&g, MessageBudget::Words(2), 99).with_threads(threads);
            let par = par_net
                .run(|v, _| MinIdBroadcast::new(sources(v), 40), 256)
                .unwrap();
            for v in g.nodes() {
                assert_eq!(
                    seq[v.index()].nearest(),
                    par[v.index()].nearest(),
                    "node {v} with {threads} threads"
                );
            }
            assert_eq!(par_net.metrics().rounds, net.metrics().rounds);
            assert_eq!(par_net.metrics().messages, net.metrics().messages);
            assert_eq!(par_net.metrics().words, net.metrics().words);
        }
    }

    #[test]
    fn parallel_round_limit() {
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.broadcast(1);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {
                ctx.broadcast(1);
            }
        }
        let g = generators::cycle(6);
        let err = Network::new(&g, MessageBudget::CONGEST, 1)
            .with_threads(2)
            .run(|_, _| Chatter, 3)
            .unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 3 });
    }

    #[test]
    fn parallel_empty_graph() {
        struct Quiet;
        impl Protocol for Quiet {
            type Msg = u64;
            fn init(&mut self, _: &mut Ctx<'_, u64>) {}
            fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
        }
        let g = spanner_graph::Graph::empty(0);
        let mut net = Network::new(&g, MessageBudget::CONGEST, 1).with_threads(3);
        let states = net.run(|_, _| Quiet, 4).unwrap();
        assert!(states.is_empty());
        assert_eq!(net.metrics().messages, 0);
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = generators::path(3);
        let states = Network::new(&g, MessageBudget::Words(2), 5)
            .with_threads(16)
            .run(|v, _| MinIdBroadcast::new(v == NodeId(0), 10), 32)
            .unwrap();
        assert!(states.iter().all(|s| s.nearest().is_some()));
    }

    /// The wake contract holds on the worker pool exactly as on
    /// `Network`: mail-only nodes, calendar wakes, a sleeper that never
    /// finishes, and wakes past the round cap.
    #[test]
    fn wake_hints_match_sequential() {
        use crate::sync::tests::{Alarm, MailOnly, Relay, Sleeper};
        let relay = |v: NodeId| {
            MailOnly(Relay {
                has_token: v.0 == 0,
                delivered: false,
            })
        };
        let path = generators::path(9);
        let mut seq = Network::new(&path, MessageBudget::CONGEST, 1);
        seq.run(|v, _| relay(v), 100).unwrap();
        let alarm_path = generators::path(130);
        for threads in 1..=3 {
            let mut par = Network::new(&path, MessageBudget::CONGEST, 1).with_threads(threads);
            let states = par.run(|v, _| relay(v), 100).unwrap();
            assert!(states.iter().skip(1).all(|s| s.0.delivered));
            assert_eq!(par.metrics(), seq.metrics(), "{threads} threads");

            let mut par =
                Network::new(&alarm_path, MessageBudget::CONGEST, 1).with_threads(threads);
            let states = par.run(|v, _| Alarm::new(v, 4), 10).unwrap();
            assert_eq!(states[0].stepped, vec![4]);
            assert_eq!(states[1].stepped, vec![5]);
            assert!(states[2..].iter().all(|s| s.stepped.is_empty()));
            assert_eq!(par.metrics().rounds, 5);

            for at in [11, u32::MAX] {
                let mut par =
                    Network::new(&alarm_path, MessageBudget::CONGEST, 1).with_threads(threads);
                let err = par.run(|v, _| Alarm::new(v, at), 10).unwrap_err();
                assert_eq!(err, RunError::RoundLimit { max_rounds: 10 });
                assert_eq!(par.metrics().messages, 0);
            }

            let mut par = Network::new(&path, MessageBudget::CONGEST, 1).with_threads(threads);
            let err = par.run(|_, _| Sleeper, 7).unwrap_err();
            assert_eq!(err, RunError::RoundLimit { max_rounds: 7 });
            assert_eq!(par.metrics().rounds, 7);
        }
    }

    /// A failed parallel run must leave the same partial metrics behind as
    /// the sequential executor (the seed version dropped them entirely).
    #[test]
    fn metrics_retained_on_budget_violation() {
        #[derive(Debug)]
        struct FatSecond;
        impl Protocol for FatSecond {
            type Msg = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
                ctx.broadcast(vec![1]);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
                if ctx.round() == 1 && ctx.me() == NodeId(2) {
                    ctx.broadcast(vec![0; 9]); // over budget
                }
            }
        }
        let g = generators::cycle(6);
        let mut seq = Network::new(&g, MessageBudget::Words(4), 3);
        let seq_err = seq.run(|_, _| FatSecond, 16).unwrap_err();
        let mut par = Network::new(&g, MessageBudget::Words(4), 3).with_threads(3);
        let par_err = par.run(|_, _| FatSecond, 16).unwrap_err();
        assert_eq!(seq_err, par_err);
        assert_eq!(seq.metrics(), par.metrics());
        assert!(seq.metrics().messages > 0); // genuinely partial, not empty
    }

    /// Broadcasts every round until node 3 panics in round 2.
    #[derive(Debug)]
    struct PanicAt;

    impl Protocol for PanicAt {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(0);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {
            assert!(
                !(ctx.round() == 2 && ctx.me() == NodeId(3)),
                "node 3 gives up in round 2"
            );
            ctx.broadcast(ctx.round() as u64);
        }
    }

    /// A protocol panic on a worker reaches the caller with its original
    /// payload instead of hanging the pool, and leaves the metrics the
    /// sequential loop leaves: everything accepted before the panicking
    /// node stepped. A watchdog turns a hang into a failure.
    #[test]
    fn worker_panic_propagates_with_sequential_metrics() {
        let run = |threads: usize| {
            let g = generators::cycle(8);
            let mut net = Network::new(&g, MessageBudget::CONGEST, 1).with_threads(threads);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| net.run(|_, _| PanicAt, 10)))
                .expect_err("the protocol panics");
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            (message, net.metrics())
        };
        let seq = run(1);
        assert_eq!(seq.0.as_deref(), Some("node 3 gives up in round 2"));
        assert_eq!(seq.1.rounds, 2);
        assert_eq!(seq.1.messages, 16 + 16 + 6);
        for threads in [2, 3] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(run(threads));
            });
            let par = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{threads} threads: no result within 10 s ({e})"));
            assert_eq!(par, seq, "{threads} threads");
        }
    }
}
