//! The round core shared by the synchronous round loops.
//!
//! [`Network`](crate::Network) has two round loops — the sequential one
//! (the reference) and the worker pool — and both run the model of the
//! paper's Sect. 1.1 through the same pieces, kept here once:
//!
//! * [`accept`] — the budget check, cost accounting and trace accounting
//!   of one node's sends, in global sender order (the event-driven
//!   executor uses it too);
//! * [`RoundCore`] — the staging buffer the accepted sends go to, the
//!   fault engine, and the one inbox arena both loops read: built between
//!   rounds by the counting [`scatter`], or under a [`FaultPlan`] by the
//!   fault engine's `flush_due` plus a prefix sum;
//! * [`drive`] — the round sequence itself: round 0 runs every `init`,
//!   then rounds run until the network is quiescent or the cap is hit.
//!
//! A loop supplies only how the nodes of a round step (inline, or on the
//! worker pool) and in which order their sends reach [`RoundCore::accept`]
//! — always ascending sender order, which is what keeps metrics, fault
//! fates and trace streams identical between the loops.

use spanner_graph::NodeId;

use crate::budget::{BudgetViolation, MessageBudget};
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::sync::{MessageSize, RunError};
use crate::trace::Tracer;

/// Accepts `sender`'s sends of `round`, in send order: checks each against
/// `budget`, charges it to `metrics` and (if `TRACED`) to the round's
/// trace record, and hands it to `route(receiver, msg, words)`.
///
/// The first message over budget stops the run with
/// [`RunError::Budget`]; everything accepted before it stays charged, so a
/// failed run's metrics are the same on every executor. Untraced callers
/// pass `TRACED = false` and carry no per-message trace branch.
#[inline]
pub(crate) fn accept<M: MessageSize, const TRACED: bool>(
    budget: MessageBudget,
    metrics: &mut RunMetrics,
    tracer: &mut Tracer<'_>,
    sender: NodeId,
    round: u32,
    sends: impl ExactSizeIterator<Item = (NodeId, M)>,
    mut route: impl FnMut(NodeId, M, usize),
) -> Result<(), RunError> {
    if TRACED {
        tracer.on_outbox(sends.len());
    }
    for (to, msg) in sends {
        let words = msg.words();
        if !budget.allows(words) {
            return Err(RunError::Budget(BudgetViolation {
                sender,
                receiver: to,
                round,
                words,
                budget,
            }));
        }
        metrics.messages += 1;
        metrics.words += words as u64;
        metrics.max_message_words = metrics.max_message_words.max(words);
        if TRACED {
            tracer.on_message(words);
        }
        route(to, msg, words);
    }
    Ok(())
}

/// The state both synchronous loops share across rounds: the sends of the
/// round in progress, the fault engine, and the inbox arena of the round.
pub(crate) struct RoundCore<M> {
    budget: MessageBudget,
    /// Accepted sends of the round in progress as (receiver, sender, msg),
    /// in global send order — a purely sequential write, which the stable
    /// scatter turns into sender-sorted inboxes for free. Unused under
    /// faults. Every buffer keeps its capacity across rounds, so the
    /// steady-state round performs no heap allocation.
    staging: Vec<(NodeId, NodeId, M)>,
    /// The inbox arena: receiver `v`'s inbox is
    /// `flat[offsets[v]..offsets[v + 1]]`, sorted by sender.
    flat: Vec<(NodeId, M)>,
    offsets: Vec<u32>,
    /// Scatter scratch: the next free slot of each receiver's slice.
    cursor: Vec<u32>,
    /// The fault engine; empty and untouched unless the run is faulted.
    faults: FaultState<M>,
}

impl<M: MessageSize + Clone> RoundCore<M> {
    /// A core for `n` nodes; `plan` is the run's fault plan, if any.
    pub(crate) fn new(n: usize, budget: MessageBudget, plan: Option<&FaultPlan>) -> Self {
        RoundCore {
            budget,
            staging: Vec::new(),
            flat: Vec::new(),
            offsets: vec![0; n + 1],
            cursor: vec![0; n],
            faults: FaultState::new(
                plan.cloned().unwrap_or_default(),
                if plan.is_some() { n } else { 0 },
            ),
        }
    }

    /// The fault plan in force (empty on an unfaulted run).
    pub(crate) fn plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// Accepts `sender`'s sends of `round` (see [`accept`]) into the
    /// staging buffer, or under `FAULTS` into the fault engine.
    #[inline]
    pub(crate) fn accept<const TRACED: bool, const FAULTS: bool>(
        &mut self,
        sender: NodeId,
        round: u32,
        sends: impl ExactSizeIterator<Item = (NodeId, M)>,
        metrics: &mut RunMetrics,
        tracer: &mut Tracer<'_>,
    ) -> Result<(), RunError> {
        let (staging, faults) = (&mut self.staging, &mut self.faults);
        accept::<M, TRACED>(
            self.budget,
            metrics,
            tracer,
            sender,
            round,
            sends,
            |to, msg, _| {
                if FAULTS {
                    faults.accept(round, sender, to, msg);
                } else {
                    staging.push((to, sender, msg));
                }
            },
        )
    }

    /// Whether any accepted message is still undelivered.
    fn in_flight<const FAULTS: bool>(&self) -> bool {
        if FAULTS {
            self.faults.in_flight() > 0
        } else {
            !self.staging.is_empty()
        }
    }

    /// Builds the inbox arena of `round` from everything accepted before
    /// it, calling `mark(v, has_mail)` once for every receiver in
    /// ascending order. Unfaulted, the staged sends are counting-scattered.
    /// Under `FAULTS` the scatter cannot be used — delayed and held
    /// messages break the global sender order its stability relies on —
    /// but the fault engine's `flush_due` emits the due messages receiver
    /// by receiver, ascending and sender-sorted, so the arena is already
    /// grouped and a prefix sum of the counts gives the offsets.
    pub(crate) fn deliver<const FAULTS: bool>(
        &mut self,
        round: u32,
        mut mark: impl FnMut(usize, bool),
    ) {
        if !FAULTS {
            scatter(
                &mut self.staging,
                &mut self.flat,
                &mut self.offsets,
                &mut self.cursor,
                mark,
            );
            return;
        }
        let (flat, offsets) = (&mut self.flat, &mut self.offsets);
        flat.clear();
        offsets.fill(0);
        self.faults.flush_due(round, |to, sender, msg| {
            offsets[to.index() + 1] += 1;
            flat.push((sender, msg));
        });
        for v in 0..offsets.len() - 1 {
            mark(v, offsets[v + 1] != 0);
            offsets[v + 1] += offsets[v];
        }
    }

    /// Node `v`'s inbox in the current round, sorted by sender.
    #[inline]
    pub(crate) fn inbox(&self, v: usize) -> &[(NodeId, M)] {
        &self.flat[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Moves the inboxes of nodes `lo..` out of the arena into `flat`, and
    /// their arena offsets `offsets[lo..lo + off.len()]` into `off`; node
    /// `lo + i`'s inbox is then `flat[off[i] - off[0]..off[i + 1] - off[0]]`.
    /// Each call takes the arena's tail, so a caller splitting the arena
    /// into consecutive ranges takes them last range first.
    pub(crate) fn split_off(&mut self, lo: usize, off: &mut [u32], flat: &mut Vec<(NodeId, M)>) {
        off.copy_from_slice(&self.offsets[lo..lo + off.len()]);
        flat.clear();
        flat.extend(self.flat.drain(off[0] as usize..));
    }
}

/// Runs one synchronous run's rounds on `core`: round 0, then one round
/// after another until no message is in flight and every node is done,
/// or until `max_rounds` rounds have run ([`RunError::RoundLimit`]).
///
/// `step(core, round, metrics, tracer)` executes one round — every due
/// node steps (`init` in round 0), and its sends are accepted through
/// [`RoundCore::accept`] in ascending sender order — and returns whether
/// every node is now done. `drive` keeps the round count, the trace's
/// round records and the fault counters; on an error it returns at once,
/// leaving the partial round for the tracer to flush.
pub(crate) fn drive<M, const TRACED: bool, const FAULTS: bool>(
    core: &mut RoundCore<M>,
    metrics: &mut RunMetrics,
    tracer: &mut Tracer<'_>,
    max_rounds: u32,
    mut step: impl FnMut(
        &mut RoundCore<M>,
        u32,
        &mut RunMetrics,
        &mut Tracer<'_>,
    ) -> Result<bool, RunError>,
) -> Result<(), RunError>
where
    M: MessageSize + Clone,
{
    let mut round: u32 = 0;
    loop {
        if TRACED {
            tracer.begin_round(round);
        }
        if FAULTS {
            core.faults.begin_round(round);
        }
        let quiet = step(core, round, metrics, tracer);
        if FAULTS {
            metrics.faults = core.faults.counters();
        }
        let quiet = quiet?;
        if TRACED {
            tracer.end_round();
        }
        if quiet && !core.in_flight::<FAULTS>() {
            return Ok(());
        }
        if round >= max_rounds {
            return Err(RunError::RoundLimit { max_rounds });
        }
        round += 1;
        metrics.rounds = round;
    }
}

/// Regroups `staging` — (receiver, sender, msg) triples in send order — by
/// receiver into `flat`, leaving `offsets[v]..offsets[v+1]` as receiver
/// `v`'s slice. A stable counting scatter: O(messages + n), and each slice
/// stays in ascending sender order. Drains `staging`; both buffers retain
/// their capacity for the next round. The prefix-sum pass of the count
/// calls `mark(v, has_mail)` for every receiver slot, which is how the
/// active set learns who has mail without another pass.
///
/// Message counts fit `u32`: a round delivers at most one message per
/// directed edge, and [`CsrAdjacency`](crate::CsrAdjacency) already bounds
/// half-edges to `u32`. Shared with the asynchronous executor, which
/// regroups each recovered round's arrivals the same way.
pub(crate) fn scatter<M>(
    staging: &mut Vec<(NodeId, NodeId, M)>,
    flat: &mut Vec<(NodeId, M)>,
    offsets: &mut [u32],
    cursor: &mut [u32],
    mut mark: impl FnMut(usize, bool),
) {
    let n = offsets.len() - 1;
    offsets.fill(0);
    for &(to, _, _) in staging.iter() {
        offsets[to.index() + 1] += 1;
    }
    for v in 0..n {
        mark(v, offsets[v + 1] != 0);
        offsets[v + 1] += offsets[v];
    }
    cursor.copy_from_slice(&offsets[..n]);
    let total = staging.len();
    flat.clear();
    flat.reserve(total);
    // SAFETY: the counting pass above guarantees every receiver index is in
    // bounds and that the bucket cursors tile 0..total exactly, so each of
    // the `total` reserved slots is written exactly once before set_len.
    // Nothing between the writes can panic (ptr::write and u32 increments
    // on values the counting pass already produced), so no
    // partially-initialized buffer is ever observed.
    unsafe {
        let base = flat.as_mut_ptr();
        for (to, sender, msg) in staging.drain(..) {
            let c = &mut cursor[to.index()];
            std::ptr::write(base.add(*c as usize), (sender, msg));
            *c += 1;
        }
        flat.set_len(total);
    }
}
