//! The active set: which nodes a synchronous round loop steps.
//!
//! A node steps in round `r` when it has mail (someone sent to it in
//! round `r − 1`) or when its [`Protocol::next_wake`](crate::Protocol::next_wake)
//! hint named `r`. The set keeps
//!
//! * `due` — one bit per node stepping in the current round,
//! * `next` — one bit per node due in the round after: mail receivers,
//!   marked by the scatter, and `round + 1` wakes,
//! * a calendar of later wakes bucketed by round, grown on demand and
//!   never past `max_rounds` (later wakes can never run and are dropped);
//!   a node already holding an earlier pending wake is not entered again,
//!   since it will recompute its hint when that wake fires,
//! * one `done` bit per node and a count of nodes not done, updated only
//!   when a node steps (its state cannot change otherwise), which replaces
//!   a per-round scan of every node's [`Protocol::done`](crate::Protocol::done).
//!
//! Iterating `due` visits nodes in ascending id order, so a loop over it
//! stages, scatters and traces in exactly the order of a loop over every
//! node. A protocol that keeps the default hint (`round + 1`) ends up with
//! every bit set every round: the same steps as before, at the cost of one
//! bit write per step.

use spanner_graph::NodeId;

use crate::faults::FaultPlan;
use crate::sync::Protocol;

/// The nodes due in the current round and the wakes scheduled after it,
/// over node indices `0..len` (a whole network, or one parallel chunk).
#[derive(Debug)]
pub(crate) struct ActiveSet {
    due: Vec<u64>,
    next: Vec<u64>,
    /// `calendar[r]` lists the nodes that asked to wake in round `r`
    /// (`r > current + 1`).
    calendar: Vec<Vec<u32>>,
    /// Drained calendar buckets, kept for their capacity.
    spare: Vec<Vec<u32>>,
    /// `pending[v]`: the round of node `v`'s latest calendar entry, which
    /// has not fired while it is later than the current round. Allocated
    /// on the first calendar entry, so default-hint runs never pay for it.
    pending: Vec<u32>,
    done: Vec<u64>,
    not_done: usize,
    max_rounds: u32,
}

/// Position of an ascending walk over the due bits (see
/// [`ActiveSet::next_due`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DueCursor {
    word: usize,
    bits: u64,
}

impl ActiveSet {
    /// A set over `len` nodes in which every node is due (round 0 runs
    /// every `init`) and none is known to be done yet.
    pub(crate) fn new(len: usize, max_rounds: u32) -> Self {
        let words = len.div_ceil(64);
        let mut due = vec![u64::MAX; words];
        if !len.is_multiple_of(64) {
            due[words - 1] = (1u64 << (len % 64)) - 1;
        }
        ActiveSet {
            due,
            next: vec![0; words],
            calendar: Vec::new(),
            spare: Vec::new(),
            pending: Vec::new(),
            done: vec![0; words],
            not_done: len,
            max_rounds,
        }
    }

    /// Whether every node reported done after its latest step.
    pub(crate) fn quiet(&self) -> bool {
        self.not_done == 0
    }

    /// Marks node `v` as due next round if `mail` (it has messages to
    /// read). Branch-free, so the scatter can call it for every node.
    #[inline]
    pub(crate) fn mark_mail(&mut self, v: usize, mail: bool) {
        self.next[v >> 6] |= u64::from(mail) << (v & 63);
    }

    /// Records node `v`'s state after it stepped in `round`: whether it is
    /// done, and the round its hint asks to wake in. A wake at or before
    /// `round + 1` wakes next round (waking early is always safe); one past
    /// `max_rounds` is dropped.
    #[inline]
    pub(crate) fn after_step(&mut self, v: usize, round: u32, wake: Option<u32>, done: bool) {
        let (word, bit) = (v >> 6, 1u64 << (v & 63));
        if (self.done[word] & bit != 0) != done {
            self.done[word] ^= bit;
            if done {
                self.not_done -= 1;
            } else {
                self.not_done += 1;
            }
        }
        match wake {
            Some(w) if w <= round.saturating_add(1) => self.next[word] |= bit,
            Some(w) if w <= self.max_rounds => self.schedule(v, round, w),
            _ => {}
        }
    }

    /// Records protocol `p` — set index `v`, network id `node` — after it
    /// stepped (or, under FAULTS, was skipped) in `round`. Under FAULTS the
    /// hint is not consulted: every node stays due, and a crashed node
    /// counts as done since it never acts again.
    #[inline]
    pub(crate) fn settle<P: Protocol, const FAULTS: bool>(
        &mut self,
        v: usize,
        node: NodeId,
        round: u32,
        p: &P,
        plan: &FaultPlan,
    ) {
        if FAULTS {
            let done = p.done() || plan.crashed(node, round);
            self.after_step(v, round, Some(round + 1), done);
        } else {
            self.after_step(v, round, p.next_wake(round), p.done());
        }
    }

    /// Enters `v` in the calendar for round `wake`, unless an earlier
    /// entry of `v` is still to fire.
    fn schedule(&mut self, v: usize, round: u32, wake: u32) {
        if self.pending.is_empty() {
            self.pending = vec![0; 64 * self.done.len()];
        }
        let pending = self.pending[v];
        if pending > round && pending <= wake {
            return;
        }
        self.pending[v] = wake;
        let wake = wake as usize;
        if self.calendar.len() <= wake {
            self.calendar.resize_with(wake + 1, Vec::new);
        }
        let bucket = &mut self.calendar[wake];
        if bucket.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *bucket = spare;
            }
        }
        bucket.push(v as u32);
    }

    /// Starts `round`: the nodes due are last round's `next` plus the
    /// calendar bucket of `round`.
    pub(crate) fn begin_round(&mut self, round: u32) {
        std::mem::swap(&mut self.due, &mut self.next);
        self.next.fill(0);
        if let Some(bucket) = self.calendar.get_mut(round as usize) {
            let mut bucket = std::mem::take(bucket);
            for v in bucket.drain(..) {
                self.due[v as usize >> 6] |= 1u64 << (v & 63);
            }
            self.spare.push(bucket);
        }
    }

    /// A cursor at the start of this round's due nodes.
    pub(crate) fn cursor(&self) -> DueCursor {
        DueCursor {
            word: 0,
            bits: self.due.first().copied().unwrap_or(0),
        }
    }

    /// The next due node after `cursor`, ascending; `None` at the end.
    /// The cursor copies one word at a time, so the set may be updated
    /// through [`ActiveSet::after_step`] between calls.
    #[inline]
    pub(crate) fn next_due(&self, cursor: &mut DueCursor) -> Option<usize> {
        while cursor.bits == 0 {
            cursor.word += 1;
            cursor.bits = *self.due.get(cursor.word)?;
        }
        let v = (cursor.word << 6) | cursor.bits.trailing_zeros() as usize;
        cursor.bits &= cursor.bits - 1;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due(set: &ActiveSet) -> Vec<usize> {
        let mut c = set.cursor();
        std::iter::from_fn(|| set.next_due(&mut c)).collect()
    }

    #[test]
    fn starts_with_every_node_due_and_none_done() {
        for len in [0, 1, 63, 64, 65, 130] {
            let set = ActiveSet::new(len, 10);
            assert_eq!(due(&set), (0..len).collect::<Vec<_>>());
            assert_eq!(set.quiet(), len == 0);
        }
    }

    #[test]
    fn mail_next_round_and_calendar_wakes_merge_in_id_order() {
        let mut set = ActiveSet::new(200, 20);
        set.after_step(150, 0, Some(1), true);
        set.after_step(3, 0, Some(5), true);
        set.after_step(70, 0, None, true);
        set.after_step(9, 0, Some(21), true); // past max_rounds: dropped
        set.mark_mail(64, true);
        set.mark_mail(65, false);
        set.begin_round(1);
        assert_eq!(due(&set), vec![64, 150]);
        for r in 2..5 {
            set.begin_round(r);
            assert!(due(&set).is_empty());
        }
        set.begin_round(5);
        assert_eq!(due(&set), vec![3]);
        assert!(set.calendar.len() <= 21);
    }

    #[test]
    fn a_later_wake_waits_behind_a_pending_earlier_one() {
        let mut set = ActiveSet::new(2, 20);
        set.after_step(0, 0, Some(4), true);
        set.after_step(0, 1, Some(9), true); // 4 still pending: not entered
        set.after_step(1, 0, Some(9), true);
        set.after_step(1, 1, Some(6), true); // earlier: entered as well
        assert_eq!(set.calendar[9], vec![1]);
        let mut woke = Vec::new();
        for r in 1..=9 {
            set.begin_round(r);
            woke.extend(due(&set).into_iter().map(|v| (r, v)));
        }
        assert_eq!(woke, vec![(4, 0), (6, 1), (9, 1)]);
        // Once its entry has fired, a node is entered again.
        set.after_step(0, 9, Some(12), true);
        assert_eq!(set.calendar[12], vec![0]);
    }

    #[test]
    fn done_count_follows_each_nodes_latest_step() {
        let mut set = ActiveSet::new(3, 10);
        for v in 0..3 {
            set.after_step(v, 0, None, true);
        }
        assert!(set.quiet());
        set.after_step(1, 1, None, false);
        assert!(!set.quiet());
        set.after_step(1, 2, None, true);
        assert!(set.quiet());
    }
}
