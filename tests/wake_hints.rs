//! The wake-hint contract of `Protocol::next_wake`, checked against an
//! oracle.
//!
//! The skeleton and Fibonacci protocols tell the synchronous executors
//! when they next need to step with an empty inbox, and the executors skip
//! them until then. The oracle is the same protocol with the hint forced
//! back to the default (`AlwaysAwake`), which steps every node every
//! round. A correct hint must give exactly the oracle's run: the same
//! edges, the same `RunMetrics` and the same JSONL trace bytes, on every
//! executor and thread count. Waking early is always allowed
//! (`EarlyWake`, random earlier wakes), and waking late is a bug the
//! comparison must catch (`LateWake`, every hint one round late).

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;

use ultrasparse_spanners::core::fibonacci::distributed as fib;
use ultrasparse_spanners::core::fibonacci::FibonacciParams;
use ultrasparse_spanners::core::skeleton::distributed as skel;
use ultrasparse_spanners::core::skeleton::SkeletonParams;
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::{generators, CsrAdjacency, NodeId};
use ultrasparse_spanners::netsim::{Ctx, Executor, JsonLinesSink, Protocol, RunError, RunMetrics};

/// Delegates every method to the wrapped protocol.
macro_rules! delegate_protocol {
    () => {
        type Msg = P::Msg;
        fn init(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
            self.inner.init(ctx);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[(NodeId, P::Msg)]) {
            self.inner.round(ctx, inbox);
        }
        fn done(&self) -> bool {
            self.inner.done()
        }
    };
}

/// Steps every round: the default wake, whatever the protocol hints.
struct AlwaysAwake<P> {
    inner: P,
}

impl<P: Protocol> Protocol for AlwaysAwake<P> {
    delegate_protocol!();
}

/// Wakes at a pseudo-random round no later than the protocol's hint (and
/// at some round within 64 when the hint is "only on mail").
struct EarlyWake<P> {
    inner: P,
    node: u32,
    salt: u64,
}

impl<P: Protocol> Protocol for EarlyWake<P> {
    delegate_protocol!();
    fn next_wake(&self, round: u32) -> Option<u32> {
        let span = match self.inner.next_wake(round) {
            Some(w) => w.saturating_sub(round).max(1),
            None => 64,
        };
        let h = mix(self.salt ^ (u64::from(self.node) << 32) ^ u64::from(round));
        Some(round + 1 + (h % u64::from(span)) as u32)
    }
}

/// Wakes one round after the protocol's hint: a contract violation.
struct LateWake<P> {
    inner: P,
}

impl<P: Protocol> Protocol for LateWake<P> {
    delegate_protocol!();
    fn next_wake(&self, round: u32) -> Option<u32> {
        self.inner.next_wake(round).map(|w| w + 1)
    }
}

macro_rules! borrow_inner {
    ($($wrapper:ident),*) => {$(
        impl<P> Borrow<P> for $wrapper<P> {
            fn borrow(&self) -> &P {
                &self.inner
            }
        }
    )*};
}
borrow_inner!(AlwaysAwake, EarlyWake, LateWake);

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a run shows: edges (as sorted ids), metrics and trace
/// bytes, or the error it ended in.
type Outcome = Result<(Vec<usize>, Option<RunMetrics>, Vec<u8>), String>;

/// How to wrap each node of one construction.
#[derive(Clone, Copy)]
enum Wrap {
    Hinted,
    AlwaysAwake,
    EarlyWake(u64),
    LateWake,
}

/// Runs `build` on a fresh JSONL sink and packs up what it shows.
fn outcome<F>(build: F) -> Outcome
where
    F: FnOnce(&mut JsonLinesSink<Vec<u8>>) -> Result<Spanner, RunError>,
{
    let mut sink = JsonLinesSink::new(Vec::new());
    let s = build(&mut sink).map_err(|e| e.to_string())?;
    let bytes = sink.finish().map_err(|e| e.to_string())?;
    Ok((
        s.edges.iter().map(|e| e.index()).collect(),
        s.metrics,
        bytes,
    ))
}

fn skeleton(csr: &Arc<CsrAdjacency>, exec: &Executor, wrap: Wrap) -> Outcome {
    let params = SkeletonParams::default();
    outcome(|sink| match wrap {
        Wrap::Hinted => skel::build_distributed_on(csr, &params, 5, exec, sink),
        Wrap::AlwaysAwake => {
            skel::build_distributed_wrapped(csr, &params, 5, exec, sink, |_, n| AlwaysAwake {
                inner: n,
            })
        }
        Wrap::EarlyWake(salt) => {
            skel::build_distributed_wrapped(csr, &params, 5, exec, sink, |v, n| EarlyWake {
                inner: n,
                node: v.0,
                salt,
            })
        }
        Wrap::LateWake => skel::build_distributed_wrapped(csr, &params, 5, exec, sink, |_, n| {
            LateWake { inner: n }
        }),
    })
}

fn fibonacci(csr: &Arc<CsrAdjacency>, exec: &Executor, wrap: Wrap) -> Outcome {
    // A bounded budget, so balls cease and tokens queue across rounds.
    let params = FibonacciParams::new(csr.node_count(), 2, 0.5, 3).expect("valid params");
    outcome(|sink| match wrap {
        Wrap::Hinted => fib::build_distributed_on(csr, &params, 5, exec, sink),
        Wrap::AlwaysAwake => fib::build_distributed_wrapped(csr, &params, 5, exec, sink, |_, n| {
            AlwaysAwake { inner: n }
        }),
        Wrap::EarlyWake(salt) => {
            fib::build_distributed_wrapped(csr, &params, 5, exec, sink, |v, n| EarlyWake {
                inner: n,
                node: v.0,
                salt,
            })
        }
        Wrap::LateWake => fib::build_distributed_wrapped(csr, &params, 5, exec, sink, |_, n| {
            LateWake { inner: n }
        }),
    })
}

type Construction = fn(&Arc<CsrAdjacency>, &Executor, Wrap) -> Outcome;

const CONSTRUCTIONS: [(&str, Construction); 2] = [("skeleton", skeleton), ("fibonacci", fibonacci)];

fn csr(n: usize, m: usize, seed: u64) -> Arc<CsrAdjacency> {
    Arc::new(generators::connected_gnm_csr(n, m, seed))
}

/// The fixed input. On it some skeleton kills stream more than one batch
/// and some Fibonacci token queues take more than one round to drain, so
/// the `round + 1` wakes are exercised, not only the timetable ones.
fn fixed_input() -> Arc<CsrAdjacency> {
    csr(500, 2_500, 2)
}

#[test]
fn hinted_runs_equal_always_awake_runs_on_every_executor() {
    let csr = fixed_input();
    for (name, build) in CONSTRUCTIONS {
        let oracle = build(&csr, &Executor::Sequential, Wrap::AlwaysAwake);
        let (edges, metrics, trace) = oracle.as_ref().expect("oracle run succeeds");
        assert!(!edges.is_empty() && metrics.is_some() && !trace.is_empty());
        let executors = std::iter::once(Executor::Sequential)
            .chain((1..=8).map(|threads| Executor::Parallel { threads }));
        for exec in executors {
            let hinted = build(&csr, &exec, Wrap::Hinted);
            assert!(
                hinted == oracle,
                "{name} on {exec:?} differs from the oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn earlier_wakes_never_change_the_run(
        graph_seed in 0u64..1_000,
        salt in any::<u64>(),
        threads in 1usize..=4,
    ) {
        let csr = csr(300, 1_200, graph_seed);
        for (name, build) in CONSTRUCTIONS {
            let hinted = build(&csr, &Executor::Sequential, Wrap::Hinted);
            prop_assert!(hinted.is_ok(), "{name}: {hinted:?}");
            for exec in [Executor::Sequential, Executor::Parallel { threads }] {
                let early = build(&csr, &exec, Wrap::EarlyWake(salt));
                prop_assert!(early == hinted, "{name} on {exec:?}, salt {salt}");
            }
        }
    }
}

/// The oracle has teeth: a hint one round late changes the run of both
/// constructions on a fixed input (or makes it fail outright).
#[test]
fn late_wakes_are_detected() {
    let csr = fixed_input();
    for (name, build) in CONSTRUCTIONS {
        let hinted = build(&csr, &Executor::Sequential, Wrap::Hinted);
        let late = catch_unwind(AssertUnwindSafe(|| {
            build(&csr, &Executor::Sequential, Wrap::LateWake)
        }));
        let detected = match late {
            Ok(late) => late != hinted,
            Err(_) => true,
        };
        assert!(detected, "{name}: a late wake went unnoticed");
    }
}
