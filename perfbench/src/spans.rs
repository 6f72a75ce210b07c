//! Tracing for the traced run: in-memory spans recorded around calls into
//! each layer, and a [`TraceSink`] that timestamps the simulator's events.
//!
//! A span is `(name, start, end, parent, run id)`. The layer of a span is
//! its name up to the first `.` (`netsim.rounds` belongs to `netsim`). A
//! span's self time is its duration minus the time its children cover;
//! the coverage ratio is the children's total over their parents' total.
//! Spans stay in memory and are written as JSON lines at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use spanner_netsim::{TraceEvent, TraceSink};

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which pass of the run recorded it.
    pub run_id: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. When disabled every call is a no-op, so the untraced
/// run pays nothing for the calls left in place.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    run_id: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Time spent inside the recording calls themselves.
    cost: Duration,
}

/// Handle of an open span (`None` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            run_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Tags later spans with `run_id` (one id per workload pass).
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let t = Instant::now();
        let now = self.ns(t);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        self.cost += t.elapsed();
        SpanId(Some(id))
    }

    /// Closes `id` (and anything opened inside it and left open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let t = Instant::now();
        let now = self.ns(t);
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.cost += t.elapsed();
    }

    /// Records an already-timed span as a child of `parent` (used for
    /// spans reconstructed from simulator events).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, parent: SpanId) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.0,
            run_id: self.run_id,
        };
        self.spans.push(span);
        self.cost += t.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Seconds spent inside `enter`, `exit` and `record` so far: the
    /// tracing overhead of passes whose only tracing is these spans.
    pub fn cost_secs(&self) -> f64 {
        self.cost.as_secs_f64()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Children's total duration per span index.
    fn child_secs(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        child
    }

    /// Self time per layer, seconds: each span's duration minus its
    /// children's, summed by layer.
    pub fn layer_self_secs(&self) -> BTreeMap<String, f64> {
        let child = self.child_secs();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("").to_string();
            *out.entry(layer).or_insert(0.0) += (s.secs() - child[i]).max(0.0);
        }
        out
    }

    /// Coverage of run `run_id`: time covered by child spans over the
    /// duration of the spans that have children (1 = parents fully
    /// explained by their children); 0 when no span has children.
    pub fn coverage(&self, run_id: u32) -> f64 {
        let child = self.child_secs();
        let (mut covered, mut total) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.run_id == run_id && child[i] > 0.0 {
                covered += child[i].min(s.secs());
                total += s.secs();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.run_id
            )?;
        }
        out.flush()
    }
}

/// A simulator event with the wall-clock time it was emitted.
#[derive(Debug, Clone)]
pub enum Stamp {
    /// A phase span opened.
    Enter(String),
    /// A phase span closed.
    Exit(String),
    /// One round finished.
    Round {
        /// Nodes that sent at least one message.
        active: u32,
    },
    /// The run ended.
    End,
}

/// [`TraceSink`] that keeps each event with an [`Instant`].
#[derive(Debug, Default)]
pub struct StampSink {
    /// Events in stream order.
    pub events: Vec<(Instant, Stamp)>,
}

impl TraceSink for StampSink {
    fn record(&mut self, event: TraceEvent) {
        let now = Instant::now();
        let stamp = match event {
            TraceEvent::PhaseEnter { name, .. } => Stamp::Enter(name),
            TraceEvent::PhaseExit { name, .. } => Stamp::Exit(name),
            TraceEvent::Round { active, .. } => Stamp::Round { active },
            TraceEvent::RunEnd { .. } => Stamp::End,
            TraceEvent::Deliver { .. } | TraceEvent::Faults { .. } => return,
        };
        self.events.push((now, stamp));
    }
}

/// Round timing derived from a [`StampSink`].
#[derive(Debug, Clone, Default)]
pub struct RoundTimes {
    /// Time in rounds where fewer than 1% of nodes sent.
    pub sparse_s: f64,
    /// Time in rounds where at least 1% of nodes sent.
    pub dense_s: f64,
    /// Σ active senders over all rounds.
    pub active_sum: u64,
    /// Per-round wall time, ms.
    pub round_ms: Vec<f64>,
    /// First event (end of configuration).
    pub first: Option<Instant>,
    /// Last `Round` record.
    pub last_round: Option<Instant>,
}

impl StampSink {
    /// Splits the run into rounds: a round lasts from the previous `Round`
    /// record (or the first event) to its own `Round` record.
    pub fn round_times(&self, n: usize) -> RoundTimes {
        let mut rt = RoundTimes {
            first: self.events.first().map(|e| e.0),
            ..RoundTimes::default()
        };
        let mut prev = rt.first;
        for (t, stamp) in &self.events {
            if let Stamp::Round { active } = stamp {
                let start = prev.unwrap_or(*t);
                let secs = t.saturating_duration_since(start).as_secs_f64();
                if (*active as f64) < 0.01 * n as f64 {
                    rt.sparse_s += secs;
                } else {
                    rt.dense_s += secs;
                }
                rt.active_sum += u64::from(*active);
                rt.round_ms.push(secs * 1e3);
                prev = Some(*t);
                rt.last_round = Some(*t);
            }
        }
        rt
    }

    /// Total open time per phase name, seconds (phase enter to exit).
    pub fn phase_secs(&self) -> BTreeMap<String, f64> {
        let mut open: BTreeMap<String, Instant> = BTreeMap::new();
        let mut out = BTreeMap::new();
        for (t, stamp) in &self.events {
            match stamp {
                Stamp::Enter(name) => {
                    open.insert(name.clone(), *t);
                }
                Stamp::Exit(name) => {
                    if let Some(start) = open.remove(name) {
                        *out.entry(name.clone()).or_insert(0.0) +=
                            t.saturating_duration_since(start).as_secs_f64();
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage() {
        let mut s = Spans::new(true);
        let outer = s.enter("core.build");
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(4));
        let t1 = Instant::now();
        s.record("netsim.rounds", t0, t1, outer);
        s.exit(outer);
        let layers = s.layer_self_secs();
        assert!(layers["netsim"] > 0.003);
        assert!(layers["core"] < layers["netsim"]);
        let c = s.coverage(0);
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
        assert!(s.cost_secs() > 0.0 && s.cost_secs() < layers["netsim"]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.enter("x.y");
        s.exit(id);
        assert!(s.spans().is_empty());
        assert_eq!(s.coverage(0), 0.0);
        assert_eq!(s.cost_secs(), 0.0);
    }
}
