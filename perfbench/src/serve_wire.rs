//! `serve-wire`: an open-loop client over one loopback TCP connection to
//! the real `spanner-serve --listen` binary.
//!
//! One schedule interleaves two request classes: hot `DIST` singletons
//! whose endpoints follow Zipf(θ = 0.99), a working set that fits the
//! server's LRU, and cold `BATCH 64` frames of uniform pairs whose key
//! space is far larger than the LRU. Arrivals are Poisson; every request
//! has a due time, is sent at that time whatever the server is doing, and
//! its latency runs from the due time to the arrival of its last response
//! line, so a stall is charged to every request queued behind it.
//!
//! The client has two threads: the writer sends on schedule, the reader
//! timestamps responses. After the last request of a rung the writer
//! sends `PING`; its `OK PONG` tells the reader the rung is over.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::{generators, NodeId};
use spanner_oracle::DistanceOracle;
use spanner_serve::protocol::{format_dist, parse_command};
use spanner_serve::workload::Zipf;
use spanner_serve::{serve_listener, GraphSpec, LoadRequest, QueryReq, ServeConfig, Server};

use crate::report::{median, nproc, peak_rss_mib, quantile, Outcome};
use crate::spans::Spans;
use crate::timed;

/// Sizes and rates of the `serve-wire` workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nodes of the served `er:` graph.
    pub n: u32,
    /// Edges of the served graph.
    pub m: u64,
    /// Hot `DIST` requests per second on the reference rung.
    pub ref_rate: f64,
    /// `DIST` rates of the other rungs: a low one, then ascending ones
    /// above the reference (the ladder stops at the first that misses the
    /// limit).
    pub ladder: &'static [f64],
    /// Latency limit on `DIST` p99, µs.
    pub limit_us: f64,
    /// Generator lateness p99 above which a rung is invalid, µs.
    pub late_limit_us: f64,
    /// Length of each segment of the traced run, seconds.
    pub segment_s: f64,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        n: 50_000,
        m: 200_000,
        ref_rate: 8_000.0,
        ladder: &[2_000.0, 16_000.0, 32_000.0],
        limit_us: 1_000.0,
        late_limit_us: 1_000.0,
        segment_s: 2.0,
    };
    /// Seconds-scale size for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        n: 2_000,
        m: 8_000,
        ref_rate: 500.0,
        ladder: &[250.0, 1_000.0],
        limit_us: 50_000.0,
        late_limit_us: 50_000.0,
        segment_s: 0.3,
    };

    fn spec(&self, seed: u64) -> String {
        format!("er:n={},m={},seed={seed}", self.n, self.m)
    }
}

/// Cold `BATCH` frames per hot `DIST`.
const BATCH_RATIO: f64 = 0.1;
/// Pairs per `BATCH` frame.
const BATCH: usize = 64;
/// Outstanding requests at which the writer gives up on a rung.
const MAX_BACKLOG: usize = 20_000;

/// Tries at the reference rung before a run that keeps falling behind
/// schedule fails.
const REF_ATTEMPTS: usize = 3;

/// LRU capacity the server runs with (its default).
pub const LRU_CAPACITY: usize = 1 << 16;

/// Which server the client talks to.
#[derive(Debug, Clone)]
pub enum Target {
    /// The `spanner-serve` binary at this path, as a child process.
    Binary(PathBuf),
    /// `serve_listener` on a thread of this process (the tests' stand-in).
    InProcess,
}

/// A running server.
struct Running {
    addr: SocketAddr,
    child: Option<Child>,
    /// Kept open so the child's later writes to stderr do not fail.
    _stderr: Option<BufReader<ChildStderr>>,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    /// Starts the server with the workload's graph loaded; returns it and
    /// the seconds from spawn until it accepts connections.
    fn start(target: &Target, scale: &Scale, seed: u64) -> Result<(Running, f64), String> {
        let start = Instant::now();
        match target {
            Target::Binary(bin) => {
                let mut child = Command::new(bin)
                    .args(["--listen", "127.0.0.1:0", "--threads", &nproc().to_string()])
                    .args(["--load", &scale.spec(seed), "--seed", &seed.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
                let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
                let mut line = String::new();
                loop {
                    line.clear();
                    let read = stderr.read_line(&mut line).unwrap_or(0);
                    if read == 0 {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("server exited before listening".to_string());
                    }
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        let addr: SocketAddr = addr
                            .parse()
                            .map_err(|e| format!("bad address {addr}: {e}"))?;
                        let secs = start.elapsed().as_secs_f64();
                        return Ok((
                            Running {
                                addr,
                                child: Some(child),
                                _stderr: Some(stderr),
                                thread: None,
                            },
                            secs,
                        ));
                    }
                }
            }
            Target::InProcess => {
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let mut server = Server::new(ServeConfig {
                    threads: nproc(),
                    cache_capacity: LRU_CAPACITY,
                });
                server
                    .load(&load_request(scale, seed))
                    .map_err(|e| e.line())?;
                let secs = start.elapsed().as_secs_f64();
                let thread = std::thread::spawn(move || {
                    let _ = serve_listener(listener, server, Some(1));
                });
                Ok((
                    Running {
                        addr,
                        child: None,
                        _stderr: None,
                        thread: Some(thread),
                    },
                    secs,
                ))
            }
        }
    }

    /// Stops the server and returns its peak resident set in MiB.
    fn stop(mut self) -> f64 {
        let mut rss = 0.0;
        if let Some(mut child) = self.child.take() {
            rss = peak_rss_mib(Some(child.id()));
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(t) = self.thread.take() {
            rss = peak_rss_mib(None);
            let _ = t.join();
        }
        rss
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn load_request(scale: &Scale, seed: u64) -> LoadRequest {
    LoadRequest {
        spec: GraphSpec::Er {
            n: scale.n,
            m: scale.m,
            seed,
        },
        k: 2,
        seed,
        routing: false,
    }
}

/// One connection: a write half and a buffered read half.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    /// Sends one command and reads its one-line response.
    fn call(&mut self, cmd: &str) -> io::Result<String> {
        self.w.write_all(format!("{cmd}\n").as_bytes())?;
        let mut line = String::new();
        if self.r.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// A hot `DIST u v` singleton.
    Dist(u32, u32),
    /// A cold `BATCH` frame of `DIST` pairs.
    Batch(Vec<(u32, u32)>),
}

impl Req {
    fn wire(&self) -> Vec<u8> {
        match self {
            Req::Dist(u, v) => format!("DIST {u} {v}\n").into_bytes(),
            Req::Batch(pairs) => {
                let mut s = format!("BATCH {}\n", pairs.len());
                for (u, v) in pairs {
                    s.push_str(&format!("DIST {u} {v}\n"));
                }
                s.into_bytes()
            }
        }
    }
}

/// A request with its due time (ns after the rung starts) and wire bytes.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, ns after the rung's start.
    pub due_ns: u64,
    /// The request.
    pub req: Req,
    bytes: Vec<u8>,
}

/// The schedule generator: seeded, so the same seed gives the same
/// requests at the same due times.
pub struct Planner {
    rng: SmallRng,
    zipf: Zipf,
    n: u32,
}

impl Planner {
    /// A planner over `scale.n` nodes.
    pub fn new(scale: &Scale, seed: u64) -> Self {
        Planner {
            rng: SmallRng::seed_from_u64(seed ^ 0x5E7F_E000),
            zipf: Zipf::new(scale.n, 0.99),
            n: scale.n,
        }
    }

    fn gap_ns(&mut self, rate: f64) -> u64 {
        let u: f64 = self.rng.gen();
        (-(1.0 - u).ln() / rate * 1e9) as u64
    }

    /// `secs` of Poisson arrivals: hot `DIST` at `dist_rate` and cold
    /// `BATCH` frames at `batch_rate` per second (either may be 0).
    pub fn plan(&mut self, dist_rate: f64, batch_rate: f64, secs: f64) -> Vec<Planned> {
        let end = (secs * 1e9) as u64;
        let mut out = Vec::new();
        for (rate, hot) in [(dist_rate, true), (batch_rate, false)] {
            if rate <= 0.0 {
                continue;
            }
            let mut t = self.gap_ns(rate);
            while t < end {
                let req = if hot {
                    Req::Dist(
                        self.zipf.sample(&mut self.rng),
                        self.zipf.sample(&mut self.rng),
                    )
                } else {
                    Req::Batch(
                        (0..BATCH)
                            .map(|_| (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n)))
                            .collect(),
                    )
                };
                out.push(Planned {
                    due_ns: t,
                    bytes: req.wire(),
                    req,
                });
                t += self.gap_ns(rate);
            }
        }
        out.sort_by_key(|p| p.due_ns);
        out
    }
}

/// What one rung measured.
#[derive(Debug, Default)]
pub struct Rung {
    /// Offered hot `DIST` rate, requests per second.
    pub rate: f64,
    /// Latency from due time of each answered `DIST`, µs.
    pub dist_us: Vec<f64>,
    /// Latency from due time of each answered `BATCH`, µs.
    pub batch_us: Vec<f64>,
    /// How late the writer sent each request, µs.
    pub late_us: Vec<f64>,
    /// Most requests outstanding at a send.
    pub backlog_max: usize,
    /// Requests outstanding when the last one was sent.
    pub backlog_end: usize,
    /// Whether the writer gave up (backlog over the limit).
    pub aborted: bool,
    /// Response lines per sent request.
    pub lines: Vec<Vec<String>>,
    /// Due and completion instants per answered request.
    pub times: Vec<(Instant, Instant)>,
}

impl Rung {
    /// The generator kept to its schedule and the writer did not give up.
    pub fn valid(&self, scale: &Scale) -> bool {
        !self.aborted && quantile(&self.late_us, 0.99) <= scale.late_limit_us
    }

    /// Valid, `DIST` p99 within the limit, and no growing backlog.
    pub fn meets_limit(&self, scale: &Scale) -> bool {
        let allowed = (self.rate * scale.limit_us * 1e-6 * 4.0) as usize + 16;
        self.valid(scale)
            && quantile(&self.dist_us, 0.99) <= scale.limit_us
            && self.backlog_end <= allowed
    }
}

/// Waits for due times: sleeps until `margin` before each one, then
/// yields until it arrives. The margin follows the largest recent
/// oversleep, so timer slack does not make the generator late while the
/// writer spends little of its time spinning.
struct Pacer {
    margin: Duration,
}

impl Pacer {
    fn new() -> Self {
        Pacer {
            margin: Duration::from_micros(200),
        }
    }

    fn wait_until(&mut self, t: Instant) {
        let now = Instant::now();
        if t > now + self.margin {
            let wake = t - self.margin;
            std::thread::sleep(wake - now);
            let over = Instant::now().saturating_duration_since(wake);
            let decayed = self.margin.mul_f64(0.99);
            self.margin = (over + Duration::from_micros(30))
                .max(decayed)
                .min(Duration::from_millis(2));
        }
        while Instant::now() < t {
            std::thread::yield_now();
        }
    }
}

/// Sends `plan` on schedule over `conn` and collects every response.
fn run_rung(conn: &mut Conn, plan: &[Planned], rate: f64) -> io::Result<Rung> {
    let done = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let Conn { w, r } = conn;
    std::thread::scope(|sc| {
        let done = &done;
        let reader = sc.spawn(move || -> io::Result<(Vec<Instant>, Vec<Vec<String>>)> {
            let mut done_at = Vec::with_capacity(plan.len());
            let mut lines = Vec::with_capacity(plan.len());
            let mut line = String::new();
            let mut read = |line: &mut String| -> io::Result<String> {
                line.clear();
                if r.read_line(line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                Ok(line.trim_end().to_string())
            };
            loop {
                let first = read(&mut line)?;
                if first == "OK PONG" {
                    break;
                }
                let Some(p) = plan.get(lines.len()) else {
                    return Err(io::Error::other(format!("unexpected line {first}")));
                };
                let mut resp = vec![first];
                if let Req::Batch(pairs) = &p.req {
                    if resp[0] == format!("OK BATCH {}", pairs.len()) {
                        for _ in 0..pairs.len() {
                            resp.push(read(&mut line)?);
                        }
                    }
                }
                done_at.push(Instant::now());
                // Relaxed: a statistic for the writer's backlog count.
                done.fetch_add(1, Ordering::Relaxed);
                lines.push(resp);
            }
            Ok((done_at, lines))
        });
        let mut rung = Rung {
            rate,
            ..Rung::default()
        };
        let mut dues = Vec::with_capacity(plan.len());
        let mut pacer = Pacer::new();
        let mut send = || -> io::Result<()> {
            for (i, p) in plan.iter().enumerate() {
                let due = t0 + Duration::from_nanos(p.due_ns);
                pacer.wait_until(due);
                let backlog = i - done.load(Ordering::Relaxed);
                if backlog > MAX_BACKLOG {
                    rung.aborted = true;
                    break;
                }
                rung.backlog_max = rung.backlog_max.max(backlog);
                rung.backlog_end = backlog;
                rung.late_us
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                w.write_all(&p.bytes)?;
                dues.push(due);
            }
            w.write_all(b"PING\n")
        };
        let sent = send();
        if sent.is_err() {
            // Unblock the reader before reporting the failure.
            let _ = w.shutdown(Shutdown::Both);
        }
        let (done_at, lines) = reader.join().expect("reader thread panicked")?;
        sent?;
        for (i, (due, at)) in dues.iter().zip(&done_at).enumerate() {
            let us = at.saturating_duration_since(*due).as_secs_f64() * 1e6;
            match plan[i].req {
                Req::Dist(..) => rung.dist_us.push(us),
                Req::Batch(_) => rung.batch_us.push(us),
            }
            rung.times.push((*due, *at));
        }
        rung.lines = lines;
        Ok(rung)
    })
}

/// Checks every answer of `plan` against the in-process oracle built for
/// the same (graph, k, seed). Returns (requests checked, requests with a
/// wrong or missing line, first mismatch).
pub fn verify_answers(
    oracle: &DistanceOracle,
    plan: &[Planned],
    lines: &[Vec<String>],
) -> (u64, u64, Option<String>) {
    let expect = |u: u32, v: u32| match oracle.try_query(NodeId(u), NodeId(v)) {
        Ok(d) => format_dist(d),
        Err(e) => format!("query error {e:?}"),
    };
    let (mut checked, mut wrong, mut first) = (0, 0, None);
    for (p, got) in plan.iter().zip(lines) {
        checked += 1;
        let want: Vec<String> = match &p.req {
            Req::Dist(u, v) => vec![expect(*u, *v)],
            Req::Batch(pairs) => std::iter::once(format!("OK BATCH {}", pairs.len()))
                .chain(pairs.iter().map(|&(u, v)| expect(u, v)))
                .collect(),
        };
        if *got != want {
            wrong += 1;
            if first.is_none() {
                let at = want.iter().zip(got).position(|(a, b)| a != b).unwrap_or(0);
                first = Some(format!(
                    "{:?}: line {at} is {:?}, expected {:?}",
                    p.req,
                    got.get(at),
                    want.get(at)
                ));
            }
        }
    }
    (checked, wrong, first)
}

/// Parses the numeric `key=value` fields of a `STATS` line.
pub fn parse_stats(line: &str) -> BTreeMap<String, u64> {
    line.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn delta(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, key: &str) -> f64 {
    (b.get(key).copied().unwrap_or(0) as f64) - (a.get(key).copied().unwrap_or(0) as f64)
}

/// Windows the reference rung is cut into for its percentiles.
const WINDOWS: usize = 5;

/// The `q`-quantile of each of [`WINDOWS`] consecutive windows of
/// `samples` (in send order), and the median of those: one stall on a
/// shared machine then moves one window, not the whole run's tail.
fn windowed(samples: &[f64], q: f64) -> f64 {
    let per = samples.len().div_ceil(WINDOWS).max(1);
    let each: Vec<f64> = samples.chunks(per).map(|w| quantile(w, q)).collect();
    median(&each)
}

/// A plan and the rung that ran it, kept for verification.
struct Ran {
    plan: Vec<Planned>,
    rung: Rung,
}

/// Checks answers of every rung; each answered request is one attempt.
fn verify_all(out: &mut Outcome, scale: &Scale, seed: u64, ran: &[Ran], spans: &mut Spans) -> f64 {
    let g = generators::connected_gnm(scale.n as usize, scale.m as usize, seed);
    let (oracle, build_s) = spans.scope("oracle.build", || {
        timed(|| DistanceOracle::build(&g, 2, seed))
    });
    for r in ran {
        let (checked, wrong, first) = verify_answers(&oracle, &r.plan, &r.rung.lines);
        out.attempted += checked;
        out.failed += wrong;
        if let Some(f) = first {
            out.failures
                .push(format!("wire answer differs from the oracle: {f}"));
        }
    }
    build_s
}

fn check_errors(out: &mut Outcome, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
    let errors = delta(before, after, "errors");
    out.check(
        "final STATS errors=0",
        if errors == 0.0 && after.contains_key("errors") {
            Ok(())
        } else {
            Err(format!("STATS reports {errors} errors"))
        },
    );
}

fn io_err(e: io::Error) -> String {
    e.to_string()
}

/// The end-to-end pass: the reference rung for half of `seconds`, then
/// the low rung and the rungs above the reference for the other half
/// (stopping at the first of those that misses the limit).
pub fn run(target: &Target, scale: &Scale, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut spans = Spans::new(false);
    if let Err(e) = run_inner(target, scale, seed, seconds, out, &mut spans) {
        out.check("serve-wire connection", Err(e));
    }
}

fn run_inner(
    target: &Target,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let (server, setup_s) = Running::start(target, scale, seed)?;
    let mut conn = Conn::open(server.addr).map_err(io_err)?;
    let mut planner = Planner::new(scale, seed);
    let before = parse_stats(&conn.call("STATS").map_err(io_err)?);
    let mut ran: Vec<Ran> = Vec::new();
    let mut reference = None;
    for _attempt in 0..REF_ATTEMPTS {
        let plan = planner.plan(scale.ref_rate, scale.ref_rate * BATCH_RATIO, 0.5 * seconds);
        let rung = run_rung(&mut conn, &plan, scale.ref_rate).map_err(io_err)?;
        let valid = rung.valid(scale);
        ran.push(Ran { plan, rung });
        if valid {
            reference = Some(ran.len() - 1);
            break;
        }
    }
    let rung_s = 0.5 * seconds / scale.ladder.len() as f64;
    for (i, &rate) in scale.ladder.iter().enumerate() {
        let plan = planner.plan(rate, rate * BATCH_RATIO, rung_s);
        let rung = run_rung(&mut conn, &plan, rate).map_err(io_err)?;
        let meets = rung.meets_limit(scale);
        ran.push(Ran { plan, rung });
        if i >= 1 && !meets {
            break;
        }
    }
    let after = parse_stats(&conn.call("STATS").map_err(io_err)?);
    let _ = conn.call("QUIT");
    drop(conn);
    let rss = server.stop();

    check_errors(out, &before, &after);
    verify_all(out, scale, seed, &ran, spans);
    let Some(ri) = reference else {
        return Err(format!(
            "reference rung fell behind schedule {REF_ATTEMPTS} times"
        ));
    };
    let rf = &ran[ri].rung;
    let low = ran.get(ri + 1).map(|r| &r.rung);
    let max_qps = ran
        .iter()
        .filter(|r| r.rung.meets_limit(scale))
        .map(|r| r.rung.rate)
        .fold(0.0, f64::max);
    for r in &ran {
        out.note(format!(
            "rung {:>6.0} DIST/s: DIST p50 {:.1} us p99 {:.1} us ({} samples), BATCH p50 {:.1} us \
             p99 {:.1} us ({} samples), late p50 {:.1} us p99 {:.1} us, backlog max {}{}{}",
            r.rung.rate,
            quantile(&r.rung.dist_us, 0.5),
            quantile(&r.rung.dist_us, 0.99),
            r.rung.dist_us.len(),
            quantile(&r.rung.batch_us, 0.5),
            quantile(&r.rung.batch_us, 0.99),
            r.rung.batch_us.len(),
            quantile(&r.rung.late_us, 0.5),
            quantile(&r.rung.late_us, 0.99),
            r.rung.backlog_max,
            if r.rung.valid(scale) { "" } else { " INVALID" },
            if r.rung.meets_limit(scale) {
                ""
            } else {
                " (misses limit)"
            },
        ));
    }
    let probes = delta(&before, &after, "cache_hits") + delta(&before, &after, "cache_misses");
    out.note(format!(
        "serve-wire: {} over one connection, --threads {}; LRU {LRU_CAPACITY} entries vs \
         cold key space n^2 = {:.2e} pairs; cache hit rate {:.3}; DIST p99 limit {} us; \
         dist_max_qps = {max_qps} 1/s",
        scale.spec(seed),
        nproc(),
        f64::from(scale.n).powi(2),
        delta(&before, &after, "cache_hits") / probes.max(1.0),
        scale.limit_us,
    ));
    out.e2e("setup_s", setup_s, "s");
    out.e2e("peak_rss_mib", rss, "MiB");
    out.slot(1, "dist_p50_us", windowed(&rf.dist_us, 0.5) * 1e-6);
    out.slot(2, "dist_p99_us", windowed(&rf.dist_us, 0.99) * 1e-6);
    out.slot(3, "batch_p50_us", windowed(&rf.batch_us, 0.5) * 1e-6);
    out.slot(4, "batch_p99_us", windowed(&rf.batch_us, 0.99) * 1e-6);
    out.note(format!(
        "dist_p50_low_us = {:.1} us",
        low.map_or(0.0, |r| quantile(&r.dist_us, 0.5))
    ));
    Ok(())
}

/// The traced pass: a hot-only, a cold-only and a mixed segment over the
/// wire with `STATS` between them, then the same requests parsed and
/// answered in process.
pub fn run_traced(target: &Target, scale: &Scale, seed: u64, out: &mut Outcome, spans: &mut Spans) {
    if let Err(e) = traced_inner(target, scale, seed, out, spans) {
        out.check("serve-wire traced connection", Err(e));
    }
}

fn traced_inner(
    target: &Target,
    scale: &Scale,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let seg = scale.segment_s;
    let batch_rate = scale.ref_rate * BATCH_RATIO;
    let (server, _) = spans.scope("serve.spawn", || Running::start(target, scale, seed))?;
    let mut conn = Conn::open(server.addr).map_err(io_err)?;
    let mut planner = Planner::new(scale, seed);
    let mut stats = vec![parse_stats(&conn.call("STATS").map_err(io_err)?)];
    let mut ran = Vec::new();
    for (dist_rate, batch_rate) in [
        (scale.ref_rate, 0.0),
        (0.0, batch_rate),
        (scale.ref_rate, batch_rate),
    ] {
        let plan = planner.plan(dist_rate, batch_rate, seg);
        let id = spans.enter("serve.wire");
        let rung = run_rung(&mut conn, &plan, dist_rate).map_err(io_err)?;
        // The mixed segment keeps one span per request, built from the
        // client's own timestamps after the segment, so recording them
        // does not delay the requests.
        if ran.len() == 2 {
            for &(due, at) in &rung.times {
                spans.record("serve.request", due, at, id);
            }
        }
        spans.exit(id);
        stats.push(parse_stats(&conn.call("STATS").map_err(io_err)?));
        ran.push(Ran { plan, rung });
    }
    let _ = conn.call("QUIT");
    drop(conn);
    server.stop();
    check_errors(out, &stats[0], &stats[3]);
    let build_s = verify_all(out, scale, seed, &ran, spans);
    out.layer("oracle.build_s", build_s, "s");

    let rate = |s0: &BTreeMap<String, u64>, s1: &BTreeMap<String, u64>| {
        let hits = delta(s0, s1, "cache_hits");
        hits / (hits + delta(s0, s1, "cache_misses")).max(1.0)
    };
    out.layer("serve.hit_rate.dist", rate(&stats[0], &stats[1]), "ratio");
    out.layer("serve.hit_rate.batch", rate(&stats[1], &stats[2]), "ratio");
    out.layer(
        "serve.cache_evictions",
        delta(&stats[0], &stats[3], "cache_evictions"),
        "count",
    );
    let cold_q = delta(&stats[1], &stats[2], "queries").max(1.0);
    out.layer(
        "oracle.bunch_probes_per_q",
        delta(&stats[1], &stats[2], "bunch_probes") / cold_q,
        "count",
    );
    out.layer(
        "oracle.witness_reads_per_q",
        delta(&stats[1], &stats[2], "witness_reads") / cold_q,
        "count",
    );

    // Parse cost over every line the hot and cold segments sent.
    let text: Vec<String> = ran[..2]
        .iter()
        .flat_map(|r| r.plan.iter())
        .flat_map(|p| {
            String::from_utf8_lossy(&p.bytes)
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    let (parsed, parse_s) = spans.scope("serve.parse", || {
        timed(|| text.iter().filter(|l| parse_command(l).is_ok()).count())
    });
    out.check(
        "every request line parses",
        (parsed == text.len())
            .then_some(())
            .ok_or_else(|| format!("{} of {} lines parse", parsed, text.len())),
    );
    let parse_ns = parse_s * 1e9 / text.len().max(1) as f64;
    out.layer("serve.parse_ns", parse_ns, "ns");

    // Compute cost: the same hot and cold requests through an in-process
    // server, answer by answer compared with the wire.
    let mut server = Server::new(ServeConfig {
        threads: nproc(),
        cache_capacity: LRU_CAPACITY,
    });
    spans
        .scope("serve.load", || server.load(&load_request(scale, seed)))
        .map_err(|e| e.line())?;
    let mut per_class = [Vec::new(), Vec::new()];
    let id = spans.enter("serve.compute");
    for r in &ran[..2] {
        for (p, wire) in r.plan.iter().zip(&r.rung.lines) {
            let (reqs, class): (Vec<QueryReq>, usize) = match &p.req {
                Req::Dist(u, v) => (vec![QueryReq::Dist(*u, *v)], 0),
                Req::Batch(pairs) => (
                    pairs.iter().map(|&(u, v)| QueryReq::Dist(u, v)).collect(),
                    1,
                ),
            };
            let (lines, secs) = timed(|| server.run_queries(&reqs));
            per_class[class].push(secs * 1e6);
            let same = match &p.req {
                Req::Dist(..) => lines == *wire,
                Req::Batch(_) => wire.len() == lines.len() + 1 && lines[..] == wire[1..],
            };
            out.check(
                "in-process answer equals the wire answer",
                same.then_some(()).ok_or_else(|| format!("{:?}", p.req)),
            );
        }
    }
    spans.exit(id);
    let compute_dist = median(&per_class[0]);
    out.layer("serve.compute_us.dist", compute_dist, "us");
    out.layer("serve.compute_us.batch", median(&per_class[1]), "us");
    let wire_p50 = quantile(&ran[0].rung.dist_us, 0.5);
    out.layer(
        "serve.wire_us",
        wire_p50 - parse_ns * 1e-3 - compute_dist,
        "us",
    );
    let mixed = &ran[2].rung;
    out.layer(
        "serve.gen_late_us_p99",
        quantile(&mixed.late_us, 0.99),
        "us",
    );
    out.layer("serve.backlog_max", mixed.backlog_max as f64, "count");
    let hot: BTreeSet<(u32, u32)> = ran[0]
        .plan
        .iter()
        .filter_map(|p| match p.req {
            Req::Dist(u, v) => Some((u, v)),
            Req::Batch(_) => None,
        })
        .collect();
    out.note(format!(
        "serve-wire (traced): {} distinct hot pairs in {} s vs LRU {LRU_CAPACITY}; hot DIST wire p50 {wire_p50:.1} us",
        hot.len(),
        seg
    ));
    Ok(())
}
