//! A same-run speed reference for a shared machine.
//!
//! On a shared host the whole process runs faster or slower from one run
//! to the next, and every timed operation of a run moves together. The
//! calibration measures that speed with work that resembles the
//! workloads but uses no repository code: breadth-first searches over a
//! fixed random graph held in plain vectors. Samples are taken between the
//! timed operations, and each operation's duration is scaled by
//! `NOMINAL_S / c`, where `c` is the mean of the calibration samples taken
//! just before and just after it, so a slow spell of a few seconds is
//! cancelled as well as a slow run. The result reads as the time the
//! operation would take on a machine where the calibration takes
//! `NOMINAL_S`. Because the calibration is part of the benchmark, a change
//! to the repository cannot move it.

use std::time::Instant;

/// Calibration time on the reference machine, seconds.
pub const NOMINAL_S: f64 = 0.028;

/// Nodes of the calibration graph (m = 4n).
const NODES: usize = 1 << 16;
/// BFS sources per sample.
const SOURCES: u32 = 8;

/// The reference graph and the samples taken so far.
#[derive(Debug)]
pub struct Calibration {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    samples: Vec<f64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Builds the fixed reference graph: a random recursive tree plus
    /// uniform extra edges, 4n edges in all, as a CSR.
    pub fn new() -> Self {
        let mut state = 0x0C0F_FEE0_u64;
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(4 * NODES);
        for v in 1..NODES as u64 {
            edges.push(((splitmix(&mut state) % v) as u32, v as u32));
        }
        while edges.len() < 4 * NODES {
            let a = (splitmix(&mut state) % NODES as u64) as u32;
            let b = (splitmix(&mut state) % NODES as u64) as u32;
            if a != b {
                edges.push((a, b));
            }
        }
        let mut degree = vec![0u32; NODES + 1];
        for &(a, b) in &edges {
            degree[a as usize + 1] += 1;
            degree[b as usize + 1] += 1;
        }
        for i in 0..NODES {
            degree[i + 1] += degree[i];
        }
        let offsets = degree.clone();
        let mut fill = degree;
        let mut targets = vec![0u32; 2 * edges.len()];
        for &(a, b) in &edges {
            targets[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            targets[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        Calibration {
            offsets,
            targets,
            samples: Vec::new(),
        }
    }

    /// BFS from a few fixed sources; returns the nodes reached.
    fn work(&self) -> usize {
        let mut dist = vec![u32::MAX; NODES];
        let mut queue = Vec::with_capacity(NODES);
        let mut reached = 0usize;
        for s in 0..SOURCES {
            dist.fill(u32::MAX);
            queue.clear();
            let src = s * (NODES as u32 / SOURCES);
            dist[src as usize] = 0;
            queue.push(src);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                let du = dist[u];
                let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                for &v in &self.targets[lo..hi] {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = du + 1;
                        queue.push(v);
                    }
                }
            }
            reached += queue.len();
        }
        reached
    }

    /// Takes one single-thread sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(self.work());
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// The samples taken so far, seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Each duration of `t` at the reference speed: scaled by the nominal
    /// time over the mean of the calibration samples adjacent to it (left
    /// as measured when there are none).
    pub fn scaled(&self, t: &Timings) -> Vec<f64> {
        let samples = &self.samples;
        t.raw
            .iter()
            .zip(&t.marks)
            .map(|(&secs, &mark)| {
                let before = mark.checked_sub(1).and_then(|i| samples.get(i));
                let adjacent: Vec<f64> = before
                    .into_iter()
                    .chain(samples.get(mark))
                    .copied()
                    .collect();
                if adjacent.is_empty() {
                    secs
                } else {
                    secs * NOMINAL_S * adjacent.len() as f64 / adjacent.iter().sum::<f64>()
                }
            })
            .collect()
    }
}

/// Durations of one kind of operation, each tagged with how many
/// calibration samples had been taken before it.
#[derive(Debug, Default)]
pub struct Timings {
    raw: Vec<f64>,
    marks: Vec<usize>,
}

impl Timings {
    /// Records one duration, seconds.
    pub fn push(&mut self, cal: &Calibration, secs: f64) {
        self.raw.push(secs);
        self.marks.push(cal.samples.len());
    }

    /// The durations as measured.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_are_scaled_by_their_neighbouring_samples() {
        let mut cal = Calibration {
            offsets: vec![0],
            targets: Vec::new(),
            samples: Vec::new(),
        };
        let mut t = Timings::default();
        t.push(&cal, 1.0); // no calibration yet: left as measured
        cal.samples.push(NOMINAL_S * 2.0);
        t.push(&cal, 1.0); // only a sample before it
        cal.samples.push(NOMINAL_S * 4.0);
        let scaled = cal.scaled(&t);
        assert_eq!(scaled.len(), 2);
        assert!((scaled[0] - 0.5).abs() < 1e-12, "{scaled:?}");
        assert!((scaled[1] - 1.0 / 3.0).abs() < 1e-12, "{scaled:?}");
    }
}
