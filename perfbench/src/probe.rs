//! Host speed probe.
//!
//! On a shared host the CPU time a fixed piece of work takes is not
//! fixed: while other tenants load the same physical core or memory
//! system, the same code took up to about twice the CPU time on the
//! reference machine, for minutes at a time, with no steal time to show
//! it. The probe times two fixed kernels owned by the benchmark, so
//! their cost moves only with the host, never with the program: an
//! arithmetic kernel on data in the first-level cache (core throughput)
//! and a strided walk over 64 MiB, larger than the last-level cache
//! (memory). Both moved with the workloads; a dependent floating-point
//! chain, tried as a third kernel, barely moved and was left out.
//!
//! The host speed is a fixed reference time over a sample's time: below
//! 1 on a slower or busier host. Every timed interval runs between two
//! samples ([`Probe::time`]), and its CPU time is scaled by the mean
//! speed they show, so figures read as times on a host of fixed speed.
//! The host changes within a run, so each interval is scaled by the
//! samples next to it. No sample runs inside a timed interval.

use crate::clock::CpuInstant;
use crate::stats::median;
use std::hint::black_box;

/// f64 words the memory walk covers: 64 MiB.
const MEMORY_WORDS: usize = 8 << 20;
/// f64 words of each operand of the vector kernel: 8 KiB, so both fit
/// in the first-level cache.
const VECTOR_WORDS: usize = 1024;
/// Passes of the vector kernel over its operands.
const VECTOR_PASSES: usize = 50_000;
/// Reference time of one sample (vector kernel + walk), ms. A fixed
/// scale: it sets the unit of the reported figures and does not change
/// how two runs compare.
const REFERENCE_MS: f64 = 20.0;
/// A sample taken less than this much CPU time ago still counts as
/// "now", s: back-to-back intervals share the sample between them.
const FRESH_S: f64 = 0.005;

/// A timed interval: its CPU time and the host speed around it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub cpu_s: f64,
    pub speed: f64,
}

impl Timed {
    /// Seconds scaled to the fixed host speed.
    pub fn s(self) -> f64 {
        self.cpu_s * self.speed
    }
}

pub struct Probe {
    buf: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    vector_ms: Vec<f64>,
    walk_ms: Vec<f64>,
    samples_ms: Vec<f64>,
    last: CpuInstant,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            buf: vec![1.0; MEMORY_WORDS],
            xs: vec![1.0; VECTOR_WORDS],
            ys: (0..VECTOR_WORDS).map(|i| i as f64 * 1e-3).collect(),
            vector_ms: Vec::new(),
            walk_ms: Vec::new(),
            samples_ms: Vec::new(),
            last: CpuInstant::now(),
        }
    }

    /// Times both kernels once.
    fn sample(&mut self) {
        let t = CpuInstant::now();
        for _ in 0..VECTOR_PASSES {
            for (x, y) in self.xs.iter_mut().zip(&self.ys) {
                *x = *x * 0.999 + *y;
            }
            black_box(&mut self.xs);
        }
        let vector_ms = t.elapsed_s() * 1e3;
        let t = CpuInstant::now();
        let mut sum = 0.0;
        for pass in 0..4 {
            let mut i = pass * 8;
            while i < self.buf.len() {
                self.buf[i] += 1.0;
                sum += self.buf[i];
                i += 16 + pass;
            }
        }
        black_box(sum);
        let walk_ms = t.elapsed_s() * 1e3;
        self.vector_ms.push(vector_ms);
        self.walk_ms.push(walk_ms);
        self.samples_ms.push(vector_ms + walk_ms);
        self.last = CpuInstant::now();
    }

    /// The host speed now, from the last sample if it was just taken,
    /// else from a new one.
    pub fn speed_now(&mut self) -> f64 {
        if self.samples_ms.is_empty() || self.last.elapsed_s() > FRESH_S {
            self.sample();
        }
        REFERENCE_MS / self.samples_ms[self.samples_ms.len() - 1]
    }

    /// Runs `f` between two samples: its CPU time, and the mean speed
    /// the samples before and after it show.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.speed_now();
        let t = CpuInstant::now();
        let out = f();
        let cpu_s = t.elapsed_s();
        let after = self.speed_now();
        let speed = (before + after) / 2.0;
        (out, Timed { cpu_s, speed })
    }

    /// Host speed over the whole run: the reference time over the
    /// median sample.
    pub fn speed(&self) -> f64 {
        REFERENCE_MS / median(&mut self.samples_ms.clone())
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median ms of the vector kernel and of the walk, as measured.
    pub fn parts_ms(&self) -> [f64; 2] {
        [&self.vector_ms, &self.walk_ms].map(|v| median(&mut v.clone()))
    }
}
