//! `serve_256`: the streaming engine (`pfdrl-serve`) as an open loop.
//!
//! 256 homes at test scale (2 devices, LR forecasters), two streamed
//! days (a priming day, then one served day), training on, default
//! `ServeConfig`. The priming day is history: it is due at once and
//! the engine loads it as fast as it pulls. Served-day record `j` is
//! due `j / RATE` after the session starts, and the benchmark's source
//! releases no record before its due time, whatever the engine is
//! doing. The benchmark's sink matches every decision to its record by
//! (minute, home); a decision is delivered when the engine flushes the
//! sink at the end of its chunk. Latency runs from the record's due
//! time to that flush, so stalls at chunk and day boundaries count.
//! Sessions repeat until `--seconds` of sessions are measured.
//!
//! The open loop runs on the benchmark's CPU-time clock (`clock.rs`):
//! due times, waits and deliveries are CPU times, so time the process
//! spends waiting for a core neither delays a record nor adds to a
//! latency. The source therefore waits by spinning on that clock; a
//! sleeping process uses no CPU time, and the clock would stand still.

use crate::clock::{self, CpuInstant};
use crate::layers::{replay_day_layers, replay_federation};
use crate::probe::Probe;
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::{Check, Outcome};
use pfdrl_core::{train_forecasters, EmsMethod, EmsState, ForecastPhase, SimConfig};
use pfdrl_data::{TraceGenerator, MINUTES_PER_DAY};
use pfdrl_serve::{
    generate_stream, DecisionSink, ServeConfig, ServeEngine, SinkStatus, TelemetrySource,
};
use std::cell::Cell;
use std::io;
use std::rc::Rc;

const HOMES: usize = 256;
/// Offered served-day load, records per second of scaled time. The
/// source then waits for about 60% of a session, so the latency shows
/// the engine's batching and stalls, not overload. Fixed, so every
/// commit is offered the same load. The source offers `RATE` times the
/// host speed (`probe.rs`) per CPU second: the same load relative to
/// what the host sustains.
const RATE: f64 = 75_000.0;
const SETUP_REPS: usize = 3;

/// The session clock shared by source and sink, on the CPU clock.
struct Clock {
    t0: Cell<Option<CpuInstant>>,
    /// When the source last handed a served-day record to the engine.
    last_pull: Cell<Option<CpuInstant>>,
    /// Records of the priming day, all due at the session start.
    priming: usize,
    /// Served-day records due per CPU second.
    rate: f64,
}

impl Clock {
    fn due_ns(&self, idx: usize) -> u64 {
        let t0 = self.t0.get().expect("first record starts the clock");
        let live = idx.saturating_sub(self.priming);
        t0.ns() + (live as f64 / self.rate * 1e9) as u64
    }
}

struct OpenLoopSource<'a> {
    lines: &'a [String],
    pos: usize,
    clock: Rc<Clock>,
    /// CPU time spent spinning until records were due, ns.
    wait_ns: u64,
    /// How late each served-day record was released, ms.
    lag_ms: Vec<f64>,
}

impl TelemetrySource for OpenLoopSource<'_> {
    fn next_line(&mut self, buf: &mut String) -> io::Result<bool> {
        buf.clear();
        let Some(line) = self.lines.get(self.pos) else {
            return Ok(false);
        };
        if self.clock.t0.get().is_none() {
            self.clock.t0.set(Some(CpuInstant::now()));
        }
        if self.pos >= self.clock.priming {
            let due = self.clock.due_ns(self.pos);
            let mut now = CpuInstant::now();
            let waited_from = now;
            while now.ns() < due {
                now = CpuInstant::now();
            }
            self.wait_ns += now.ns() - waited_from.ns();
            self.lag_ms.push(now.ns().saturating_sub(due) as f64 * 1e-6);
            self.clock.last_pull.set(Some(now));
        }
        buf.push_str(line);
        self.pos += 1;
        Ok(true)
    }
}

struct TimingSink {
    clock: Rc<Clock>,
    first_minute: u64,
    /// Decisions seen per record.
    counts: Vec<u8>,
    latency_ms: Vec<f64>,
    /// (chunk start, chunk end) of each chunk that emitted decisions:
    /// from the record that closed the chunk to the flush ending it.
    chunks: Vec<(CpuInstant, CpuInstant)>,
    /// Records of the decisions emitted since the last flush.
    pending: Vec<u32>,
    unmatched: u64,
}

/// Reads the leading `{"m":<minute>,"h":<home>` of a decision line.
fn minute_home(line: &str) -> Option<(u64, usize)> {
    let rest = line.strip_prefix("{\"m\":")?;
    let comma = rest.find(',')?;
    let minute = rest[..comma].parse().ok()?;
    let rest = rest[comma..].strip_prefix(",\"h\":")?;
    let end = rest.find(',')?;
    Some((minute, rest[..end].parse().ok()?))
}

impl DecisionSink for TimingSink {
    fn emit(&mut self, line: &str) -> io::Result<SinkStatus> {
        let idx = minute_home(line).and_then(|(m, h)| {
            let i = m.checked_sub(self.first_minute)? as usize * HOMES + h;
            (h < HOMES && i < self.counts.len()).then_some(i)
        });
        match idx {
            Some(i) => {
                self.counts[i] = self.counts[i].saturating_add(1);
                self.pending.push(i as u32);
            }
            None => self.unmatched += 1,
        }
        Ok(SinkStatus::Accepted)
    }

    /// Delivers the pending decisions.
    fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let now = CpuInstant::now();
        for i in self.pending.drain(..) {
            let due = self.clock.due_ns(i as usize);
            self.latency_ms
                .push(now.ns().saturating_sub(due) as f64 * 1e-6);
        }
        if let Some(start) = self.clock.last_pull.get() {
            self.chunks.push((start, now));
        }
        Ok(())
    }
}

fn config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tiny(seed);
    cfg.n_residences = HOMES;
    cfg.eval_days = 1;
    cfg
}

/// Decisions the engine owes each record: one per controllable device
/// for every served-day minute from the state window on, none on the
/// priming day.
fn expected_counts(cfg: &SimConfig, records: usize) -> Vec<u8> {
    let gen = TraceGenerator::new(cfg.generator());
    let controllable: Vec<u8> = (0..HOMES)
        .map(|h| {
            let hh = gen.household(h as u64);
            hh.devices.iter().filter(|d| d.controllable).count() as u8
        })
        .collect();
    (0..records)
        .map(|i| {
            let minute = i / HOMES;
            let served_day = minute >= MINUTES_PER_DAY;
            let minute_of_day = minute % MINUTES_PER_DAY;
            if served_day && minute_of_day >= cfg.state_window {
                controllable[i % HOMES]
            } else {
                0
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, rec: &mut Recorder, probe: &mut Probe) -> Outcome {
    let cfg = config(seed);
    cfg.validate();
    let method = EmsMethod::Pfdrl;
    let mut out = Outcome {
        tail_pct: 99.0,
        ..Outcome::default()
    };

    // Set-up: forecasters and the stream, repeated.
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let (built, t) = probe.time(|| {
            let forecast = rec.span("forecast.train", |_| train_forecasters(&cfg, method));
            let mut lines = Vec::new();
            rec.span("serve.stream", |_| {
                generate_stream(&cfg, cfg.eval_start_day - 1, cfg.eval_days + 1, &mut lines)
            });
            (forecast, lines)
        });
        out.setup_s.push(t.s());
        setup = Some(built);
    }
    let (forecast, lines) = setup.expect("at least one set-up");
    // The run: the last set-up and the first session.
    out.run_s = out.setup_s[SETUP_REPS - 1];
    let first_minute = (cfg.eval_start_day - 1) * MINUTES_PER_DAY as u64;
    let expected = expected_counts(&cfg, lines.len());
    let expected_total: u64 = expected.iter().map(|&c| c as u64).sum();
    let forecast_state = forecast.export_state();

    let mut sessions_cpu_s = 0.0;
    let mut sessions_s = 0.0;
    let mut busy_s = 0.0;
    let mut wait_s = 0.0;
    let mut decisions = 0u64;
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut lag_ms: Vec<f64> = Vec::new();
    let mut chunk_ms: Vec<f64> = Vec::new();
    let (mut max_queue, mut shed, mut records) = (0u64, 0u64, 0u64);
    let mut results: Vec<(u64, f64)> = Vec::new();
    let mut counts_ok = true;
    let mut unmatched = 0u64;
    while results.is_empty() || (sessions_cpu_s < seconds && !clock::wall_exhausted(seconds)) {
        let copy = ForecastPhase::from_state(&cfg, &forecast_state).expect("forecast copies");
        let mut engine = ServeEngine::new(cfg.clone(), ServeConfig::default(), method, copy, None);
        // The session runs between two probe samples; the first also
        // sets the offered rate per CPU second.
        let speed_before = probe.speed_now();
        let clock = Rc::new(Clock {
            t0: Cell::new(None),
            last_pull: Cell::new(None),
            priming: HOMES * MINUTES_PER_DAY,
            rate: RATE * speed_before,
        });
        let mut source = OpenLoopSource {
            lines: &lines,
            pos: 0,
            clock: clock.clone(),
            wait_ns: 0,
            lag_ms: Vec::with_capacity(lines.len()),
        };
        let mut sink = TimingSink {
            clock,
            first_minute,
            counts: vec![0; lines.len()],
            latency_ms: Vec::with_capacity(expected_total as usize),
            chunks: Vec::new(),
            pending: Vec::new(),
            unmatched: 0,
        };
        let t = CpuInstant::now();
        let report = rec.span("serve.session", |rec| {
            let report = engine.run(&mut source, &mut sink);
            for &(start, end) in &sink.chunks {
                rec.record("serve.chunk", start, end);
            }
            report
        });
        let session_cpu_s = t.elapsed_s();
        let speed = (speed_before + probe.speed_now()) / 2.0;
        let report = match report {
            Ok(r) => r,
            Err(e) => panic!("in-memory serve session failed: {e}"),
        };
        let session_wait_s = source.wait_ns as f64 * 1e-9;
        sessions_cpu_s += session_cpu_s;
        sessions_s += session_cpu_s * speed;
        wait_s += session_wait_s * speed;
        busy_s += (session_cpu_s - session_wait_s) * speed;
        decisions += report.decisions;
        counts_ok &= sink.counts == expected;
        unmatched += sink.unmatched;
        latency_ms.extend(sink.latency_ms.iter().map(|ms| ms * speed));
        lag_ms.extend_from_slice(&source.lag_ms);
        chunk_ms.extend(
            sink.chunks
                .iter()
                .map(|(s, e)| (e.ns() - s.ns()) as f64 * 1e-6),
        );
        max_queue = max_queue.max(report.max_queue_len);
        let c = report.counters;
        shed += c.shed_stale
            + c.shed_out_of_span
            + c.shed_unknown_home
            + c.shed_malformed
            + c.rejected_backpressure;
        records += lines.len() as u64;
        results.push((report.decisions, report.final_saved_fraction));
        if results.len() == 1 {
            out.run_s += session_cpu_s * speed;
        }
    }

    let (first_decisions, first_saved) = results[0];
    out.units_ms = latency_ms;
    out.throughput = decisions as f64 / busy_s;
    out.ops = records;
    out.ops_failed = shed;
    out.outputs.push(("decisions", first_decisions.to_string()));
    out.outputs
        .push(("saved_fraction", format!("{first_saved:?}")));
    out.checks.push(Check::new(
        "decisions_per_record",
        counts_ok && unmatched == 0 && first_decisions == expected_total,
        format!("{first_decisions} decisions, {expected_total} owed, {unmatched} unmatched"),
    ));
    out.checks.push(Check::new(
        "sessions_identical",
        results
            .iter()
            .all(|&(d, s)| d == first_decisions && s.to_bits() == first_saved.to_bits()),
        format!("{} sessions", results.len()),
    ));
    let p50 = median(&mut out.units_ms);
    out.report.push(("serve_latency_p50_ms", p50, "ms"));
    out.report.push((
        "serve_latency_p99_ms",
        percentile(&mut out.units_ms, 99.0),
        "ms",
    ));
    out.report
        .push(("serve_capacity_dps", out.throughput, "1/s"));
    out.report.push(("saved_fraction", first_saved, "frac"));
    out.report.push(("source_wait_s", wait_s, "s"));

    if rec.enabled() {
        let layer = &mut out.layer;
        layer.insert("forecast.train_s", rec.median_per_call("forecast.train"));
        layer.insert("serve.chunk_busy_ms", median(&mut chunk_ms));
        layer.insert("serve.source_wait_frac", wait_s / sessions_s);
        layer.insert("serve.generator_lag_ms", percentile(&mut lag_ms, 99.0));
        layer.insert("serve.max_queue_len", max_queue as f64);
        layer.insert("serve.shed", shed as f64);
        // Inner layers on equivalent inputs: the engine owns its live
        // agents, so DQN, env and federation replays use fresh agents
        // of the same shapes; forecasters are copies.
        let fresh = rec.span("core.fresh", |_| EmsState::fresh(&cfg));
        layer.insert("core.fresh_s", rec.median_per_call("core.fresh"));
        let copy = ForecastPhase::from_state(&cfg, &forecast_state).expect("forecast copies");
        replay_day_layers(&cfg, &copy, cfg.eval_start_day, rec, layer);
        let mut agents = fresh.agents;
        replay_federation(&cfg, &mut agents, rec, layer);
    }
    out
}
