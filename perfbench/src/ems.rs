//! The two EMS workloads: `ems_repro` and `fleet_669`.
//!
//! Set-up trains the forecasters and builds the day-zero state. The
//! timed units are simulated days (`EmsState::advance_day`). After a
//! fixed prefix of days the run captures, encodes, decodes and restores
//! the day-boundary snapshot in memory and checks that the restored
//! state re-encodes to the same bytes; then it runs further steady days
//! until `--seconds` of days have been measured (CPU seconds, see
//! `clock.rs`). Outputs are read from the prefix only, so they do not
//! depend on machine speed.

use crate::alloc::count_allocations;
use crate::clock::{self, CpuInstant};
use crate::layers::{replay_day_layers, replay_federation};
use crate::probe::Probe;
use crate::stats::{median, Digest};
use crate::trace::Recorder;
use crate::{Check, Outcome};
use pfdrl_core::{
    train_forecasters, AggregationMode, CheckpointPolicy, EmsMethod, EmsState, ForecastPhase,
    HealthPolicy, Precision, SimConfig, SupervisionPolicy,
};
use pfdrl_data::dataset::TargetTransform;
use pfdrl_data::{DeviceType, SensorFaultConfig};
use pfdrl_drl::DqnConfig;
use pfdrl_fl::{FaultConfig, PayloadCodec};
use pfdrl_forecast::{ForecastMethod, TrainConfig};
use pfdrl_store::RunSnapshot;

/// The repository's bit-identity canary: the first evaluated day of the
/// reproduction-scale run at seed 42 (`bench_ems_config`).
const CANARY_SEED: u64 = 42;
const CANARY_SAVED_FRACTION: f64 = 0.39476153139803727;

/// Cap on simulated days; a run stops earlier once `--seconds` of days
/// are measured.
const MAX_DAYS: u64 = 40;

#[derive(Clone, Copy, PartialEq)]
pub enum Fleet {
    /// Reproduction scale: 10 homes x 3 devices, LSTM forecasters,
    /// 8x16 Q-nets, PerHome PFDRL federation, alpha = 6.
    Repro,
    /// The paper's 669-home fleet at test scale: 1 device, LR
    /// forecaster, 3x12 Q-nets, flat SharedSum, raw codec.
    Fleet669,
}

struct Plan {
    cfg: SimConfig,
    /// Set-up repetitions (median reported).
    setup_reps: usize,
    /// Days before the first steady day (replay rings filling).
    warm_days: u64,
    /// Days run before the snapshot round trip; outputs come from these.
    prefix_days: u64,
}

fn plan(fleet: Fleet, seed: u64) -> Plan {
    match fleet {
        Fleet::Repro => {
            let mut dqn = DqnConfig::slim(seed);
            dqn.hidden_width = 16;
            dqn.batch = 24;
            dqn.warmup = 48;
            let cfg = SimConfig {
                seed,
                n_residences: 10,
                devices: vec![
                    DeviceType::Tv,
                    DeviceType::GameConsole,
                    DeviceType::SetTopBox,
                ],
                train_days: 2,
                eval_days: MAX_DAYS,
                eval_start_day: 2,
                window: 16,
                horizon: 15,
                stride: 9,
                transform: TargetTransform::default(),
                forecast_method: ForecastMethod::Lstm,
                train: TrainConfig {
                    lr: 0.02,
                    max_epochs: 14,
                    ..TrainConfig::with_seed(seed)
                },
                beta_hours: 12.0,
                gamma_hours: 12.0,
                alpha: 6,
                state_window: 4,
                dqn,
                train_every: 6,
                fault: FaultConfig::default(),
                checkpoint: CheckpointPolicy::default(),
                aggregation: AggregationMode::PerHome,
                max_shard_bytes: 0,
                sensor_fault: SensorFaultConfig::default(),
                health: HealthPolicy::default(),
                supervision: SupervisionPolicy::default(),
                precision: Precision::F64,
                compression: PayloadCodec::Raw,
            };
            Plan {
                cfg,
                setup_reps: 3,
                warm_days: 2,
                prefix_days: 4,
            }
        }
        Fleet::Fleet669 => {
            let mut cfg = SimConfig::tiny(seed);
            cfg.n_residences = 669;
            cfg.devices = vec![DeviceType::Tv];
            cfg.eval_days = MAX_DAYS;
            cfg.aggregation = AggregationMode::SharedSum;
            Plan {
                cfg,
                setup_reps: 3,
                warm_days: 1,
                prefix_days: 2,
            }
        }
    }
}

/// Mean over the last third of `days` (the runner's converged saved
/// fraction).
fn converged(days: &[f64]) -> f64 {
    let tail = days.len().div_ceil(3);
    let slice = &days[days.len() - tail..];
    slice.iter().sum::<f64>() / slice.len() as f64
}

fn grad_steps(state: &EmsState) -> u64 {
    state.agents.iter().flatten().map(|a| a.grad_steps()).sum()
}

pub fn run(
    fleet: Fleet,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    probe: &mut Probe,
) -> Outcome {
    let Plan {
        cfg,
        setup_reps,
        warm_days,
        prefix_days,
    } = plan(fleet, seed);
    cfg.validate();
    let method = EmsMethod::Pfdrl;
    let mut out = Outcome {
        tail_pct: 90.0,
        ..Outcome::default()
    };

    // Set-up, repeated; the last repetition is the one that runs.
    let mut setup: Option<(ForecastPhase, EmsState)> = None;
    for _ in 0..setup_reps {
        drop(setup.take());
        let (phase, t) = probe.time(|| {
            let forecast = rec.span("forecast.train", |_| train_forecasters(&cfg, method));
            let state = rec.span("core.fresh", |_| EmsState::fresh(&cfg));
            (forecast, state)
        });
        out.setup_s.push(t.s());
        setup = Some(phase);
    }
    let (forecast, mut state) = setup.expect("at least one set-up");
    // The run: the last set-up, the prefix days and the round trip.
    out.run_s = out.setup_s[setup_reps - 1];

    // Days: the prefix, the snapshot round trip, then steady days until
    // `seconds` of simulated days have run.
    let mut days_s: Vec<f64> = Vec::new();
    let mut day_grad_steps: Vec<u64> = Vec::new();
    let mut steady_allocs = None;
    let mut snapshot = None;
    let mut days_cpu_s = 0.0;
    for day in 0..MAX_DAYS {
        if day == prefix_days {
            let ((digest, checkpoint_s, restore_s, restored), t) =
                probe.time(|| round_trip(&cfg, method, &forecast, &state, rec, &mut out));
            out.run_s += t.s();
            snapshot = Some((digest, checkpoint_s * t.speed, restore_s * t.speed));
            // The federation replay works on the restored copy's agents;
            // the copy is dropped before the remaining days run.
            if rec.enabled() {
                let mut agents = restored.unwrap_or_else(|| EmsState::fresh(&cfg)).agents;
                replay_federation(&cfg, &mut agents, rec, &mut out.layer);
            }
        }
        let steps_before = grad_steps(&state);
        let ((), t) = probe.time(|| {
            if rec.enabled() && day == warm_days {
                let ((), allocs) = count_allocations(|| {
                    rec.span("core.day", |_| state.advance_day(&cfg, method, &forecast))
                });
                steady_allocs = Some(allocs);
            } else {
                rec.span("core.day", |_| state.advance_day(&cfg, method, &forecast));
            }
        });
        days_cpu_s += t.cpu_s;
        if day < prefix_days {
            out.run_s += t.s();
        }
        if day >= warm_days {
            days_s.push(t.s());
            day_grad_steps.push(grad_steps(&state) - steps_before);
        }
        if day >= prefix_days && (days_cpu_s >= seconds || clock::wall_exhausted(seconds)) {
            break;
        }
    }

    let homes = cfg.n_residences as f64;
    out.units_ms = days_s.iter().map(|s| s * 1e3).collect();
    out.throughput = homes * days_s.len() as f64 / days_s.iter().sum::<f64>();

    // Outputs: the prefix days' saved fractions and the snapshot bytes.
    let prefix = &state.daily_saved_fraction[..prefix_days as usize];
    let saved = converged(prefix);
    let mut digest = Digest::default();
    digest.f64s(prefix);
    let (snap_digest, checkpoint_s, restore_s) = snapshot.expect("prefix is shorter than MAX_DAYS");
    digest.word(snap_digest);
    out.outputs.push(("saved_fraction", format!("{saved:?}")));
    out.outputs.push(("prefix_days", prefix_days.to_string()));
    out.outputs
        .push(("outputs_digest", format!("{:016x}", digest.value())));
    out.report.push(("saved_fraction", saved, "frac"));
    out.report.push(("home_days_per_s", out.throughput, "1/s"));
    out.report.push(("checkpoint_s", checkpoint_s, "s"));
    out.report.push(("restore_s", restore_s, "s"));
    if fleet == Fleet::Repro && seed == CANARY_SEED {
        let day0 = state.daily_saved_fraction[0];
        out.checks.push(Check::new(
            "canary",
            day0.to_bits() == CANARY_SAVED_FRACTION.to_bits(),
            format!("first-day saved fraction {day0:?}, canary {CANARY_SAVED_FRACTION:?}"),
        ));
    }
    let finite = state.daily_saved_fraction.iter().all(|f| f.is_finite());
    out.checks.push(Check::new(
        "saved_fraction_finite",
        finite,
        format!("{} days", state.daily_saved_fraction.len()),
    ));

    if rec.enabled() {
        let layer = &mut out.layer;
        layer.insert("forecast.train_s", rec.median_per_call("forecast.train"));
        layer.insert("core.fresh_s", rec.median_per_call("core.fresh"));
        let mut steps: Vec<f64> = day_grad_steps.iter().map(|&s| s as f64).collect();
        layer.insert("drl.train_steps_per_day", median(&mut steps));
        layer.insert(
            "core.steady_day_allocs",
            steady_allocs.expect("traced run counts one steady day") as f64,
        );
        for (span, metric) in [
            ("store.capture", "store.capture_s"),
            ("store.encode", "store.encode_s"),
            ("store.decode", "store.decode_s"),
            ("store.restore", "store.restore_s"),
        ] {
            layer.insert(metric, rec.median_per_call(span));
        }
        // Inner layers, replayed on forecasters rebuilt from their
        // exported weights.
        let copy = ForecastPhase::from_state(&cfg, &forecast.export_state())
            .expect("forecast state round-trips");
        let day = cfg.eval_start_day + prefix_days;
        replay_day_layers(&cfg, &copy, day, rec, &mut out.layer);
    }
    out
}

/// Captures, encodes, decodes and restores the day-boundary snapshot,
/// checks that the restored state re-encodes to the same bytes, and
/// returns (digest of the bytes, checkpoint s, restore s, the restored
/// copy if it restored).
fn round_trip(
    cfg: &SimConfig,
    method: EmsMethod,
    forecast: &ForecastPhase,
    state: &EmsState,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (u64, f64, f64, Option<EmsState>) {
    // The forecast section carries an informational training wall time;
    // zero it so the snapshot bytes are a function of the seed alone.
    let forecast_state = || {
        let mut fs = forecast.export_state();
        fs.train_wall_s = 0.0;
        fs
    };
    let t = CpuInstant::now();
    let snap = rec.span("store.capture", |_| {
        state.to_snapshot(cfg, method, forecast_state())
    });
    let bytes = rec.span("store.encode", |_| snap.encode());
    let checkpoint_s = t.elapsed_s();
    drop(snap);
    // Keep only a digest of the bytes, so at most two snapshot-sized
    // buffers are resident besides the live state.
    let digest = |bytes: &[u8]| {
        let mut d = Digest::default();
        d.bytes(bytes);
        d.value()
    };
    let (len, want) = (bytes.len(), digest(&bytes));
    let t = CpuInstant::now();
    let decoded = rec.span("store.decode", |_| RunSnapshot::decode(&bytes));
    drop(bytes);
    let restored =
        decoded.and_then(|snap| rec.span("store.restore", |_| EmsState::from_snapshot(cfg, &snap)));
    let restore_s = t.elapsed_s();
    let (ok, restored) = match restored {
        Ok(r) => {
            let again = r.to_snapshot(cfg, method, forecast_state()).encode();
            (again.len() == len && digest(&again) == want, Some(r))
        }
        Err(_) => (false, None),
    };
    out.checks.push(Check::new(
        "snapshot_round_trip",
        ok,
        format!("{len} bytes"),
    ));
    out.layer.insert("store.snapshot_bytes", len as f64);
    (want, checkpoint_s, restore_s, restored)
}
