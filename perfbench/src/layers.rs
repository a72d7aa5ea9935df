//! Layer replays for the traced run.
//!
//! Each function times calls into one crate's public functions, inside
//! spans named after the per-layer metric they feed. They work on
//! copies of the run's state or on inputs of the same shape built from
//! the workload's config, never on the live run state, so a traced run
//! computes the same output bits as an untraced one.

use crate::trace::Recorder;
use pfdrl_core::{predict_day_into, EmsMethod, ForecastPhase, PredictDayWorkspace, SimConfig};
use pfdrl_data::{DayTrace, TraceGenerator, MINUTES_PER_DAY};
use pfdrl_drl::{DqnAgent, DqnConfig, Transition};
use pfdrl_env::{DeviceEnv, EnvConfig};
use pfdrl_fl::{
    snapshot_update, BroadcastBus, DflRound, LatencyModel, ModelUpdate, PayloadCodec, RoundParams,
};
use pfdrl_forecast::ForecastMethod;
use pfdrl_nn::{Layered, Lstm, LstmScratch, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Home-device pairs a replay visits at most (bounds replay time on
/// large fleets; the per-call figures do not depend on it).
const MAX_PAIRS: usize = 48;

/// The home-device pairs a replay visits: controllable devices of the
/// first homes, in order.
fn pairs(cfg: &SimConfig, gen: &TraceGenerator) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for home in 0..cfg.n_residences {
        let hh = gen.household(home as u64);
        for device in 0..cfg.devices_per_home() {
            if hh.devices[device].controllable && out.len() < MAX_PAIRS {
                out.push((home, device));
            }
        }
    }
    out
}

/// `pfdrl-data`, `pfdrl-forecast`, `pfdrl-nn`, `pfdrl-env` and
/// `pfdrl-drl` on one simulated `day` of the workload's fleet.
/// `forecast` must be a copy of the run's trained forecasters.
pub fn replay_day_layers(
    cfg: &SimConfig,
    forecast: &ForecastPhase,
    day: u64,
    rec: &mut Recorder,
    out: &mut Layer,
) {
    let gen = TraceGenerator::new(cfg.generator());
    let pairs = pairs(cfg, &gen);

    // pfdrl-data: one device-day trace per pair, twice (yesterday and
    // today feed the forecaster).
    let mut traces: Vec<(DayTrace, DayTrace)> = Vec::with_capacity(pairs.len());
    rec.span_n("data.day_trace", 2 * pairs.len() as u64, |_| {
        for &(home, device) in &pairs {
            let prev = gen.day_trace(home as u64, device, day - 1);
            let today = gen.day_trace(home as u64, device, day);
            traces.push((prev, today));
        }
    });
    out.insert(
        "data.day_trace_us",
        rec.median_per_call("data.day_trace") * 1e6,
    );

    // pfdrl-forecast: the day-ahead prediction of each pair.
    let mut ws = PredictDayWorkspace::default();
    let mut preds: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    rec.span_n("forecast.predict_day", pairs.len() as u64, |_| {
        for (i, &(home, device)) in pairs.iter().enumerate() {
            let scale = gen.household(home as u64).devices[device].on_watts;
            let (prev, today) = &traces[i];
            predict_day_into(
                cfg,
                forecast.models[home][device].as_ref(),
                prev,
                today,
                scale,
                &mut ws,
                &mut preds[i],
            );
        }
    });
    out.insert(
        "forecast.predict_day_ms",
        rec.median_per_call("forecast.predict_day") * 1e3,
    );

    // pfdrl-nn: the LSTM window kernel behind an LSTM forecaster, on a
    // network with the first forecaster's weights and a day of window
    // rows. Forecasters of other methods do not run this kernel.
    if cfg.forecast_method == ForecastMethod::Lstm {
        let model = forecast.models[pairs[0].0][pairs[0].1].as_ref();
        let mut net = Lstm::new(3, 24, 1, &mut StdRng::seed_from_u64(0));
        for i in 0..model.layer_count() {
            net.import_layer(i, &model.export_layer(i));
        }
        let window = cfg.window;
        let watts = &traces[0].1.watts;
        let mut inputs = Matrix::zeros(MINUTES_PER_DAY, window + 2);
        for t in 0..MINUTES_PER_DAY {
            let row = inputs.row_mut(t);
            for (k, x) in row[..window].iter_mut().enumerate() {
                *x = watts[(t + k) % MINUTES_PER_DAY] / 100.0;
            }
            let angle = 2.0 * std::f64::consts::PI * t as f64 / MINUTES_PER_DAY as f64;
            row[window] = angle.sin();
            row[window + 1] = angle.cos();
        }
        let mut scratch = LstmScratch::default();
        let reps = 8;
        rec.span_n("nn.lstm_infer_windows", reps, |_| {
            for _ in 0..reps {
                black_box(net.infer_windows(&inputs, window, &mut scratch));
            }
        });
        out.insert(
            "nn.lstm_infer_windows_us",
            rec.median_per_call("nn.lstm_infer_windows") * 1e6,
        );
    } else {
        out.insert("nn.lstm_infer_windows_us", 0.0);
    }

    // pfdrl-env: full device-day episodes of the first pair under a
    // fixed action cycle; the visited states feed the DQN replay below.
    let (home, device) = pairs[0];
    let spec = gen.household(home as u64).devices[device].clone();
    let env_cfg = EnvConfig {
        state_window: cfg.state_window,
    };
    let today = &traces[0].1;
    let mut env = DeviceEnv::new(
        spec,
        preds[0].clone(),
        today.watts.clone(),
        today.modes.clone(),
        env_cfg,
    );
    let episodes = 8u64;
    let steps_per_episode = (MINUTES_PER_DAY - cfg.state_window) as u64;
    let mut transitions = Vec::with_capacity(steps_per_episode as usize);
    let mut cur = Vec::new();
    let mut next = Vec::new();
    rec.span_n("env.step", episodes * steps_per_episode, |_| {
        for ep in 0..episodes {
            env.reset_into(&mut cur);
            let mut k = 0usize;
            loop {
                let action = pfdrl_data::Mode::ALL[k % 3];
                let (reward, done) = env.step_into(action, &mut next);
                if ep == 0 {
                    transitions.push(Transition {
                        state: cur.clone(),
                        action: k % 3,
                        reward,
                        next_state: (!done).then(|| next.clone()),
                    });
                }
                std::mem::swap(&mut cur, &mut next);
                k += 1;
                if done {
                    break;
                }
            }
        }
    });
    out.insert("env.step_ns", rec.median_per_call("env.step") * 1e9);

    // pfdrl-drl: act and train_step on an agent of the workload's Q-net
    // shape whose replay ring holds the episode above.
    let mut agent = DqnAgent::new(
        env_cfg.state_dim(),
        DqnConfig {
            seed: cfg.seed ^ 0x5EED,
            ..cfg.dqn.clone()
        },
    );
    for t in &transitions {
        agent.remember(t.clone());
    }
    let acts = transitions.len() as u64;
    // The greedy forward pass: what `act` runs once exploration has
    // decayed (a fresh agent would mostly draw random actions).
    rec.span_n("drl.act", acts, |_| {
        for t in &transitions {
            black_box(agent.act_greedy_ws(&t.state));
        }
    });
    out.insert("drl.act_us", rec.median_per_call("drl.act") * 1e6);
    let steps = 512u64;
    rec.span_n("drl.train_step", steps, |_| {
        for _ in 0..steps {
            black_box(agent.train_step());
        }
    });
    out.insert(
        "drl.train_step_us",
        rec.median_per_call("drl.train_step") * 1e6,
    );
}

/// `pfdrl-fl`: one PFDRL federation round over `agents` (a copy of the
/// run's agents) on a fresh bus with the workload's codec and
/// aggregation mode, plus the codec's encode/decode of one update.
pub fn replay_federation(
    cfg: &SimConfig,
    agents: &mut [Vec<DqnAgent>],
    rec: &mut Recorder,
    out: &mut Layer,
) {
    let n = agents.len();
    let bus = BroadcastBus::with_codec(n, LatencyModel::lan(), &cfg.fault, cfg.compression);
    let policy = cfg.fault.merge_policy();
    let mut engine = DflRound::new();
    let alpha = match EmsMethod::Pfdrl.drl_federation(cfg.alpha) {
        pfdrl_core::DrlFederation::LanAlpha(a) => Some(a),
        _ => None,
    };
    let (mut fast, mut total) = (0usize, 0usize);
    for round in 1..=3u64 {
        rec.span("fl.round", |_| {
            for device in 0..agents[0].len() {
                let mut col: Vec<&mut DqnAgent> =
                    agents.iter_mut().map(|h| &mut h[device]).collect();
                let o = engine.run(
                    &mut col,
                    &RoundParams {
                        bus: &bus,
                        round,
                        model_id: device as u64,
                        alpha,
                        policy: &policy,
                        mode: cfg.aggregation,
                        participants: None,
                    },
                );
                fast += o.fast_path_homes;
                total += o.fast_path_homes + o.fallback_homes;
            }
        });
    }
    let stats = bus.stats();
    out.insert("fl.round_ms", rec.median_per_call("fl.round") * 1e3);
    out.insert("fl.fast_path_frac", fast as f64 / total.max(1) as f64);
    out.insert("fl.wire_bytes_per_round", stats.bytes as f64 / 3.0);
    out.insert(
        "fl.logical_bytes_per_round",
        stats.logical_bytes as f64 / 3.0,
    );
    // A flat round has no shards, so no per-shard payload peak.
    out.insert("fl.peak_shard_bytes", 0.0);
    let update = snapshot_update(&agents[0][0], 0, 0, 0);
    replay_codec(&update, cfg.compression, rec, out);
}

/// Encode/decode of one model update under `codec`.
pub fn replay_codec(
    update: &ModelUpdate,
    codec: PayloadCodec,
    rec: &mut Recorder,
    out: &mut Layer,
) {
    let reps = 2000u64;
    let bytes = update.encode_with(codec);
    rec.span_n("fl.encode", reps, |_| {
        for _ in 0..reps {
            black_box(update.encode_with(codec));
        }
    });
    rec.span_n("fl.decode", reps, |_| {
        for _ in 0..reps {
            black_box(ModelUpdate::decode(&bytes).expect("update decodes"));
        }
    });
    out.insert("fl.encode_us", rec.median_per_call("fl.encode") * 1e6);
    out.insert("fl.decode_us", rec.median_per_call("fl.decode") * 1e6);
}
