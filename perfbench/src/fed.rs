//! `fed_10k`: `pfdrl-fl` alone. Repeated fault-free hierarchical rounds
//! over 10 000 homes in 32 round-robin shards under the int8 codec, on
//! a ~1k-parameter MLP per home. The timed unit is one round.

use crate::clock;
use crate::layers::replay_codec;
use crate::probe::Probe;
use crate::stats::{median, Digest};
use crate::trace::Recorder;
use crate::{Check, Outcome};
use pfdrl_fl::{
    snapshot_update, FaultConfig, HierParams, HierarchicalRound, LatencyModel, MergePolicy,
    PayloadCodec, ShardPlan,
};
use pfdrl_nn::{Activation, Layered, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOMES: usize = 10_000;
const SHARDS: usize = 32;
const CODEC: PayloadCodec = PayloadCodec::QuantizedI8 {
    per_layer_scale: true,
};
/// Rounds whose resulting model column is an output (the run goes on
/// until `--seconds` of rounds are measured). Sized so that `run_s`
/// spans several seconds of rounds.
const PREFIX_ROUNDS: u64 = 32;
const SETUP_REPS: usize = 3;

/// One small fixed-topology MLP per home, seeded per home.
fn fleet(seed: u64) -> Vec<Mlp> {
    (0..HOMES)
        .map(|home| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((home as u64) << 20));
            Mlp::new(
                &[12, 24, 24, 3],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            )
        })
        .collect()
}

fn engine() -> HierarchicalRound {
    HierarchicalRound::with_codec(
        ShardPlan::round_robin(HOMES, SHARDS),
        LatencyModel::lan(),
        &FaultConfig::default(),
        CODEC,
    )
}

fn round(engine: &mut HierarchicalRound, models: &mut [Mlp], round: u64) -> pfdrl_fl::RoundOutcome {
    let policy = MergePolicy::default();
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    engine.run(
        &mut col,
        &HierParams {
            round,
            model_id: 0,
            alpha: None,
            policy: &policy,
            participants: None,
        },
    )
}

fn column_digest(models: &[Mlp]) -> (u64, bool) {
    let mut d = Digest::default();
    let mut finite = true;
    for m in models {
        for layer in m.export_all() {
            finite &= layer.iter().all(|v| v.is_finite());
            d.f64s(&layer);
        }
    }
    (d.value(), finite)
}

pub fn run(seed: u64, seconds: f64, rec: &mut Recorder, probe: &mut Probe) -> Outcome {
    let mut out = Outcome {
        tail_pct: 90.0,
        ..Outcome::default()
    };

    // Set-up (fleet, shard engine, one warm-up round that sizes the
    // pools), repeated; the last repetition is the one that runs.
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let (built, t) = probe.time(|| {
            let mut models = rec.span("fl.setup", |_| fleet(seed));
            let mut eng = engine();
            let warm = rec.span("fl.warm_round", |_| round(&mut eng, &mut models, 0));
            (models, eng, warm)
        });
        out.setup_s.push(t.s());
        setup = Some(built);
    }
    let (mut models, mut eng, warm) = setup.expect("at least one set-up");
    let mut fast_ok = warm.fallback_homes == 0 && warm.fast_path_homes == HOMES;
    // The run: the last set-up and the prefix rounds.
    out.run_s = out.setup_s[SETUP_REPS - 1];

    let stats0 = eng.total_stats();
    let mut rounds_s = Vec::new();
    let mut rounds_cpu_s = 0.0;
    let mut prefix_digest = None;
    let (mut merges, mut fallbacks) = (0u64, 0u64);
    let mut r = 1u64;
    loop {
        let (o, t) = probe.time(|| rec.span("fl.round", |_| round(&mut eng, &mut models, r)));
        rounds_s.push(t.s());
        rounds_cpu_s += t.cpu_s;
        merges += (o.fast_path_homes + o.fallback_homes) as u64;
        fallbacks += o.fallback_homes as u64;
        fast_ok &= o.fallback_homes == 0 && o.fast_path_homes == HOMES;
        if r <= PREFIX_ROUNDS {
            out.run_s += t.s();
        }
        if r == PREFIX_ROUNDS {
            prefix_digest = Some(column_digest(&models));
        }
        if r >= PREFIX_ROUNDS && (rounds_cpu_s >= seconds || clock::wall_exhausted(seconds)) {
            break;
        }
        r += 1;
    }
    let stats = eng.total_stats();
    let rounds = rounds_s.len() as f64;

    out.units_ms = rounds_s.iter().map(|s| s * 1e3).collect();
    out.throughput = HOMES as f64 * rounds / rounds_s.iter().sum::<f64>();
    out.ops = merges;
    out.ops_failed = fallbacks;

    let (digest, _) = prefix_digest.expect("loop runs at least PREFIX_ROUNDS rounds");
    let (_, finite) = column_digest(&models);
    out.outputs.push(("model_digest", format!("{digest:016x}")));
    out.outputs
        .push(("prefix_rounds", PREFIX_ROUNDS.to_string()));
    out.checks.push(Check::new(
        "fast_path",
        fast_ok,
        format!("{fallbacks} fallback merges of {merges}"),
    ));
    out.checks.push(Check::new(
        "model_finite",
        finite,
        format!("{HOMES} models after {r} rounds"),
    ));
    let p50 = median(&mut out.units_ms);
    out.report.push(("round_ms_p50", p50, "ms"));
    out.report.push((
        "round_ms_p90",
        crate::stats::percentile(&mut out.units_ms, 90.0),
        "ms",
    ));

    if rec.enabled() {
        let layer = &mut out.layer;
        layer.insert("fl.round_ms", rec.median_per_call("fl.round") * 1e3);
        layer.insert(
            "fl.fast_path_frac",
            (merges - fallbacks) as f64 / merges as f64,
        );
        layer.insert(
            "fl.wire_bytes_per_round",
            (stats.bytes - stats0.bytes) as f64 / rounds,
        );
        layer.insert(
            "fl.logical_bytes_per_round",
            (stats.logical_bytes - stats0.logical_bytes) as f64 / rounds,
        );
        layer.insert("fl.peak_shard_bytes", eng.peak_shard_bytes() as f64);
        let update = snapshot_update(&models[0], 0, r, 0);
        replay_codec(&update, CODEC, rec, layer);
    }
    out
}
