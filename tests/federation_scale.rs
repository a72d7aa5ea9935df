//! Acceptance properties of the parallel federation round engine
//! (`DflRound`): under *any* adversarial fault plan the default
//! `PerHome` mode must stay byte-identical to the retained sequential
//! reference — same model bits, same bus statistics — and the O(N)
//! `SharedSum` fast path must be numerically equivalent on fault-free
//! rounds while remaining run-to-run byte-deterministic. A quiet bus
//! settles a round in closed form instead of fanning payloads out
//! through the mailboxes; that shortcut must be invisible — bit for bit
//! the mailbox path — and must never engage when something could
//! perturb a delivery.

use pfdrl::fl::{
    dfl_round_reference, snapshot_update, AggregationMode, BroadcastBus, DflRound, FaultConfig,
    HierParams, HierarchicalRound, LatencyModel, MergePolicy, ModelUpdate, PayloadCodec,
    RoundOutcome, RoundParams, ShardPlan,
};
use pfdrl::nn::{Activation, Layered, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet(n: usize, seed: u64) -> Vec<Mlp> {
    (0..n)
        .map(|home| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add((home as u64) << 8));
            Mlp::new(
                &[5, 9, 9, 3],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            )
        })
        .collect()
}

/// Every parameter of every model, as exact bit patterns.
fn bits(models: &[Mlp]) -> Vec<u64> {
    models
        .iter()
        .flat_map(|m| {
            (0..m.layer_count())
                .flat_map(|i| m.export_layer(i).into_iter().map(f64::to_bits))
                .collect::<Vec<u64>>()
        })
        .collect()
}

/// One flat round with an optional participation mask.
#[allow(clippy::too_many_arguments)]
fn run_engine(
    models: &mut [Mlp],
    engine: &mut DflRound,
    bus: &BroadcastBus,
    round: u64,
    alpha: Option<usize>,
    policy: &MergePolicy,
    mode: AggregationMode,
    participants: Option<&[bool]>,
) -> RoundOutcome {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    engine.run(
        &mut col,
        &RoundParams {
            bus,
            round,
            model_id: 0,
            alpha,
            policy,
            mode,
            participants,
        },
    )
}

fn run_hier(
    models: &mut [Mlp],
    engine: &mut HierarchicalRound,
    round: u64,
    alpha: Option<usize>,
    policy: &MergePolicy,
) {
    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
    let _ = engine.run(
        &mut col,
        &HierParams {
            round,
            model_id: 0,
            alpha,
            policy,
            participants: None,
        },
    );
}

/// Queues `update` in receiver `home`'s mailbox without charging any
/// traffic, so the bus fails the closed-form gate. `restore_state`
/// appends the given queues to the live ones and rewrites the stats
/// with the bus's own.
fn queue_quietly(bus: &BroadcastBus, home: usize, update: ModelUpdate) {
    let mut state = bus.export_state();
    state.mailboxes.iter_mut().for_each(Vec::clear);
    state.mailboxes[home].push(update);
    bus.restore_state(&state).expect("state restores");
}

/// An update for another model: the keyed drains of a model-0 round
/// discard it, so it changes nothing but the path the round takes.
fn other_model() -> ModelUpdate {
    ModelUpdate {
        sender: 0,
        round: 0,
        model_id: 99,
        layers: Vec::new(),
    }
}

proptest! {
    /// The parallel engine in `PerHome` mode is byte-identical to the
    /// sequential reference under arbitrary chaos: loss, corruption,
    /// stragglers (whose parked updates cross round boundaries), churn,
    /// full or base-layer (`alpha`) exchange.
    #[test]
    fn per_home_engine_matches_sequential_reference_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..7,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let policy = fault.merge_policy();

        let mut a = fleet(n, seed ^ 0x5EED);
        let mut b = fleet(n, seed ^ 0x5EED);
        prop_assert_eq!(bits(&a), bits(&b));

        let bus_a = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let bus_b = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut engine = DflRound::new();
        for round in 1..=4u64 {
            run_engine(&mut a, &mut engine, &bus_a, round, alpha, &policy,
                       AggregationMode::PerHome, None);
            let mut refs: Vec<&mut Mlp> = b.iter_mut().collect();
            dfl_round_reference(&mut refs, &bus_b, round, 0, alpha, &policy);
            prop_assert!(
                bits(&a) == bits(&b),
                "round {} diverged (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
        prop_assert_eq!(bus_a.stats(), bus_b.stats());
    }

    /// `SharedSum` on fault-free rounds lands within float-reassociation
    /// tolerance of `PerHome`, and two independent `SharedSum` runs of
    /// the same configuration are byte-identical (the reduction tree is
    /// fixed by fleet size, never by thread count).
    #[test]
    fn shared_sum_is_equivalent_and_deterministic(
        seed in 0u64..10_000,
        n in 2usize..10,
    ) {
        let policy = MergePolicy::default();
        let mut per_home = fleet(n, seed);
        let mut shared = fleet(n, seed);
        let mut shared2 = fleet(n, seed);
        let mut engine = DflRound::new();
        for round in 1..=2u64 {
            for (models, mode) in [
                (&mut per_home, AggregationMode::PerHome),
                (&mut shared, AggregationMode::SharedSum),
                (&mut shared2, AggregationMode::SharedSum),
            ] {
                let bus = BroadcastBus::new(n, LatencyModel::lan());
                run_engine(models, &mut engine, &bus, round, Some(2), &policy, mode, None);
            }
        }
        prop_assert_eq!(bits(&shared), bits(&shared2));
        for (x, y) in bits(&per_home).iter().zip(bits(&shared).iter()) {
            let (x, y) = (f64::from_bits(*x), f64::from_bits(*y));
            prop_assert!(
                (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                "per-home {} vs shared {} (seed {}, n {})",
                x, y, seed, n
            );
        }
    }

    /// The flat-oracle property of the hierarchy: a single-shard
    /// `HierarchicalRound` is byte-identical to the flat `SharedSum`
    /// engine under *any* chaos plan — same model bits after every
    /// round, same traffic statistics (the aggregate-of-aggregates
    /// merge is `mem::take` at K=1, zero re-association; the synthetic
    /// aggregator uplink is only charged when K>1).
    #[test]
    fn single_shard_hierarchical_is_bitwise_flat_shared_sum(
        seed in 0u64..10_000,
        n in 2usize..10,
        chaos in 0.0f64..0.6,
        alpha_pick in 0usize..2,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        let policy = fault.merge_policy();
        let mut flat = fleet(n, seed ^ 0xF1A7);
        let mut hier = fleet(n, seed ^ 0xF1A7);
        let bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &fault);
        let mut flat_engine = DflRound::new();
        let mut hier_engine = HierarchicalRound::new(
            ShardPlan::round_robin(n, 1), LatencyModel::lan(), &fault);
        for round in 1..=4u64 {
            run_engine(&mut flat, &mut flat_engine, &bus, round, alpha, &policy,
                       AggregationMode::SharedSum, None);
            run_hier(&mut hier, &mut hier_engine, round, alpha, &policy);
            prop_assert!(
                bits(&flat) == bits(&hier),
                "round {} diverged from the flat oracle (seed {}, n {}, chaos {:.2}, alpha {:?})",
                round, seed, n, chaos, alpha
            );
        }
        prop_assert_eq!(hier_engine.total_stats(), bus.stats());
    }

    /// Multi-shard rounds are run-to-run byte-deterministic and
    /// invariant to the order shards are presented in: a plan built
    /// from scrambled member lists canonicalizes to the same partition
    /// and replays the same bits and the same exported engine state.
    #[test]
    fn multi_shard_hierarchical_is_deterministic_and_shard_order_invariant(
        seed in 0u64..10_000,
        n in 4usize..12,
        shards in 2usize..5,
        chaos in 0.0f64..0.5,
    ) {
        let fault = FaultConfig::chaos(seed, chaos);
        let policy = fault.merge_policy();
        let plan = ShardPlan::round_robin(n, shards);
        let mut scrambled: Vec<Vec<usize>> = plan.members().to_vec();
        let k = scrambled.len();
        scrambled.rotate_left(seed as usize % k);
        for members in &mut scrambled {
            members.reverse();
        }
        let scrambled_plan = ShardPlan::from_members(scrambled);
        prop_assert_eq!(&scrambled_plan, &plan);

        let mut a = fleet(n, seed ^ 0x0DE8);
        let mut b = fleet(n, seed ^ 0x0DE8);
        let mut ea = HierarchicalRound::new(plan, LatencyModel::lan(), &fault);
        let mut eb = HierarchicalRound::new(scrambled_plan, LatencyModel::lan(), &fault);
        for round in 1..=4u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
        }
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert_eq!(ea.export_state(), eb.export_state());
    }

    /// Chaos fault plans replay bit-identically per seed across
    /// independent multi-shard engines: after every round — including
    /// rounds where straggler deliveries are still parked in per-shard
    /// queues — both the model bits and the full exported engine state
    /// (per-shard counters, bus state, parked updates) are equal.
    #[test]
    fn chaos_fault_plans_replay_bit_identically_per_seed(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in 2usize..4,
    ) {
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let mut a = fleet(n, seed ^ 0xC4A0);
        let mut b = fleet(n, seed ^ 0xC4A0);
        let mut ea = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        let mut eb = HierarchicalRound::new(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(ea.export_state(), eb.export_state());
        }
    }

    /// Compression × chaos: a seeded fault plan replays bit-identically
    /// in every codec mode — the compressed payloads, the fault fates
    /// acting on them, and the merged model bits are all pure functions
    /// of the seed. Covers single-shard and multi-shard topologies.
    #[test]
    fn compressed_chaos_replays_bit_identically_per_seed_in_every_codec(
        seed in 0u64..10_000,
        n in 4usize..10,
        shards in 1usize..4,
        codec_pick in 0usize..3,
    ) {
        let codec = [
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::QuantizedI8 { per_layer_scale: false },
            PayloadCodec::TopK { fraction: 0.2 },
        ][codec_pick];
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let mut a = fleet(n, seed ^ 0xC0DEC);
        let mut b = fleet(n, seed ^ 0xC0DEC);
        let mut ea = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        let mut eb = HierarchicalRound::with_codec(
            ShardPlan::round_robin(n, shards), LatencyModel::lan(), &fault, codec);
        for round in 1..=5u64 {
            run_hier(&mut a, &mut ea, round, None, &policy);
            run_hier(&mut b, &mut eb, round, None, &policy);
            prop_assert!(
                bits(&a) == bits(&b),
                "round {} diverged (seed {}, n {}, shards {}, codec {})",
                round, seed, n, shards, codec.label()
            );
            prop_assert_eq!(ea.export_state(), eb.export_state());
        }
        // Compression really happened: wire bytes strictly below the
        // logical (pre-compression) bytes whenever anything was sent.
        let stats = ea.total_stats();
        if stats.logical_bytes > 0 {
            prop_assert!(stats.bytes < stats.logical_bytes);
        }
    }

    /// A corrupted *compressed* payload demotes the receiver to the
    /// validated per-home fallback exactly as a corrupted raw payload
    /// does: fault fates are pure per-edge hashes, independent of the
    /// payload bytes, so the fast-path/fallback split per round must
    /// be identical between Raw and every compressed codec on the same
    /// seed.
    #[test]
    fn corruption_demotes_compressed_payloads_exactly_as_raw(
        seed in 0u64..10_000,
        n in 3usize..8,
    ) {
        let fault = FaultConfig::chaos(seed, 0.5);
        let policy = fault.merge_policy();
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::TopK { fraction: 0.3 },
        ];
        let mut splits: Vec<Vec<(usize, usize)>> = Vec::new();
        for codec in codecs {
            let mut models = fleet(n, seed ^ 0xDE40);
            let bus = BroadcastBus::with_codec(n, LatencyModel::lan(), &fault, codec);
            let mut engine = DflRound::new();
            let mut per_round = Vec::new();
            for round in 1..=4u64 {
                let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
                let outcome = engine.run(
                    &mut col,
                    &RoundParams {
                        bus: &bus,
                        round,
                        model_id: 0,
                        alpha: None,
                        policy: &policy,
                        mode: AggregationMode::SharedSum,
                        participants: None,
                    },
                );
                per_round.push((outcome.fast_path_homes, outcome.fallback_homes));
            }
            splits.push(per_round);
        }
        prop_assert!(
            splits[1] == splits[0] && splits[2] == splits[0],
            "fast/fallback split diverged from raw (seed {}, n {}): raw {:?}, q8 {:?}, topk {:?}",
            seed, n, splits[0], splits[1], splits[2]
        );
    }
}

proptest! {
    /// A quiet bus settles a round in closed form; the same round on a
    /// bus whose mailbox holds another model's update goes through the
    /// mailboxes (its keyed drains discard that update). Both must
    /// agree bit for bit — models, round outcomes, `BusStats`,
    /// simulated seconds and exported engine state — in `PerHome`,
    /// `SharedSum` and `Hierarchical`, with full or base-layer
    /// exchange, with or without a participation mask, in every codec.
    #[test]
    fn closed_form_rounds_equal_mailbox_rounds_bitwise(
        seed in 0u64..10_000,
        n in 2usize..9,
        mode_pick in 0usize..3,
        alpha_pick in 0usize..2,
        mask_bits in 0u64..512,
        codec_pick in 0usize..3,
    ) {
        let codec = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 { per_layer_scale: true },
            PayloadCodec::TopK { fraction: 0.3 },
        ][codec_pick];
        let alpha = if alpha_pick == 1 { Some(2) } else { None };
        // mask_bits == 0 means no mask; otherwise bit h withholds home h.
        let mask: Option<Vec<bool>> =
            (mask_bits != 0).then(|| (0..n).map(|h| mask_bits >> h & 1 == 0).collect());
        let policy = MergePolicy::default();
        let quiet = FaultConfig::default();
        let mut closed = fleet(n, seed ^ 0xC105);
        let mut mailbox = fleet(n, seed ^ 0xC105);

        if mode_pick < 2 {
            let mode = [AggregationMode::PerHome, AggregationMode::SharedSum][mode_pick];
            let bus_c = BroadcastBus::with_codec(n, LatencyModel::lan(), &quiet, codec);
            let bus_m = BroadcastBus::with_codec(n, LatencyModel::lan(), &quiet, codec);
            let (mut ec, mut em) = (DflRound::new(), DflRound::new());
            for round in 1..=3u64 {
                queue_quietly(&bus_m, (seed + round) as usize % n, other_model());
                let oc = run_engine(&mut closed, &mut ec, &bus_c, round, alpha, &policy,
                                    mode, mask.as_deref());
                let om = run_engine(&mut mailbox, &mut em, &bus_m, round, alpha, &policy,
                                    mode, mask.as_deref());
                prop_assert_eq!(oc, om);
                prop_assert!(
                    bits(&closed) == bits(&mailbox),
                    "round {} diverged (seed {}, n {}, {:?}, alpha {:?}, mask {:?}, codec {})",
                    round, seed, n, mode, alpha, mask, codec.label()
                );
            }
            prop_assert_eq!(bus_c.stats(), bus_m.stats());
            prop_assert_eq!(
                bus_c.simulated_seconds().to_bits(),
                bus_m.simulated_seconds().to_bits()
            );
            prop_assert_eq!(bus_c.export_state(), bus_m.export_state());
        } else {
            let shards = 1 + seed as usize % 3;
            let engine = || HierarchicalRound::with_codec(
                ShardPlan::round_robin(n, shards), LatencyModel::lan(), &quiet, codec);
            let (mut ec, mut em) = (engine(), engine());
            for round in 1..=3u64 {
                // Every shard bus holds a foreign update, so every shard
                // takes the mailbox path.
                let mut state = em.export_state();
                for shard in &mut state.shards {
                    shard.bus.mailboxes.iter_mut().for_each(Vec::clear);
                    shard.bus.mailboxes[0].push(other_model());
                }
                em.restore_state(&state).expect("state restores");
                let params = HierParams {
                    round,
                    model_id: 0,
                    alpha,
                    policy: &policy,
                    participants: mask.as_deref(),
                };
                let mut col: Vec<&mut Mlp> = closed.iter_mut().collect();
                let oc = ec.run(&mut col, &params);
                let mut col: Vec<&mut Mlp> = mailbox.iter_mut().collect();
                let om = em.run(&mut col, &params);
                prop_assert_eq!(oc, om);
                prop_assert!(
                    bits(&closed) == bits(&mailbox),
                    "round {} diverged (seed {}, n {}, shards {}, alpha {:?}, mask {:?}, codec {})",
                    round, seed, n, shards, alpha, mask, codec.label()
                );
            }
            prop_assert_eq!(ec.total_stats(), em.total_stats());
            prop_assert_eq!(
                ec.simulated_seconds().to_bits(),
                em.simulated_seconds().to_bits()
            );
            prop_assert_eq!(ec.export_state(), em.export_state());
        }
    }
}

/// Each gate of the closed-form exchange falls back to the mailbox
/// path with its old behaviour: under an active fault plan, with a
/// disconnected receiver, and with an undrained same-model update in a
/// mailbox, the `PerHome` engine still equals the sequential reference
/// bit for bit (`BusStats` included), and `SharedSum` shows each
/// gate's footprint — drops, a demoted receiver, a stale delivery
/// merged.
#[test]
fn every_closed_form_gate_falls_back_to_the_mailbox_path() {
    let n = 6;
    let policy = MergePolicy::default();
    let lossy = FaultConfig {
        seed: 5,
        loss_rate: 0.3,
        ..FaultConfig::default()
    };
    for gate in ["fault plan", "disconnected receiver", "undrained mailbox"] {
        let make_bus = || {
            let faults = if gate == "fault plan" {
                lossy
            } else {
                FaultConfig::default()
            };
            let bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &faults);
            match gate {
                "disconnected receiver" => bus.disconnect(2),
                "undrained mailbox" => queue_quietly(&bus, 3, {
                    let stale = fleet(1, 77);
                    snapshot_update(&stale[0], 0, 0, 0)
                }),
                _ => {}
            }
            bus
        };

        // PerHome against the sequential reference.
        let (bus_e, bus_r) = (make_bus(), make_bus());
        let mut engine_models = fleet(n, 41);
        let mut ref_models = fleet(n, 41);
        let mut engine = DflRound::new();
        for round in 1..=3u64 {
            run_engine(
                &mut engine_models,
                &mut engine,
                &bus_e,
                round,
                None,
                &policy,
                AggregationMode::PerHome,
                None,
            );
            let mut col: Vec<&mut Mlp> = ref_models.iter_mut().collect();
            dfl_round_reference(&mut col, &bus_r, round, 0, None, &policy);
            assert_eq!(
                bits(&engine_models),
                bits(&ref_models),
                "{gate}, round {round}"
            );
        }
        assert_eq!(bus_e.stats(), bus_r.stats(), "{gate}");

        // SharedSum: the gate's footprint on the first round.
        let bus = make_bus();
        let mut models = fleet(n, 41);
        let before = bits(&models[2..3]);
        let out = run_engine(
            &mut models,
            &mut DflRound::new(),
            &bus,
            1,
            None,
            &policy,
            AggregationMode::SharedSum,
            None,
        );
        let stats = bus.stats();
        match gate {
            "fault plan" => {
                assert!(stats.dropped_loss > 0, "{stats:?}");
                assert!(out.fallback_homes > 0, "{out:?}");
            }
            "disconnected receiver" => {
                assert_eq!(stats.dropped_disconnected, n as u64 - 1);
                assert_eq!(out.fallback_homes, 1, "only the dead receiver falls back");
                assert_eq!(
                    bits(&models[2..3]),
                    before,
                    "the dead receiver merged nothing"
                );
            }
            _ => {
                assert_eq!(stats.dropped_total(), 0);
                assert_eq!(out.fallback_homes, 1, "only the stale mailbox falls back");
            }
        }
        assert_eq!(
            stats.messages + stats.dropped_total(),
            (n * (n - 1)) as u64,
            "{gate}"
        );
    }
}
