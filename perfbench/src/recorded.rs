//! Output values recorded per (workload, seed).
//!
//! Every workload's outputs are a pure function of its seed, so a run
//! must reproduce the recorded line bit for bit. Regenerate an entry by
//! running the workload at that seed and copying its `outputs` line.

use crate::{Check, Outcome};

/// (workload, seed, outputs as `key=value` pairs joined by `;`).
#[rustfmt::skip]
const RECORDED: &[(&str, u64, &str)] = &[
    ("ems_repro", 0, "saved_fraction=0.8615938787998502;prefix_days=4;outputs_digest=aec9d999e5a03337"),
    ("ems_repro", 1, "saved_fraction=0.8647842193486102;prefix_days=4;outputs_digest=712e9ea6d886a820"),
    ("ems_repro", 2, "saved_fraction=0.8641218244968313;prefix_days=4;outputs_digest=6957200c7b53d49d"),
    ("ems_repro", 3, "saved_fraction=0.8616588946617758;prefix_days=4;outputs_digest=36b1d92764ad9e25"),
    ("ems_repro", 4, "saved_fraction=0.8619519345030383;prefix_days=4;outputs_digest=fee53263cdba488a"),
    ("ems_repro", 5, "saved_fraction=0.863944823608517;prefix_days=4;outputs_digest=24dc88155b7589c6"),
    ("ems_repro", 6, "saved_fraction=0.8639798352259352;prefix_days=4;outputs_digest=474be26d61f9fdb5"),
    ("ems_repro", 7, "saved_fraction=0.8618528060081752;prefix_days=4;outputs_digest=5540615e3cb3fbac"),
    ("ems_repro", 8, "saved_fraction=0.8612382765520262;prefix_days=4;outputs_digest=de7864bd4cdcaf7a"),
    ("ems_repro", 9, "saved_fraction=0.8662619703558819;prefix_days=4;outputs_digest=7959a58d684d045b"),
    ("ems_repro", 10, "saved_fraction=0.8627028935612344;prefix_days=4;outputs_digest=08dbc778faa3dc6d"),
    ("ems_repro", 7919, "saved_fraction=0.8634894539297959;prefix_days=4;outputs_digest=01d1f0d1fdaed27c"),
    ("fleet_669", 0, "saved_fraction=0.4389576486083122;prefix_days=2;outputs_digest=2ec32d297814f559"),
    ("fleet_669", 1, "saved_fraction=0.46217938236944195;prefix_days=2;outputs_digest=0eb45c27b0107d9a"),
    ("fleet_669", 2, "saved_fraction=0.4544754118761292;prefix_days=2;outputs_digest=efcba629c7663790"),
    ("fleet_669", 3, "saved_fraction=0.45669291028618153;prefix_days=2;outputs_digest=ead5ee11bd12c7f5"),
    ("fleet_669", 4, "saved_fraction=0.45254043126170346;prefix_days=2;outputs_digest=c1f33906b8b34252"),
    ("fleet_669", 5, "saved_fraction=0.45169245812854536;prefix_days=2;outputs_digest=421b7937c61796f3"),
    ("fleet_669", 6, "saved_fraction=0.4622303262978792;prefix_days=2;outputs_digest=92c28d14839699a7"),
    ("fleet_669", 7, "saved_fraction=0.45304825213986616;prefix_days=2;outputs_digest=90ce7af14425aa32"),
    ("fleet_669", 8, "saved_fraction=0.43046146315615186;prefix_days=2;outputs_digest=e3fcb65e4b4c2de6"),
    ("fleet_669", 9, "saved_fraction=0.4600358127050008;prefix_days=2;outputs_digest=61c8f0dc2aab4083"),
    ("fleet_669", 10, "saved_fraction=0.44732110385010515;prefix_days=2;outputs_digest=c97d4eb07d1dbf07"),
    ("fleet_669", 7919, "saved_fraction=0.44793437498447763;prefix_days=2;outputs_digest=d62e9097acf7d004"),
    ("fed_10k", 0, "model_digest=8b5fb93c3bd3c32b;prefix_rounds=32"),
    ("fed_10k", 1, "model_digest=7e0e18a10e3380e5;prefix_rounds=32"),
    ("fed_10k", 2, "model_digest=896c1d8e5e609566;prefix_rounds=32"),
    ("fed_10k", 3, "model_digest=8e66b4cf983c6532;prefix_rounds=32"),
    ("fed_10k", 4, "model_digest=59bc7513e7b70f3f;prefix_rounds=32"),
    ("fed_10k", 5, "model_digest=fd998ade32f18f76;prefix_rounds=32"),
    ("fed_10k", 6, "model_digest=57eecd4102d0db0c;prefix_rounds=32"),
    ("fed_10k", 7, "model_digest=511624dd168bbc6b;prefix_rounds=32"),
    ("fed_10k", 8, "model_digest=fcabc3849fbbb266;prefix_rounds=32"),
    ("fed_10k", 9, "model_digest=b474d1fc828b10c7;prefix_rounds=32"),
    ("fed_10k", 10, "model_digest=900b2fd7faf23461;prefix_rounds=32"),
    ("fed_10k", 7919, "model_digest=8fa68dcf9e352035;prefix_rounds=32"),
    ("serve_256", 0, "decisions=735744;saved_fraction=0.35249587927923937"),
    ("serve_256", 1, "decisions=735744;saved_fraction=0.3582111622086199"),
    ("serve_256", 2, "decisions=735744;saved_fraction=0.3562380194767124"),
    ("serve_256", 3, "decisions=735744;saved_fraction=0.3559483781660686"),
    ("serve_256", 4, "decisions=735744;saved_fraction=0.35912098338558157"),
    ("serve_256", 5, "decisions=735744;saved_fraction=0.3520138066506788"),
    ("serve_256", 6, "decisions=735744;saved_fraction=0.3517412019782537"),
    ("serve_256", 7, "decisions=735744;saved_fraction=0.35337309619828156"),
    ("serve_256", 8, "decisions=735744;saved_fraction=0.3561000430533562"),
    ("serve_256", 9, "decisions=735744;saved_fraction=0.3512370630766344"),
    ("serve_256", 10, "decisions=735744;saved_fraction=0.3593063021456752"),
    ("serve_256", 7919, "decisions=735744;saved_fraction=0.3570935177366253"),
];

/// Compares the run's outputs with the recorded ones for its seed.
pub fn check(workload: &str, seed: u64, out: &mut Outcome) {
    let got: Vec<String> = out
        .outputs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let got = got.join(";");
    let want = RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, v)| *v);
    out.checks.push(match want {
        Some(want) => Check::new(
            "recorded_outputs",
            got == want,
            format!("got {got}, recorded {want}"),
        ),
        None => Check {
            name: "recorded_outputs",
            ok: None,
            detail: format!("got {got}"),
        },
    });
}
