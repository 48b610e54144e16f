//! Every model the repo ships must record a clean tape: every parameter
//! reachable from the loss, no dangling nodes, no non-finite values.
//! This is the acceptance gate for the `amud_nn::verify` pass — a model
//! whose parameters silently receive zero gradient would train as a
//! strictly smaller model without any test noticing.

use amud_repro::core::{paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::models::registry::{
    build_model, extra_model_names, is_directed_model, model_names,
};
use amud_repro::nn::verify::Severity;
use amud_repro::train::{verify_model, GraphData};

fn bundle(name: &str, seed: u64) -> GraphData {
    let d = replica(name, ReplicaScale::tiny(), seed);
    GraphData::new(
        &d.graph,
        d.features.clone(),
        d.split.train.clone(),
        d.split.val.clone(),
        d.split.test.clone(),
    )
    .unwrap_or_else(|e| panic!("{name}: the replica does not assemble: {e}"))
}

fn assert_clean(name: &str, dataset: &str, diags: &[amud_repro::nn::Diagnostic]) {
    let findings: Vec<String> =
        diags.iter().filter(|d| d.severity >= Severity::Warning).map(|d| d.to_string()).collect();
    assert!(
        findings.is_empty(),
        "{name} on {dataset} records a dirty tape:\n{}",
        findings.join("\n")
    );
}

#[test]
fn every_registry_model_verifies_clean() {
    // One homophilous and one directed-heterophilous fixture so both code
    // paths of direction-aware models are exercised.
    for dataset in ["cora_ml", "chameleon"] {
        let raw = bundle(dataset, 40);
        for name in model_names().iter().chain(extra_model_names().iter()) {
            let input = if is_directed_model(name) { raw.clone() } else { raw.to_undirected() };
            let model = build_model(name, &input, 0);
            assert_clean(name, dataset, &verify_model(&*model, &input, 0));
        }
    }
}

#[test]
fn adpa_verifies_clean_on_both_paradigms() {
    for dataset in ["cora_ml", "chameleon"] {
        let raw = bundle(dataset, 41);
        let (prepared, _, _) = paradigm::prepare_topology(&raw);
        let model = Adpa::new(&prepared, AdpaConfig::default(), 0).unwrap();
        assert_clean("ADPA", dataset, &verify_model(&model, &prepared, 0));
    }
}

#[test]
fn adpa_ablations_verify_clean() {
    use amud_repro::core::DpAttention;
    let raw = bundle("chameleon", 42);
    for variant in [
        DpAttention::Original,
        DpAttention::Gate,
        DpAttention::Recursive,
        DpAttention::Jk,
        DpAttention::None,
    ] {
        let cfg = AdpaConfig { dp_attention: variant, ..Default::default() };
        let model = Adpa::new(&raw, cfg, 0).unwrap();
        assert_clean(&format!("ADPA/{variant:?}"), "chameleon", &verify_model(&model, &raw, 0));
    }
    let no_hop = AdpaConfig { hop_attention: false, ..Default::default() };
    let model = Adpa::new(&raw, no_hop, 0).unwrap();
    assert_clean("ADPA/no-hop", "chameleon", &verify_model(&model, &raw, 0));
}

#[test]
fn adpa_row_local_tape_verifies_clean() {
    use amud_repro::core::DpAttention;
    use amud_repro::nn::verify::verify_tape;
    use amud_repro::nn::{Rows, Tape};
    use amud_repro::train::Model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::rc::Rc;

    // The tape the trainer records: ADPA over the train rows, then the
    // masked loss at the rows' local positions.
    let raw = bundle("chameleon", 43);
    let rows = Rows::new(raw.n_nodes(), raw.train.iter().copied());
    let labels: Vec<usize> = rows.ids().iter().map(|&r| raw.labels[r]).collect();
    let mask: Vec<usize> = (0..rows.len()).collect();
    for variant in [DpAttention::Original, DpAttention::Gate, DpAttention::Recursive] {
        let cfg = AdpaConfig { dp_attention: variant, ..Default::default() };
        let model = Adpa::new(&raw, cfg, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let logits = model.forward_rows(&mut tape, &raw, &rows, true, &mut rng);
        assert_eq!(tape.value(logits).rows(), rows.len());
        let loss =
            tape.masked_cross_entropy(logits, Rc::new(labels.clone()), Rc::new(mask.clone()));
        let diags = verify_tape(&tape, loss);
        assert_clean(&format!("ADPA/{variant:?} row-local"), "chameleon", &diags);
    }
}

/// Logistic regression over the raw features: one `Linear` layer, whose
/// bias the NaN test poisons.
struct LogReg {
    bank: amud_repro::nn::ParamBank,
    linear: amud_repro::nn::Linear,
}

impl amud_repro::train::Model for LogReg {
    fn bank(&self) -> &amud_repro::nn::ParamBank {
        &self.bank
    }
    fn bank_mut(&mut self) -> &mut amud_repro::nn::ParamBank {
        &mut self.bank
    }
    fn forward(
        &self,
        tape: &mut amud_repro::nn::Tape,
        data: &GraphData,
        _training: bool,
        _rng: &mut rand::rngs::StdRng,
    ) -> amud_repro::nn::NodeId {
        let x = tape.constant(data.features.clone());
        self.linear.forward(tape, &self.bank, x)
    }
    fn name(&self) -> &'static str {
        "LogReg"
    }
}

#[test]
fn a_nan_weight_fails_verification() {
    use amud_repro::nn::verify::{has_errors, Rule};
    use amud_repro::nn::{Linear, ParamBank};
    use rand::SeedableRng;

    let data = bundle("cora_ml", 44);
    let mut bank = ParamBank::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let linear = Linear::new(&mut bank, data.n_features(), data.n_classes, &mut rng);
    let mut model = LogReg { bank, linear };
    assert_clean("LogReg", "cora_ml", &verify_model(&model, &data, 0));

    model.bank.value_mut(model.linear.b).set(0, 1, f32::NAN);
    let diags = verify_model(&model, &data, 0);
    assert!(has_errors(&diags), "{}", amud_repro::nn::verify::render(&diags));
    // The bias leaf itself is the first node the scan flags.
    let first = diags.iter().find(|d| d.rule == Rule::NonFinite).unwrap();
    assert_eq!(first.severity, Severity::Error);
    assert!(first.message.contains("1 non-finite entry"), "{}", first.message);
}
