//! Quickstart: generate a natural digraph, ask AMUD how to model it, and
//! train ADPA under the recommended paradigm.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use amud_repro::core::{amud::AmudDecision, paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::train::{train, GraphData, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A "newly collected" digraph: the Chameleon replica — heterophilous
    //    wiki-page network whose edge *orientation* carries class signal.
    let dataset = replica("chameleon", ReplicaScale::default(), 7);
    let data = GraphData::new(
        &dataset.graph,
        dataset.features.clone(),
        dataset.split.train.clone(),
        dataset.split.val.clone(),
        dataset.split.test.clone(),
    )?;
    println!(
        "dataset: {} ({} nodes, {} directed edges, {} classes)",
        dataset.name(),
        dataset.n_nodes(),
        dataset.graph.n_edges(),
        dataset.n_classes()
    );

    // 2. AMUD guidance (Fig. 1): correlate 2-order directed patterns with
    //    the training labels and decide directed vs undirected modeling.
    let (prepared, report, paradigm) = paradigm::prepare_topology(&data);
    println!("\nAMUD report (threshold θ = {}):", report.theta);
    for c in &report.correlations {
        println!("  r({}, labels) = {:+.4}   R² = {:.5}", c.pattern, c.r, c.r_squared);
    }
    println!(
        "  guidance score S = {:.3} → {:?} (Paradigm {:?})",
        report.score, report.decision, paradigm
    );
    assert_eq!(report.decision, AmudDecision::Directed, "chameleon should stay directed");

    // 3. Train ADPA on the prepared topology.
    let mut model = Adpa::new(&prepared, AdpaConfig::default(), 0)?;
    println!(
        "\nADPA: {} DP operators {:?}, {} parameters",
        model.pattern_names().len(),
        model.pattern_names(),
        amud_repro::train::Model::n_parameters(&model),
    );
    let cfg = TrainConfig {
        epochs: 150,
        patience: 30,
        lr: 0.01,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    };
    let result = train(&mut model, &prepared, cfg, 0)?;
    println!(
        "trained {} epochs — best val acc {:.3}, test acc {:.3}",
        result.epochs_run, result.best_val_acc, result.test_acc
    );
    Ok(())
}
