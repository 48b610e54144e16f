//! Paradigm I end-to-end: a homophilous citation network (the CoraML
//! replica) flows through AMUD, gets the undirected transformation, and is
//! served both by a classic undirected GNN and by ADPA — the workflow the
//! paper's Fig. 1 draws for `AMUndirected` data.
//!
//! ```sh
//! cargo run --example citation_pipeline --release
//! ```

use amud_repro::core::{paradigm, paradigm::Paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::graph::measures::homophily_report;
use amud_repro::models::registry::build_model;
use amud_repro::train::{repeat_runs, GraphData, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = replica("cora_ml", ReplicaScale::default(), 11);
    let data = GraphData::from_dataset(&dataset)?;

    // Homophily audit, directed vs undirected view (Table I's comparison).
    let d_report = homophily_report(&dataset.graph);
    let u_report = homophily_report(&dataset.graph.to_undirected());
    println!("citation network homophily:");
    println!("  directed:   H_edge = {:.3}  H_adj = {:.3}", d_report.edge, d_report.adjusted);
    println!("  undirected: H_edge = {:.3}  H_adj = {:.3}", u_report.edge, u_report.adjusted);

    // AMUD sends homophilous citation graphs down Paradigm I.
    let (prepared, report, par) = paradigm::prepare_topology(&data);
    println!("\nAMUD score S = {:.3} → Paradigm {par:?}", report.score);
    assert_eq!(par, Paradigm::I);
    assert!(prepared.is_undirected());

    // Paradigm I: a well-designed undirected GNN is a strong choice...
    let cfg = TrainConfig {
        epochs: 150,
        patience: 30,
        lr: 0.01,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    };
    struct Shim(Box<dyn amud_repro::train::Model>);
    impl amud_repro::train::Model for Shim {
        fn bank(&self) -> &amud_repro::nn::ParamBank {
            self.0.bank()
        }
        fn bank_mut(&mut self) -> &mut amud_repro::nn::ParamBank {
            self.0.bank_mut()
        }
        fn forward(
            &self,
            tape: &mut amud_repro::nn::Tape,
            data: &GraphData,
            training: bool,
            rng: &mut rand::rngs::StdRng,
        ) -> amud_repro::nn::NodeId {
            self.0.forward(tape, data, training, rng)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    for name in ["GCN", "GPRGNN", "BernNet"] {
        let out = repeat_runs(|s| Ok(Shim(build_model(name, &prepared, s))), &prepared, cfg, 3, 0);
        println!("  {name:<10} test acc {}", out.summary);
    }

    // ...and ADPA remains competitive on the same undirected input (the
    // paper's "feasible for both scenarios" claim).
    let out = repeat_runs(|s| Adpa::new(&prepared, AdpaConfig::default(), s), &prepared, cfg, 3, 0);
    println!("  {:<10} test acc {}", "ADPA", out.summary);
    Ok(())
}
