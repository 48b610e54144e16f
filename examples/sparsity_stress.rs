//! Robustness under real-world sparsity (the paper's Q4 / Fig. 7): stress
//! a digraph replica with missing features, missing edges and scarce
//! labels, and watch how ADPA degrades compared to a coupled baseline.
//!
//! ```sh
//! cargo run --example sparsity_stress --release
//! ```

use amud_repro::core::{Adpa, AdpaConfig};
use amud_repro::datasets::sparsify::{drop_edges, limit_labels, mask_features};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::models::dirgnn::DirGnn;
use amud_repro::train::{train, GraphData, TrainConfig, TrainError};

fn eval(data: &GraphData) -> Result<(f64, f64), TrainError> {
    let cfg = TrainConfig {
        epochs: 120,
        patience: 25,
        lr: 0.01,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    };
    let mut adpa = Adpa::new(data, AdpaConfig::default(), 0)?;
    let adpa_acc = train(&mut adpa, data, cfg, 0)?.test_acc;
    let mut dirgnn = DirGnn::new(data, 64, 0.4, 0);
    let dir_acc = train(&mut dirgnn, data, cfg, 0)?.test_acc;
    Ok((adpa_acc, dir_acc))
}

fn main() -> Result<(), TrainError> {
    let base = replica("squirrel", ReplicaScale::default(), 3);
    println!("squirrel replica: {} nodes, {} edges\n", base.n_nodes(), base.graph.n_edges());
    println!("{:<28} {:>8} {:>8}", "stressor", "ADPA", "DirGNN");

    let (a, d) = eval(&GraphData::from_dataset(&base)?)?;
    println!("{:<28} {a:>8.3} {d:>8.3}", "none");

    for frac in [0.4, 0.8] {
        let (a, d) = eval(&GraphData::from_dataset(&mask_features(&base, frac, 1))?)?;
        println!(
            "{:<28} {a:>8.3} {d:>8.3}",
            format!("features masked {frac:.0}%", frac = frac * 100.0)
        );
    }
    for frac in [0.4, 0.8] {
        let (a, d) = eval(&GraphData::from_dataset(&drop_edges(&base, frac, 2))?)?;
        println!(
            "{:<28} {a:>8.3} {d:>8.3}",
            format!("edges removed {frac:.0}%", frac = frac * 100.0)
        );
    }
    for per_class in [10usize, 3] {
        let (a, d) = eval(&GraphData::from_dataset(&limit_labels(&base, per_class))?)?;
        println!("{:<28} {a:>8.3} {d:>8.3}", format!("labels/class = {per_class}"));
    }
    println!("\nExpected: both degrade with sparsity, ADPA more gracefully (larger receptive field\nvia K-step DP propagation compensates for missing local signal).");
    Ok(())
}
