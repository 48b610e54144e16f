//! End-to-end integration: the full Fig. 1 workflow across crates —
//! dataset generation → AMUD guidance → paradigm dispatch → training.

use amud_repro::core::{paradigm, paradigm::Paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::train::{train, GraphData, TrainConfig};

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

fn quick() -> TrainConfig {
    TrainConfig { epochs: 60, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() }
}

#[test]
fn paradigm_one_pipeline_citation_network() {
    let data = bundle("cora_ml", 0);
    let (prepared, report, par) = paradigm::prepare_topology(&data);
    assert_eq!(
        par,
        Paradigm::I,
        "homophilous citation replica must go Paradigm I (S = {})",
        report.score
    );
    assert!(prepared.is_undirected());
    let mut model = Adpa::new(&prepared, AdpaConfig::default(), 0).unwrap();
    let result = train(&mut model, &prepared, quick(), 0).unwrap();
    assert!(result.test_acc > 0.4, "ADPA on AMUndirected cora: {}", result.test_acc);
}

#[test]
fn paradigm_two_pipeline_oriented_heterophily() {
    let data = bundle("chameleon", 1);
    let (prepared, report, par) = paradigm::prepare_topology(&data);
    assert_eq!(
        par,
        Paradigm::II,
        "oriented heterophilous replica must go Paradigm II (S = {})",
        report.score
    );
    assert!(!prepared.is_undirected());
    let mut model = Adpa::new(&prepared, AdpaConfig::default(), 1).unwrap();
    let result = train(&mut model, &prepared, quick(), 1).unwrap();
    assert!(result.test_acc > 0.3, "ADPA on AMDirected chameleon: {}", result.test_acc);
}

#[test]
fn abnormal_case_routes_to_paradigm_one() {
    // Actor: heterophilous by the classic metrics, yet AMUD routes it to
    // undirected modeling — the Table V phenomenon, end to end.
    let data = bundle("actor", 2);
    let (_, report, par) = paradigm::prepare_topology(&data);
    assert_eq!(par, Paradigm::I, "actor must be AMUndirected (S = {})", report.score);
}

#[test]
fn amud_never_sees_test_labels() {
    // Corrupting every *test* label must not change the AMUD decision
    // pipeline's output (it only reads train+val labels and features).
    let data = bundle("texas", 3);
    let (r1, p1) = paradigm::decide(&data);
    let mut corrupted = data.clone();
    {
        let labels = std::rc::Rc::make_mut(&mut corrupted.labels);
        for &v in corrupted.test.iter() {
            labels[v] = (labels[v] + 1) % data.n_classes;
        }
    }
    let (r2, p2) = paradigm::decide(&corrupted);
    assert_eq!(p1, p2);
    assert!((r1.score - r2.score).abs() < 1e-12, "{} vs {}", r1.score, r2.score);
}

#[test]
fn all_fourteen_replicas_flow_through_the_pipeline() {
    use amud_repro::datasets::registry::{all_specs, AmudRegime};
    for spec in all_specs() {
        let name = spec.name;
        let regime = spec.regime;
        // Default scale: AMUD is a statistical test, and the tiniest
        // replicas (300 nodes) sit below its small-sample resolution just
        // as a 300-node CiteSeer subsample would.
        let d = replica(name, ReplicaScale::default(), 4);
        let data = GraphData::new(
            &d.graph,
            d.features.clone(),
            d.split.train.clone(),
            d.split.val.clone(),
            d.split.test.clone(),
        )
        .unwrap();
        let (report, par) = paradigm::decide(&data);
        let expected = match regime {
            AmudRegime::Directed => Paradigm::II,
            AmudRegime::Undirected => Paradigm::I,
        };
        assert_eq!(
            par, expected,
            "{name}: S = {:.3}, expected {regime:?} (tiny-scale replica)",
            report.score
        );
    }
}
