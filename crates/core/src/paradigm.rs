//! The Fig. 1 workflow: AMUD guidance → Paradigm I/II dispatch.
//!
//! Newly collected digraphs flow through [`decide`]: AMUD scores the
//! correlation between 2-order DPs and labels; graphs below the threshold
//! are undirected-transformed (Paradigm I, handled by undirected GNNs or
//! ADPA), graphs above it retain their directed edges (Paradigm II, handled
//! by directed GNNs — ADPA being the paradigm instance the paper proposes).

use crate::amud::{score_family, AmudDecision, AmudReport, THETA};
use crate::precompute::TwoHopFamily;
use amud_train::GraphData;

/// Which learning paradigm the AMUD output feeds (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// AMUndirected → undirected GNNs.
    I,
    /// AMDirected → directed GNNs.
    II,
}

impl Paradigm {
    /// Maps the AMUD decision onto the matching learning paradigm.
    pub fn from_decision(d: AmudDecision) -> Paradigm {
        match d {
            AmudDecision::Undirected => Paradigm::I,
            AmudDecision::Directed => Paradigm::II,
        }
    }
}

/// Scores the bundle's topology with AMUD. Node profiles are the labels
/// known at modeling time (training + validation nodes — never test
/// labels) together with the node features, which are fully observed.
pub fn decide(data: &GraphData) -> (AmudReport, Paradigm) {
    let (report, paradigm, _) = decide_with_family(data);
    (report, paradigm)
}

/// [`decide`], also handing back the 2-hop family it scored.
fn decide_with_family(data: &GraphData) -> (AmudReport, Paradigm, TwoHopFamily) {
    let known: Vec<usize> = data.train.iter().chain(data.val.iter()).copied().collect();
    let family = TwoHopFamily::of(&data.adj);
    let report = score_family(
        &family,
        &data.labels,
        data.n_classes,
        Some(&known),
        Some(&data.features),
        THETA,
    );
    let paradigm = Paradigm::from_decision(report.decision);
    (report, paradigm, family)
}

/// Applies the AMUD guidance to the topology: undirected transformation for
/// Paradigm I, identity for Paradigm II. Returns the prepared bundle and
/// the report.
///
/// On Paradigm II the prepared adjacency is the input one, so the order-2
/// family AMUD scored goes into the precompute store, where ADPA's
/// operator build finds it. On Paradigm I it is dropped: the prepared
/// adjacency is a different graph.
pub fn prepare_topology(data: &GraphData) -> (GraphData, AmudReport, Paradigm) {
    let (report, paradigm, family) = decide_with_family(data);
    let prepared = match paradigm {
        Paradigm::I => data.to_undirected(),
        Paradigm::II => {
            family.store();
            data.clone()
        }
    };
    (prepared, report, paradigm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amud_datasets::{replica, ReplicaScale};

    fn bundle(name: &str, seed: u64) -> GraphData {
        let d = replica(name, ReplicaScale::default(), seed);
        GraphData::new(
            &d.graph,
            d.features.clone(),
            d.split.train.clone(),
            d.split.val.clone(),
            d.split.test.clone(),
        )
        .unwrap()
    }

    #[test]
    fn homophilous_replica_goes_paradigm_one() {
        let d = bundle("cora_ml", 0);
        let (prepared, report, paradigm) = prepare_topology(&d);
        assert_eq!(paradigm, Paradigm::I, "S = {}", report.score);
        assert!(prepared.is_undirected());
    }

    #[test]
    fn oriented_heterophilous_replica_goes_paradigm_two() {
        let d = bundle("texas", 0);
        let (prepared, report, paradigm) = prepare_topology(&d);
        assert_eq!(paradigm, Paradigm::II, "S = {}", report.score);
        assert!(!prepared.is_undirected());
        assert_eq!(prepared.adj.nnz(), d.adj.nnz(), "Paradigm II must not touch edges");
    }

    #[test]
    fn paradigm_one_leaves_no_raw_entry() {
        // A citeseer replica no other test in this binary builds: its
        // directed adjacency's entry can only come from this call.
        // Concurrent tests may evict entries but cannot add this one.
        let d = bundle("citeseer", 17);
        amud_cache::with_cache(true, || {
            let (_, report, paradigm) = prepare_topology(&d);
            assert_eq!(paradigm, Paradigm::I, "S = {}", report.score);
            assert!(!crate::precompute::raw_stored(&d.adj, 2));
        });
    }

    #[test]
    fn abnormal_heterophilous_replica_goes_paradigm_one() {
        // Actor: heterophilous by the classic measures, but orientation is
        // uninformative — AMUD must override the conventional labelling
        // (the Table V phenomenon).
        let d = bundle("actor", 0);
        let (report, paradigm) = decide(&d);
        assert_eq!(paradigm, Paradigm::I, "S = {}", report.score);
    }
}
