//! Pins AMUD's numbers, not only its decisions.
//!
//! For five replicas at `ReplicaScale::default()` (seed 0) the tables
//! below hold the `to_bits()` of `decide()`'s guidance score, then of each
//! pattern row's `r`, `support`, `r_squared_combined` and `noise_floor`
//! (one line per pattern, `A·A`, `A·Aᵀ`, `Aᵀ·A`, `Aᵀ·Aᵀ`). The report
//! must match bit for bit with the precompute cache off, from
//! `prepare_topology` with it on, and from a second `decide()` that may
//! read the 2-hop family `prepare_topology` left in the store.

use amud_core::paradigm::{decide, prepare_topology};
use amud_core::AmudReport;
use amud_datasets::{replica, ReplicaScale};
use amud_train::GraphData;

/// `(score, [[r, support, r_squared_combined, noise_floor]; 4])` as bits.
type Pinned = (u64, [[u64; 4]; 4]);

const CHAMELEON: Pinned = (
    0x3fe9aec280f425e3,
    [
        [0x3f6f929fad545193, 0x410814a800000000, 0x3ee845f9855542d7, 0x3ed04a9999dac400],
        [0x3fb05e9b3525c848, 0x4108931000000000, 0x3f5a1843372b34de, 0x3ecfd511e59d15e6],
        [0x3fb07c420e2fa05b, 0x4107995000000000, 0x3f5a7f1d7369a92a, 0x3ed0a7fa09e12237],
        [0x3f6f929fad545193, 0x410814a800000000, 0x3ee845f985554ab5, 0x3ed04a9999dac400],
    ],
);

const TEXAS: Pinned = (
    0x3fe6f85ef1d29da1,
    [
        [0xbfa46d6ba85d31ef, 0x4084980000000000, 0x3f5660231929540f, 0x3f549bdaa583b401],
        [0x3fc9ea4d29abcc3c, 0x4082b00000000000, 0x3f99c78dae9bed5d, 0x3f5623fa77016240],
        [0x3fc9be2bcdad542b, 0x4084a00000000000, 0x3f98a1e77541d24c, 0x3f54e5e0a72f0539],
        [0xbfa46d6ba85d31ef, 0x4084980000000000, 0x3f56602319295408, 0x3f549bdaa583b401],
    ],
);

const SQUIRREL: Pinned = (
    0x3fe77ba16416cc30,
    [
        [0xbf37418325b67fde, 0x4117a00000000000, 0x3ec710f92af1be7e, 0x3ec10b0104d66998],
        [0x3fa8dddc374f68e7, 0x4117ab8000000000, 0x3f4fb60e26d36b4b, 0x3ec0ef54472b48d6],
        [0x3fac6b026c61894a, 0x4117870800000000, 0x3f546780eab2c628, 0x3ec130b9bc76d24c],
        [0xbf37418325b67fde, 0x4117a00000000000, 0x3ec710f92af1b7f6, 0x3ec10b0104d66998],
    ],
);

const CORA_ML: Pinned = (
    0x3fabb0acafdccada,
    [
        [0x3fc0417a66b3c883, 0x4080d80000000000, 0x3f7df5d51be696ed, 0x3f2510de822e3f08],
        [0x3fc1b149ccf93c92, 0x4081c00000000000, 0x3f7ef74013c4d662, 0x3f257838b175b49b],
        [0x3fbf75fedfd648ca, 0x407f000000000000, 0x3f7c11e7712d0e57, 0x3f25285f8a4f6c8f],
        [0x3fc0417a66b3c883, 0x4080d80000000000, 0x3f7df5d51be6969e, 0x3f2510de822e3f08],
    ],
);

const ACTOR: Pinned = (
    0x3f8916cc068a70d5,
    [
        [0xbf60a43380eecdfa, 0x40c25b0000000000, 0x3ebb9eac508aeb3e, 0x3f15a90a9ba991fc],
        [0x3f48c554b56b6952, 0x40c1cd0000000000, 0x3eca7e4d8dcc7be9, 0x3f16013f1212860d],
        [0xbf5649b1f51bde87, 0x40c25e0000000000, 0x3ebca1340bc6ac47, 0x3f15b9d0bab4d9c5],
        [0xbf60a43380eecdfa, 0x40c25b0000000000, 0x3ebb9eac508aec68, 0x3f15a90a9ba991fc],
    ],
);

fn bundle(name: &str) -> GraphData {
    let d = replica(name, ReplicaScale::default(), 0);
    GraphData::from_dataset(&d)
        .unwrap_or_else(|e| panic!("{name}: the replica does not assemble: {e}"))
}

fn report_bits(report: &AmudReport) -> (u64, Vec<[u64; 4]>) {
    let rows = report
        .correlations
        .iter()
        .map(|c| [c.r, c.support, c.r_squared_combined, c.noise_floor].map(f64::to_bits))
        .collect();
    (report.score.to_bits(), rows)
}

fn assert_pinned(name: &str, pinned: &Pinned) {
    let pinned = (pinned.0, pinned.1.to_vec());
    let data = bundle(name);
    let (uncached, _) = amud_cache::with_cache(false, || decide(&data));
    assert_eq!(report_bits(&uncached), pinned, "{name}: AMUD_CACHE off");
    amud_cache::with_cache(true, || {
        let (_, prepared, _) = prepare_topology(&data);
        assert_eq!(report_bits(&prepared), pinned, "{name}: prepare_topology, cache on");
        let (again, _) = decide(&data);
        assert_eq!(report_bits(&again), pinned, "{name}: decide after prepare_topology");
    });
}

#[test]
fn chameleon_report_is_pinned() {
    assert_pinned("chameleon", &CHAMELEON);
}

#[test]
fn texas_report_is_pinned() {
    assert_pinned("texas", &TEXAS);
}

#[test]
fn squirrel_report_is_pinned() {
    assert_pinned("squirrel", &SQUIRREL);
}

#[test]
fn cora_ml_report_is_pinned() {
    assert_pinned("cora_ml", &CORA_ML);
}

#[test]
fn actor_report_is_pinned() {
    assert_pinned("actor", &ACTOR);
}
