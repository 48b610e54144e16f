//! `bench-precompute` — cold vs warm cost of the ADPA precompute cache,
//! and the Sec. IV-D complexity rows.
//!
//! Runs the harness's hottest end-to-end shape — a multi-seed ADPA sweep
//! over a `k_steps × conv_r` grid on one fixed graph — three times:
//!
//! 1. **uncached** — `amud_cache::with_cache(false)`: every model
//!    construction rebuilds operators and re-runs Eq. 9 from scratch;
//! 2. **cold** — cache enabled on empty stores (`precompute::clear()`):
//!    first-touch cost including fingerprinting and store bookkeeping;
//! 3. **warm** — cache enabled with populated stores: the steady state of
//!    `repeat_runs`/`grid_search`/table binaries after the first point.
//!
//! For each pass it measures wall-clock, the summed time of the pass's
//! `Adpa::new` calls (`build_ms`: operator build and Eq. 9 propagation,
//! or their cache lookups; the rest of `wall_ms` is training), the
//! **counted** number of `CsrMatrix::spmm` invocations (a monotonic
//! counter in amud-graph, not an estimate), and the cache
//! hit/miss/extend deltas, then verifies the three passes produced
//! bit-identical per-grid-point accuracy summaries.
//!
//! The `scaling` section holds the Sec. IV-D complexity rows, each the
//! minimum over 15 interleaved rounds: Eq. 9 over the 1-order (2
//! operators) and 2-order (6 operators) DP families of a DSBM digraph at
//! K ∈ {1, 3} and, for the 2-order family at K = 2, at f ∈ {16, 64, 256}
//! features (each about linear in k, K and f); one training epoch of
//! ADPA, whose propagation is pre-processed, and of NSTE, which
//! aggregates sparsely every step, each a one-epoch `train()` call on a
//! model built once (the row-local forward, backward and Adam step over
//! the train rows, then the eval forward over val ∪ test); and one
//! uncached `Adpa::new`, the one-time cost ADPA's epochs amortise.
//!
//! `--smoke` shrinks the DSBM graph and the replica. Results go to
//! `BENCH_precompute.json`. Exit code 1 if any pass diverges bitwise or
//! the warm pass fails the ≥5× spmm-reduction acceptance gate.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-precompute             # full grid
//! cargo run --release -p amud-bench --bin bench-precompute -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-precompute -- --out p.json
//! ```

use amud_bench::report::Object;
use amud_bench::{
    bench_args, fail, load, min_of_rounds, sweep_config, time_ms, to_graph_data, BenchArgs,
};
use amud_cache::CacheStats;
use amud_core::{precompute, Adpa, AdpaConfig, PropagatedFeatures};
use amud_datasets::{replica, DsbmConfig, InterClassStructure, ReplicaScale};
use amud_graph::{spmm_calls, PatternSet};
use amud_models::nste::Nste;
use amud_nn::DenseMatrix;
use amud_train::{repeat_runs, train, GraphData, Model, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One grid point's outcome: the summary over all seeds.
struct Cell {
    k_steps: usize,
    conv_r: f32,
    mean: f64,
    n_failed: usize,
}

struct Pass {
    label: &'static str,
    wall_ms: f64,
    build_ms: f64,
    spmm: u64,
    cache: CacheStats,
    cells: Vec<Cell>,
}

/// The sweep's accuracy cells and the summed wall-clock of its
/// `Adpa::new` calls, in milliseconds.
fn run_sweep(
    data: &GraphData,
    seeds: usize,
    k_list: &[usize],
    r_list: &[f32],
    cfg: TrainConfig,
) -> (Vec<Cell>, f64) {
    let mut cells = Vec::new();
    let mut build_ms = 0.0;
    for &k_steps in k_list {
        for &conv_r in r_list {
            let adpa_cfg = AdpaConfig { k_steps, conv_r, ..Default::default() };
            let build = |s| {
                let (ms, model) = time_ms(|| Adpa::new(data, adpa_cfg, s));
                build_ms += ms;
                model
            };
            let out = repeat_runs(build, data, cfg, seeds, 0);
            cells.push(Cell {
                k_steps,
                conv_r,
                mean: out.summary.mean,
                n_failed: out.summary.n_failed,
            });
        }
    }
    (cells, build_ms)
}

fn measure(
    label: &'static str,
    cached: bool,
    data: &GraphData,
    seeds: usize,
    k_list: &[usize],
    r_list: &[f32],
    cfg: TrainConfig,
) -> Pass {
    let spmm_before = spmm_calls();
    let cache_before = amud_cache::stats();
    // TAINT-PURE(wall_ms): pass wall-clock is a reporting field; the
    // accuracy cells it rides beside are compared bitwise across passes.
    let (wall_ms, (cells, build_ms)) =
        time_ms(|| amud_cache::with_cache(cached, || run_sweep(data, seeds, k_list, r_list, cfg)));
    Pass {
        label,
        wall_ms,
        build_ms,
        spmm: spmm_calls() - spmm_before,
        cache: amud_cache::stats().delta(&cache_before),
        cells,
    }
}

/// Bitwise equality of two passes' accuracy tables (`f64::to_bits`, so
/// "close enough" cannot mask a cache-introduced divergence).
fn tables_identical(a: &Pass, b: &Pass) -> bool {
    a.cells.len() == b.cells.len()
        && a.cells.iter().zip(&b.cells).all(|(x, y)| {
            x.k_steps == y.k_steps
                && x.conv_r == y.conv_r
                && x.mean.to_bits() == y.mean.to_bits()
                && x.n_failed == y.n_failed
        })
}

/// One timed call of a scaling case.
type Run<'a> = Box<dyn FnMut() + 'a>;

/// A timed call that trains `model` for one more epoch through `train()`.
fn epoch_run<'a>(mut model: impl Model + 'a, data: &'a GraphData) -> Run<'a> {
    let cfg = TrainConfig { epochs: 1, patience: 0, ..TrainConfig::default() };
    Box::new(move || {
        if let Err(e) = train(&mut model, data, cfg, 0) {
            fail(&format!("one training epoch failed: {e}"));
        }
    })
}

/// The Sec. IV-D rows (module docs): `(case, shape, min_ms)`, each the
/// minimum over `reps` interleaved rounds after one untimed round.
fn scaling(smoke: bool, reps: usize) -> Vec<(String, String, f64)> {
    // A DSBM digraph of average degree 8 for the propagation rows.
    let (n, m) = if smoke { (500, 4_000) } else { (2_000, 16_000) };
    let mut rng = StdRng::seed_from_u64(0);
    let g = DsbmConfig::new(n, m, 5)
        .with_homophily(0.3)
        .with_direction_informativeness(0.8)
        .with_structure(InterClassStructure::Cyclic)
        .generate(&mut rng);
    let family = |order| {
        PatternSet::up_to_order(g.adjacency(), order)
            .unwrap_or_else(|e| fail(&format!("DP operators of a square adjacency: {e:?}")))
    };
    let orders = [(1, family(1)), (2, family(2))];
    let x = &DenseMatrix::xavier_uniform(n, 64, &mut rng);
    let mut width_rng = StdRng::seed_from_u64(1);
    let widths: Vec<(usize, DenseMatrix)> = [16, 64, 256]
        .into_iter()
        .map(|f| (f, DenseMatrix::xavier_uniform(n, f, &mut width_rng)))
        .collect();
    // A chameleon replica for the epoch and construction rows.
    let node_cap = if smoke { 300 } else { 1000 };
    let scale = ReplicaScale { node_cap, feature_cap: 64, avg_degree_cap: 12.0 };
    let data = &to_graph_data(&replica("chameleon", scale, 0));
    let adpa =
        || Adpa::new(data, AdpaConfig::default(), 0).unwrap_or_else(|e| fail(&e.to_string()));

    let propagate = |patterns: &PatternSet, x: &DenseMatrix, k_steps| {
        PropagatedFeatures::compute(patterns, x, k_steps).unwrap_or_else(|e| fail(&e.to_string()))
    };
    let dsbm = |f| format!("dsbm n={n} m={m} f={f}");
    let chameleon = format!("chameleon n={} f={}", data.n_nodes(), data.n_features());
    let mut cases: Vec<(String, String, Run<'_>)> = Vec::new();
    for k_steps in [1, 3] {
        for (order, patterns) in &orders {
            let run = Box::new(move || drop(propagate(patterns, x, k_steps)));
            cases.push((format!("propagation/order{order}/{k_steps}"), dsbm(64), run));
        }
    }
    let order2 = &orders[1].1;
    for (f, x) in &widths {
        let run = Box::new(move || drop(propagate(order2, x, 2)));
        cases.push((format!("propagation_feature_width/{f}"), dsbm(*f), run));
    }
    cases.push(("epoch/adpa_decoupled".into(), chameleon.clone(), epoch_run(adpa(), data)));
    let nste = Nste::new(data, 64, 2, 0.4, 0);
    cases.push(("epoch/nste_coupled".into(), chameleon.clone(), epoch_run(nste, data)));
    let build = Box::new(move || drop(amud_cache::with_cache(false, adpa)));
    cases.push(("setup/adpa_construction".into(), format!("{chameleon} uncached"), build));

    for (_, _, run) in &mut cases {
        run();
    }
    let best = min_of_rounds(cases.len(), reps, |i| time_ms(|| (cases[i].2)()).0);
    cases.into_iter().zip(best).map(|((case, shape, _), ms)| (case, shape, ms)).collect()
}

fn main() {
    let BenchArgs { smoke, out: out_path, .. } = bench_args("BENCH_precompute.json", false);

    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let par_budget = amud_par::max_threads();
    let seeds = if smoke { 4 } else { 10 };
    let k_list: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let r_list: &[f32] = if smoke { &[0.0] } else { &[0.0, 0.5] };
    // Short runs: training is decoupled (dense-only), so epochs add equal
    // constant work to every pass without touching a single spmm.
    let cfg = TrainConfig { epochs: if smoke { 5 } else { 10 }, patience: 0, ..sweep_config() };

    let data = load("chameleon", 42);
    println!(
        "bench-precompute: chameleon n={} seeds={seeds} k_steps={k_list:?} conv_r={r_list:?} \
         epochs={} host_threads={host_threads} amud_threads={par_budget}{}",
        data.n_nodes(),
        cfg.epochs,
        if smoke { " (smoke)" } else { "" }
    );

    precompute::clear();
    let uncached = measure("uncached", false, &data, seeds, k_list, r_list, cfg);
    precompute::clear();
    let cold = measure("cold", true, &data, seeds, k_list, r_list, cfg);
    let warm = measure("warm", true, &data, seeds, k_list, r_list, cfg);

    let passes = [&uncached, &cold, &warm];
    println!(
        "\n{:<10} {:>12} {:>12} {:>12}  cache (ops h/m, features h/m/x)",
        "pass", "wall", "build", "spmm"
    );
    for p in passes {
        println!(
            "{:<10} {:>10.1}ms {:>10.1}ms {:>12} {}",
            p.label, p.wall_ms, p.build_ms, p.spmm, p.cache
        );
    }

    let identical = tables_identical(&uncached, &cold) && tables_identical(&cold, &warm);
    // Acceptance gate: a warm sweep must perform ≥5× fewer spmm calls than
    // a cold one (counted, not estimated).
    let gate_ok = warm.spmm.saturating_mul(5) <= cold.spmm;
    println!(
        "\ntables bit-identical across passes: {identical}\n\
         spmm reduction cold→warm: {} → {} ({})",
        cold.spmm,
        warm.spmm,
        if warm.spmm == 0 {
            "all served from cache".to_string()
        } else {
            format!("{:.1}x", cold.spmm as f64 / warm.spmm as f64)
        }
    );

    let reps = 15;
    let scaling = scaling(smoke, reps);
    println!("\n{:<32} {:<30} {:>12}", "scaling case", "shape", "min");
    for (case, shape, ms) in &scaling {
        println!("{case:<32} {shape:<30} {ms:>10.3}ms");
    }

    Object::new()
        .field("host_threads", host_threads)
        .field("amud_threads", par_budget)
        .field("smoke", smoke)
        .str("dataset", "chameleon")
        .field("n_nodes", data.n_nodes())
        .field("seeds", seeds)
        .field("k_steps", format!("{k_list:?}"))
        .field("conv_r", format!("{r_list:.1?}"))
        .field("epochs", cfg.epochs)
        .rows(
            "passes",
            passes.iter().map(|p| {
                Object::new()
                    .str("pass", p.label)
                    .field("wall_ms", format!("{:.2}", p.wall_ms))
                    .field("build_ms", format!("{:.2}", p.build_ms))
                    .field("spmm_calls", p.spmm)
                    .field("op_hits", p.cache.op_hits)
                    .field("op_misses", p.cache.op_misses)
                    .field("feat_hits", p.cache.feat_hits)
                    .field("feat_misses", p.cache.feat_misses)
                    .field("feat_extends", p.cache.feat_extends)
            }),
        )
        .rows(
            "cells",
            warm.cells.iter().map(|c| {
                Object::new()
                    .field("k_steps", c.k_steps)
                    .field("conv_r", format!("{:.1}", c.conv_r))
                    .field("mean_acc", format!("{:.6}", c.mean))
                    .field("n_failed", c.n_failed)
            }),
        )
        .rows(
            "scaling",
            scaling.into_iter().map(|(case, shape, ms)| {
                Object::new()
                    .str("case", &case)
                    .str("shape", &shape)
                    .field("reps", reps)
                    .field("min_ms", format!("{ms:.4}"))
            }),
        )
        .field("tables_identical", identical)
        .field("spmm_reduction_gate_5x", gate_ok)
        .write(&out_path);

    if !identical {
        fail("cached and uncached sweeps diverged bitwise");
    }
    if !gate_ok {
        fail(&format!(
            "warm sweep performed {} spmm calls vs {} cold — below the 5x reduction gate",
            warm.spmm, cold.spmm
        ));
    }
}
