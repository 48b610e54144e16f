//! `bench-precompute` — cold vs warm cost of the ADPA precompute cache.
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
//! For each pass it measures wall-clock, the **counted** number of
//! `CsrMatrix::spmm` invocations (a monotonic counter in amud-graph, not
//! an estimate), and the cache hit/miss/extend deltas, then verifies the
//! three passes produced bit-identical per-grid-point accuracy summaries.
//! Results go to `BENCH_precompute.json`. Exit code 1 if any pass diverges
//! bitwise or the warm pass fails the ≥5× spmm-reduction acceptance gate.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-precompute             # full grid
//! cargo run --release -p amud-bench --bin bench-precompute -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-precompute -- --out p.json
//! ```

use amud_bench::{bench_args, load, sweep_config, BenchArgs};
use amud_cache::CacheStats;
use amud_core::{precompute, Adpa, AdpaConfig};
use amud_graph::spmm_calls;
use amud_train::{repeat_runs, GraphData, TrainConfig};
use std::time::Instant;

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
    spmm: u64,
    cache: CacheStats,
    cells: Vec<Cell>,
}

fn run_sweep(
    data: &GraphData,
    seeds: usize,
    k_list: &[usize],
    r_list: &[f32],
    cfg: TrainConfig,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &k_steps in k_list {
        for &conv_r in r_list {
            let adpa_cfg = AdpaConfig { k_steps, conv_r, ..Default::default() };
            let out = repeat_runs(|s| Adpa::new(data, adpa_cfg, s), data, cfg, seeds, 0);
            cells.push(Cell {
                k_steps,
                conv_r,
                mean: out.summary.mean,
                n_failed: out.summary.n_failed,
            });
        }
    }
    cells
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
    let t = Instant::now();
    let cells = amud_cache::with_cache(cached, || run_sweep(data, seeds, k_list, r_list, cfg));
    // TAINT-PURE(wall_ms): pass wall-clock is a reporting field; the
    // accuracy cells it rides beside are compared bitwise across passes.
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Pass {
        label,
        wall_ms,
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
    println!("\n{:<10} {:>12} {:>12}  cache (ops h/m, features h/m/x)", "pass", "wall", "spmm");
    for p in passes {
        println!("{:<10} {:>10.1}ms {:>12} {}", p.label, p.wall_ms, p.spmm, p.cache);
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

    // Machine-readable JSON (hand-rendered: std-only workspace).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"amud_threads\": {par_budget},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"dataset\": \"chameleon\",\n");
    json.push_str(&format!("  \"n_nodes\": {},\n", data.n_nodes()));
    json.push_str(&format!("  \"seeds\": {seeds},\n"));
    json.push_str(&format!("  \"k_steps\": {k_list:?},\n"));
    json.push_str(&format!(
        "  \"conv_r\": [{}],\n",
        r_list.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!("  \"epochs\": {},\n", cfg.epochs));
    json.push_str("  \"passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"pass\": \"{}\", \"wall_ms\": {:.2}, \"spmm_calls\": {}, \
             \"op_hits\": {}, \"op_misses\": {}, \"feat_hits\": {}, \"feat_misses\": {}, \
             \"feat_extends\": {}}}{}\n",
            p.label,
            p.wall_ms,
            p.spmm,
            p.cache.op_hits,
            p.cache.op_misses,
            p.cache.feat_hits,
            p.cache.feat_misses,
            p.cache.feat_extends,
            if i + 1 < passes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in warm.cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k_steps\": {}, \"conv_r\": {:.1}, \"mean_acc\": {:.6}, \"n_failed\": {}}}{}\n",
            c.k_steps,
            c.conv_r,
            c.mean,
            c.n_failed,
            if i + 1 < warm.cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"tables_identical\": {identical},\n"));
    json.push_str(&format!("  \"spmm_reduction_gate_5x\": {gate_ok}\n}}\n"));
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if !identical {
        eprintln!("error: cached and uncached sweeps diverged bitwise");
        std::process::exit(1);
    }
    if !gate_ok {
        eprintln!(
            "error: warm sweep performed {} spmm calls vs {} cold — below the 5x reduction gate",
            warm.spmm, cold.spmm
        );
        std::process::exit(1);
    }
}
