//! `bench-quant` — quantized artifacts and the decode-then-matmul hot path.
//!
//! The inference path is bandwidth-bound: a row-gather engine streams
//! propagated feature tensors whose size, not flop count, sets the
//! latency floor. This harness measures what quantization buys and
//! proves it changes nothing it must not:
//!
//! 1. **decode-then-matmul** — `matmul_deq` over int8 weights, timed
//!    against the f32 `matmul` at dataset-scale shapes and compared
//!    bitwise with `a.matmul(&q.dequantize())`. `matmul_deq` is that
//!    expression by construction; the bitwise check guards against a
//!    fused per-precision kernel creeping back in and drifting from it;
//! 2. **artifact bytes** — disk bytes ([`write_snapshot`]'s return) and
//!    resident bytes (`QuantizedExport::n_bytes`) per precision, gated at
//!    ≥ 3.0× (int8) reduction vs f32;
//! 3. **per-query latency** — engine `logits` on a serving-sized batch,
//!    per precision;
//! 4. **thread determinism** — quantized-engine logits must be
//!    bit-identical across `AMUD_THREADS` ∈ {1, 2, 3, 8};
//! 5. **accuracy sweep** — train ADPA on tiny registry replicas, serve
//!    the same model at f32 and int8, and gate the mean test-accuracy
//!    drop at ≤ 0.5 points.
//!
//! Results go to `BENCH_quant.json`. Exit code 1 if any gate fails.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-quant             # full shapes
//! cargo run --release -p amud-bench --bin bench-quant -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-quant -- --out q.json
//! cargo run --release -p amud-bench --bin bench-quant -- --smoke --check BENCH_quant.json
//! ```
//!
//! `--check <baseline.json>` is the gate `bench-kernels` uses
//! ([`amud_bench::check_serial_ms`]): any kernel/shape row present in
//! both runs may regress `serial_ms` by at most 10% plus a 0.25 ms noise
//! floor; a row over its limit is re-timed for another 15 interleaved
//! rounds and fails only if the minimum over both series is still over;
//! rows absent from the baseline are skipped, and an unreadable or
//! row-free baseline is exit 2.

use amud_bench::report::Object;
use amud_bench::{
    bench_args, bits_equal, check_serial_ms, fail, min_of_rounds, seeded, time_ms, BenchArgs,
};
use amud_core::paradigm;
use amud_core::{Adpa, AdpaConfig};
use amud_datasets::registry::all_specs;
use amud_datasets::{replica, ReplicaScale};
use amud_nn::DenseMatrix;
use amud_quant::{matmul_deq, Precision, QMatrix, QuantSpec};
use amud_serve::{write_snapshot, Engine, Snapshot};
use amud_train::{accuracy, train, GraphData, TrainConfig};

struct KernelRow {
    kernel: &'static str,
    shape: String,
    serial_ms: f64,
    /// Bytes actually streamed per call (A + stored B + output).
    bytes: f64,
    bit_identical: bool,
}

impl KernelRow {
    fn gbs(&self) -> f64 {
        self.bytes / (self.serial_ms * 1e-3) / 1e9
    }
}

struct ArtifactRow {
    precision: &'static str,
    disk_bytes: usize,
    resident_bytes: usize,
    query_us: f64,
}

struct AccuracyRow {
    dataset: String,
    f32_acc: f64,
    i8_acc: f64,
}

fn data_for(name: &str, seed: u64) -> GraphData {
    let d = replica(name, ReplicaScale::tiny(), seed);
    match GraphData::from_dataset(&d) {
        Ok(g) => g,
        Err(e) => fail(&format!("replica {name}: {e}")),
    }
}

/// Test accuracy of an engine over its full node set.
fn engine_accuracy(engine: &Engine, data: &GraphData) -> f64 {
    let all: Vec<usize> = (0..engine.n_nodes()).collect();
    let logits = engine.logits(&all).unwrap_or_else(|e| fail(&e.to_string()));
    accuracy(&logits, &data.labels, &data.test)
}

fn main() {
    let BenchArgs { smoke, out: out_path, check } = bench_args("BENCH_quant.json", true);

    let par_budget = amud_par::max_threads();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let reps = 15;
    println!(
        "bench-quant: host_threads={host_threads} amud_threads={par_budget} reps={reps}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // -- Phase 1: matmul_deq vs an explicit decode-then-matmul, bitwise.
    let dense_shapes: &[(usize, usize, usize)] = if smoke {
        &[(256, 64, 32), (1200, 128, 64)]
    } else {
        &[(256, 64, 32), (1200, 128, 64), (4096, 256, 128)]
    };
    let mut kernels: Vec<KernelRow> = Vec::new();
    // Each kernel row's operands, kept for the `--check` re-time.
    let mut operands: Vec<(DenseMatrix, QMatrix)> = Vec::new();
    for &(n, f, h) in dense_shapes {
        let a = &seeded(n, f, 1);
        let b = seeded(f, h, 2);
        let shape = format!("{n}x{f}x{h}");
        let out_bytes = (4 * n * h) as f64;
        let a_bytes = (4 * n * f) as f64;

        // The f32 row runs through `matmul_deq` too: for a `QMatrix::F32`
        // weight it is the plain f32 `matmul`.
        let weights: Vec<(&'static str, QMatrix)> =
            [("matmul_f32", Precision::F32), ("matmul_deq_i8", Precision::I8)]
                .into_iter()
                .map(|(name, precision)| (name, QMatrix::quantize(&b, precision)))
                .collect();
        // The exactness contract: matmul_deq == decode-then-matmul, bit
        // for bit. (It differs from f32 matmul by the quantization
        // rounding itself, which is the accuracy sweep's concern.) These
        // calls double as the warm-up for the timed rounds below.
        let identical: Vec<bool> = weights
            .iter()
            .map(|(_, q)| {
                let got = matmul_deq(a, q);
                bits_equal(got.as_slice(), a.matmul(&q.dequantize()).as_slice())
            })
            .collect();
        // Interleaved rounds keep the matmul_deq / matmul_f32 ratio
        // meaningful on a shared host.
        let best =
            min_of_rounds(weights.len(), reps, |i| time_ms(|| matmul_deq(a, &weights[i].1)).0);
        for (((name, q), ms), bit_identical) in weights.into_iter().zip(best).zip(identical) {
            kernels.push(KernelRow {
                kernel: name,
                shape: shape.clone(),
                serial_ms: ms,
                bytes: a_bytes + q.n_bytes() as f64 + out_bytes,
                bit_identical,
            });
            operands.push((a.clone(), q));
        }
    }
    println!("{:<16} {:<16} {:>10} {:>8}  bits", "kernel", "shape", "serial", "GB/s");
    for r in &kernels {
        println!(
            "{:<16} {:<16} {:>8.3}ms {:>8.2}  {}",
            r.kernel,
            r.shape,
            r.serial_ms,
            r.gbs(),
            if r.bit_identical { "identical" } else { "DIVERGED" }
        );
    }
    if kernels.iter().any(|r| !r.bit_identical) {
        fail("matmul_deq diverged from its decode-then-matmul reference");
    }

    // -- Phase 2+3: artifact bytes on disk and resident, per-query latency.
    let (n_nodes, n_feat) = if smoke { (300, 16) } else { (4096, 64) };
    let base = amud_serve::synthetic_snapshot(1, n_nodes, n_feat, 3, 2, 32, 0);
    let batch: Vec<usize> = (0..8).map(|i| (i * 37) % n_nodes).collect();
    let snap_path =
        std::env::temp_dir().join(format!("amud-bench-quant-{}.snap", std::process::id()));
    let mut artifacts: Vec<ArtifactRow> = Vec::new();
    let mut engines: Vec<(Precision, Engine)> = Vec::new();
    for precision in [Precision::F32, Precision::I8] {
        let snap = base.requantized(QuantSpec::uniform(precision));
        let disk_bytes = write_snapshot(&snap_path, &snap).unwrap_or_else(|e| fail(&e.to_string()));
        let resident_bytes = snap.export.n_bytes();
        let engine = Engine::new(snap).unwrap_or_else(|e| fail(&e.to_string()));
        artifacts.push(ArtifactRow {
            precision: precision.name(),
            disk_bytes,
            resident_bytes,
            query_us: f64::INFINITY,
        });
        engines.push((precision, engine));
    }
    // Minimum per-query latency over interleaved rounds, as in phase 1.
    let query_ms = min_of_rounds(engines.len(), reps * 20, |i| {
        time_ms(|| engines[i].1.logits(&batch).unwrap_or_else(|e| fail(&e.to_string()))).0
    });
    for (row, ms) in artifacts.iter_mut().zip(query_ms) {
        row.query_us = ms * 1e3;
    }
    std::fs::remove_file(&snap_path).ok();
    let f32_row = &artifacts[0];
    println!(
        "{:<10} {:>12} {:>14} {:>10} {:>10}",
        "precision", "disk", "resident", "disk_x", "query"
    );
    for r in &artifacts {
        println!(
            "{:<10} {:>11}B {:>13}B {:>9.2}x {:>8.1}us",
            r.precision,
            r.disk_bytes,
            r.resident_bytes,
            f32_row.disk_bytes as f64 / r.disk_bytes as f64,
            r.query_us
        );
    }
    let i8_row = &artifacts[1];
    for (kind, f32_b, b) in [
        ("disk", f32_row.disk_bytes, i8_row.disk_bytes),
        ("resident", f32_row.resident_bytes, i8_row.resident_bytes),
    ] {
        let ratio = f32_b as f64 / b as f64;
        if ratio < 3.0 {
            fail(&format!("int8 {kind} reduction {ratio:.2}x is below the 3.0x gate"));
        }
    }

    // -- Phase 4: quantized logits must not depend on the thread budget.
    for (precision, engine) in &engines {
        let reference = amud_par::with_threads(1, || {
            engine.logits(&batch).unwrap_or_else(|e| fail(&e.to_string()))
        });
        for budget in [2usize, 3, 8] {
            let got = amud_par::with_threads(budget, || {
                engine.logits(&batch).unwrap_or_else(|e| fail(&e.to_string()))
            });
            if !bits_equal(got.as_slice(), reference.as_slice()) {
                fail(&format!(
                    "{} engine logits diverged at AMUD_THREADS={budget}",
                    precision.name()
                ));
            }
        }
    }
    println!("determinism: logits bit-identical across thread budgets 1/2/3/8");

    // -- Phase 5: registry sweep — quantization may cost ≤ 0.5pt mean acc.
    let sweep: Vec<String> = {
        let names: Vec<String> = all_specs().iter().map(|s| s.name.to_string()).collect();
        let take = if smoke { 1 } else { 3.min(names.len()) };
        names.into_iter().take(take).collect()
    };
    let epochs = if smoke { 30 } else { 60 };
    let cfg = TrainConfig { epochs, patience: 20, ..TrainConfig::default() };
    let mut rows: Vec<AccuracyRow> = Vec::new();
    for name in &sweep {
        let data = data_for(name, 0);
        let (prepared, _, _) = paradigm::prepare_topology(&data);
        let mut model =
            Adpa::new(&prepared, AdpaConfig::default(), 0).unwrap_or_else(|e| fail(&e.to_string()));
        train(&mut model, &prepared, cfg, 0).unwrap_or_else(|e| fail(&e.to_string()));
        let snap = Snapshot::from_export(1, model.export());
        let acc_at = |spec: QuantSpec| {
            let engine =
                Engine::new(snap.requantized(spec)).unwrap_or_else(|e| fail(&e.to_string()));
            engine_accuracy(&engine, &prepared)
        };
        let row = AccuracyRow {
            dataset: name.to_string(),
            f32_acc: acc_at(QuantSpec::F32),
            i8_acc: acc_at(QuantSpec::uniform(Precision::I8)),
        };
        println!("accuracy: {:<18} f32 {:.3}  int8 {:.3}", row.dataset, row.f32_acc, row.i8_acc);
        rows.push(row);
    }
    let drop_i8 = rows.iter().map(|r| r.f32_acc - r.i8_acc).sum::<f64>() / rows.len() as f64;
    println!("accuracy: mean drop vs f32 — int8 {:.2}pt (gate ≤ 0.50pt)", drop_i8 * 100.0);
    if drop_i8 > 0.005 {
        fail(&format!("int8 mean accuracy drop {:.2}pt exceeds the 0.5pt gate", drop_i8 * 100.0));
    }

    Object::new()
        .field("host_threads", host_threads)
        .field("amud_threads", par_budget)
        .field("reps", reps)
        .field("smoke", smoke)
        .rows(
            "kernels",
            kernels.iter().map(|r| {
                Object::new()
                    .str("kernel", r.kernel)
                    .str("shape", r.shape.as_str())
                    .field("serial_ms", format!("{:.4}", r.serial_ms))
                    .field("gbs", format!("{:.4}", r.gbs()))
                    .field("bit_identical", r.bit_identical)
            }),
        )
        .rows(
            "artifacts",
            artifacts.iter().map(|r| {
                Object::new()
                    .str("precision", r.precision)
                    .field("disk_bytes", r.disk_bytes)
                    .field("resident_bytes", r.resident_bytes)
                    .field(
                        "disk_ratio",
                        format!("{:.4}", f32_row.disk_bytes as f64 / r.disk_bytes as f64),
                    )
                    .field(
                        "resident_ratio",
                        format!("{:.4}", f32_row.resident_bytes as f64 / r.resident_bytes as f64),
                    )
                    .field("query_us", format!("{:.2}", r.query_us))
            }),
        )
        .rows(
            "accuracy",
            rows.iter().map(|r| {
                Object::new()
                    .str("dataset", r.dataset.as_str())
                    .field("f32_acc", format!("{:.4}", r.f32_acc))
                    .field("i8_acc", format!("{:.4}", r.i8_acc))
            }),
        )
        .field("mean_drop_i8_pt", format!("{:.4}", drop_i8 * 100.0))
        .field("thread_deterministic", true)
        .write(&out_path);

    if let Some(path) = check {
        let rows: Vec<_> =
            kernels.iter().map(|r| (r.kernel, r.shape.as_str(), r.serial_ms)).collect();
        check_serial_ms(&path, &rows, |ix| {
            min_of_rounds(ix.len(), reps, |j| {
                let (a, q) = &operands[ix[j]];
                time_ms(|| matmul_deq(a, q)).0
            })
        });
    }
}
