//! `bench-kernels` — serial vs parallel timings for the amud-par hot paths.
//!
//! Times every runtime-backed kernel (`matmul`, `matmul_transb`,
//! `matmul_transa`, `CsrMatrix::spmm`, and the elementwise/softmax layer)
//! and the boolean SpGEMM `CsrMatrix::bool_matmul` at dataset-scale
//! shapes, once with a 1-thread budget (exact serial fallback) and once
//! with the full `AMUD_THREADS` budget, and writes machine-readable
//! results to `BENCH_kernels.json`. Every pair is also compared bitwise,
//! so the report doubles as an equivalence check.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-kernels             # full shapes
//! cargo run --release -p amud-bench --bin bench-kernels -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-kernels -- --out p.json
//! cargo run --release -p amud-bench --bin bench-kernels -- --smoke --check BENCH_kernels.json
//! ```
//!
//! Every kernel/shape pair is timed as the minimum over 15 interleaved
//! rounds: each round runs every pair once, so a slow stretch of a shared
//! host slows all pairs alike instead of one pair's whole series. The GEMM
//! shapes include the Eq. 10 fuse layer on chameleon at k=5: `32x896x64`
//! is one 32-node serving request, `432x896x64` a row-local training
//! batch. The `bow` rows run `matmul` and `matmul_transa` with a sparse
//! binary left operand, like the bag-of-words features of the citation
//! replicas: most of its 4-element weight blocks are all zero, so those
//! rows time the kernels' zero skip, which the dense rows never take.
//!
//! The `bool_matmul` rows time the 2-hop product `A·A` that builds the
//! 2-order DP operators. The `dsbm` rows are sparse DSBM digraphs of
//! average degree 8, whose product rows hold a few dozen columns. The
//! `squirrel` row is the full-scale squirrel replica (2,223 nodes, 65.7k
//! edges), whose product holds about two thirds of all ordered pairs.
//! `bool_matmul` is serial, so its parallel column repeats the serial run.
//! The `squirrel` `spmm` row propagates 64 features through the
//! row-normalised `A·A` operator of that replica (diagonal removed, about
//! 3.1 M entries), the shape of most of `sweep-squirrel`'s Eq. 9
//! products; it runs in both smoke and full mode.
//!
//! Speedup expectations are hardware-gated: when the parallel budget
//! collapses to 1 thread the "parallel" run *is* the serial run (same
//! budget, same partition, same code), so each kernel is measured once and
//! the single number is reported for both columns; the `host_threads`
//! field records what the numbers were measured on.
//!
//! Throughput columns are derived from `serial_ms` with fixed per-kernel
//! formulas (documented on [`gemm_model`], [`stream_model`],
//! [`spmm_model`], and [`spgemm_model`]) — they are *algorithmic*
//! flop/traffic counts, not hardware counters, so they stay comparable
//! across hosts and code versions.
//!
//! `--check <baseline.json>` re-reads a previously committed report and
//! fails (exit 1) if any kernel/shape present in both runs regressed its
//! `serial_ms` by more than 10% plus a 0.25 ms absolute noise floor (the
//! floor absorbs host jitter on sub-millisecond kernels — observed at
//! ±0.2 ms between back-to-back runs on a shared 1-core host — while a
//! genuine 2× regression on any non-trivial shape still trips). A row
//! over its limit is re-timed for another 15 interleaved serial rounds
//! and fails only if the minimum over both series is still over.
//! Shapes absent from the baseline (e.g. smoke-only shapes) are skipped.

use amud_bench::report::Object;
use amud_bench::{
    bench_args, bits_equal, check_serial_ms, fail, min_of_rounds, seeded, time_ms, BenchArgs,
};
use amud_datasets::{replica, DsbmConfig, InterClassStructure, ReplicaScale};
use amud_graph::CsrMatrix;
use amud_nn::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct KernelResult {
    kernel: &'static str,
    shape: String,
    serial_ms: f64,
    parallel_ms: f64,
    /// Algorithmic flop count for the shape (0 for pure-movement kernels).
    flops: f64,
    /// Minimum memory traffic in bytes (each operand touched once).
    bytes: f64,
    bit_identical: bool,
}

impl KernelResult {
    fn gflops(&self) -> f64 {
        self.flops / (self.serial_ms * 1e-3) / 1e9
    }

    fn gbs(&self) -> f64 {
        self.bytes / (self.serial_ms * 1e-3) / 1e9
    }
}

/// What one timed call returns: a dense result, or a sparse one from
/// `bool_matmul`.
#[derive(Clone)]
enum Output {
    Dense(DenseMatrix),
    Sparse(CsrMatrix),
}

impl Output {
    /// Equal shapes, equal stored entries and equal value bits.
    fn same_bits(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Dense(a), Output::Dense(b)) => bits_equal(a.as_slice(), b.as_slice()),
            (Output::Sparse(a), Output::Sparse(b)) => {
                a.same_pattern(b)
                    && a.iter().zip(b.iter()).all(|(x, y)| x.2.to_bits() == y.2.to_bits())
            }
            _ => false,
        }
    }
}

impl From<DenseMatrix> for Output {
    fn from(m: DenseMatrix) -> Self {
        Output::Dense(m)
    }
}

/// Binary features with density 3%, the density of the bag-of-words
/// replicas' features (`amud_datasets::features`).
fn bag_of_words(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| if rng.gen::<f32>() < 0.03 { 1.0 } else { 0.0 })
}

/// Synthetic propagation operator at node count `n`: average degree ~16
/// with a handful of high-degree hubs and a band of empty rows, mirroring
/// the skew of real citation/co-purchase graphs.
fn skewed_operator(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();
    for hub in 0..(n / 200).max(1) {
        for _ in 0..n / 4 {
            edges.push((hub, rng.gen_range(0..n as u64) as usize, rng.gen_range(0.0f32..1.0)));
        }
    }
    for r in (n / 200).max(1)..n {
        if r % 23 == 0 {
            continue; // empty rows
        }
        for _ in 0..16 {
            edges.push((r, rng.gen_range(0..n as u64) as usize, rng.gen_range(0.0f32..1.0)));
        }
    }
    CsrMatrix::from_coo(n, n, edges)
        .unwrap_or_else(|e| fail(&format!("synthetic operator construction failed: {e:?}")))
}

/// DSBM digraph at node count `n` and average degree 8: heterophilous,
/// oriented, cyclic between its 5 classes.
fn dsbm_adjacency(n: usize) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(0);
    DsbmConfig::new(n, n * 8, 5)
        .with_homophily(0.3)
        .with_direction_informativeness(0.7)
        .with_structure(InterClassStructure::Cyclic)
        .generate(&mut rng)
        .adjacency()
        .clone()
}

/// One timed call of a kernel, returning its output so the serial and
/// parallel runs can be compared bit for bit. The output is moved out,
/// not copied, so the timing holds the kernel and nothing else.
type Run<'a> = Box<dyn Fn() -> Output + 'a>;

/// One kernel at one shape.
struct Case<'a> {
    kernel: &'static str,
    shape: String,
    flops: f64,
    bytes: f64,
    run: Run<'a>,
}

/// Minimum wall-clock of every case over `reps` interleaved rounds
/// ([`min_of_rounds`]) under a `threads` budget, and each case's output.
/// A first untimed round warms the caches and the pool.
fn time_rounds(cases: &[Case<'_>], reps: usize, threads: usize) -> (Vec<f64>, Vec<Output>) {
    amud_par::with_threads(threads, || {
        let outputs: Vec<Output> = cases.iter().map(|c| (c.run)()).collect();
        (min_of_rounds(cases.len(), reps, |i| time_ms(|| (cases[i].run)()).0), outputs)
    })
}

/// Throughput model for the GEMM family (`matmul`, `matmul_transb`,
/// `matmul_transa`) at `n×f×h`: `2·n·f·h` flops; minimum traffic reads
/// each operand once and writes the output once, `4·(n·f + f·h + n·h)`
/// bytes.
fn gemm_model(n: usize, f: usize, h: usize) -> (f64, f64) {
    ((2 * n * f * h) as f64, (4 * (n * f + f * h + n * h)) as f64)
}

/// Throughput model for streaming elementwise kernels over `elems`
/// elements: `flops_per_elem` ALU ops per element (transcendentals like
/// `exp` count as one — treat GFLOP/s as a relative index, not ALU
/// utilization) and one read plus one write per element, `2·4·elems`
/// bytes.
fn stream_model(elems: usize, flops_per_elem: usize) -> (f64, f64) {
    ((elems * flops_per_elem) as f64, (8 * elems) as f64)
}

/// Throughput model for `spmm` with `nnz` nonzeros against an `n×x_cols`
/// dense block: `2·nnz·x_cols` flops; traffic gathers one dense row per
/// nonzero plus the values, the `u32` column indices, and the output
/// write: `4·(2·nnz + nnz·x_cols + n·x_cols)` bytes.
fn spmm_model(n: usize, x_cols: usize, nnz: usize) -> (f64, f64) {
    ((2 * nnz * x_cols) as f64, (4 * (2 * nnz + nnz * x_cols + n * x_cols)) as f64)
}

/// Throughput model for `bool_matmul` `a · b`: one op per 2-hop path
/// (`Σ_r Σ_{k ∈ row r of a} nnz(row k of b)`, each a bit test, so GFLOP/s
/// reads as giga-paths per second); traffic reads one `u32` column index
/// per path and writes one per output entry: `4·(paths + nnz_out)` bytes.
fn spgemm_model(a: &CsrMatrix, b: &CsrMatrix, nnz_out: usize) -> (f64, f64) {
    let paths: usize =
        (0..a.n_rows()).flat_map(|r| a.row_cols(r)).map(|&k| b.row_cols(k as usize).len()).sum();
    (paths as f64, (4 * (paths + nnz_out)) as f64)
}

fn main() {
    let BenchArgs { smoke, out: out_path, check } = bench_args("BENCH_kernels.json", true);
    let par_budget = amud_par::max_threads();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Same rep count in smoke mode: the min-of-reps noise filter is what
    // makes `--check` trustworthy, and the smoke shapes are cheap.
    let reps = 15;
    // (nodes, features, hidden): tiny replica, the Eq. 10 fuse layer on
    // chameleon at k=5 ((5+1)·128 = 896 inputs) for one 32-node serving
    // request and for a row-local training batch, the default replica
    // cap, and a full-scale shape whose k-extent is above 2048 rows.
    let dense_shapes: &[(usize, usize, usize)] = if smoke {
        &[(256, 64, 32), (32, 896, 64), (1200, 128, 64)]
    } else {
        &[(256, 64, 32), (32, 896, 64), (432, 896, 64), (1200, 128, 64), (4096, 256, 128)]
    };
    // (nodes, features, hidden) for the bag-of-words first layer.
    let bow_shapes: &[(usize, usize, usize)] =
        if smoke { &[(1200, 128, 64)] } else { &[(1200, 128, 64), (4096, 256, 128)] };
    let spmm_shapes: &[(usize, usize)] =
        if smoke { &[(1200, 32)] } else { &[(1200, 64), (4096, 64), (16384, 64)] };
    // Node counts of the sparse `bool_matmul` rows.
    let dsbm_nodes: &[usize] = if smoke { &[500] } else { &[500, 2000, 8000] };

    let dense: Vec<_> = dense_shapes
        .iter()
        .map(|&(n, f, h)| {
            (n, f, h, seeded(n, f, 1), seeded(f, h, 2), seeded(h, f, 3), seeded(n, h, 4))
        })
        .collect();
    let bow: Vec<_> = bow_shapes
        .iter()
        .map(|&(n, f, h)| (n, f, h, bag_of_words(n, f, 9), seeded(f, h, 2), seeded(n, h, 4)))
        .collect();
    let mut sparse: Vec<_> = spmm_shapes
        .iter()
        .map(|&(n, x_cols)| (skewed_operator(n, 7), seeded(n, x_cols, 8), ""))
        .collect();
    let mut two_hop: Vec<(&'static str, CsrMatrix)> =
        dsbm_nodes.iter().map(|&n| ("dsbm", dsbm_adjacency(n))).collect();
    two_hop
        .push(("squirrel", replica("squirrel", ReplicaScale::full(), 1).graph.adjacency().clone()));
    let squirrel = &two_hop[two_hop.len() - 1].1;
    let squirrel_op = squirrel
        .bool_matmul(squirrel)
        .unwrap_or_else(|e| fail(&format!("bool_matmul of a square adjacency failed: {e:?}")))
        .without_diagonal()
        .normalized(0.0);
    let x = seeded(squirrel_op.n_rows(), 64, 8);
    sparse.push((squirrel_op, x, " squirrel 2-hop"));

    let mut cases: Vec<Case<'_>> = Vec::new();
    for (n, f, h, a, b, bt, g) in &dense {
        let (n, f, h) = (*n, *f, *h);
        let (flops, bytes) = gemm_model(n, f, h);
        let runs: [(&'static str, Run<'_>); 3] = [
            ("matmul", Box::new(move || a.matmul(b).into())),
            ("matmul_transb", Box::new(move || a.matmul_transb(bt).into())),
            ("matmul_transa", Box::new(move || a.matmul_transa(g).into())),
        ];
        for (kernel, run) in runs {
            cases.push(Case { kernel, shape: format!("{n}x{f}x{h}"), flops, bytes, run });
        }

        let (t_flops, t_bytes) = stream_model(n * f, 0);
        cases.push(Case {
            kernel: "transpose",
            shape: format!("{n}x{f}"),
            flops: t_flops,
            bytes: t_bytes,
            run: Box::new(move || a.transpose().into()),
        });

        let (sm_flops, sm_bytes) = stream_model(n * f, 9);
        cases.push(Case {
            kernel: "elementwise_softmax",
            shape: format!("{n}x{f}"),
            flops: sm_flops,
            bytes: sm_bytes,
            run: Box::new(move || {
                let mut m = a.map(|v| 1.0 / (1.0 + (-v).exp()));
                m.par_rows_mut(|_, row| {
                    let mut max = f32::NEG_INFINITY;
                    for &v in row.iter() {
                        max = max.max(v);
                    }
                    for v in row.iter_mut() {
                        *v = (*v - max).exp();
                    }
                    let sum = amud_par::lane_sum(row);
                    for v in row.iter_mut() {
                        *v /= sum;
                    }
                });
                m.into()
            }),
        });
    }
    for (n, f, h, x, w, g) in &bow {
        let (flops, bytes) = gemm_model(*n, *f, *h);
        let shape = format!("{n}x{f}x{h} bow");
        let runs: [(&'static str, Run<'_>); 2] = [
            ("matmul", Box::new(move || x.matmul(w).into())),
            ("matmul_transa", Box::new(move || x.matmul_transa(g).into())),
        ];
        for (kernel, run) in runs {
            cases.push(Case { kernel, shape: shape.clone(), flops, bytes, run });
        }
    }
    for (op, x, graph) in &sparse {
        let (n, x_cols) = (x.rows(), x.cols());
        let (sp_flops, sp_bytes) = spmm_model(n, x_cols, op.nnz());
        cases.push(Case {
            kernel: "spmm",
            shape: format!("{n}x{n} nnz={} X={n}x{x_cols}{graph}", op.nnz()),
            flops: sp_flops,
            bytes: sp_bytes,
            run: Box::new(move || {
                let mut out = vec![0.0f32; n * x_cols];
                op.spmm(x.as_slice(), x_cols, &mut out);
                DenseMatrix::from_vec(n, x_cols, out).into()
            }),
        });
    }
    for (graph, a) in &two_hop {
        let product = |a: &CsrMatrix| {
            a.bool_matmul(a).unwrap_or_else(|e| {
                fail(&format!("bool_matmul of a square adjacency failed: {e:?}"))
            })
        };
        let (flops, bytes) = spgemm_model(a, a, product(a).nnz());
        let n = a.n_rows();
        cases.push(Case {
            kernel: "bool_matmul",
            shape: format!("{n}x{n} nnz={} {graph}", a.nnz()),
            flops,
            bytes,
            run: Box::new(move || Output::Sparse(product(a))),
        });
    }

    let (serial, serial_out) = time_rounds(&cases, reps, 1);
    // A 1-thread budget takes the identical code path as the serial run
    // (same partitioning, same fallback); timing it separately would only
    // sample scheduler noise and report it as a speedup or a regression.
    // Measure once, report the one number for both.
    let (parallel, parallel_out) = if par_budget <= 1 {
        (serial.clone(), serial_out.clone())
    } else {
        time_rounds(&cases, reps, par_budget)
    };
    let results: Vec<KernelResult> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| KernelResult {
            kernel: c.kernel,
            shape: c.shape.clone(),
            serial_ms: serial[i],
            parallel_ms: parallel[i],
            flops: c.flops,
            bytes: c.bytes,
            bit_identical: serial_out[i].same_bits(&parallel_out[i]),
        })
        .collect();

    // Human-readable table.
    println!(
        "bench-kernels: host_threads={host_threads} amud_threads={par_budget} reps={reps}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<20} {:<34} {:>10} {:>10} {:>8} {:>8} {:>7}  bits",
        "kernel", "shape", "serial", "parallel", "speedup", "GFLOP/s", "GB/s"
    );
    for r in &results {
        println!(
            "{:<20} {:<34} {:>8.3}ms {:>8.3}ms {:>7.2}x {:>8.2} {:>7.2}  {}",
            r.kernel,
            r.shape,
            r.serial_ms,
            r.parallel_ms,
            r.serial_ms / r.parallel_ms,
            r.gflops(),
            r.gbs(),
            if r.bit_identical { "identical" } else { "DIVERGED" }
        );
    }

    println!();
    Object::new()
        .field("host_threads", host_threads)
        .field("amud_threads", par_budget)
        .field("reps", reps)
        .field("smoke", smoke)
        .rows(
            "results",
            results.iter().map(|r| {
                Object::new()
                    .str("kernel", r.kernel)
                    .str("shape", r.shape.as_str())
                    .field("serial_ms", format!("{:.4}", r.serial_ms))
                    .field("parallel_ms", format!("{:.4}", r.parallel_ms))
                    .field("speedup", format!("{:.4}", r.serial_ms / r.parallel_ms))
                    .field("gflops", format!("{:.4}", r.gflops()))
                    .field("gbs", format!("{:.4}", r.gbs()))
                    .field("bit_identical", r.bit_identical)
            }),
        )
        .write(&out_path);

    if results.iter().any(|r| !r.bit_identical) {
        fail("a kernel diverged between serial and parallel runs");
    }

    if let Some(path) = check {
        let rows: Vec<_> =
            results.iter().map(|r| (r.kernel, r.shape.as_str(), r.serial_ms)).collect();
        check_serial_ms(&path, &rows, |ix| {
            amud_par::with_threads(1, || {
                min_of_rounds(ix.len(), reps, |j| time_ms(|| (cases[ix[j]].run)()).0)
            })
        });
    }
}
