//! Lint fixture: seeded violations for the `float-determinism` pass.
//! Never compiled — only analyzed (under a non-`crates/par` label).
//!
//! Expected findings inside the `par_row_blocks_mut` closure: an iterator
//! `.sum`, an iterator `.fold`, and a bare-identifier `+=` accumulation.
//! The deref-LHS update `*o += …` and the serial `.sum` must NOT fire.
//! A hand-rolled `[f32; 8]` lane-accumulator fold fires anywhere in the
//! file, even outside a par closure; an integer histogram must NOT.

pub fn bad_reductions(data: &mut [f32], n_rows: usize) {
    let parts = amud_par::split_even(n_rows, 4);
    amud_par::par_row_blocks_mut(data, 4, &parts, |_, rows, block| {
        let total = block.iter().sum::<f32>();
        let folded = block.iter().fold(0.0f32, |a, b| a + b);
        let mut acc = 0.0f32;
        for &v in block.iter() {
            acc += v;
        }
        for (o, r) in block.iter_mut().zip(rows) {
            *o += (r as f32) + total + folded + acc;
        }
    });
}

pub fn serial_sum_is_fine(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

pub fn raw_lane_accumulator(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (i, &v) in xs.iter().enumerate() {
        lanes[i % 8] += v;
    }
    lanes.iter().sum()
}

pub fn integer_histogram_is_fine(xs: &[u8]) -> [u32; 4] {
    let mut counts = [0u32; 4];
    for &v in xs {
        counts[(v % 4) as usize] += 1;
    }
    counts
}
