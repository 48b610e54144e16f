//! Seeded violation: a panicking helper transitively reachable from a
//! kernel hot path that enters the parallel runtime. Expected findings
//! under the label `crates/nn/src/fixture.rs`:
//!   1 × panic-reachability  (the `.expect` in `factor`, via kernel → scale)

pub fn kernel(data: &mut [f32]) {
    let parts = split_even(data.len(), 4);
    par_row_blocks_mut(data, 1, &parts, |_, _, block| scale(block));
}

fn scale(block: &mut [f32]) {
    let k = factor();
    for v in block.iter_mut() {
        *v *= k;
    }
}

fn factor() -> f32 {
    std::env::args().next().expect("argv0 always present").len() as f32
}
