//! Lint fixture: one seeded violation per rustc/clippy lint that replaced
//! a retired amud-lint rule. Never part of the workspace build — `ci.sh`
//! compiles it alone with `clippy-driver` from the repo root (so the root
//! `clippy.toml` applies) with every one of these lints at deny, and
//! requires the output to name each lint on its own.

// missing_docs (was `undocumented-public-item`): no doc comment.
pub fn undocumented() {}

/// `clippy::unwrap_used` (was `unwrap-ratchet`).
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

/// `clippy::expect_used` (was `unwrap-ratchet`).
pub fn last(xs: &[u32]) -> u32 {
    *xs.last().expect("non-empty")
}

/// `unsafe_code` and `clippy::undocumented_unsafe_blocks` (were
/// `unsafe-contract`): an `unsafe` block with no `// SAFETY:` comment.
pub fn read(x: &f32) -> f32 {
    let p: *const f32 = x;
    unsafe { *p }
}

/// `clippy::disallowed_methods` on `std::thread::spawn` (was
/// `raw-thread-spawn`).
pub fn rogue_thread() {
    std::thread::spawn(|| {});
}

/// `clippy::disallowed_methods` on a sync constructor (was
/// `concurrency-discipline`).
pub fn rogue_counter() -> std::sync::atomic::AtomicU64 {
    std::sync::atomic::AtomicU64::new(0)
}

/// `clippy::panic`, `clippy::todo`, `clippy::unimplemented` (were
/// `panic-in-kernel`).
pub fn kernel(mode: u8) {
    match mode {
        0 => panic!("boom"),
        1 => todo!(),
        _ => unimplemented!(),
    }
}
