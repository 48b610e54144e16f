//! Disjoint mutable-slice fan-out — the `par_chunks_mut` layer.
//!
//! These helpers are the only place the runtime hands `&mut` data across
//! threads, and they do it the boring way: validate up front that the
//! requested row ranges tile the buffer without overlap, then let each
//! task reborrow exactly its own block. Everything else in the workspace
//! builds on these two functions, so the unsafe surface stays here.
//!
//! The validation is plain `assert!`, on in release builds too, so a bad
//! range set panics on the call's first run before any block exists. The
//! rest of the argument is the type system's: `data` stays exclusively
//! borrowed for the whole call, the closure is `Fn + Sync`, and each block
//! is a `&mut [T]` that cannot outlive the call. No other crate may write
//! `unsafe` (the workspace forbids it), so no second `&mut` into a block
//! can be built outside this module.

use crate::pool;
use std::ops::Range;

/// Raw base pointer that may cross threads. Safe to share because every
/// task derives a *disjoint* sub-slice from it (validated by the caller).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — whose `Send`/`Sync` impls carry the safety argument —
    /// instead of edition-2021-disjoint-capturing the bare `*mut T`.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` crosses threads only so each task can reconstruct its
// own output block. Every slice derived from it covers a row range the
// ascending-range validation in `par_row_blocks_mut` proved disjoint from
// all others, and the owning `&mut [T]` stays exclusively borrowed by
// that call until every task has returned — so moving the pointer to
// another thread can never create an aliasing access.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `SendPtr` between tasks is sound for the same reason it
// may move: tasks only derive pairwise-disjoint sub-slices from the base
// pointer (validated by `par_row_blocks_mut`), so concurrent use never
// aliases an element of the exclusively borrowed buffer.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Runs `f(part, rows, block)` for every row-range in `parts`, in
/// parallel, where `block` is the sub-slice
/// `data[rows.start * stride .. rows.end * stride]` owned exclusively by
/// that task. Ranges must ascend without overlap and fit the buffer;
/// determinism follows because each output element is written by the same
/// code over the same inputs no matter how tasks are scheduled.
///
/// # Panics
/// Panics if the ranges overlap, regress, or exceed `data.len()`.
pub fn par_row_blocks_mut<T, F>(data: &mut [T], stride: usize, parts: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let mut prev_end = 0;
    for r in parts {
        assert!(
            r.start >= prev_end && r.end >= r.start,
            "par_row_blocks_mut: ranges must ascend without overlap"
        );
        prev_end = r.end;
    }
    assert!(
        prev_end.checked_mul(stride).is_some_and(|n| n <= data.len()),
        "par_row_blocks_mut: ranges exceed the buffer"
    );
    let base = SendPtr(data.as_mut_ptr());
    pool::run(parts.len(), |p| {
        let rows = parts[p].clone();
        let len = (rows.end - rows.start) * stride;
        let start = base.get().wrapping_add(rows.start * stride);
        // SAFETY: `start`/`len` delimit exactly rows `rows` of `data`,
        // which the ascending-range assertions above proved in-bounds and
        // disjoint from every other task's block; `pool::run` gives part
        // `p` to exactly one task and returns before `data`'s exclusive
        // borrow ends, so this is the only live reference into the block.
        let block = unsafe { std::slice::from_raw_parts_mut(start, len) };
        f(p, rows, block);
    });
}

/// Convenience wrapper: splits `data` into `parts` near-equal contiguous
/// chunks ([`crate::split_even`]) and runs `f(part, range, chunk)` on each.
pub fn par_chunks_mut<T, F>(data: &mut [T], parts: usize, f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let ranges = crate::split_even(data.len(), parts);
    par_row_blocks_mut(data, 1, &ranges, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_fill_disjointly_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0usize; 1000];
            crate::with_threads(threads, || {
                par_chunks_mut(&mut data, 7, |_, range, chunk| {
                    for (offset, v) in chunk.iter_mut().enumerate() {
                        *v = range.start + offset;
                    }
                });
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i), "threads={threads}");
        }
    }

    #[test]
    fn row_blocks_respect_stride() {
        let mut data = vec![0u32; 6 * 4];
        let parts = [0..2, 2..3, 3..6];
        crate::with_threads(4, || {
            par_row_blocks_mut(&mut data, 4, &parts, |p, rows, block| {
                assert_eq!(block.len(), rows.len() * 4);
                block.fill(p as u32 + 1);
            });
        });
        let expect: Vec<u32> =
            [1, 1, 2, 3, 3, 3].iter().flat_map(|&v| std::iter::repeat_n(v, 4)).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn empty_ranges_and_empty_data_are_fine() {
        let mut data: Vec<f32> = Vec::new();
        par_row_blocks_mut(&mut data, 3, &[0..0, 0..0], |_, _, block| {
            assert!(block.is_empty());
        });
        let mut data = vec![1.0f32; 8];
        par_row_blocks_mut(&mut data, 2, &[0..0, 0..4], |_, rows, block| {
            assert_eq!(block.len(), rows.len() * 2);
        });
    }

    #[test]
    #[should_panic(expected = "ranges must ascend")]
    fn overlapping_ranges_are_rejected() {
        let mut data = vec![0u8; 10];
        par_row_blocks_mut(&mut data, 1, &[0..5, 4..10], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "exceed the buffer")]
    #[allow(clippy::single_range_in_vec_init)]
    fn oversized_ranges_are_rejected() {
        let mut data = vec![0u8; 10];
        par_row_blocks_mut(&mut data, 4, &[0..3], |_, _, _| {});
    }

    /// Bad range sets the asserts must reject before any block is built.
    /// Without `r.end >= r.start`, an inverted range would wrap
    /// `rows.end - rows.start` in release builds and hand
    /// `from_raw_parts_mut` a huge length; an overflowing row product
    /// would wrap the same way.
    #[test]
    #[allow(clippy::reversed_empty_ranges, clippy::single_range_in_vec_init)]
    fn malformed_range_sets_are_rejected() {
        let cases: [(&str, usize, &[Range<usize>], &str); 4] = [
            ("inverted range", 1, &[5..3], "ranges must ascend"),
            ("descending disjoint ranges", 1, &[5..10, 0..5], "ranges must ascend"),
            ("row product overflows", usize::MAX, &[0..2], "exceed the buffer"),
            ("row product wraps to zero", 1 << (usize::BITS - 1), &[0..2], "exceed the buffer"),
        ];
        for threads in [1, 4] {
            for (case, stride, parts, expected) in cases {
                let ran = std::sync::atomic::AtomicBool::new(false);
                let result = std::panic::catch_unwind(|| {
                    let mut data = vec![0u8; 10];
                    crate::with_threads(threads, || {
                        par_row_blocks_mut(&mut data, stride, parts, |_, _, _| {
                            ran.store(true, std::sync::atomic::Ordering::Relaxed);
                        });
                    });
                });
                let Err(payload) = result else {
                    panic!("{case} (threads={threads}) was accepted");
                };
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert!(msg.contains(expected), "{case}: panicked with {msg:?}");
                assert!(!ran.into_inner(), "{case}: a task ran before the asserts");
            }
        }
    }
}
