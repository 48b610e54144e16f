//! Lint fixture: the engine's negative control — a file every pass
//! accepts. Exercised by `tests/cli.rs` in explicit-file mode (exit code
//! 0) and by the golden tests as the all-clean snapshot.

/// Largest entry of a slice (`NEG_INFINITY` when empty).
pub fn max_entry(xs: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for &x in xs {
        best = best.max(x);
    }
    best
}

/// Strings and comments must hide rule tokens: .unwrap() panic! unsafe.
pub fn decoys() -> &'static str {
    // a comment may say thread::spawn without tripping the pass
    "string contents may say Mutex::new and .sum::<f32>() freely"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_unwrap() {
        let v: Result<f32, ()> = Ok(max_entry(&[1.0]));
        assert_eq!(v.unwrap(), 1.0);
    }
}
