//! Typed error taxonomy for the training stack (DESIGN.md §8).
//!
//! Every failure the trainer, the repeat/grid harnesses, or their callers
//! can hit is a [`TrainError`] variant instead of a panic: long sweeps
//! degrade gracefully (one diverged seed is recorded, not fatal) and the
//! CLI maps each variant onto a distinct process exit code so scripts can
//! tell "your input is malformed" apart from "the run diverged".

use std::fmt;

/// Everything that can go wrong while training a model.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The training loss became NaN/±Inf and the recovery budget was
    /// exhausted (`TrainConfig::max_retries` snapshot rollbacks used up).
    NonFiniteLoss {
        /// Epoch at which the last unrecoverable violation was observed.
        epoch: usize,
        /// Recovery attempts consumed before giving up.
        retries: usize,
    },
    /// The raw (pre-clip) gradient norm exceeded the watchdog limit, or
    /// became non-finite, and the recovery budget was exhausted.
    GradientExplosion {
        /// Epoch at which the last unrecoverable violation was observed.
        epoch: usize,
        /// The offending global gradient norm.
        norm: f32,
        /// The configured watchdog limit.
        limit: f32,
        /// Recovery attempts consumed before giving up.
        retries: usize,
    },
    /// The tape verifier (`--verify-tape` in the CLI and the bench
    /// binaries) rejected the model's op graph before training.
    VerifierRejected {
        /// Model name as reported by [`crate::Model::name`].
        model: String,
        /// The verifier's rendered findings.
        report: String,
    },
    /// A structurally invalid input: inconsistent bundle shapes, an empty
    /// training split, a label out of class range, a bad configuration.
    BadInput {
        /// Human-readable description of what is malformed.
        reason: String,
    },
    /// The wall-clock budget (`TrainConfig::max_seconds`) ran out.
    Timeout {
        /// Epoch reached when the budget expired.
        epoch: usize,
        /// Seconds actually elapsed.
        elapsed_secs: f64,
        /// The configured budget in seconds.
        limit_secs: f64,
    },
}

impl TrainError {
    /// Convenience constructor for [`TrainError::BadInput`].
    pub fn bad_input(reason: impl Into<String>) -> Self {
        TrainError::BadInput { reason: reason.into() }
    }

    /// Short machine-readable class name (failure manifests, logs).
    pub fn kind(&self) -> &'static str {
        match self {
            TrainError::NonFiniteLoss { .. } => "non-finite-loss",
            TrainError::GradientExplosion { .. } => "gradient-explosion",
            TrainError::VerifierRejected { .. } => "verifier-rejected",
            TrainError::BadInput { .. } => "bad-input",
            TrainError::Timeout { .. } => "timeout",
        }
    }

    /// The process exit code the CLI maps this error onto. Codes are
    /// stable API (documented in the README): 1 is reserved for generic
    /// I/O errors, 2 for usage errors, 4 for dataset parse errors.
    pub fn exit_code(&self) -> i32 {
        match self {
            TrainError::BadInput { .. } => 3,
            TrainError::VerifierRejected { .. } => 5,
            TrainError::NonFiniteLoss { .. } => 6,
            TrainError::GradientExplosion { .. } => 7,
            TrainError::Timeout { .. } => 8,
        }
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFiniteLoss { epoch, retries } => write!(
                f,
                "training loss became non-finite at epoch {epoch} \
                 ({retries} recovery attempt(s) exhausted)"
            ),
            TrainError::GradientExplosion { epoch, norm, limit, retries } => write!(
                f,
                "gradient norm {norm:e} exceeded the watchdog limit {limit:e} at epoch \
                 {epoch} ({retries} recovery attempt(s) exhausted)"
            ),
            TrainError::VerifierRejected { model, report } => {
                write!(f, "tape verification rejected {model} before training:\n{report}")
            }
            TrainError::BadInput { reason } => write!(f, "bad input: {reason}"),
            TrainError::Timeout { epoch, elapsed_secs, limit_secs } => write!(
                f,
                "training exceeded its {limit_secs:.1}s wall-clock budget at epoch {epoch} \
                 ({elapsed_secs:.1}s elapsed)"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<amud_graph::GraphError> for TrainError {
    /// Graph-layer failures (bad normalisation coefficient, shape
    /// mismatches during operator construction) are structurally invalid
    /// inputs from the trainer's point of view: exit code 3, recorded in
    /// sweep failure manifests like any other [`TrainError::BadInput`].
    fn from(e: amud_graph::GraphError) -> Self {
        TrainError::BadInput { reason: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct() {
        let errors = [
            TrainError::NonFiniteLoss { epoch: 1, retries: 2 },
            TrainError::GradientExplosion { epoch: 1, norm: 1e9, limit: 1e4, retries: 2 },
            TrainError::VerifierRejected { model: "X".into(), report: String::new() },
            TrainError::bad_input("nope"),
            TrainError::Timeout { epoch: 1, elapsed_secs: 2.0, limit_secs: 1.0 },
        ];
        let mut codes: Vec<i32> = errors.iter().map(|e| e.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "every variant needs a distinct exit code");
        // 0 = success, 1 = generic I/O, 2 = usage, 4 = dataset parse are
        // reserved by the CLI and must not collide.
        assert!(codes.iter().all(|c| ![0, 1, 2, 4].contains(c)));
    }

    #[test]
    fn display_is_informative() {
        let e = TrainError::GradientExplosion { epoch: 12, norm: 1e9, limit: 1e4, retries: 2 };
        let s = e.to_string();
        assert!(s.contains("epoch 12") && s.contains("watchdog"), "{s}");
        assert_eq!(e.kind(), "gradient-explosion");
    }
}
