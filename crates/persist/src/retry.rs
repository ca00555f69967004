//! Transient-vs-fatal classification of storage IO errors and a bounded
//! retry loop with deterministic exponential backoff.
//!
//! Not every IO error means the disk is gone: an `EINTR`/`EAGAIN`-class
//! failure is worth a bounded number of retries before anyone escalates,
//! while corruption or `ENOSPC` must escalate *immediately* — retrying a
//! full disk only delays the inevitable and widens the window in which
//! acknowledged state is not durable. This module owns that policy line:
//!
//! * [`classify`] sorts an [`io::Error`] into [`FaultClass::Transient`]
//!   or [`FaultClass::Fatal`];
//! * [`RetryPolicy`] bounds the retries and shapes the exponential
//!   backoff — all integer arithmetic, so the schedule is deterministic;
//! * [`retry_io`] drives an operation through the policy against an
//!   injectable [`Clock`], so tests run the exact production retry loop
//!   without sleeping ([`VirtualClock`] records what *would* have been
//!   slept).

use std::io;

/// Re-exported from `xuc-core` (the clock abstraction was hoisted there
/// once telemetry and bench became customers too); existing
/// `xuc_persist::{Clock, SystemClock, VirtualClock}` imports keep
/// working.
pub use xuc_core::clock::{Clock, SystemClock, VirtualClock};

/// How severe an IO error is for the caller's retry decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Interrupted/backpressure-class failure; retrying after a short
    /// backoff is reasonable.
    Transient,
    /// Corruption, exhausted storage, permission loss — retrying cannot
    /// help; the caller must escalate (seal, degrade, or halt).
    Fatal,
}

/// Classifies an IO error. Only interruption-class kinds are transient;
/// everything unknown is fatal — misclassifying a real fault as
/// retryable would stall escalation, the opposite error is just one
/// wasted backoff.
pub fn classify(e: &io::Error) -> FaultClass {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            FaultClass::Transient
        }
        _ => FaultClass::Fatal,
    }
}

/// Bounds and shape of the transient-retry loop. The gateway's journal
/// runs every write under the [`Default`] policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds; doubles per
    /// retry.
    pub base_backoff_micros: u64,
    /// Backoff ceiling, in microseconds.
    pub max_backoff_micros: u64,
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based): exponential,
    /// saturating at the ceiling.
    pub fn backoff_micros(&self, retry: u32) -> u64 {
        let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        self.base_backoff_micros.saturating_mul(factor).min(self.max_backoff_micros)
    }
}

impl Default for RetryPolicy {
    /// Four attempts, 100µs → 800µs backoff: enough to ride out an
    /// interrupted syscall, short enough that a commit never stalls
    /// perceptibly before escalating.
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_backoff_micros: 100, max_backoff_micros: 10_000 }
    }
}

/// A successful (possibly retried) operation: the value plus how many
/// transient failures were absorbed on the way.
#[derive(Debug)]
pub struct RetryOutcome<T> {
    pub value: T,
    pub retries: u32,
}

/// A retried operation that still failed: the last error, its class, and
/// how many retries were burned before giving up. Fatal errors carry
/// `retries` from *earlier transient* failures in the same call.
#[derive(Debug)]
pub struct IoFailure {
    pub error: io::Error,
    pub class: FaultClass,
    pub retries: u32,
}

impl std::fmt::Display for IoFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            FaultClass::Transient => {
                write!(
                    f,
                    "transient IO fault persisted after {} retries: {}",
                    self.retries, self.error
                )
            }
            FaultClass::Fatal => write!(f, "fatal IO fault: {}", self.error),
        }
    }
}

impl std::error::Error for IoFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs `op` under `policy`: transient failures back off (through
/// `clock`) and retry up to the attempt bound; the first fatal failure —
/// or a transient one that outlives the bound — is returned unretried.
pub fn retry_io<T>(
    policy: RetryPolicy,
    clock: &dyn Clock,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<RetryOutcome<T>, IoFailure> {
    let attempts = policy.max_attempts.max(1);
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(RetryOutcome { value, retries }),
            Err(error) => {
                let class = classify(&error);
                if class == FaultClass::Fatal || retries + 1 >= attempts {
                    if class == FaultClass::Fatal {
                        crate::stats::bump(&crate::stats::FAULTS_FATAL, 1);
                    }
                    return Err(IoFailure { error, class, retries });
                }
                clock.sleep_micros(policy.backoff_micros(retries));
                retries += 1;
                crate::stats::bump(&crate::stats::RETRIES_TRANSIENT, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "interrupted")
    }

    fn fatal() -> io::Error {
        io::Error::new(io::ErrorKind::StorageFull, "no space")
    }

    #[test]
    fn classification_splits_interruption_from_the_rest() {
        assert_eq!(classify(&transient()), FaultClass::Transient);
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::WouldBlock, "x")),
            FaultClass::Transient
        );
        assert_eq!(classify(&io::Error::new(io::ErrorKind::TimedOut, "x")), FaultClass::Transient);
        assert_eq!(classify(&fatal()), FaultClass::Fatal);
        assert_eq!(classify(&io::Error::other("?")), FaultClass::Fatal, "unknown means fatal");
    }

    #[test]
    fn transient_failures_retry_and_back_off_exponentially() {
        let clock = VirtualClock::new();
        let mut left = 3u32;
        let out = retry_io(RetryPolicy::default(), &clock, || {
            if left > 0 {
                left -= 1;
                Err(transient())
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!((out.value, out.retries), (42, 3));
        // 100 + 200 + 400 — the deterministic schedule.
        assert_eq!(clock.slept_micros(), 700);
    }

    #[test]
    fn fatal_failures_never_retry() {
        let clock = VirtualClock::new();
        let mut calls = 0u32;
        let err = retry_io(RetryPolicy::default(), &clock, || -> io::Result<()> {
            calls += 1;
            Err(fatal())
        })
        .unwrap_err();
        assert_eq!((calls, err.retries), (1, 0));
        assert_eq!(err.class, FaultClass::Fatal);
        assert_eq!(clock.slept_micros(), 0);
    }

    #[test]
    fn attempt_bound_caps_transient_retries() {
        let clock = VirtualClock::new();
        let mut calls = 0u32;
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let err = retry_io(policy, &clock, || -> io::Result<()> {
            calls += 1;
            Err(transient())
        })
        .unwrap_err();
        assert_eq!((calls, err.retries), (3, 2));
        assert_eq!(err.class, FaultClass::Transient);
        assert!(err.to_string().contains("after 2 retries"));
    }

    #[test]
    fn policy_none_escalates_immediately() {
        // A single-attempt policy: the first error, transient or not,
        // escalates.
        let clock = VirtualClock::new();
        let once = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let err = retry_io(once, &clock, || -> io::Result<()> { Err(transient()) }).unwrap_err();
        assert_eq!(err.retries, 0);
        assert_eq!(clock.slept_micros(), 0);
    }

    #[test]
    fn backoff_saturates_at_the_ceiling() {
        let p =
            RetryPolicy { max_attempts: 64, base_backoff_micros: 100, max_backoff_micros: 1000 };
        assert_eq!(p.backoff_micros(0), 100);
        assert_eq!(p.backoff_micros(1), 200);
        assert_eq!(p.backoff_micros(4), 1000, "capped");
        assert_eq!(p.backoff_micros(63), 1000);
        assert_eq!(p.backoff_micros(64), 1000, "shift overflow saturates too");
    }
}
