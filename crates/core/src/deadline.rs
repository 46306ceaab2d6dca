//! Cooperative per-query deadlines and cancellation.
//!
//! A search is a long, CPU-bound scan with no natural preemption point:
//! one adversarial repeat-heavy query can sit in the quadratic corner of
//! step 2 (a single hot seed code whose `|X1|·|X2|` pair product dwarfs
//! the rest of the code space), then extend every HSP that corner kept
//! in step 3, for arbitrarily long. A serving deployment needs *bounded
//! per-query cost*, which a pipeline of pure functions can only provide
//! cooperatively: the hot loops consult a shared token at their natural
//! boundaries and bail out cleanly.
//!
//! [`Deadline`] is that token — a cheap, clonable handle carrying an
//! optional wall-clock expiry and a cancel flag:
//!
//! * [`Deadline::none`] (the [`Default`]) is **disarmed**: every check
//!   compiles down to one branch on an `Option` discriminant, no clock
//!   read, so code that threads a deadline through pays nothing when
//!   the caller didn't ask for one (the no-fault/no-deadline path stays
//!   byte-identical *and* cost-identical).
//! * [`Deadline::after`] arms a wall-clock expiry.
//! * [`Deadline::cancellable`] arms a pure cancel token with no expiry;
//!   any clone can revoke the work with [`Deadline::cancel`] (e.g. a
//!   supervisor thread timing out a request).
//!
//! Checks happen at *boundaries* (a volume, a step-2 partition, a batch
//! of extension pairs, a subject strand, a step-3 wave), never inside a
//! wave or in step 4, so an expired run stops at a clean point having
//! produced a well-formed error — the pipeline's determinism guarantees
//! are unaffected because a deadline never changes what is computed,
//! only whether the run completes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oris_obs::monotonic_now;

/// The error a deadline-guarded computation returns when its [`Deadline`]
/// expires or is cancelled. Carries no payload: the caller that armed the
/// deadline knows the budget it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

#[derive(Debug)]
struct Inner {
    /// Expiry as an offset from the `oris-obs` monotonic epoch;
    /// `None` for a pure cancel token.
    expires: Option<Duration>,
    /// Set by [`Deadline::cancel`] from any clone.
    cancelled: AtomicBool,
}

/// A cooperative deadline / cancel token. See the [module docs](self).
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// state: cancelling one clone cancels them all, which is what lets a
/// parallel step-2 run — many partitions checking the same token — stop
/// collectively once any observer sees the expiry.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    inner: Option<Arc<Inner>>,
}

impl Deadline {
    /// The disarmed deadline: never expires, [`Deadline::check`] is one
    /// branch with no clock read.
    pub const fn none() -> Deadline {
        Deadline { inner: None }
    }

    /// A deadline expiring `budget` from now on the workspace's one
    /// clock ([`oris_obs::monotonic_now`]). A budget beyond the clock's
    /// representable range can never be reached, so it degrades to a
    /// pure cancel token instead of panicking.
    pub fn after(budget: Duration) -> Deadline {
        Deadline::armed(monotonic_now().checked_add(budget))
    }

    /// A pure cancel token: no wall-clock expiry, trips only when some
    /// clone calls [`Deadline::cancel`].
    pub fn cancellable() -> Deadline {
        Deadline::armed(None)
    }

    fn armed(expires: Option<Duration>) -> Deadline {
        Deadline {
            inner: Some(Arc::new(Inner {
                expires,
                cancelled: AtomicBool::new(false),
            })),
        }
    }

    /// Revokes the work guarded by this token (and every clone of it).
    /// A no-op on a disarmed deadline.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether this token can ever trip (armed with an expiry or as a
    /// cancel token). Hot loops use this to skip per-iteration clock
    /// reads entirely on the disarmed path.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the deadline has passed or the token was cancelled.
    /// Reads the clock only when armed with an expiry.
    #[inline]
    pub fn expired(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.cancelled.load(Ordering::Relaxed)
                    || inner.expires.is_some_and(|t| monotonic_now() >= t)
            }
        }
    }

    /// [`Deadline::expired`] as a `Result`, for `?`-style propagation
    /// out of guarded loops.
    #[inline]
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_armed());
        assert!(!d.expired());
        assert_eq!(d.check(), Ok(()));
        d.cancel(); // no-op
        assert!(!d.expired());
    }

    #[test]
    fn default_is_disarmed() {
        assert!(!Deadline::default().is_armed());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_armed());
        assert!(d.expired());
        assert_eq!(d.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(d.is_armed());
        assert!(!d.expired());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let d = Deadline::cancellable();
        let observer = d.clone();
        assert!(!observer.expired());
        d.cancel();
        assert!(observer.expired());
        assert_eq!(observer.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn past_offset_is_expired() {
        let past = monotonic_now().saturating_sub(Duration::from_millis(1));
        let d = Deadline::armed(Some(past));
        assert!(d.expired());
    }

    #[test]
    fn error_displays_cleanly() {
        assert_eq!(DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
