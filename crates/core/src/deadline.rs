//! Cooperative per-query deadlines.
//!
//! A search is a long, CPU-bound scan with no natural preemption point:
//! one adversarial repeat-heavy query can sit in the quadratic corner of
//! step 2 (a single hot seed code whose `|X1|·|X2|` pair product dwarfs
//! the rest of the code space), then extend every HSP that corner kept
//! in step 3, for arbitrarily long. A serving deployment needs *bounded
//! per-query cost*, which a pipeline of pure functions can only provide
//! cooperatively: the hot loops consult a token at their natural
//! boundaries and bail out cleanly.
//!
//! [`Deadline`] is that token — a `Copy` value carrying an optional
//! wall-clock expiry:
//!
//! * [`Deadline::none`] (the [`Default`]) is **disarmed**: every check
//!   compiles down to one branch on an `Option` discriminant, no clock
//!   read, so code that threads a deadline through pays nothing when
//!   the caller didn't ask for one (the no-fault/no-deadline path stays
//!   byte-identical *and* cost-identical).
//! * [`Deadline::after`] arms a wall-clock expiry. Every copy reads the
//!   same clock against the same instant, so the workers of a parallel
//!   step 2 all stop once it has passed.
//!
//! ## Where a search reads the token
//!
//! This is the one list of those points; the functions that take a
//! [`Deadline`] link here. A search reads its token
//!
//! * before each volume of a database search (`oris_db`'s walk over the
//!   volumes);
//! * at every step-2 partition boundary, and before every batch of seed
//!   pairs once a few thousand pairs have passed within a partition
//!   ([`step2::find_hsps_guarded`](crate::step2::find_hsps_guarded));
//! * between the two subject strands;
//! * inside each step-3 record-pair group ([`step3`](crate::step3)),
//!   before its first extension and then before every 1 024th;
//! * before each step-3 group is handed to step 4, so a group's records
//!   are made only under a live token.
//!
//! A step-4 call that has started prices its one group to the end. So an
//! expired search stops within one batch of step-2 pairs, 1 024
//! extensions on each step-3 worker or one group's step 4, at a clean
//! point, having produced a well-formed error — the pipeline's
//! determinism guarantees are unaffected because a deadline never changes
//! what is computed, only whether the run completes.

use std::time::Duration;

use oris_obs::monotonic_now;

/// The error a deadline-guarded computation returns when its [`Deadline`]
/// expires. Carries no payload: the caller that armed the deadline knows
/// the budget it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// A cooperative deadline. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    /// Expiry as an offset from the `oris-obs` monotonic epoch; `None`
    /// when disarmed.
    expires: Option<Duration>,
}

impl Deadline {
    /// The disarmed deadline: never expires, [`Deadline::check`] is one
    /// branch with no clock read.
    pub const fn none() -> Deadline {
        Deadline { expires: None }
    }

    /// A deadline expiring `budget` from now on the workspace's one
    /// clock ([`oris_obs::monotonic_now`]). A budget beyond the clock's
    /// representable range can never be reached, so it disarms the
    /// deadline instead of panicking.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            expires: monotonic_now().checked_add(budget),
        }
    }

    /// Whether this deadline can ever expire. Hot loops use this to skip
    /// per-iteration clock reads entirely on the disarmed path.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.expires.is_some()
    }

    /// Whether the deadline has passed. Reads the clock only when armed.
    #[inline]
    pub fn expired(&self) -> bool {
        self.expires.is_some_and(|t| monotonic_now() >= t)
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
    fn budget_past_the_clock_range_never_expires() {
        // Armed at `Duration::MAX` when the clock still reads 0, disarmed
        // otherwise: either way it never trips.
        let d = Deadline::after(Duration::MAX);
        assert!(!d.expired());
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    fn past_offset_is_expired() {
        let past = monotonic_now().saturating_sub(Duration::from_millis(1));
        let d = Deadline {
            expires: Some(past),
        };
        assert!(d.expired());
    }

    #[test]
    fn error_displays_cleanly() {
        assert_eq!(DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
