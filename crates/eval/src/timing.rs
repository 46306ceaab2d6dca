//! Speed-up rows (paper section 3.3).
//!
//! The paper measures `time` user seconds of whole program runs and
//! reports, per bank pair, the search space (product of bank sizes in
//! Mbp), both execution times, and the speed-up. [`SpeedupRow`] is that
//! table row.

/// One row of a section-3.3 speed-up table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Bank pair label, e.g. "EST1 vs EST2".
    pub banks: String,
    /// Search space: product of bank sizes in Mbp² (the paper's x-axis).
    pub search_space: f64,
    /// SCORIS-N (ORIS engine) seconds.
    pub scoris_secs: f64,
    /// BLASTN-like baseline seconds.
    pub blast_secs: f64,
}

impl SpeedupRow {
    /// Speed-up of the ORIS engine over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.scoris_secs > 0.0 {
            self.blast_secs / self.scoris_secs
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        let row = SpeedupRow {
            banks: "EST1 vs EST2".into(),
            search_space: 42.8,
            scoris_secs: 2.0,
            blast_secs: 20.0,
        };
        assert!((row.speedup() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_infinite_speedup() {
        let row = SpeedupRow {
            banks: "x".into(),
            search_space: 1.0,
            scoris_secs: 0.0,
            blast_secs: 1.0,
        };
        assert!(row.speedup().is_infinite());
    }
}
