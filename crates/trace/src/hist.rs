//! Fixed-bucket log-scale histograms.
//!
//! The bucket shape is the one `accelviz-serve` has carried on the wire
//! since its first release (six microsecond-scale edges plus an overflow
//! bucket); it lives here so every pipeline stage can record latencies
//! into the same distribution and the serve crate's `Stats` reply keeps
//! its exact wire layout.

/// Upper edges of the log-spaced buckets, in microseconds. A sample falls
/// in the first bucket whose edge it does not exceed; slower samples land
/// in the final overflow bucket.
pub const LATENCY_EDGES_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Number of histogram buckets (the edges plus one overflow bucket).
pub const LATENCY_BUCKETS: usize = LATENCY_EDGES_US.len() + 1;

/// A fixed-bucket log-scale histogram of durations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sample counts per bucket.
    pub counts: [u64; LATENCY_BUCKETS],
}

impl LogHistogram {
    /// Records one sample that took `seconds`.
    pub fn record(&mut self, seconds: f64) {
        let us = (seconds.max(0.0) * 1e6) as u64;
        let bucket = LATENCY_EDGES_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_EDGES_US.len());
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Human label for bucket `i`, e.g. `"<=1ms"` or `">10s"`.
    pub fn label(i: usize) -> String {
        fn us_text(us: u64) -> String {
            if us >= 1_000_000 {
                format!("{}s", us / 1_000_000)
            } else if us >= 1_000 {
                format!("{}ms", us / 1_000)
            } else {
                format!("{us}us")
            }
        }
        if i < LATENCY_EDGES_US.len() {
            format!("<={}", us_text(LATENCY_EDGES_US[i]))
        } else {
            format!(">{}", us_text(*LATENCY_EDGES_US.last().unwrap()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced() {
        let mut h = LogHistogram::default();
        h.record(50e-6); // 50 µs -> bucket 0
        h.record(0.5e-3); // 0.5 ms -> bucket 1
        h.record(5e-3); // 5 ms -> bucket 2
        h.record(2.0); // 2 s -> bucket 5
        h.record(60.0); // 60 s -> overflow
        assert_eq!(h.counts, [1, 1, 1, 0, 0, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn labels_read_naturally() {
        assert_eq!(LogHistogram::label(0), "<=100us");
        assert_eq!(LogHistogram::label(1), "<=1ms");
        assert_eq!(LogHistogram::label(5), "<=10s");
        assert_eq!(LogHistogram::label(6), ">10s");
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(50e-6);
        b.record(50e-6);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts[0], 2);
        assert_eq!(a.counts[5], 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn negative_durations_clamp_to_the_first_bucket() {
        let mut h = LogHistogram::default();
        h.record(-1.0);
        assert_eq!(h.counts[0], 1);
    }
}
