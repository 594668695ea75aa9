//! The benchmark's own statistics: percentiles under the sample-support
//! rule, per-step latency summaries, and the saturation rule behind
//! `max_rate_rps`.

/// Samples a percentile needs *beyond* it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile at most `wanted` that `n` samples support, i.e.
/// that leaves at least [`MIN_BEYOND`] samples above it. `None` when even
/// the median is unsupported.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let best = 100.0 * (1.0 - MIN_BEYOND as f64 / n as f64);
    Some(wanted.min(best))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted list (the middle value, or the mean of the two
/// middle values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One request as the generator saw it. Times are nanoseconds from the
/// step's start instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status, or 0 when the transport failed.
    pub status: u16,
}

impl Sample {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency from the *scheduled* send instant, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// A rate step reduced to the numbers the report and the limit rule need.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    pub attempted: usize,
    pub failed: usize,
    pub p50_ms: f64,
    /// The percentile actually reported as "p99" (lower when the sample
    /// cannot support 99).
    pub tail_pct: f64,
    pub tail_ms: f64,
    pub lateness_p99_ms: f64,
    /// Successful responses per second of the step's measured span.
    pub achieved_rps: f64,
    pub growing_lateness: bool,
}

impl StepSummary {
    /// Whether the step meets `limit_ms` at its tail with no failures and no
    /// backlog building up.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.growing_lateness && self.tail_ms <= limit_ms
    }
}

/// Summarize one step. A failed or refused request counts as a miss: it
/// enters the latency distribution at `miss_ms` (the client's give-up
/// time), which lies beyond any latency limit.
pub fn summarize_step(samples: &[Sample], miss_ms: f64, limit_ms: f64) -> StepSummary {
    let mut latencies: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok() {
                s.latency_ms()
            } else {
                miss_ms.max(s.latency_ms())
            }
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mut lateness: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
    lateness.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail_pct = supported_percentile(n, 99.0).unwrap_or(50.0);
    let late_pct = supported_percentile(n, 99.0).unwrap_or(50.0);
    let ok = samples.iter().filter(|s| s.ok()).count();
    let span_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    StepSummary {
        attempted: n,
        failed: n - ok,
        p50_ms: percentile(&latencies, 50.0),
        tail_pct,
        tail_ms: percentile(&latencies, tail_pct),
        lateness_p99_ms: percentile(&lateness, late_pct),
        achieved_rps: if span_ns == 0 {
            0.0
        } else {
            ok as f64 / (span_ns as f64 / 1e9)
        },
        growing_lateness: lateness_grows(samples, limit_ms),
    }
}

/// An open loop that cannot keep up falls further behind schedule as the
/// step goes on. The step's last quarter (by due time) is compared with its
/// first: growth by more than half the latency limit is a backlog.
pub fn lateness_grows(samples: &[Sample], limit_ms: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns);
    let quarter = by_due.len() / 4;
    let med = |part: &[&Sample]| median(&part.iter().map(|s| s.lateness_ms()).collect::<Vec<_>>());
    let first = med(&by_due[..quarter]);
    let last = med(&by_due[by_due.len() - quarter..]);
    last - first > limit_ms / 2.0
}

/// The highest step (in offered-rate order) that meets the limit, as its
/// measured throughput; 0 when none does.
pub fn max_rate(steps: &[StepSummary], limit_ms: f64) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets(limit_ms))
        .map(|s| s.achieved_rps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64, lat_ms: f64, late_ms: f64, status: u16) -> Sample {
        let due = i * 1_000_000;
        Sample {
            due_ns: due,
            sent_ns: due + (late_ms * 1e6) as u64,
            done_ns: due + (lat_ms * 1e6) as u64,
            status,
        }
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(5000, 99.0), Some(99.0));
        // 500 samples: 10 beyond is the 98th percentile, the highest supported
        assert_eq!(supported_percentile(500, 99.0), Some(98.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        // the percentile asked for is never exceeded
        assert_eq!(supported_percentile(1_000_000, 50.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn small_step_reports_the_supported_tail() {
        let samples: Vec<Sample> = (0..200)
            .map(|i| sample(i, 1.0 + i as f64 / 100.0, 0.0, 200))
            .collect();
        let s = summarize_step(&samples, 1000.0, 50.0);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(
            s.tail_ms,
            percentile(
                &{
                    let mut v: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
                    v.sort_by(f64::total_cmp);
                    v
                },
                95.0
            )
        );
    }

    #[test]
    fn failed_and_refused_requests_are_misses() {
        // 2% of the step fails fast (a 503 in 0.1ms, a transport error): the
        // tail must land on the miss time, not on the quick failure
        let samples: Vec<Sample> = (0..1000)
            .map(|i| match i % 50 {
                0 => sample(i, 0.1, 0.0, 503),
                1 => sample(i, 0.1, 0.0, 0),
                _ => sample(i, 1.0, 0.0, 200),
            })
            .collect();
        let s = summarize_step(&samples, 2000.0, 50.0);
        assert_eq!(s.failed, 40);
        assert_eq!(s.tail_ms, 2000.0);
        assert!(!s.meets(50.0));
        // one failure alone already disqualifies the step
        let mut one = vec![sample(0, 0.5, 0.0, 0)];
        one.extend((1..1000).map(|i| sample(i, 1.0, 0.0, 200)));
        let s = summarize_step(&one, 2000.0, 50.0);
        assert!(s.tail_ms <= 50.0, "one miss in 1000 stays beyond p99");
        assert!(!s.meets(50.0), "but the step has a failure");
    }

    #[test]
    fn max_rate_rejects_a_step_with_growing_lateness() {
        let steady: Vec<Sample> = (0..1000).map(|i| sample(i, 1.0, 0.2, 200)).collect();
        // lateness ramps from 0 to 20ms across the step: a backlog, even
        // though every latency is under a 100ms limit
        let ramp: Vec<Sample> = (0..1000)
            .map(|i| {
                let late = i as f64 / 50.0;
                sample(i, late + 1.0, late, 200)
            })
            .collect();
        let lo = summarize_step(&steady, 2000.0, 30.0);
        let hi = summarize_step(&ramp, 2000.0, 30.0);
        assert!(!lo.growing_lateness);
        assert!(hi.growing_lateness);
        assert!(hi.tail_ms <= 30.0, "the ramp passes on latency alone");
        assert_eq!(max_rate(&[lo.clone(), hi.clone()], 30.0), lo.achieved_rps);
        // constant lateness, however large, is not growth
        let late: Vec<Sample> = (0..1000).map(|i| sample(i, 9.0, 8.0, 200)).collect();
        assert!(!lateness_grows(&late, 10.0));
        assert_eq!(max_rate(&[], 30.0), 0.0);
    }

    #[test]
    fn achieved_rate_counts_only_successes() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| sample(i, 1.0, 0.0, if i % 2 == 0 { 200 } else { 503 }))
            .collect();
        let s = summarize_step(&samples, 2000.0, 50.0);
        // 500 successes over ~1s of span
        assert!((s.achieved_rps - 500.0).abs() < 1.0, "{}", s.achieved_rps);
    }
}
