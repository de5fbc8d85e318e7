//! Output oracle and failure accounting. Every check runs outside the
//! timed interval of the call it judges; every failed check, and every
//! refused or shed job, counts toward `failed`.
//!
//! The kernel inputs are `v[i] = i + 1 + c` for a seeded offset `c`, so
//! every sum, prefix and checksum below is an integer below 2^53 and
//! therefore exact in `f64` under any association the backends choose.

use pstl::StreamStats;
use pstl_executor::{MetricsSnapshot, ServiceStatsSnapshot};

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were wrong outputs (as opposed to refused work).
    pub wrong: u64,
}

impl Tally {
    /// Count one checked operation; returns `pass`.
    pub fn check(&mut self, pass: bool) -> bool {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.wrong += 1;
        }
        pass
    }

    /// Count one operation the system refused or dropped.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// Element `i` of the kernel input with offset `c`.
pub fn value(i: usize, c: u64) -> f64 {
    (i as u64 + 1 + c) as f64
}

/// The paper's sort input (`workload::shuffled_permutation`, a seeded
/// permutation of `1..=n`) shifted by `c`: a permutation of the first
/// `n` inputs.
pub fn shuffled(n: usize, c: u64, seed: u64) -> Vec<f64> {
    let mut v = pstl_suite::workload::shuffled_permutation(n, seed);
    for x in &mut v {
        *x += c as f64;
    }
    v
}

/// Exact inclusive prefix `v[0] + … + v[i]`.
pub fn prefix(i: usize, c: u64) -> f64 {
    let k = i as u64 + 1;
    (k * (k + 1) / 2 + k * c) as f64
}

/// Exact sum of the first `n` inputs.
pub fn total(n: usize, c: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        prefix(n - 1, c)
    }
}

pub fn reduce_ok(got: f64, n: usize, c: u64) -> bool {
    got == total(n, c)
}

/// `find` must return exactly the index of the (unique) target.
pub fn find_ok(got: Option<usize>, target_index: usize) -> bool {
    got == Some(target_index)
}

/// Scan output matches the exact prefix at the seeded sample positions
/// and at the last element.
pub fn scan_ok(out: &[f64], positions: &[usize], c: u64) -> bool {
    let Some(last) = out.len().checked_sub(1) else {
        return true;
    };
    positions
        .iter()
        .chain(std::iter::once(&last))
        .all(|&i| out.get(i) == Some(&prefix(i, c)))
}

/// `for_each` stored `k` at every sampled position (the positions were
/// overwritten with a sentinel before the call).
pub fn for_each_ok(data: &[f64], positions: &[usize], k: usize) -> bool {
    positions.iter().all(|&i| data.get(i) == Some(&(k as f64)))
}

/// Ascending order plus the exact checksum of the unsorted input.
pub fn sort_ok(data: &[f64], checksum: f64) -> bool {
    data.windows(2).all(|w| w[0] <= w[1]) && data.iter().sum::<f64>() == checksum
}

/// A completed pipeline: conservation `produced == consumed + dropped`,
/// nothing dropped, every item consumed, and the word checksum.
pub fn stream_ok(stats: &StreamStats, items: u64, words: u64, expected_words: u64) -> bool {
    stats.produced == stats.consumed + stats.dropped
        && stats.dropped == 0
        && stats.consumed == items
        && words == expected_words
}

/// A job's returned sum.
pub fn job_sum_ok(got: f64, expected: f64) -> bool {
    got == expected
}

/// The service's conservation law once drained, and every admitted job
/// completed.
pub fn service_ok(stats: &ServiceStatsSnapshot, submitted: u64) -> bool {
    stats.accounting_balanced() && stats.completed == submitted
}

/// `steals == local_steals + remote_steals` on a counter delta.
pub fn steals_balanced(delta: &MetricsSnapshot) -> bool {
    delta.steals == delta.local_steals + delta.remote_steals
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::service::ClassStatsSnapshot;

    fn input(n: usize, c: u64) -> Vec<f64> {
        (0..n).map(|i| value(i, c)).collect()
    }

    #[test]
    fn correct_outputs_pass() {
        let (n, c) = (1000, 17);
        let v = input(n, c);
        let mut t = Tally::default();
        t.check(reduce_ok(v.iter().sum(), n, c));
        t.check(find_ok(v.iter().position(|&x| x == value(420, c)), 420));
        let mut run = 0.0;
        let scan: Vec<f64> = v
            .iter()
            .map(|x| {
                run += x;
                run
            })
            .collect();
        t.check(scan_ok(&scan, &[0, 3, 999], c));
        t.check(for_each_ok(&vec![1.0; n], &[0, 5, 999], 1));
        t.check(sort_ok(&v, total(n, c)));
        let stats = StreamStats {
            produced: 10,
            consumed: 10,
            dropped: 0,
            push_waits: 3,
        };
        t.check(stream_ok(&stats, 10, 40, 40));
        t.check(steals_balanced(&MetricsSnapshot {
            steals: 5,
            local_steals: 5,
            ..Default::default()
        }));
        assert_eq!(
            t,
            Tally {
                attempted: 7,
                failed: 0,
                wrong: 0
            }
        );
    }

    #[test]
    fn corrupted_outputs_count_as_failed() {
        let (n, c) = (1000, 3);
        let v = input(n, c);
        let mut t = Tally::default();
        // A wrong sum: one element lost.
        assert!(!t.check(reduce_ok(v[1..].iter().sum(), n, c)));
        // An off-by-one find index.
        assert!(!t.check(find_ok(Some(421), 420)));
        assert!(!t.check(find_ok(None, 420)));
        // An unsorted slice with the right checksum.
        let mut unsorted = v.clone();
        unsorted.swap(10, 11);
        assert!(!t.check(sort_ok(&unsorted, total(n, c))));
        // A sorted slice with a duplicated element.
        let mut dup = v.clone();
        dup[11] = dup[10];
        assert!(!t.check(sort_ok(&dup, total(n, c))));
        // A scan whose last element is off.
        let mut run = 0.0;
        let mut scan: Vec<f64> = v
            .iter()
            .map(|x| {
                run += x;
                run
            })
            .collect();
        scan[n - 1] += 1.0;
        assert!(!t.check(scan_ok(&scan, &[0, 5], c)));
        // A for_each that skipped a sampled position.
        let mut fe = vec![1.0; n];
        fe[5] = -1.0;
        assert!(!t.check(for_each_ok(&fe, &[0, 5], 1)));
        // A stream that lost an item, and one with a wrong checksum.
        let lost = StreamStats {
            produced: 10,
            consumed: 9,
            dropped: 0,
            push_waits: 0,
        };
        assert!(!t.check(stream_ok(&lost, 10, 40, 40)));
        let ok_stats = StreamStats {
            produced: 10,
            consumed: 10,
            dropped: 0,
            push_waits: 0,
        };
        assert!(!t.check(stream_ok(&ok_stats, 10, 39, 40)));
        // A job with the wrong sum, and unbalanced steal counters.
        assert!(!t.check(job_sum_ok(1.0, 2.0)));
        assert!(!t.check(steals_balanced(&MetricsSnapshot {
            steals: 5,
            local_steals: 3,
            remote_steals: 1,
            ..Default::default()
        })));
        t.refused();
        assert_eq!(t.attempted, 12);
        assert_eq!(t.failed, 12);
        assert_eq!(t.wrong, 11);
    }

    fn service(admitted: u64, completed: u64, shed_overload: u64) -> ServiceStatsSnapshot {
        let class = ClassStatsSnapshot {
            class: "normal",
            admitted: 0,
            completed: 0,
            shed: 0,
            cancelled: 0,
            failed: 0,
        };
        ServiceStatsSnapshot {
            admitted,
            rejected_queue_full: 0,
            rejected_quota: 0,
            rejected_shedding: 0,
            completed,
            shed_overload,
            shed_deadline: 0,
            shed_cancelled: 0,
            shed_shutdown: 0,
            cancelled: 0,
            failed: 0,
            retries: 0,
            per_class: [class; 3],
        }
    }

    #[test]
    fn service_accounting_must_balance() {
        assert!(service_ok(&service(4, 4, 0), 4));
        // A job lost without a terminal state.
        assert!(!service_ok(&service(4, 3, 0), 4));
        // Balanced, but a submitted job was shed.
        assert!(!service_ok(&service(4, 3, 1), 4));
    }
}
