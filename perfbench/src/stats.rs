//! Order statistics over latency samples, and the process facts read
//! from `/proc/self/status`.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie strictly above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile (a sample value).
    pub value: f64,
    /// The percentile, `100 · rank / samples`.
    pub percentile: f64,
    /// Samples strictly greater than `value` (at least [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Samples in the set.
    pub samples: usize,
}

/// Picks the tail: the largest sample that has at least [`TAIL_BEYOND`]
/// samples strictly above it. Ties step down to the next smaller distinct
/// value, so the "beyond" count is never overstated. `None` when no
/// sample qualifies (fewer than `TAIL_BEYOND + 1` distinct positions).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // The TAIL_BEYOND-th largest sample: everything strictly below it has
    // at least TAIL_BEYOND samples beyond it.
    let threshold = sorted[n - TAIL_BEYOND];
    let rank = sorted.partition_point(|&v| v < threshold);
    if rank == 0 {
        return None;
    }
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …) in MiB.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPUs in this process's affinity mask (what `nproc` reports), counted
/// from the `Cpus_allowed_list` ranges of `/proc/self/status`.
pub fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for range in list.trim().split(',') {
        count += match range.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => {
                range.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(values: &[f64], cut: f64) -> usize {
        values.iter().filter(|&&v| v > cut).count()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_exactly_ten_distinct_samples_beyond() {
        let values: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let tail = tail(&values).expect("50 samples have a tail");
        assert_eq!(tail.value, 40.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.samples, 50);
        assert_eq!(tail.percentile, 80.0);
        assert_eq!(beyond(&values, tail.value), 10);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond_under_ties() {
        // Pseudo-random samples drawn from a handful of values, so ties
        // straddle the cut.
        let mut state = 0x2006_u64;
        for n in 11..200 {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 7) as f64
                })
                .collect();
            match tail(&values) {
                Some(tail) => {
                    assert!(beyond(&values, tail.value) >= TAIL_BEYOND, "n={n}");
                    assert_eq!(beyond(&values, tail.value), tail.beyond);
                    // No larger sample value also has ten beyond it.
                    for &v in values.iter().filter(|&&v| v > tail.value) {
                        assert!(beyond(&values, v) < TAIL_BEYOND, "n={n}: {v} qualifies too");
                    }
                }
                None => {
                    // Only when no value has ten samples above it.
                    assert!(values.iter().all(|&v| beyond(&values, v) < TAIL_BEYOND));
                }
            }
        }
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&values), None);
        let values: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&values).map(|t| t.value), Some(0.0));
    }
}
