//! The statistics the report is made of: medians, the "ten samples
//! beyond it" percentile rule, and span self times.

/// Median of `values` (mean of the two middle ones for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median of integer samples, as `f64`.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// How many samples must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of ascending `sorted` samples,
/// reported only when at least [`BEYOND`] samples lie strictly beyond
/// the chosen one — otherwise the tail is too thin to say and the
/// answer is `None` (printed "n/a").
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = nearest_rank(sorted.len(), p)?;
    (sorted.len() - rank >= BEYOND).then(|| sorted[rank - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p * n as f64).ceil() as usize).clamp(1, n))
}

/// One timed call: a layer-qualified name, its interval, the span that
/// caused it, and the request both belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same vector.
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping or adjacent children are
/// merged first; a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[9.0, 1.0, 4.0]), Some(4.0));
        assert_eq!(median(&[9.0, 1.0, 4.0, 2.0]), Some(3.0));
        assert_eq!(median_u64(&[3, 1]), Some(2.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=200).collect();
        // Nearest rank 190 of 200 leaves exactly ten beyond.
        assert_eq!(percentile(&samples, 0.95), Some(190));
        // p99 would leave two.
        assert_eq!(percentile(&samples, 0.99), None);
        let fewer: Vec<u64> = (1..=199).collect();
        // ceil(0.95 * 199) = 190 leaves nine.
        assert_eq!(percentile(&fewer, 0.95), None);
        assert_eq!(percentile(&samples, 0.50), Some(100));
        assert_eq!(percentile(&[], 0.5), None);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child, with its own child
            span(15, 25, Some(1)),  // 2: grandchild — counts against 1 only
            span(40, 60, Some(0)),  // 3: adjacent to 1
            span(55, 70, Some(0)),  // 4: overlaps 3 by 5
            span(90, 120, Some(0)), // 5: runs past the root; clipped to 100
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 15, 30]);
    }
}
