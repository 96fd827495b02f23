//! Percentiles, the per-request span join, the metric catalogue and the
//! result line.

use std::collections::BTreeMap;

/// A percentile is reported only with at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of ascending `sorted`; `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// [`percentile`], or an error naming `what` when the sample is too small.
pub fn required(sorted: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, p).ok_or_else(|| format!("{} samples cannot support {what}", sorted.len()))
}

/// 1-based nearest rank, if the sample supports it.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// [`percentile`] over `(bucket upper bound, samples)` in ascending
/// bound order, interpolated linearly within the bucket holding the rank
/// (from the previous bucket's bound, or 0).
pub fn bucket_percentile(buckets: &[(u64, u64)], p: f64) -> Option<f64> {
    let n: u64 = buckets.iter().map(|(_, c)| c).sum();
    let rank = rank_of(n as usize, p)? as u64;
    let mut seen = 0;
    let mut lower = 0;
    for &(upper, c) in buckets {
        if seen + c >= rank {
            let within = (rank - seen) as f64 / c as f64;
            return Some(lower as f64 + (upper - lower) as f64 * within);
        }
        seen += c;
        lower = upper;
    }
    None
}

/// Completions per second over `[t0, t0 + window_ns)`: the median over
/// `slices` equal slices, so a host stall in one slice does not move it.
pub fn median_rate(completions: &[u64], t0: u64, window_ns: u64, slices: usize) -> f64 {
    let width = window_ns / slices as u64;
    let mut counts = vec![0u64; slices];
    for &t in completions {
        if let Some(slot) = t.checked_sub(t0).map(|d| (d / width) as usize) {
            if slot < slices {
                counts[slot] += 1;
            }
        }
    }
    let rates = sorted(
        counts
            .iter()
            .map(|&c| c as f64 / (width as f64 / 1e9))
            .collect(),
    );
    rates[slices / 2]
}

/// Median of `v` (the mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// One request's stamps (benchmark clock, ns), in causal order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamps {
    /// When the request was due (open loop) or a slot freed (offline).
    pub scheduled: u64,
    /// When the client started sending it (or called admit).
    pub sent: u64,
    pub admit_start: u64,
    pub admit_end: u64,
    /// When the `step` call that finished it returned.
    pub done: u64,
    /// When the client held the whole response.
    pub received: u64,
}

/// A request's latency split into consecutive layer spans, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    pub late: f64,
    pub queue: f64,
    pub admit: f64,
    pub decode: f64,
    pub respond: f64,
    pub latency: f64,
    /// `|latency - sum of spans|`. The spans tile the latency, so this
    /// is 0 up to rounding unless stamps from different layers were
    /// joined to the wrong request (a negative span counts as 0).
    pub residual: f64,
}

pub fn split(s: &Stamps) -> Split {
    let span = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
    let late = span(s.scheduled, s.sent);
    let queue = span(s.sent, s.admit_start);
    let admit = span(s.admit_start, s.admit_end);
    let decode = span(s.admit_end, s.done);
    let respond = span(s.done, s.received);
    let latency = span(s.scheduled, s.received);
    Split {
        late,
        queue,
        admit,
        decode,
        respond,
        latency,
        residual: (latency - (late + queue + admit + decode + respond)).abs(),
    }
}

/// Metrics every untraced run prints, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("recipes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics every traced run prints, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_p90", "ms"),
    ("serving.batch.queue_ms_p50", "ms"),
    ("serving.batch.queue_ms_p90", "ms"),
    ("serving.batch.idle_share", "ratio"),
    ("serving.batch.batch_size_mean", "rows"),
    ("serving.http.respond_ms_p50", "ms"),
    ("batch_backend.admit_us_p50", "us"),
    ("batch_backend.step_us_p50", "us"),
    ("batch_backend.step_us_p99", "us"),
    ("batch_backend.busy_share", "ratio"),
    ("batch_backend.decode_ms_p50", "ms"),
    ("models.batch.steps", "count"),
    ("models.batch.rows_per_recipe", "rows"),
    ("models.batch.ttft_ms_p50", "ms"),
    ("models.batch.ttft_ms_p90", "ms"),
    ("kv_block.prefix_hit_ratio", "ratio"),
    ("transformer.attend_share", "ratio"),
    ("tensor.matmul_share", "ratio"),
    ("models.step_other_share", "ratio"),
    ("tensor.pool_wait_share", "ratio"),
    ("tensor.pool_launches_per_step", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The run's outcome, printed as the last stdout line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The result line over `catalogue`. Errors when a metric is missing
    /// or not finite: a run that cannot measure must not print a result.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("malformed metric name {name:?}"));
            }
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..200], 95.0), Some(190.0));
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 100.0), None);
    }

    #[test]
    fn bucket_percentile_follows_the_same_rule() {
        let buckets = [(10, 50), (20, 40), (40, 10)];
        assert_eq!(bucket_percentile(&buckets, 50.0), Some(10.0));
        assert_eq!(bucket_percentile(&buckets, 51.0), Some(10.25));
        assert_eq!(bucket_percentile(&buckets, 90.0), Some(20.0));
        assert_eq!(bucket_percentile(&buckets, 91.0), None);
        assert_eq!(bucket_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_rate_ignores_one_stalled_slice() {
        // Five 1-s slices: 10 completions each, except a stalled third.
        let s = 1_000_000_000u64;
        let mut done: Vec<u64> = (0..5)
            .filter(|&k| k != 2)
            .flat_map(|k| (0..10).map(move |i| k * s + i * s / 10))
            .collect();
        done.push(2 * s + 1);
        done.push(7 * s); // after the window
        assert_eq!(median_rate(&done, 0, 5 * s, 5), 10.0);
        assert_eq!(median_rate(&[], 0, 5 * s, 5), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_tile_the_latency() {
        let s = Stamps {
            scheduled: 1_000_000,
            sent: 1_500_000,
            admit_start: 3_000_000,
            admit_end: 3_250_000,
            done: 40_000_000,
            received: 41_000_000,
        };
        let p = split(&s);
        assert_eq!(p.late, 0.5);
        assert_eq!(p.queue, 1.5);
        assert_eq!(p.admit, 0.25);
        assert_eq!(p.decode, 36.75);
        assert_eq!(p.respond, 1.0);
        assert_eq!(p.latency, 40.0);
        assert!(p.residual < 1e-9);
    }

    #[test]
    fn a_misjoined_span_shows_as_residual() {
        // Admission stamped before the request was sent: some other
        // request's admission was joined to this one.
        let s = Stamps {
            scheduled: 0,
            sent: 5_000_000,
            admit_start: 2_000_000,
            admit_end: 3_000_000,
            done: 10_000_000,
            received: 11_000_000,
        };
        let p = split(&s);
        assert_eq!(p.queue, 0.0);
        assert!((p.residual - 3.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name(""));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        use ratatouille::serving::json::Json;
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn report_refuses_missing_or_infinite_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        assert!(r.json(&[("a_ms", "ms")]).is_err());
        r.values.insert("a_ms", f64::INFINITY);
        assert!(r.json(&[("a_ms", "ms")]).is_err());
        r.values.insert("a_ms", 1.25);
        assert_eq!(
            r.json(&[("a_ms", "ms")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
