//! Statistics helpers and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Whether at least ten samples lie beyond the `q` percentile.
pub fn supports(samples: usize, q: f64) -> bool {
    (samples as f64 * (1.0 - q)).floor() >= 10.0
}

/// A run's window split into this many consecutive segments; latency is
/// the median of the per-segment values, so a host stall that hits one
/// segment does not move the result.
pub const SEGMENTS: usize = 3;

/// The median latency and `tail_q` latency of each segment of a window of
/// `wall_s` seconds, each reduced to its median over the segments.
/// `samples` are (time into the window, latency) pairs.
pub fn segment_medians(samples: &[(f64, f64)], wall_s: f64, tail_q: f64) -> (f64, f64) {
    let width = wall_s / SEGMENTS as f64;
    let mut segments = vec![Vec::new(); SEGMENTS];
    for &(at, latency) in samples {
        segments[((at / width) as usize).min(SEGMENTS - 1)].push(latency);
    }
    let p50: Vec<f64> = segments.iter().map(|s| median(s)).collect();
    let tail: Vec<f64> = segments.iter().map(|s| percentile(s, tail_q)).collect();
    (median(&p50), median(&tail))
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which only a bug can produce) become
/// `null`, which the result consumer rejects.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
    }

    #[test]
    fn a_stall_in_one_segment_does_not_move_the_medians() {
        let mut samples: Vec<(f64, f64)> = (0..300).map(|i| (i as f64 / 10.0, 1.0)).collect();
        for s in samples.iter_mut().filter(|(at, _)| *at < 10.0) {
            s.1 = 50.0;
        }
        assert_eq!(segment_medians(&samples, 30.0, 0.95), (1.0, 1.0));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[metric("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
