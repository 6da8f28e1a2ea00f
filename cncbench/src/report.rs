//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; NaN if empty. Infinite
/// entries (failed or refused requests) sort last, so they count against
/// the percentile instead of vanishing.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Spearman rank correlation of two equally long samples (average ranks
/// for ties); NaN when either side is constant or shorter than 2.
pub fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(x: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..x.len()).collect();
        idx.sort_by(|&i, &j| x[i].total_cmp(&x[j]));
        let mut r = vec![0.0; x.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && x[idx[j + 1]] == x[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    if a.len() != b.len() || a.len() < 2 {
        return f64::NAN;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va * vb).sqrt()
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run produced: the checked operation tallies and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when the oracle disagreed with its own triangle identity, so
    /// no output could be checked.
    pub oracle_ok: bool,
    pub metrics: Vec<Metric>,
    /// Input description, host fingerprint and sample counts, printed as
    /// one `# info` line before the result.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an info field whose value is already a JSON fragment.
    pub fn info_raw(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    pub fn info_num(&mut self, key: &str, v: impl std::fmt::Display) {
        self.info_raw(key, v.to_string());
    }

    pub fn info_str(&mut self, key: &str, v: &str) {
        self.info_raw(key, json_str(v));
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn correct(&self) -> bool {
        self.oracle_ok && self.failed == 0 && self.attempted > 0
    }

    /// The `# info {...}` line.
    pub fn info_line(&self) -> String {
        let mut s = String::from("# info {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", json_str(k));
        }
        s.push('}');
        s
    }

    /// The result object printed as the last line of standard output:
    /// `correct`, `attempted`, `failed` and the metrics with their units.
    /// Non-finite values cannot be written as JSON and are refused.
    pub fn result_line(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// The number following `"key":` in a flat JSON document (0 when the key
/// is absent — cnc-metrics omits zero counters).
pub fn json_number(doc: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let Some(at) = doc.find(&needle) else {
        return 0.0;
    };
    let rest = doc[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 99.0), f64::INFINITY);
    }

    #[test]
    fn rank_correlation_signs() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((rank_correlation(&a, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((rank_correlation(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_parse_from_metrics_json() {
        let doc = r#"{"counters":{"serve.requests":12,"serve.batches":7}}"#;
        assert_eq!(json_number(doc, "serve.requests"), 12.0);
        assert_eq!(json_number(doc, "serve.batches"), 7.0);
        assert_eq!(json_number(doc, "serve.coalesced"), 0.0);
    }

    #[test]
    fn result_line_refuses_non_finite_values() {
        let mut o = Outcome {
            oracle_ok: true,
            ..Outcome::default()
        };
        o.tally(3, 0);
        o.metric("count_s", 0.25, "s");
        assert_eq!(
            o.result_line().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"count_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.metric("bad", f64::NAN, "s");
        assert!(o.result_line().is_err());
    }
}
