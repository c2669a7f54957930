//! Summary statistics and the one-line JSON result.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `MB/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name` in `unit`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// # Errors
/// Returns an error naming the first metric with an invalid name or a
/// non-finite value, or a name used twice.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        body.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("fleet.tick_p50_us"));
        assert!(valid_name("tuners.observe_us.cs"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("run s"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        let bad = [Metric::new("run s", 1.0, "s")];
        assert!(result_json(true, 1, 0, &bad).is_err());
        let dup = [Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")];
        assert!(result_json(true, 1, 0, &dup).is_err());
        let nan = [Metric::new("a", f64::NAN, "s")];
        assert!(result_json(true, 1, 0, &nan).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(true, 3, 0, &[Metric::new("run_s", 0.123456789012, "s")])
            .expect("valid metrics");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":0.123456789012,\"unit\":\"s\"}}}"
        );
    }
}
