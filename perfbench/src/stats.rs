//! Order statistics over latency samples, and the result line.

use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ms_since(t0))
}

/// Latency samples of one operation kind. A failed operation is recorded
/// as infinitely slow, so it misses every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The sum of the samples (infinite if one failed).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        median_of(&self.values)
    }

    /// The highest percentile with at least ten samples above it, as
    /// `(value, percentile)`. With ten samples or fewer there is no such
    /// percentile and the maximum is returned as the 100th.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return (f64::NAN, 0.0);
        }
        let idx = if n > 10 { n - 11 } else { n - 1 };
        (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
    }
}

/// Median of a slice of values (NaN when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of a slice of values (NaN when empty).
pub fn mean_of(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// An untraced run's outcome, before the metrics every workload shares.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Prints every metric as a readable line, then the one-line JSON result
/// the benchmark contract asks for as the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// JSON has no infinities or NaN: a failed operation's infinite latency is
/// written as the largest finite double, a missing value as -1.
fn json_number(x: f64) -> String {
    if x.is_nan() {
        "-1".to_string()
    } else if x.is_infinite() {
        format!("{:e}", f64::MAX.copysign(x))
    } else {
        format!("{x}")
    }
}
