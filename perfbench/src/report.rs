//! The benchmark's output: a readable table, one self-describing report
//! line, and the final result line.

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|(n, _, _)| keep(n));
    }

    pub fn contains(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _, _)| n == name)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<28} {v:>14.4} {u}\n"))
            .collect()
    }
}

/// A JSON number that keeps every digit of `v`.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics this run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    pub metrics: Metrics,
    /// The workload's metrics under the names its users know them by
    /// (fetch_ms_p50, render_ms_p50, ...), printed for reading.
    pub named: Metrics,
    pub params: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn param(&mut self, name: &'static str, value: f64) {
        self.params.push((name, value));
    }
}

pub struct Provenance<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub git_rev: String,
    pub nproc: usize,
}

/// Prints the table, the report line, and (last) the result line.
pub fn print(p: &Provenance, o: &Outcome, correct: bool) {
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rev={} nproc={}",
        p.workload, p.seed, p.seconds, p.trace as u8, p.git_rev, p.nproc
    );
    let params: Vec<String> = o.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("params: {}", params.join(" "));
    print!("{}", o.named.table());
    println!(
        "  {:<28} {:>14.4} ratio ({} failed of {} attempted)",
        "failed_frac", failed_frac, o.failed, o.attempted
    );
    println!("metrics:");
    print!("{}", o.metrics.table());
    let params_json: Vec<String> = o
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    println!(
        "report {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"params\": {{{}}}, \"named\": {}, \
         \"failed_frac\": {}}}",
        p.workload,
        p.seed,
        num(p.seconds),
        p.trace,
        p.git_rev,
        p.nproc,
        params_json.join(", "),
        o.named.json(),
        num(failed_frac)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        o.metrics.json()
    );
}
