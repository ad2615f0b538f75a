//! What one child process reports to the parent, and the line format it
//! travels in over the child's standard output.

use std::fmt::Write as _;

/// Which table of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An end-to-end metric with a regression bound.
    EndToEnd,
    /// A per-layer metric (traced runs and probes).
    Layer,
    /// Recorded for information only (sample counts, tail percentiles).
    Info,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::EndToEnd => "e2e",
            Kind::Layer => "layer",
            Kind::Info => "info",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Kind::EndToEnd, Kind::Layer, Kind::Info]
            .into_iter()
            .find(|k| k.as_str() == s)
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Table the metric belongs to.
    pub kind: Kind,
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

/// Operations attempted and failed, metrics, outcome fingerprints and trace
/// events of one child.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted: simulation runs and probe batches.
    pub attempted: u64,
    /// Operations that panicked, failed to build, failed the event audit
    /// or produced a wrong fingerprint.
    pub failed: u64,
    /// Every metric, in emission order.
    pub metrics: Vec<Metric>,
    /// First outcome fingerprint per config (for `--write-expected`).
    pub fingerprints: Vec<Option<u64>>,
    /// Chrome-trace events of the traced runs.
    pub trace_events: Vec<String>,
}

impl Outcome {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a metric.
    pub fn metric(&mut self, kind: Kind, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.push(Metric {
            kind,
            name: name.into(),
            unit: unit.to_string(),
            value,
        });
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the outcome as the child's stdout lines.
    pub fn to_lines(&self) -> String {
        let mut out = format!("ops {} {}\n", self.attempted, self.failed);
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} {} {} {}",
                m.kind.as_str(),
                m.name,
                m.unit,
                m.value
            );
        }
        for (i, fp) in self.fingerprints.iter().enumerate() {
            match fp {
                Some(fp) => {
                    let _ = writeln!(out, "fingerprint {i} {fp:016x}");
                }
                None => {
                    let _ = writeln!(out, "fingerprint {i} -");
                }
            }
        }
        for e in &self.trace_events {
            let _ = writeln!(out, "event {e}");
        }
        out
    }

    /// Parses [`Outcome::to_lines`] output.
    ///
    /// # Errors
    ///
    /// Returns the first line that does not parse.
    pub fn parse(text: &str) -> Result<Outcome, String> {
        let mut o = Outcome::default();
        for line in text.lines() {
            let bad = || format!("unparseable child line: {line}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            let fields: Vec<&str> = rest.split(' ').collect();
            match (tag, fields.as_slice()) {
                ("ops", [a, f]) => {
                    o.attempted = a.parse().map_err(|_| bad())?;
                    o.failed = f.parse().map_err(|_| bad())?;
                }
                ("metric", [kind, name, unit, value]) => o.metric(
                    Kind::parse(kind).ok_or_else(bad)?,
                    *name,
                    unit,
                    value.parse().map_err(|_| bad())?,
                ),
                ("fingerprint", [_, fp]) => o.fingerprints.push(match *fp {
                    "-" => None,
                    hex => Some(u64::from_str_radix(hex, 16).map_err(|_| bad())?),
                }),
                ("event", _) => o.trace_events.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        o.metric(Kind::EndToEnd, "wall_s", "s", 0.123_456_789_012_345_6);
        o.metric(Kind::Layer, "profile.epochs", "count", 500.0);
        o.metric(Kind::Info, "wall_n", "count", 30.0);
        o.fingerprints = vec![Some(0xabc), None];
        o.trace_events = vec!["{\"name\":\"run\"}".to_string()];
        assert_eq!(Outcome::parse(&o.to_lines()).unwrap(), o);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Outcome::parse("ops x 0").is_err());
        assert!(Outcome::parse("hello").is_err());
    }
}
