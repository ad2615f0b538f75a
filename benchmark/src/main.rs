//! `manytest-benchmark`: measures the simulator end to end, per phase and
//! per layer (see `README.md`).
//!
//! The parent process spawns one child per workload, then one for the
//! layer probes, one after another. Each child is single-threaded and
//! fresh, so allocator state does not leak between workloads and each
//! workload gets its own peak RSS. The parent collects the children's
//! outcomes, writes the result document to `--out` and the traced spans to
//! `--trace-out`, prints a table to stderr and, as the last stdout line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! It exits nonzero if any operation failed.

use manytest_benchmark::fingerprint::{parse_pins, render_pins, EXPECTED_JSON, PINNED_SEED};
use manytest_benchmark::outcome::{Kind, Metric, Outcome};
use manytest_benchmark::probes::run_probes;
use manytest_benchmark::run::{Runner, Settings};
use manytest_benchmark::spans::process_name;
use manytest_benchmark::workloads::{self, Workload, WORKLOADS};
use manytest_sim::Phase;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Host seconds of timed samples per workload unless `--seconds` says
/// otherwise (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Child name of the layer-probe process.
const PROBES: &str = "probes";

fn usage() -> String {
    let mut u = String::from(
        "usage: manytest-benchmark [--workload NAME]... [--seed N] [--seconds S] [--samples N] \
         [--trace 0|1] [--out PATH] [--trace-out PATH] [--write-expected]\n\
         workloads (default: all):",
    );
    for w in &WORKLOADS {
        let _ = write!(u, "\n  {:<13} {}", w.name, w.why);
    }
    u
}

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<&'static Workload>,
    settings: Settings,
    out: PathBuf,
    trace_out: PathBuf,
    write_expected: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        settings: Settings {
            seed: PINNED_SEED,
            seconds: DEFAULT_SECONDS,
            samples: None,
            trace: true,
        },
        out: PathBuf::from("target/benchmark/result.json"),
        trace_out: PathBuf::from("target/benchmark/spans.json"),
        write_expected: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err(usage());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        let s = &mut args.settings;
        match flag.as_str() {
            "--workload" => args
                .workloads
                .push(workloads::find(&value).ok_or_else(bad)?),
            "--seed" => s.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                s.seconds = value.parse().map_err(|_| bad())?;
                if !(s.seconds >= 0.0 && s.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--samples" => s.samples = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--trace-out" => args.trace_out = PathBuf::from(value),
            "--child" => args.child = Some(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    if args.write_expected && args.settings.seed != PINNED_SEED {
        return Err(format!("--write-expected pins seed {PINNED_SEED} only"));
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| match &args.child {
        Some(name) => child(name, &args),
        None => parent(&args),
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Child: measures one workload (or the probes) and prints its outcome.
fn child(name: &str, args: &Args) -> Result<i32, String> {
    let s = &args.settings;
    let outcome = if name == PROBES {
        let mut o = Outcome::default();
        run_probes(s.seed, s.samples, &mut o);
        o
    } else {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let workload = &WORKLOADS[index];
        let pinned = if s.seed == PINNED_SEED && !args.write_expected {
            let pins = parse_pins(EXPECTED_JSON)?;
            Some(pins.get(name).cloned().unwrap_or_default())
        } else {
            None
        };
        let pid = index + 1;
        let mut o = Runner::new(workload, pid, s.seed, pinned).measure(s);
        if s.trace {
            o.trace_events.insert(0, process_name(pid, name));
        }
        o
    };
    print!("{}", outcome.to_lines());
    Ok(0)
}

/// Runs `name` in a child process and collects its outcome; a child that
/// crashes or prints garbage counts as one failed operation.
fn spawn(name: &str, args: &Args) -> Outcome {
    run_child(name, args).unwrap_or_else(|e| {
        eprintln!("benchmark: {name} child: {e}");
        Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        }
    })
}

fn run_child(name: &str, args: &Args) -> Result<Outcome, String> {
    let s = &args.settings;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", name, "--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if s.trace { "1" } else { "0" }]);
    if let Some(n) = s.samples {
        cmd.args(["--samples", &n.to_string()]);
    }
    if args.write_expected {
        cmd.arg("--write-expected");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    Outcome::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Parent: runs every child, then writes and prints the results.
fn parent(args: &Args) -> Result<i32, String> {
    let mut results: Vec<(&str, Outcome)> = Vec::new();
    for w in &args.workloads {
        eprintln!("benchmark: {} (seed {})", w.name, args.settings.seed);
        results.push((w.name, spawn(w.name, args)));
    }
    for (_, o) in &mut results {
        let rate = ok_rate(o);
        o.metric(Kind::EndToEnd, "ok_rate", "ratio", rate);
    }
    if args.settings.trace {
        eprintln!("benchmark: layer probes");
        results.push((PROBES, spawn(PROBES, args)));
    }
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();

    if args.write_expected {
        write_expected(&results)?;
    }
    write_file(
        &args.out,
        &result_document(args, &results, attempted, failed),
    )?;
    if args.settings.trace {
        let events: Vec<&str> = results
            .iter()
            .flat_map(|(_, o)| o.trace_events.iter().map(String::as_str))
            .collect();
        write_file(
            &args.trace_out,
            &format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )?;
    }
    eprint!("{}", summary_table(args, &results));

    // The contract line: end-to-end metrics untraced, per-layer metrics
    // traced. With one workload the names are bare; with several they
    // carry the workload as a prefix.
    let wanted = if args.settings.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let single = args.workloads.len() == 1;
    let mut metrics = Vec::new();
    for (name, o) in &results {
        for m in o.metrics.iter().filter(|m| m.kind == wanted) {
            let key = if single || *name == PROBES {
                m.name.clone()
            } else {
                format!("{name}.{}", m.name)
            };
            metrics.push(format!("\"{key}\": {}", value_json(m)));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(if failed == 0 { 0 } else { 1 })
}

fn value_json(m: &Metric) -> String {
    format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
}

/// Share of the operations that succeeded: 1 − failed / attempted.
fn ok_rate(o: &Outcome) -> f64 {
    if o.attempted == 0 {
        0.0
    } else {
        1.0 - o.failed as f64 / o.attempted as f64
    }
}

/// The `--out` document: every metric of every child by name and unit.
fn result_document(
    args: &Args,
    results: &[(&str, Outcome)],
    attempted: u64,
    failed: u64,
) -> String {
    let s = &args.settings;
    let mut doc = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"correct\": {},\n  \
         \"attempted\": {attempted},\n  \"failed\": {failed},\n  \"workloads\": {{",
        s.seed,
        s.seconds,
        s.trace,
        failed == 0
    );
    for (i, (name, o)) in results.iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n    \"{name}\": {{\n      \"attempted\": {},\n      \"failed\": {},\n      \"metrics\": {{",
            if i == 0 { "" } else { "," },
            o.attempted,
            o.failed
        );
        for (j, m) in o.metrics.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(doc, "{sep}\n        \"{}\": {}", m.name, value_json(m));
        }
        doc.push_str("\n      }\n    }");
    }
    doc.push_str("\n  }\n}\n");
    doc
}

/// Human-readable summary for stderr.
fn summary_table(args: &Args, results: &[(&str, Outcome)]) -> String {
    let s = &args.settings;
    let mut t = format!(
        "\nbenchmark: seed {}, {} s of timed samples per workload, trace {}\n\
         {:<13} {:>9} {:>9} {:>9} {:>5} {:>9} {:>8} {:>9}\n",
        s.seed,
        s.seconds,
        if s.trace { "on" } else { "off" },
        "workload",
        "wall_s",
        "p25",
        "p75",
        "n",
        "setup_ms",
        "rss_MiB",
        "ok_rate"
    );
    let v = |o: &Outcome, name: &str| o.get(name).map_or(f64::NAN, |m| m.value);
    for (name, o) in results.iter().filter(|(n, _)| *n != PROBES) {
        let _ = writeln!(
            t,
            "{name:<13} {:>9.4} {:>9.4} {:>9.4} {:>5} {:>9.3} {:>8.1} {:>9.4}",
            v(o, "wall_s"),
            v(o, "wall_p25"),
            v(o, "wall_p75"),
            v(o, "wall_n"),
            v(o, "setup_s") * 1e3,
            v(o, "peak_rss_mib"),
            v(o, "ok_rate")
        );
    }
    if s.trace {
        let phases: Vec<&str> = Phase::ALL
            .iter()
            .map(|p| p.as_str())
            .chain(["unattributed"])
            .collect();
        let _ = write!(t, "traced share of wall:\n{:<13}", "workload");
        for p in &phases {
            let _ = write!(t, " {p:>12}");
        }
        let _ = writeln!(t, " {:>12}", "trace_ovh");
        for (name, o) in results.iter().filter(|(n, _)| *n != PROBES) {
            let secs: Vec<f64> = phases
                .iter()
                .map(|p| v(o, &format!("phase.{p}_s")))
                .collect();
            let total: f64 = secs.iter().sum();
            let _ = write!(t, "{name:<13}");
            for sec in secs {
                let _ = write!(t, " {:>11.1}%", 100.0 * sec / total);
            }
            let _ = writeln!(t, " {:>11.1}%", 100.0 * v(o, "trace_overhead"));
        }
        for (_, o) in results.iter().filter(|(n, _)| *n == PROBES) {
            for m in &o.metrics {
                let _ = writeln!(t, "  {:<32} {:>14.3} {}", m.name, m.value, m.unit);
            }
        }
    }
    t
}

/// Replaces the pinned fingerprints of the workloads that ran.
fn write_expected(results: &[(&str, Outcome)]) -> Result<(), String> {
    let mut pins = parse_pins(EXPECTED_JSON)?;
    for (name, o) in results.iter().filter(|(n, _)| *n != PROBES) {
        let fps: Option<Vec<u64>> = o.fingerprints.iter().copied().collect();
        let fps = fps
            .filter(|f| !f.is_empty() && o.failed == 0)
            .ok_or_else(|| format!("{name}: runs failed, not pinning"))?;
        pins.insert(name.to_string(), fps);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    write_file(&path, &render_pins(&pins))?;
    eprintln!(
        "benchmark: pinned seed-{PINNED_SEED} fingerprints in {}",
        path.display()
    );
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
