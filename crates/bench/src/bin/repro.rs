//! Regenerates every figure/table of the (reconstructed) evaluation.
//!
//! ```sh
//! cargo run -p manytest-bench --bin repro --release            # everything
//! cargo run -p manytest-bench --bin repro --release -- e1 e5   # a subset (e1..e12, a1..a6)
//! cargo run -p manytest-bench --bin repro --release -- --quick
//! cargo run -p manytest-bench --bin repro --release -- --jobs 4
//! cargo run -p manytest-bench --bin repro --release -- e3 --events telemetry/
//! cargo run -p manytest-bench --bin repro --release -- explain e3
//! cargo run -p manytest-bench --bin repro --release -- report e11 --out report/
//! cargo run -p manytest-bench --bin repro --release -- bench kernels --grids 8,16,32,64
//! cargo run -p manytest-bench --bin repro --release -- trace e3 --out report/
//! cargo run -p manytest-bench --bin repro --release -- diff e3 e11
//! cargo run -p manytest-bench --bin repro --release -- diff e11 --seed2 111
//! cargo run -p manytest-bench --bin repro --release -- regress
//! ```
//!
//! Worker count: `--jobs N` (or `--jobs=N`) > the `MANYTEST_JOBS`
//! environment variable > the machine's available parallelism. Tables go
//! to stdout and are byte-identical for every worker count; the timing
//! footer goes to stderr and `BENCH_repro.json`.
//!
//! `--events DIR` additionally runs one instrumented probe per selected
//! experiment and writes its decision telemetry to `DIR/<id>.jsonl`,
//! after validating the event counts against the run's report.
//! `explain <id>` replaces the tables entirely: it runs the probe for
//! one experiment and prints a human-readable decision timeline plus
//! counter/histogram summaries.
//! `report <id> [--out DIR]` runs the probe with the flight recorder on
//! and renders `DIR/<id>.html` (SVG panels) plus `DIR/metrics.prom`,
//! both byte-identical across worker counts; per-phase wall times land
//! on stderr.
//! `trace <id> [--out DIR]` exports the probe's event stream as a
//! Perfetto/Chrome trace (`DIR/<id>.trace.json`): one track per core,
//! one per control-loop phase, SBST sessions as duration slices, and a
//! flow arrow along every cause link. Byte-identical across worker
//! counts.
//! `diff <a> <b>` (or `diff <id> --seed2 S`) runs two probes and reports
//! the first diverging event with both causal chains, then the
//! downstream per-kind and aggregate drift. Identical runs print an
//! explicit zero-divergence verdict (CI's self-diff gate).
//!
//! `regress` recomputes the golden store (`crates/bench/tests/golden/`)
//! at quick scale and exits nonzero if any pinned value drifted;
//! `MANYTEST_UPDATE_GOLDEN=1 repro regress` regenerates the store.
//!
//! Any other `--` flag, a flag the chosen command does not read, a value
//! flag without its value, a `--jobs` value that is not an unsigned
//! integer, and any experiment id outside e1..e12 and a1..a6 is an error
//! (exit 2) raised before anything prints or is written, so a misspelt,
//! misplaced or retired name never silently changes what runs. Every
//! command reads `--jobs` and `--quick`; `--events` is read by the table
//! runs, `--out` by `report` and `trace`, `--grids` and `--grid` by
//! `bench kernels`, `--seed2` by `diff` and `--inject-drift` by `regress`.

use manytest_bench::diff::{run_diff, DiffTarget};
use manytest_bench::events::{explain, write_event_logs, PROBE_IDS};
use manytest_bench::kernels::{
    kernels_json, print_kernels, run_kernels, wall_kernels_table, DEFAULT_GRIDS, QUICK_GRIDS,
};
use manytest_bench::regress;
use manytest_bench::report::{run_report_probe_timed, wall_phase_table, write_report_files};
use manytest_bench::runner::{default_jobs, job_stats, panic_message};
use manytest_bench::trace::{run_trace, write_trace_file};
use manytest_bench::*;
use std::path::PathBuf;
use std::time::Instant;

/// Per-experiment timing record for `BENCH_repro.json`.
struct Timing {
    id: &'static str,
    /// Serial-equivalent simulation runs the experiment submitted.
    runs: u64,
    wall_seconds: f64,
    /// Summed per-job wall-clock seconds (serial-equivalent busy time).
    busy_seconds: f64,
}

/// Flags without a value.
const SWITCHES: [&str; 2] = ["--quick", "--inject-drift"];

/// Flags that take a value, as `--flag VALUE` or `--flag=VALUE`.
const VALUE_FLAGS: [&str; 6] = ["--jobs", "--events", "--out", "--grids", "--grid", "--seed2"];

/// The subcommands, named by the first positional word. Any other
/// command line runs experiment tables.
const SUBCOMMANDS: [&str; 6] = ["explain", "report", "trace", "diff", "regress", "bench"];

/// Flags that only some commands read, with those commands (`tables` is
/// the experiment-table run). Every command reads `--jobs` and `--quick`.
const FLAG_READERS: [(&str, &[&str]); 6] = [
    ("--events", &["tables"]),
    ("--out", &["report", "trace"]),
    ("--grids", &["bench"]),
    ("--grid", &["bench"]),
    ("--seed2", &["diff"]),
    ("--inject-drift", &["regress"]),
];

/// Exits 2 after printing `message`.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The command line, split once into positional words, switches and
/// flag values.
struct Args<'a> {
    positional: Vec<&'a str>,
    /// The switches given, in command-line order.
    switches: Vec<&'a str>,
    /// `(flag, value)` pairs in command-line order.
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `args`. Exits 2, naming the flag, on an unknown flag, on a
    /// value flag without its value (given last, followed by another
    /// flag, or as `--flag=`) and on a flag the command does not read.
    fn parse(args: &'a [String]) -> Self {
        let mut positional = Vec::new();
        let mut switches = Vec::new();
        let mut values = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                positional.push(a);
                continue;
            }
            if SWITCHES.contains(&a) {
                switches.push(a);
                continue;
            }
            let (flag, inline) = match a.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (a, None),
            };
            if !VALUE_FLAGS.contains(&flag) {
                eprintln!("error: unknown flag '{a}'");
                eprintln!(
                    "known flags: {}; with a value (--flag V or --flag=V): {}",
                    SWITCHES.join(" "),
                    VALUE_FLAGS.join(" ")
                );
                std::process::exit(2);
            }
            match inline.or_else(|| it.next()) {
                Some(value) if !value.is_empty() && !value.starts_with("--") => {
                    values.push((flag, value));
                }
                _ => usage_error(&format!("{flag} wants a value")),
            }
        }
        let args = Args { positional, switches, values };
        let command = args.command();
        let name = |command: &str| match command {
            "tables" => "the table runs".to_owned(),
            _ => format!("`repro {command}`"),
        };
        let given = args.switches.iter().chain(args.values.iter().map(|(f, _)| f));
        for flag in given {
            let readers = FLAG_READERS.iter().find(|(f, _)| f == flag).map(|&(_, r)| r);
            if let Some(readers) = readers.filter(|r| !r.contains(&command)) {
                let readers: Vec<String> = readers.iter().map(|r| name(r)).collect();
                usage_error(&format!(
                    "{flag} is not read by {}, only by {}",
                    name(command),
                    readers.join(" and ")
                ));
            }
        }
        args
    }

    /// The command this line runs: its first positional word if that is
    /// a subcommand, else `tables`.
    fn command(&self) -> &'a str {
        match self.positional.first() {
            Some(&word) if SUBCOMMANDS.contains(&word) => word,
            _ => "tables",
        }
    }

    /// True if `switch` was given.
    fn switch(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value given last to any of `flags`.
    fn value(&self, flags: &[&str]) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| flags.contains(f))
            .map(|&(_, v)| v)
    }

    /// `flag`'s value parsed as `T`. Exits 2 on a malformed value, saying
    /// what the flag wants.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, wants: &str) -> Option<T> {
        let raw = self.value(&[flag])?;
        let parsed = raw.parse().ok();
        Some(parsed.unwrap_or_else(|| usage_error(&format!("{flag} wants {wants}, got '{raw}'"))))
    }
}

/// `--grids 8,16,32` or `--grid 64`: a list of mesh edges >= 2. Exits 2
/// on a malformed list.
fn parse_grids(list: &str) -> Vec<u16> {
    let grids: Result<Vec<u16>, _> = list.split(',').map(|g| g.trim().parse::<u16>()).collect();
    match grids {
        Ok(g) if !g.is_empty() && g.iter().all(|&e| e >= 2) => g,
        _ => usage_error(&format!(
            "--grids wants a comma-separated list of mesh edges >= 2, got '{list}'"
        )),
    }
}

fn write_bench_json(path: &str, jobs: usize, scale: Scale, timings: &[Timing]) {
    let total_runs: u64 = timings.iter().map(|t| t.runs).sum();
    let total_wall: f64 = timings.iter().map(|t| t.wall_seconds).sum();
    let total_busy: f64 = timings.iter().map(|t| t.busy_seconds).sum();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Quick { "quick" } else { "full" }
    ));
    json.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"runs\": {}, \"wall_seconds\": {:.6}, \
             \"busy_seconds\": {:.6}}}{}\n",
            t.id,
            t.runs,
            t.wall_seconds,
            t.busy_seconds,
            if i + 1 == timings.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_runs\": {total_runs},\n"));
    json.push_str(&format!("  \"total_wall_seconds\": {total_wall:.6},\n"));
    json.push_str(&format!("  \"total_busy_seconds\": {total_busy:.6}\n"));
    json.push_str("}\n");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn main() {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw_args);
    let quick = args.switch("--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    // 0 would mean "decide per batch"; resolving here keeps the footer and
    // JSON honest about the worker count actually used everywhere.
    let jobs = args
        .parsed("--jobs", "an unsigned integer worker count")
        .filter(|&n| n > 0)
        .unwrap_or_else(default_jobs);
    let positional = &args.positional;
    let events_dir = args.value(&["--events"]).map(PathBuf::from);
    let out_dir = args.value(&["--out"]).map(PathBuf::from);

    // `repro explain <id>`: one probe, human-readable decision timeline.
    if positional.first() == Some(&"explain") {
        let Some(&id) = positional.get(1) else {
            eprintln!("usage: repro explain <experiment id> [--quick]");
            eprintln!("known ids: {}", PROBE_IDS.join(" "));
            std::process::exit(2);
        };
        match explain(id, scale) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("unknown experiment id '{id}'; known ids: {}", PROBE_IDS.join(" "));
                std::process::exit(2);
            }
        }
        return;
    }

    // `repro report <id> [--out DIR]`: one flight-recorded probe rendered
    // as a self-contained HTML report plus Prometheus-style metrics. The
    // files are byte-identical across worker counts and reruns; the
    // per-phase wall-clock table goes to stderr only.
    if positional.first() == Some(&"report") {
        let Some(&id) = positional.get(1) else {
            eprintln!("usage: repro report <experiment id> [--out DIR] [--quick]");
            eprintln!("known ids: {}", PROBE_IDS.join(" "));
            std::process::exit(2);
        };
        let Some((report, wall)) = run_report_probe_timed(id, scale) else {
            eprintln!("unknown experiment id '{id}'; known ids: {}", PROBE_IDS.join(" "));
            std::process::exit(2);
        };
        let dir = out_dir.unwrap_or_else(|| PathBuf::from("report"));
        match write_report_files(&dir, id, &report) {
            Ok((html, prom)) => {
                println!("{}", report.summary());
                eprintln!("# report -> {}", html.display());
                eprintln!("# metrics -> {}", prom.display());
                eprint!("{}", wall_phase_table(&wall));
            }
            Err(e) => {
                eprintln!("error: report generation failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // `repro trace <id> [--out DIR]`: one probe exported as a
    // Perfetto/Chrome trace with flow arrows along the cause links. The
    // file is byte-identical across worker counts (CI diffs it).
    if positional.first() == Some(&"trace") {
        let Some(&id) = positional.get(1) else {
            eprintln!("usage: repro trace <experiment id> [--out DIR] [--quick]");
            eprintln!("known ids: {}", PROBE_IDS.join(" "));
            std::process::exit(2);
        };
        let Some((report, _json)) = run_trace(id, scale) else {
            eprintln!("unknown experiment id '{id}'; known ids: {}", PROBE_IDS.join(" "));
            std::process::exit(2);
        };
        let dir = out_dir.unwrap_or_else(|| PathBuf::from("report"));
        match write_trace_file(&dir, id, &report) {
            Ok((path, flows)) => {
                println!("{}", report.summary());
                eprintln!("# trace -> {} ({} events, {flows} cause-link flows)", path.display(), report.events.len());
                eprintln!("# open in https://ui.perfetto.dev or chrome://tracing");
            }
            Err(e) => {
                eprintln!("error: trace export failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // `repro diff <a> <b>` / `repro diff <id> --seed2 S`: first-divergence
    // run diff with causal chains and downstream drift.
    if positional.first() == Some(&"diff") {
        let seed2 = args.parsed("--seed2", "an unsigned integer seed");
        let (id, target) = match (positional.get(1), positional.get(2), seed2) {
            (Some(&id), None, Some(s)) => (id, DiffTarget::Seed(s)),
            (Some(&id), Some(&other), None) => (id, DiffTarget::Probe(other)),
            (Some(&id), None, None) => (id, DiffTarget::Probe(id)),
            _ => {
                eprintln!("usage: repro diff <id a> [<id b>] [--seed2 S] [--quick]");
                eprintln!("       (one id alone self-diffs; --seed2 re-runs <id a> reseeded)");
                eprintln!("known ids: {}", PROBE_IDS.join(" "));
                std::process::exit(2);
            }
        };
        match run_diff(id, target, scale) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("unknown experiment id; known ids: {}", PROBE_IDS.join(" "));
                std::process::exit(2);
            }
        }
        return;
    }

    // `repro regress [--inject-drift]`: the golden-store gate. Exits
    // nonzero on drift so CI can gate on it; `--inject-drift` is the
    // self-test hook proving the gate can fail.
    if positional.first() == Some(&"regress") {
        let ok = regress::run_regress(jobs, args.switch("--inject-drift"));
        std::process::exit(if ok { 0 } else { 1 });
    }

    // `repro bench kernels [--grids 8,16,32,64 | --grid N]`: the
    // control-loop scaling sweep. The stdout table carries only the
    // deterministic phase-profile counters; wall-clock lands on stderr
    // and in BENCH_kernels.json.
    if positional.first() == Some(&"bench") {
        if positional.get(1) != Some(&"kernels") {
            eprintln!("usage: repro bench kernels [--grids N,N,...] [--grid N] [--quick]");
            std::process::exit(2);
        }
        let grids = args.value(&["--grids", "--grid"]).map(parse_grids).unwrap_or_else(|| {
            if quick {
                QUICK_GRIDS.to_vec()
            } else {
                DEFAULT_GRIDS.to_vec()
            }
        });
        let runs = run_kernels(&grids, scale);
        print_kernels(&runs, scale);
        eprint!("{}", wall_kernels_table(&runs));
        if let Err(e) = std::fs::write("BENCH_kernels.json", kernels_json(&runs, scale)) {
            eprintln!("warning: could not write BENCH_kernels.json: {e}");
        } else {
            eprintln!("# counters + wall -> BENCH_kernels.json");
        }
        return;
    }
    let wanted = positional;
    if let Some(id) = wanted.iter().find(|id| !PROBE_IDS.contains(id)) {
        eprintln!("error: unknown experiment id '{id}'");
        eprintln!("known ids: {}", PROBE_IDS.join(" "));
        std::process::exit(2);
    }

    let all = wanted.is_empty();
    let want = |id: &str| all || wanted.contains(&id);

    println!("# manytest reproduction — DATE 2015 power-aware online testing");
    println!(
        "# scale: {:?} (pass --quick for short runs; select with ids e1..e12 and a1..a6)\n",
        scale
    );

    let mut timings: Vec<Timing> = Vec::new();
    // Panic isolation at the experiment level: a panicking experiment is
    // recorded here and the remaining experiments still run; the failure
    // table prints after the tables and the process exits nonzero. The
    // table is byte-identical across worker counts because the batch
    // runner re-raises the first panic in *submission* order.
    let mut failures: Vec<(&'static str, String)> = Vec::new();
    let mut timed = |id: &'static str, run: &mut dyn FnMut()| {
        let before = job_stats();
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut *run));
        if let Err(payload) = outcome {
            failures.push((id, panic_message(payload.as_ref())));
        }
        let after = job_stats();
        timings.push(Timing {
            id,
            runs: after.jobs - before.jobs,
            wall_seconds: start.elapsed().as_secs_f64(),
            busy_seconds: after.busy_seconds - before.busy_seconds,
        });
    };

    if want("e1") {
        timed("e1", &mut || print_e1(&e1_tech_sweep(scale, jobs)));
    }
    if want("e2") {
        timed("e2", &mut || print_e2(&e2_power_trace(scale, jobs)));
    }
    if want("e3") {
        timed("e3", &mut || print_e3(&e3_test_power_share(scale, jobs)));
    }
    if want("e4") {
        timed("e4", &mut || print_e4(&e4_test_interval_vs_load(scale, jobs)));
    }
    if want("e5") {
        timed("e5", &mut || print_e5(&e5_mapping_compare(scale, jobs)));
    }
    if want("e6") {
        timed("e6", &mut || print_e6(&e6_criticality_adaptation(scale, jobs)));
    }
    if want("e7") {
        timed("e7", &mut || print_e7(&e7_vf_coverage(scale, jobs)));
    }
    if want("e8") {
        timed("e8", &mut || print_e8(&e8_pid_vs_naive(scale, jobs)));
    }
    if want("e9") {
        timed("e9", &mut || print_e9(&e9_dark_silicon(scale, jobs)));
    }
    if want("e10") {
        timed("e10", &mut || print_e10(&e10_lifetime(scale, jobs)));
    }
    if want("e11") {
        timed("e11", &mut || print_e11(&e11_fault_response(scale, jobs)));
    }
    if want("e12") {
        timed("e12", &mut || print_e12(&e12_core_lifecycle(scale, jobs)));
    }
    if want("a1") {
        timed("a1", &mut || print_a1(&a1_intrusiveness(scale, jobs)));
    }
    if want("a2") {
        timed("a2", &mut || print_a2(&a2_criticality_weights(scale, jobs)));
    }
    if want("a3") {
        timed("a3", &mut || print_a3(&a3_abort_overhead(scale, jobs)));
    }
    if want("a4") {
        timed("a4", &mut || print_a4(&a4_level_rotation(scale, jobs)));
    }
    if want("a5") {
        timed("a5", &mut || print_a5(&a5_thermal_model(scale, jobs)));
    }
    if want("a6") {
        timed("a6", &mut || print_a6(&a6_contention(scale, jobs)));
    }

    // Telemetry dump: one instrumented probe per selected experiment.
    // Runs after the tables so stdout stays byte-identical with and
    // without --events (the determinism test diffs stdout).
    if let Some(dir) = events_dir {
        let ids: Vec<&str> = PROBE_IDS.iter().copied().filter(|id| want(id)).collect();
        match write_event_logs(&dir, &ids, scale, jobs) {
            Ok(written) => {
                eprintln!("# event logs -> {}", dir.display());
                for (id, count) in written {
                    eprintln!("#   {id}.jsonl: {count} events (validated)");
                }
            }
            Err(e) => {
                eprintln!("error: event telemetry failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Timing lands on stderr + JSON so stdout stays byte-identical across
    // worker counts (the determinism test diffs stdout).
    let total_runs: u64 = timings.iter().map(|t| t.runs).sum();
    let total_wall: f64 = timings.iter().map(|t| t.wall_seconds).sum();
    let total_busy: f64 = timings.iter().map(|t| t.busy_seconds).sum();
    eprintln!("# timing (jobs = {jobs})");
    eprintln!("# id    runs  wall_s   busy_s");
    for t in &timings {
        eprintln!(
            "# {:<5} {:>4}  {:>7.3}  {:>7.3}",
            t.id, t.runs, t.wall_seconds, t.busy_seconds
        );
    }
    eprintln!("# total {total_runs:>4}  {total_wall:>7.3}  {total_busy:>7.3}");
    write_bench_json("BENCH_repro.json", jobs, scale, &timings);
    if !failures.is_empty() {
        println!("## failed experiments ({} of {})", failures.len(), timings.len());
        for (id, msg) in &failures {
            println!("{id:<5}  {}", msg.lines().next().unwrap_or("<empty panic payload>"));
        }
        std::process::exit(1);
    }
}
