//! `openmeta-perfbench --workload <discover|stream|fanout> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Sets the workload up 21 times (reporting the median set-up time),
//! measures it for `--seconds`, checks every output, and prints a table
//! followed by one JSON result line.  With `--trace 1` the window is
//! split: an untraced half for the tracing-overhead baseline, then a
//! traced half that yields the per-layer metrics.  Exits nonzero when
//! any output check failed.

use std::process::ExitCode;
use std::time::Instant;

use openmeta_perfbench::discover::Discover;
use openmeta_perfbench::fanout::Fanout;
use openmeta_perfbench::procfs::ProcSample;
use openmeta_perfbench::report::{self, Output, Window};
use openmeta_perfbench::stream::Stream;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

enum Workload {
    Discover(Box<Discover>),
    Stream(Stream),
    Fanout(Fanout),
}

impl Workload {
    fn setup(args: &Args) -> Result<Workload, String> {
        Ok(match args.workload.as_str() {
            "discover" => Workload::Discover(Box::new(Discover::setup(args.seed)?)),
            "stream" => Workload::Stream(Stream::setup(args.seed)?),
            "fanout" => Workload::Fanout(Fanout::setup(args.seed)?),
            other => return Err(format!("unknown workload '{other}' (discover|stream|fanout)")),
        })
    }

    fn window(&mut self, seconds: f64, trace: bool) -> Window {
        match self {
            Workload::Discover(w) => w.window(seconds, trace),
            Workload::Stream(w) => w.window(seconds, trace),
            Workload::Fanout(w) => w.window(seconds, trace),
        }
    }

    /// Tear down, returning failures found while draining.
    fn finish(self) -> (u64, Vec<String>) {
        match self {
            Workload::Stream(w) => w.finish(),
            Workload::Discover(_) | Workload::Fanout(_) => (0, Vec::new()),
        }
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("openmeta-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for i in 0..SETUPS {
        drop(workload.take());
        let start = if i == 0 { t0 } else { Instant::now() };
        match Workload::setup(&args) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("openmeta-perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let Some(mut workload) = workload else { return ExitCode::from(1) };

    let windows: Vec<Window> = if args.trace {
        vec![workload.window(args.seconds / 2.0, false), workload.window(args.seconds / 2.0, true)]
    } else {
        vec![workload.window(args.seconds, false)]
    };
    let (drain_failed, drain_errors) = workload.finish();
    let peak_rss_kb = ProcSample::read().vm_hwm_kb;

    let mut attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let mut failed: u64 = windows.iter().map(|w| w.failed).sum::<u64>() + drain_failed;
    if attempted == 0 {
        attempted = 1;
        failed = failed.max(1);
    }
    let errors: Vec<String> =
        windows.iter().flat_map(|w| w.errors.iter().cloned()).chain(drain_errors).collect();
    let untraced = &windows[0];
    let e2e = report::end_to_end(&setups_s, untraced, peak_rss_kb);
    let layer = match windows.get(1) {
        Some(traced) => {
            report::per_layer(traced, untraced.ops_per_s(), failed as f64 / attempted as f64)
        }
        None => Vec::new(),
    };
    let out = Output {
        workload: args.workload,
        trace: args.trace,
        attempted,
        failed,
        errors,
        e2e,
        layer,
    };
    print!("{}", out.table());
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
