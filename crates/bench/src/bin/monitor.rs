//! Live campaign monitor over the flight-recorder artifacts.
//!
//! Reads the `status.json` heartbeat (atomically rewritten by the
//! campaign, so polling mid-run is always safe) and the `flight.jsonl`
//! sample stream, and renders a terminal dashboard: campaign headline,
//! counters, phase self-times, the hottest simulation cones and the
//! hardest solver goals.
//!
//! Usage: `monitor [--status PATH] [--flight PATH] [--once] [--json]
//! [--check] [--prom-out PATH] [--interval-ms N] [--top K]`
//!
//! * default paths: `results/status.json`, `results/flight.jsonl`;
//! * `--once` — render one snapshot and exit (default: poll forever
//!   every `--interval-ms`, default 1000);
//! * `--json` — with `--once`, emit the checked status heartbeat plus
//!   a flight-stream summary as one JSON object;
//! * `--check` — check both artifacts and exit: each must parse under
//!   the one flight-recorder schema (the telemetry crate's record
//!   module) and re-emit byte-identically, profiler sections included;
//!   any violation (including an empty or truncated stream) exits
//!   non-zero naming the field, or the first bad line of the stream;
//! * `--prom-out PATH` — additionally write a Prometheus-style text
//!   exposition of the heartbeat each refresh;
//! * `--top K` — rows in the hot-cone / hardest-goal tables (default
//!   10).

use std::path::PathBuf;
use std::process::ExitCode;
use symbfuzz_bench::args::{parse_value, split_usage};
use symbfuzz_bench::monitor::{
    check_flight, check_status, render_dashboard, render_json, render_prometheus, Heartbeat,
};
use symbfuzz_telemetry::FlightSample;

struct MonitorArgs {
    status: PathBuf,
    flight: PathBuf,
    once: bool,
    json: bool,
    check: bool,
    prom_out: Option<PathBuf>,
    interval_ms: u64,
    top: usize,
}

const USAGE: &str = "monitor [--status PATH] [--flight PATH] [--once] [--json] [--check] \
                     [--prom-out PATH] [--interval-ms N] [--top K]";

fn parse_args() -> Result<MonitorArgs, String> {
    let mut out = MonitorArgs {
        status: PathBuf::from("results/status.json"),
        flight: PathBuf::from("results/flight.jsonl"),
        once: false,
        json: false,
        check: false,
        prom_out: None,
        interval_ms: 1000,
        top: 10,
    };
    for arg in split_usage(std::env::args().skip(1), USAGE)? {
        let (flag, value) = arg.split_once('=').unwrap_or((&arg, ""));
        match flag {
            "--once" => out.once = true,
            "--json" => out.json = true,
            "--check" => out.check = true,
            "--status" => out.status = PathBuf::from(value),
            "--flight" => out.flight = PathBuf::from(value),
            "--prom-out" => out.prom_out = Some(PathBuf::from(value)),
            "--interval-ms" => out.interval_ms = parse_value(flag, value)?,
            "--top" => out.top = parse_value(flag, value)?,
            _ => unreachable!("`split_usage` passes only the flags of the usage line"),
        }
    }
    Ok(out)
}

fn read_artifacts(args: &MonitorArgs) -> Result<(Heartbeat, Vec<FlightSample>), String> {
    let status_text = std::fs::read_to_string(&args.status)
        .map_err(|e| format!("{}: {e}", args.status.display()))?;
    let status =
        check_status(&status_text).map_err(|e| format!("{}: {e}", args.status.display()))?;
    let flight_text = std::fs::read_to_string(&args.flight)
        .map_err(|e| format!("{}: {e}", args.flight.display()))?;
    let flight =
        check_flight(&flight_text).map_err(|e| format!("{}: {e}", args.flight.display()))?;
    Ok((status, flight))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("monitor: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return match read_artifacts(&args) {
            Ok((_, flight)) => {
                println!(
                    "{}: schema OK; {}: {} samples, schema OK",
                    args.status.display(),
                    args.flight.display(),
                    flight.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("monitor: {e}");
                ExitCode::FAILURE
            }
        };
    }
    loop {
        match read_artifacts(&args) {
            Ok((status, flight)) => {
                if let Some(path) = &args.prom_out {
                    if let Err(e) = std::fs::write(path, render_prometheus(&status)) {
                        eprintln!("monitor: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
                if args.json {
                    println!("{}", render_json(&status, &flight));
                } else {
                    if !args.once {
                        // Clear the terminal between refreshes.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", render_dashboard(&status, &flight, args.top));
                }
            }
            Err(e) => {
                if args.once {
                    eprintln!("monitor: {e}");
                    return ExitCode::FAILURE;
                }
                // Mid-run the artifacts may not exist yet; keep polling.
                println!("monitor: waiting — {e}");
            }
        }
        if args.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms.max(50)));
    }
}
