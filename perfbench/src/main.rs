//! `perfbench` — run one workload of the wall-clock benchmark (or all of
//! them) and print its metrics, ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dijkstra --seed 7 --seconds 30 --trace 0
//! ```

use perfbench::{run, Metric, Options, Scale, WorkloadId};
use privateer_telemetry::json::{self, Json};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: perfbench --workload NAME [options]
  --workload NAME   dijkstra | alvinn | misspec_mix | all
  --seed N          input seed (default: the figure binaries' inputs)
  --seconds S       length of the timed loop (default: 10)
  --trace 0|1       1: also make the traced run and report per-layer metrics
  --scale SCALE     bench (default) or train
  --out DIR         where the traced run's spans go (default: .bench_out/perfbench)
  --corrupt-reference
                    flip a byte of every expected output, so every run must
                    fail (tests the correctness gate)
";

/// Parse the command line; the flag is set for `--workload all`.
fn parse_args() -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut all = false;
    let mut opts = Options {
        workload: WorkloadId::Dijkstra,
        scale: Scale::Bench,
        seed: None,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out/perfbench"),
        corrupt_reference: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                all = name == "all";
                if !all {
                    let w = WorkloadId::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                    workload = Some(w);
                }
            }
            "--seed" => opts.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "bench" => Scale::Bench,
                    "train" => Scale::Train,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "--corrupt-reference" => opts.corrupt_reference = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !all {
        opts.workload = workload.ok_or("--workload is required")?;
    }
    Ok((opts, all))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

/// `--workload all`: every workload in a process of its own, so each gets
/// its own peak-memory figure. Prints each workload's report, then one
/// JSON line whose metric names are prefixed with the workload's name.
fn run_all() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WorkloadId::ALL {
        let child_args = args.iter().enumerate().map(|(i, a)| match i {
            i if i > 0 && args[i - 1] == "--workload" => w.name(),
            _ => a.as_str(),
        });
        let out = Command::new(&exe)
            .args(child_args)
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("{report}");
        let result = json::parse(last).map_err(|_| format!("{} printed no result", w.name()))?;
        let num = |k| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
        attempted += num("attempted");
        failed += num("failed");
        if let Some(Json::Obj(m)) = result.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let w = w.name();
                metrics.push(format!(
                    "\"{w}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let (opts, all) = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if all {
        return match run_all() {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    for (k, v) in &out.meta {
        println!("# {k}: {v}");
    }
    let table = out.end_to_end.iter().chain(&out.per_layer);
    for m in table {
        let n = match m.samples.len() {
            0 => "exact or derived".to_string(),
            1 => "one measurement".to_string(),
            n => format!(
                "median of {n}, min {:.6}, max {:.6}",
                m.samples.iter().copied().fold(f64::INFINITY, f64::min),
                m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            ),
        };
        println!("{:<26} {:>16.6} {:<6} ({n})", m.name, m.value, m.unit);
    }
    println!(
        "fail_ratio {}/{} = {}",
        out.failed,
        out.attempted,
        out.fail_ratio()
    );
    for e in &out.nondeterministic {
        println!("# not repeatable: {e}");
    }
    if let Some(path) = &out.span_file {
        println!("# spans: {}", path.display());
    }

    let metrics = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
