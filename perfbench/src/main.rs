//! `raf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark pass and prints, as its last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end untraced, per-layer traced). Details go to
//! standard error; a traced run also writes its spans as JSON lines
//! under `.bench_build/perfbench-spans/`.

use raf_perfbench::{run, workload, Report, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(workload::WorkloadSpec, RunOptions), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let known: Vec<_> = workload::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    let options = RunOptions {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((spec, options))
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (spec, options) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&spec, options);
    for note in &report.notes {
        eprintln!("{}: {note}", spec.name);
    }
    if options.trace {
        let path = PathBuf::from(".bench_build/perfbench-spans")
            .join(format!("{}-seed{}.jsonl", spec.name, options.seed));
        match raf_perfbench::trace::write_spans(&path, &report.spans) {
            Ok(()) => eprintln!(
                "{}: {} spans written to {}",
                spec.name,
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("{}: spans not written: {e}", spec.name),
        }
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
