//! websift's wall-clock benchmark: crawl -> store -> query end to end,
//! attributed layer by layer. See README.md for the contract and the tools.
//!
//! ```text
//! websift-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! websift-benchmark suite [--workload <name>] [--seeds <k>] [--seed-base <n>] [--seconds <s>]
//!                         [--trace <0|1>] [--smoke] --out <set.json>
//! websift-benchmark compare <a.json> <b.json>
//! websift-benchmark selfcheck [--seeds <k>] [--seconds <s>] [--smoke]
//! websift-benchmark manifest | check [--smoke]
//! ```

mod clock;
mod harness;
mod inputs;
mod json;
mod layers;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::RunArgs;

/// Reads `--key value` pairs and bare flags that follow a subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: '{v}' is not a valid number")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let flags = Flags(&args);
    let smoke = flags.has("--smoke");
    let seconds = flags.number("--seconds", metrics::RUN_SECONDS as f64)?;
    let trace = flags.number("--trace", 0u8)? != 0;
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("check") => suite::check(smoke),
        Some("suite") => {
            let out = flags.value("--out").ok_or("suite: --out <set.json> is required")?;
            let set = suite::run_set(
                flags.value("--workload"),
                flags.number("--seeds", 10usize)?,
                flags.number("--seed-base", 1u64)?,
                seconds,
                trace,
                smoke,
            )?;
            std::fs::write(out, suite::set_json(&set)).map_err(|e| format!("{out}: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => suite::compare_files(a, b),
            _ => Err("compare: two set files are required".to_string()),
        },
        Some("selfcheck") => suite::selfcheck(
            flags.number("--seeds", 10usize)?,
            flags.number("--seed-base", 1u64)?,
            seconds,
            smoke,
        ),
        _ => {
            let workload = flags.value("--workload").ok_or("--workload <name> is required")?;
            let run_args = RunArgs { seed: flags.number("--seed", 1u64)?, seconds, trace, smoke };
            let report = harness::run_workload(workload, &run_args)?;
            harness::publish(&report)?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("websift-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
