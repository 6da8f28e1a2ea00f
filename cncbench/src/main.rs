//! cncbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cncbench --workload skewed-bmp|stream-shard-mps --seed N
//!          --seconds S --trace 0|1 --cnc PATH --work-dir DIR
//!          [--host-json JSON] [--flip-one-count]
//! ```
//!
//! Normally started by `run.py`, which builds this crate and the `cnc`
//! binary first. The untraced run (`--trace 0`) reports the end-to-end
//! metrics; the traced run (`--trace 1`) times the public call into each
//! crate and reports the per-layer metrics. Every output is checked
//! against an oracle computed before timing starts; `--flip-one-count`
//! corrupts one result per check so the checker can be seen to fire.
//! The last line of standard output is the result object; a `# info`
//! line before it states the input sizes, the host and the sample counts.

mod child;
mod daemon;
mod flood;
mod inputs;
mod oracle;
mod report;
mod serve;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SkewedBmp,
    StreamShardMps,
}

impl Workload {
    fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "skewed-bmp" => Ok(Workload::SkewedBmp),
            "stream-shard-mps" => Ok(Workload::StreamShardMps),
            other => Err(format!(
                "unknown workload {other:?} (skewed-bmp|stream-shard-mps)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedBmp => "skewed-bmp",
            Workload::StreamShardMps => "stream-shard-mps",
        }
    }

    /// Whether the timed count path runs BMP (else MPS).
    pub fn bmp(self) -> bool {
        self != Workload::StreamShardMps
    }

    /// The `--algo` token of the workload's kernel.
    pub fn algo(self) -> &'static str {
        if self.bmp() {
            "bmp-rf"
        } else {
            "mps"
        }
    }
}

/// Minimal flag parser over the remaining arguments.
pub struct Args(Vec<String>);

impl Args {
    pub fn positional(&mut self) -> Result<String, String> {
        if self.0.is_empty() {
            return Err("missing argument".into());
        }
        Ok(self.0.remove(0))
    }

    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.opt(flag).ok_or_else(|| format!("{flag} is required"))
    }

    pub fn opt(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        if at + 1 >= self.0.len() {
            return None;
        }
        let v = self.0.remove(at + 1);
        self.0.remove(at);
        Some(v)
    }

    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    pub fn flag(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }
}

/// The options of one benchmark run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `cnc` binary built from this checkout.
    pub cnc: PathBuf,
    /// Scratch directory for this run's inputs (removed at the end).
    pub work: PathBuf,
    /// Where the traced run leaves its span file.
    pub trace_dir: PathBuf,
    pub host_json: String,
    pub flip: bool,
    /// Worker threads, connections and shard processes: the host's cores.
    pub threads: usize,
}

fn run(mut args: Args) -> Result<(), String> {
    let run = RunArgs {
        workload: Workload::from_name(&args.value("--workload")?)?,
        seed: args.parse("--seed")?,
        seconds: args.parse("--seconds")?,
        trace: args.parse::<u8>("--trace")? == 1,
        cnc: PathBuf::from(args.value("--cnc")?),
        work: PathBuf::from(args.value("--work-dir")?),
        trace_dir: PathBuf::from(args.opt("--trace-dir").unwrap_or_else(|| ".".into())),
        host_json: args.opt("--host-json").unwrap_or_else(|| "{}".into()),
        flip: args.flag("--flip-one-count"),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    if let Some(stray) = args.0.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    if !run.cnc.is_file() {
        return Err(format!("no cnc binary at {}", run.cnc.display()));
    }
    std::fs::create_dir_all(&run.work).map_err(|e| format!("cannot create work dir: {e}"))?;
    let result = workloads::run(&run);
    let _ = std::fs::remove_dir_all(&run.work);
    let outcome = result?;
    println!("{}", outcome.info_line());
    println!("{}", outcome.result_line()?);
    Ok(())
}

fn main() -> ExitCode {
    sys::die_with_parent();
    let mut args = Args(std::env::args().skip(1).collect());
    let result = if args.0.first().map(String::as_str) == Some("child") {
        args.0.remove(0);
        child::main(&mut args)
    } else {
        run(args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cncbench: {e}");
            ExitCode::FAILURE
        }
    }
}
