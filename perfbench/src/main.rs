//! One benchmark for parscan: three workloads (`build`, `explore`,
//! `serve`), end-to-end metrics from an untraced run, per-layer metrics
//! from a traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --parscan <bin> --workload <build|explore|serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --pin <from> <to>      # print pins.txt lines for those seeds
//! ```
//!
//! The last line of stdout is the result JSON; every line before it is a
//! metric or check by name, with its unit.

mod explore;
mod inproc;
mod inputs;
mod json;
mod report;
mod serve;
mod server;
mod trace;
mod wl_build;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub parscan: PathBuf,
    /// Scratch directory for this run (graph files, snapshots), removed
    /// at the end.
    pub work: PathBuf,
}

/// Accounting tolerance: along a blocking path, the layers' self times
/// must add up to the end-to-end time within this share of it. The traced
/// and untraced passes run one after the other, and on a shared 2-core
/// host a whole build cycle measured twice in a row differs by up to ~10%.
pub const ACCOUNTING_TOLERANCE: f64 = 0.15;

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--pin") {
        let range = (
            args.get(i + 1).and_then(|s| s.parse().ok()),
            args.get(i + 2).and_then(|s| s.parse().ok()),
        );
        let (Some(from), Some(to)) = range else {
            eprintln!("usage: perfbench --pin <from> <to>");
            return ExitCode::from(2);
        };
        return match inputs::print_pins(from, to) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload and print its report; `Ok(false)` when a check failed.
fn run(args: &[String]) -> Result<bool, String> {
    let workload = arg(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = arg(args, "--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: u64 = arg(args, "--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let parscan = PathBuf::from(arg(args, "--parscan").ok_or("--parscan is required")?);
    if !parscan.is_file() {
        return Err(format!("no parscan binary at {}", parscan.display()));
    }
    let out_dir = PathBuf::from(arg(args, "--out").unwrap_or(".bench_build/perfbench"));
    let work = out_dir.join(format!("work-{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        parscan,
        work,
    };

    let mut report = Report::default();
    let mut tracer = trace.then(trace::Tracer::new);
    let kind = match workload {
        "build" | "explore" => inputs::Kind::Rmat,
        "serve" => inputs::Kind::Sbm,
        other => return Err(format!("unknown workload {other:?} (build|explore|serve)")),
    };
    print_env(workload, &ctx, kind);
    let result = match workload {
        "build" => wl_build::run(&ctx, &mut report, tracer.as_mut()),
        "explore" => explore::run(&ctx, &mut report, tracer.as_mut()),
        _ => serve::run(&ctx, &mut report, tracer.as_mut()),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result?;
    if let Some(t) = &tracer {
        let path = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace  {} spans written to {}", t.len(), path.display());
    }
    report.print();
    let wanted = if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report.result_line(wanted));
    Ok(report.correct())
}

/// `env {cores, threads, scale, commit, seed}`, recorded with every result.
fn print_env(workload: &str, ctx: &Ctx, kind: inputs::Kind) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        r#"env {{"workload":"{workload}","cores":{cores},"threads":{},"scale":"{}","commit":"{}","seed":{},"seconds":{},"trace":{}}}"#,
        parscan_parallel::pool::max_threads(),
        kind.scale(),
        commit(),
        ctx.seed,
        ctx.seconds.as_secs(),
        ctx.trace,
    );
}

/// The git commit when run inside a git checkout; otherwise a content hash
/// of the sources the benchmark builds (`src`, `crates`, manifests), so a
/// result can still be tied to the code that produced it.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !head.is_empty() {
            return head;
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            collect_files(&e.path(), out);
        }
    }
}
