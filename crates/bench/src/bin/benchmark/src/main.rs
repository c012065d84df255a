//! The repo's one benchmark. See README.md beside this package for the
//! metric catalogue and how the layers feed the end-to-end numbers.
//!
//! ```console
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//!                                   one workload in this process; the last
//!                                   line of standard output is the result
//! benchmark [--seed N] [--quick] [--no-trace] [--out-dir DIR]
//!                                   every workload, each in a fresh child
//!                                   process: untraced, then the traced pass
//! benchmark compare <A.json…> -- <B.json…>
//! benchmark manifest                print BENCHMARK.json
//! ```

mod catalog;
mod compare;
mod harness;
mod instance;
mod layers;
mod report;
mod stats;
mod sys;
mod tracer;
mod w_ctrl;
mod w_dataplane;
mod w_epoch;
mod w_walk;

use harness::Ctx;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use sys::Provenance;

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--name N`, decimal or `0x` hexadecimal.
fn seed_opt(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(raw) = opt(args, name) else { return Ok(default) };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("{name} wants a whole number, got {raw:?}"))
}

/// This run's scratch directory, removed again when the run ends.
struct StateRoot(PathBuf);

impl StateRoot {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".bench_state").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for StateRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Gone too once no other run is using it.
        let _ = std::fs::remove_dir(".bench_state");
    }
}

fn run_workload(args: &[String], name: &str) -> Result<bool, String> {
    let workload = catalog::workload(name).ok_or_else(|| {
        let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds: f64 = match opt(args, "--seconds") {
        Some(raw) => raw.parse().map_err(|_| format!("--seconds wants a number, got {raw:?}"))?,
        None => catalog::RUN_SECONDS as f64,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match opt(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let root = StateRoot::create()?;
    let ctx = Ctx {
        seed: seed_opt(args, "--seed", catalog::DEFAULT_SEED)?,
        instance_seed: seed_opt(args, "--instance-seed", catalog::DEFAULT_INSTANCE_SEED)?,
        seconds,
        traced,
        quick: flag(args, "--quick"),
        state_root: root.0.clone(),
    };
    let provenance = Provenance::collect(&ctx.state_root, ctx.seed, ctx.instance_seed, ctx.quick);
    if provenance.state_fs_type == "tmpfs" {
        eprintln!(
            "warning: state directory {} is on tmpfs; fsync costs nothing there and ctrlplane \
             numbers are not comparable with a real filesystem's",
            ctx.state_root.display()
        );
    }
    println!("workload {}: {}", workload.name, workload.why);

    let mut report = match workload.name {
        "epoch_wire_zoo10" => w_epoch::run(&ctx),
        "migrate_walk_zoo14" => w_walk::run(&ctx),
        "dataplane_zoo14" => w_dataplane::run(&ctx),
        "ctrl_mixed_zoo10" => w_ctrl::run(&ctx),
        other => Err(format!("workload {other} has no runner")),
    }?;
    if !ctx.traced {
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }
    report.finish();
    drop(root);

    report.print_human(&provenance);
    if let Some(path) = opt(args, "--out") {
        let json = serde_json::to_string(&report.to_file(&provenance))
            .map_err(|e| format!("serialize result: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct() && report.ops_failed == 0)
}

/// Every workload in a fresh child process of this binary, so peak RSS and
/// the process-global `poc-obs` registry never leak from one to the next.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let out_dir = opt(args, "--out-dir");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }
    let passes: &[bool] = if flag(args, "--no-trace") { &[false] } else { &[false, true] };
    let mut all_ok = true;
    for &traced in passes {
        for w in catalog::WORKLOADS {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name, "--trace", if traced { "1" } else { "0" }]);
            for name in ["--seed", "--instance-seed", "--seconds"] {
                if let Some(value) = opt(args, name) {
                    child.args([name, value]);
                }
            }
            if flag(args, "--quick") {
                child.arg("--quick");
            }
            if let Some(dir) = out_dir {
                let suffix = if traced { ".trace.json" } else { ".json" };
                child.arg("--out").arg(Path::new(dir).join(format!("{}{suffix}", w.name)));
            }
            println!("== {} ({}) ==", w.name, if traced { "traced pass" } else { "tracing off" });
            let status = child.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                eprintln!(
                    "{} ({}) FAILED: {status}",
                    w.name,
                    if traced { "traced" } else { "untraced" }
                );
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    if command == Some("manifest") {
        print!("{}", catalog::manifest_json());
        return ExitCode::SUCCESS;
    }
    let result = if command == Some("compare") {
        compare::run(&args[1..])
    } else if cfg!(debug_assertions) {
        Err("this is a debug build; numbers are only taken from --release builds".into())
    } else {
        match opt(&args, "--workload") {
            // The driver's form: one workload, in this process. A failed
            // check or operation is named on stderr, shows in the result
            // line, and makes the exit code non-zero.
            Some(name) => run_workload(&args, name),
            None => run_all(&args),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
