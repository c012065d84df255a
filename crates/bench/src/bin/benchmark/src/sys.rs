//! What the machine and the build looked like when a number was taken.

use std::path::Path;
use std::process::Command;

/// Stamped on every result, so a number is never read without its machine.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Provenance {
    pub cores: usize,
    pub profile: String,
    pub git_rev: String,
    pub rustc: String,
    pub state_fs_type: String,
    pub seed: u64,
    pub instance_seed: u64,
    pub mode: String,
}

impl Provenance {
    pub fn collect(state_root: &Path, seed: u64, instance_seed: u64, quick: bool) -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.into(),
            git_rev: first_line("git", &["rev-parse", "--short", "HEAD"]),
            rustc: first_line("rustc", &["--version"]),
            state_fs_type: fs_type_of(state_root),
            seed,
            instance_seed,
            mode: if quick { "quick" } else { "full" }.into(),
        }
    }
}

/// First output line of a helper command, `unknown` when it is missing or
/// fails (a source checkout without `.git`, say).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it.
pub fn fs_type_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fstype.to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |b| b.1)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confine every thread of this process, and so every thread they spawn
/// from now on, to the highest-numbered CPU the process may use. Returns
/// that CPU. A request and its reply then hand over by a context switch on
/// a busy CPU instead of waking a halted one on the other side of the
/// machine, which in a virtual machine is an exit to the host each time.
pub fn pin_process_to_one_cpu() -> Result<usize, String> {
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: the mask is WORDS * 8 writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("sched_getaffinity returned an empty mask")?;
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse::<i32>().ok()) else {
            continue;
        };
        // SAFETY: the mask is WORDS * 8 readable bytes, the size passed. A
        // thread that ended since the listing fails with ESRCH, harmlessly.
        unsafe { sched_setaffinity(tid, WORDS * 8, only.as_ptr()) };
    }
    Ok(cpu)
}
