//! What the harness reads from and writes to the host: peak memory, the
//! machine description for result headers, and files under `perf/out/`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `perf/out/`, beside this crate's manifest (inside the checkout whatever
/// the working directory is).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `text` to `path`, creating its directory on first use. A failure
/// is reported and the run goes on: the metrics do not depend on the file.
pub fn write_out(path: &Path, text: &str) {
    let dir = path.parent().unwrap_or(Path::new("."));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// This process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mib() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=48K L2=2048K L3=266240K`-style list from cpu0's sysfs cache
/// directory (empty where the kernel exposes none).
pub fn cache_sizes() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .filter_map(|i| {
            let dir = base.join(format!("index{i}"));
            let level = read_trimmed(dir.join("level"))?;
            let kind = read_trimmed(dir.join("type"))?;
            let size = read_trimmed(dir.join("size"))?;
            let suffix = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!("L{level}{suffix}={size}"))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// First line of a command's standard output, or "unknown" (the checkout the
/// driver runs in is not a git repository, for one).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
