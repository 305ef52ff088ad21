//! The host block every result carries, plus the process-level probes
//! (resident memory, CPU steal) read from `/proc`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Reads a `kB` field (e.g. `VmHWM`) of `/proc/self/status`, in KiB.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The process's resident high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Aggregate CPU steal ticks (`USER_HZ`) from the `cpu` line of
/// `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Output of a short external command, or `None` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the sources the benchmark builds against: two runs
/// with equal digests measured the same code, committed or not.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock" || e == "json")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src", "perfbench/configs"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("fnv1a-{hash:016x}")
}

/// The static part of the host block: where and with what the run was
/// measured.
pub struct Host {
    pub nproc: usize,
    pub cpu_max: String,
    pub rustc: String,
    pub revision: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_max: std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "absent".to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            // Only trust git when the working directory is the root of a
            // repository; an exported checkout nested in another repository
            // must not report that repository's revision.
            revision: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .map(|r| format!("git:{r}"))
                .unwrap_or_else(source_digest),
        }
    }

    /// Renders the host block as a JSON object, with the steal delta
    /// observed over the run.
    pub fn to_json(&self, steal_delta: Option<u64>) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"nproc\": {}, \"cgroup_cpu_max\": {}, \"rustc\": {}, \"revision\": {}, \"steal_ticks\": {}}}",
            self.nproc,
            json_str(&self.cpu_max),
            json_str(&self.rustc),
            json_str(&self.revision),
            steal_delta.map_or("null".to_string(), |d| d.to_string()),
        );
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
