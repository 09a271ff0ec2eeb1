//! Host fingerprint and process memory, read without spawning processes.

use std::fs;
use std::path::{Path, PathBuf};

/// What produced a result: stamped into every run's output so runs from
/// different hosts or builds are not compared by mistake.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub simd: &'static str,
    pub rev: String,
}

impl Fingerprint {
    pub fn read(root: &Path) -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu,
            nproc: mrp_runtime::available_parallelism(),
            simd: mrp_core::simd::level().name(),
            rev: git_rev(root).unwrap_or_else(|| source_digest(root)),
        }
    }
}

/// The checked-out commit, read from `.git` directly.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Without a `.git` (an exported source tree), an FNV-1a digest of the
/// library sources stands in for the revision: equal digests mean equal
/// code under test.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        for byte in name.bytes().chain(fs::read(&file).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{hash:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
