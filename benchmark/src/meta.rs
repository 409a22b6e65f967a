//! Run metadata: source identity and size, git revision, host facts.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rep::fnv;

/// Identity and size of the source tree the benchmark was built from.
pub struct Source {
    /// FNV digest over every source and build file's path and bytes:
    /// equal digests mean the same code.
    pub digest: u64,
    /// Non-test, non-shim Rust lines: every line of the `.rs` files
    /// under `src/` and `crates/*/src/`, up to the first `#[cfg(test)]`
    /// of each file.
    pub src_lines: u64,
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

pub fn source(root: &Path) -> Source {
    let mut files = Vec::new();
    for dir in ["src", "crates", "shims", "benchmark"] {
        walk(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut digest = 0u64;
    let mut src_lines = 0u64;
    for path in &files {
        let Ok(bytes) = fs::read(path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(path);
        digest = fnv(&[
            digest.to_le_bytes().as_slice(),
            rel.to_string_lossy().as_bytes(),
            &bytes,
        ]
        .concat());
        let parts: Vec<_> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect();
        let program =
            parts[0] == "src" || (parts[0] == "crates" && parts.get(2).is_some_and(|p| p == "src"));
        if program && rel.extension().is_some_and(|e| e == "rs") {
            let text = String::from_utf8_lossy(&bytes);
            src_lines += text
                .lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .count() as u64;
        }
    }
    Source { digest, src_lines }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Reset the peak-resident counter to the current resident set and
/// return that, in MiB (`VmRSS`).
pub fn reset_peak_rss() -> f64 {
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
    let _ = fs::write("/proc/self/clear_refs", "5");
    status_mb("VmRSS:")
}

pub fn nproc() -> usize {
    // detlint::allow(no-wallclock): reported as run metadata only
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
