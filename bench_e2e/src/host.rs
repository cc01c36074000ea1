//! What the numbers were measured on: the host block of every result, and
//! the process's peak resident set.

use columbia_rt::Json;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> Option<String> {
    read("/proc/cpuinfo")?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Size of cpu0's highest-level cache, from sysfs (`"262144K"` style).
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Some(level) = read(&format!("{dir}/level")).and_then(|s| s.trim().parse::<u32>().ok())
        else {
            continue;
        };
        let Some(size) = read(&format!("{dir}/size")).and_then(|s| parse_size(s.trim())) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout the binary was built from, when it is a git
/// checkout (the acceptance driver's is not).
fn git_commit() -> Option<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let head = read(&format!("{root}/.git/HEAD"))?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!("{root}/.git/{reference}")).map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// The host block.
pub fn describe() -> Json {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", text(cpu_model())),
        ("llc_bytes", llc_bytes().map_or(Json::Null, Json::UInt)),
        ("rustc", text(rustc_version())),
        ("git_commit", text(git_commit())),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    read("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn host_block_has_every_field() {
        let h = describe();
        for key in [
            "nproc",
            "cpu_model",
            "llc_bytes",
            "rustc",
            "git_commit",
            "build_profile",
        ] {
            assert!(h.get(key).is_some(), "missing {key}");
        }
    }
}
