//! The environment stamp every result record carries, so results from
//! different machines or toolchains are never compared unknowingly:
//! processor count, CPU model, the affinity mask the benchmark ran under,
//! the compiler, and the commit.

use std::process::Command;

use rome_server::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn status_field(status: &str, key: &str) -> String {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|v| v.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu_model.as_str())),
        (
            "cpus_allowed",
            Json::from(status_field(&status, "Cpus_allowed:").as_str()),
        ),
        (
            "cpus_allowed_list",
            Json::from(status_field(&status, "Cpus_allowed_list:").as_str()),
        ),
        (
            "rustc",
            Json::from(
                command_line("rustc", &["--version"])
                    .unwrap_or_else(unknown)
                    .as_str(),
            ),
        ),
        (
            "git_commit",
            Json::from(
                command_line("git", &["rev-parse", "HEAD"])
                    .unwrap_or_else(unknown)
                    .as_str(),
            ),
        ),
    ])
}
