//! Self-describing bench reports: the shared provenance header.
//!
//! A `BENCH_*.json` file divorced from the machine and tree that produced
//! it is an archaeology problem — was that run with 8 threads? on how
//! many cores? which commit? Every bench report (`pipeline`, `skew`)
//! embeds [`provenance_json`] under a `"provenance"` key so the answer
//! travels with the numbers. Gates read reports by key, so the extra field
//! is invisible to them — and bench reports are wall-clock artefacts,
//! *not* determinism-gated ones, so the timestamp is allowed here (it must
//! never leak into telemetry or trace exports, which are byte-diffed
//! across thread counts).

use pim_runtime::export::{num, str as jstr, Json};
use pim_runtime::ExecConfig;

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repo) is unavailable — a bench run must never fail
/// over missing provenance.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The common provenance header: host CPU count, the executor's resolved
/// thread count plus the raw `PIM_THREADS` setting, the tree version, and
/// a unix timestamp.
pub fn provenance_json() -> Json {
    Json::Obj(vec![
        (
            "host_cpus".into(),
            num(std::thread::available_parallelism().map_or(1, |c| c.get() as u64)),
        ),
        (
            "pim_threads".into(),
            num(ExecConfig::from_env().threads as u64),
        ),
        (
            "pim_threads_env".into(),
            match std::env::var("PIM_THREADS") {
                Ok(v) => jstr(&v),
                Err(_) => Json::Null,
            },
        ),
        ("git".into(), jstr(&git_describe())),
        (
            "timestamp".into(),
            num(std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_has_every_field() {
        let p = provenance_json();
        for key in [
            "host_cpus",
            "pim_threads",
            "pim_threads_env",
            "git",
            "timestamp",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
        assert!(p.get("host_cpus").unwrap().as_u64().unwrap() >= 1);
        assert!(p.get("pim_threads").unwrap().as_u64().unwrap() >= 1);
    }
}
