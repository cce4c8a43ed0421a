//! One parser for every `PIM_*` environment knob.
//!
//! Three variables remain: `PIM_THREADS` (executor workers),
//! `PIM_SHARDS` (cluster shard count) and `PIM_PUSH_PULL` (push-pull
//! batch search). [`EnvSettings::from_env`] is the single place the
//! process environment is consulted, and the layered configs
//! ([`crate::pool::ExecConfig::from_env`], `pim_core::Config::from_env`,
//! `pim_cluster::ClusterConfig::from_env`) consume the parsed struct.
//!
//! Parsing is injectable ([`EnvSettings::from_lookup`]) so unit tests
//! never mutate the process environment (which is global and racy under
//! a parallel test harness).

/// The parsed `PIM_*` environment, `None` where a variable is absent or
/// unparseable (each consumer applies its own default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvSettings {
    /// `PIM_THREADS`: executor worker threads. `0` and garbage both mean
    /// "use every core", which is the absent default too — so those parse
    /// to `None` here.
    pub threads: Option<usize>,
    /// `PIM_SHARDS`: cluster shard count `S ≥ 1` (consumers default
    /// to 1 — a single-machine cluster).
    pub shards: Option<u32>,
    /// `PIM_PUSH_PULL`: CPU-side hot-node cache for batch search.
    /// `1`/`true` → on, `0`/`false` → off, anything else (including
    /// absent) → `None` (consumers default to off).
    pub push_pull: Option<bool>,
}

impl EnvSettings {
    /// Parse the real process environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Parse through an injected lookup (unit tests; the real environment
    /// is process-global, so tests must not touch it).
    pub fn from_lookup(var: impl Fn(&str) -> Option<String>) -> Self {
        let threads = var("PIM_THREADS")
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let shards = var("PIM_SHARDS")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&n| n >= 1);
        let push_pull = var("PIM_PUSH_PULL").and_then(|v| match v.trim() {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => None,
        });
        EnvSettings {
            threads,
            shards,
            push_pull,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn absent_environment_parses_to_none() {
        assert_eq!(EnvSettings::from_lookup(|_| None), EnvSettings::default());
    }

    #[test]
    fn threads_zero_and_garbage_mean_all_cores() {
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_THREADS", "8")])).threads,
            Some(8)
        );
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_THREADS", "0")])).threads,
            None
        );
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_THREADS", "lots")])).threads,
            None
        );
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_THREADS", " 4 ")])).threads,
            Some(4)
        );
    }

    #[test]
    fn shards_require_a_positive_count() {
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_SHARDS", "4")])).shards,
            Some(4)
        );
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_SHARDS", "0")])).shards,
            None
        );
        assert_eq!(
            EnvSettings::from_lookup(lookup(&[("PIM_SHARDS", "-2")])).shards,
            None
        );
    }

    #[test]
    fn push_pull_accepts_both_spellings_either_way() {
        for (v, want) in [
            ("1", Some(true)),
            ("true", Some(true)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("on", None),
            ("yes", None),
            ("", None),
        ] {
            assert_eq!(
                EnvSettings::from_lookup(lookup(&[("PIM_PUSH_PULL", v)])).push_pull,
                want,
                "PIM_PUSH_PULL={v}"
            );
        }
    }

    #[test]
    fn all_knobs_parse_together() {
        let s = EnvSettings::from_lookup(lookup(&[
            ("PIM_THREADS", "2"),
            ("PIM_SHARDS", "8"),
            ("PIM_PUSH_PULL", "true"),
        ]));
        assert_eq!(
            s,
            EnvSettings {
                threads: Some(2),
                shards: Some(8),
                push_pull: Some(true),
            }
        );
    }
}
