//! One parser for every `PIM_*` environment knob.
//!
//! One variable remains: `PIM_THREADS` (executor workers).
//! [`EnvSettings::from_env`] is the single place the process environment
//! is consulted, and [`crate::pool::ExecConfig::from_env`] consumes the
//! parsed struct.
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
        EnvSettings { threads }
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
    fn all_knobs_parse_together() {
        let s = EnvSettings::from_lookup(lookup(&[("PIM_THREADS", "2"), ("PIM_OTHER", "8")]));
        assert_eq!(s, EnvSettings { threads: Some(2) });
    }
}
