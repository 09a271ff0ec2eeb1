//! Minimal `--key value` command-line parsing, shared by every binary.
//!
//! Lived in `mrp-experiments` originally; hoisted here so binaries below
//! the experiments layer (the serving fleet, standalone tools) parse
//! identically without depending on the experiment stack. Crates layer
//! their own convenience methods over [`Args`] via a wrapper struct
//! (`mrp-experiments` adds run-scale/report/telemetry resolution).

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses the process arguments. Arguments are `--key value` pairs; a
    /// `--key` followed by another `--key` (or by nothing) is a valueless
    /// flag and reads as `true`, so switches like `--bless` need no
    /// operand. Negative numbers (`--delta -5`) still parse as values.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or duplicated arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(key) = iter.next() {
            let stripped = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got {key:?}"));
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                _ => "true".to_string(),
            };
            if values.insert(stripped.to_string(), value).is_some() {
                panic!("duplicate argument --{stripped}");
            }
        }
        Args { values }
    }

    /// Integer argument with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// usize argument with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_u64(key, default as u64) as usize
    }

    /// String argument with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Boolean argument with default. Accepts `1`/`0`, `true`/`false`,
    /// `yes`/`no`, and `on`/`off`.
    pub fn get_flag(&self, key: &str, default: bool) -> bool {
        self.values
            .get(key)
            .map(|v| match v.as_str() {
                "1" | "true" | "yes" | "on" => true,
                "0" | "false" | "no" | "off" => false,
                other => panic!("--{key} expects a boolean (1/0/true/false), got {other:?}"),
            })
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = args(&["--instructions", "5000", "--mode", "fast"]);
        assert_eq!(a.get_u64("instructions", 1), 5000);
        assert_eq!(a.get_str("mode", "slow"), "fast");
    }

    #[test]
    fn missing_keys_use_defaults() {
        let a = args(&[]);
        assert_eq!(a.get_u64("instructions", 42), 42);
        assert_eq!(a.get_usize("mixes", 7), 7);
        assert_eq!(a.get_str("mode", "x"), "x");
    }

    #[test]
    #[should_panic(expected = "expected --key")]
    fn rejects_positional_arguments() {
        let _ = args(&["oops"]);
    }

    #[test]
    #[should_panic(expected = "duplicate argument --seed")]
    fn rejects_duplicate_keys() {
        let _ = args(&["--seed", "1", "--workloads", "4", "--seed", "2"]);
    }

    #[test]
    fn parses_boolean_flags() {
        let a = args(&["--min", "0", "--cv", "true", "--strict", "yes"]);
        assert!(!a.get_flag("min", true));
        assert!(a.get_flag("cv", false));
        assert!(a.get_flag("strict", false));
        assert!(a.get_flag("absent", true));
        assert!(!a.get_flag("absent", false));
    }

    #[test]
    #[should_panic(expected = "expects a boolean")]
    fn rejects_non_boolean_flag_values() {
        let a = args(&["--min", "maybe"]);
        let _ = a.get_flag("min", true);
    }

    #[test]
    fn valueless_flags_read_as_true() {
        let a = args(&["--bless", "--seed", "7"]);
        assert!(a.get_flag("bless", false));
        assert_eq!(a.get_u64("seed", 0), 7);
        let b = args(&["--seed", "7", "--bless"]);
        assert!(b.get_flag("bless", false));
    }

    #[test]
    fn negative_numbers_still_parse_as_values() {
        let a = args(&["--delta", "-5", "--strict"]);
        assert_eq!(a.get_str("delta", "0"), "-5");
        assert!(a.get_flag("strict", false));
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn rejects_non_integer() {
        let a = args(&["--n", "abc"]);
        let _ = a.get_u64("n", 0);
    }
}
