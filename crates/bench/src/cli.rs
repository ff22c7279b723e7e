//! The shared command-line vocabulary of the `exp_*` binaries.
//!
//! Every experiment driver speaks the same dialect: positional arguments
//! with historical meanings (`[budgets] [samples] [threads]`…), boolean
//! `--flag`s, and value flags accepted as both `--flag <v>` and
//! `--flag=<v>` anywhere on the line. This module is that dialect's
//! single implementation — flag extraction, scenario-key resolution,
//! count/grid parsing, the `AUDIT_THREADS` default, and the
//! `--cache-stats` rendering — so a new binary gets the whole convention
//! from one import and no binary re-implements a slightly different
//! spelling of it.

use alert_audit::scenario::registry;

/// Remove a boolean `--flag` from the CLI argument list, reporting whether
/// it was present.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Remove a `--flag <value>` or `--flag=<value>` pair from the CLI
/// argument list and return the value, if the flag was present. Panics
/// with usage help when the space-separated form dangles without a value
/// — including the mid-line case where the next token is itself a flag
/// (`exp_online --checkpoint-dir --json` must not silently consume
/// `--json` as the directory). A value that genuinely starts with `--`
/// can always be passed via the `--flag=<value>` spelling.
pub fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        assert!(i + 1 < args.len(), "{flag} needs a value");
        assert!(
            !args[i + 1].starts_with("--"),
            "{flag} needs a value, found flag '{}' instead; \
             use {flag}=<value> if the value really starts with '--'",
            args[i + 1]
        );
        let value = args.remove(i + 1);
        args.remove(i);
        return Some(value);
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let value = args[i][prefix.len()..].to_string();
        args.remove(i);
        return Some(value);
    }
    None
}

/// Remove `--scenario <key>` (or `--scenario=<key>`) from `args` and
/// return the key, if present. Panics with the known-key list when the
/// flag is dangling — at the end of the line or mid-line with another
/// flag where the key should be.
pub fn take_scenario_flag(args: &mut Vec<String>) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let dangling = args.get(i + 1).map(|a| a.starts_with("--")).unwrap_or(true);
        assert!(
            !dangling,
            "--scenario needs a key; known keys: {}",
            registry().keys().join(", ")
        );
    }
    take_value_flag(args, "--scenario")
}

/// Parse an optional comma-separated CLI argument into a numeric grid,
/// falling back to `default`. Shared `[budgets]`/`[epsilons]` positional
/// handling.
pub fn parse_list(arg: Option<String>, default: &[f64]) -> Vec<f64> {
    arg.map(|s| {
        s.split(',')
            .map(|x| x.parse().expect("numeric list"))
            .collect()
    })
    .unwrap_or_else(|| default.to_vec())
}

/// Parse an optional CLI argument into a positive count, falling back to
/// `default`. Shared `[samples]`/`[threads]` positional handling; see
/// [`positional_count`] for the indexed form.
pub fn parse_count(arg: Option<String>, default: usize) -> usize {
    let n = arg
        .map(|s| s.parse().expect("count is a positive integer"))
        .unwrap_or(default);
    assert!(n >= 1, "count must be at least 1");
    n
}

/// The `idx`-th remaining positional argument as a positive count, falling
/// back to `default` — the `[samples]`/`[threads]` convention in one call
/// (extract the flags first; positional indices count what's left).
pub fn positional_count(args: &[String], idx: usize, default: usize) -> usize {
    parse_count(args.get(idx).cloned(), default)
}

/// Worker threads for batched `Pal` evaluation in the experiment drivers:
/// the `AUDIT_THREADS` environment variable when set (and ≥ 1), else 1.
/// Binaries that expose a `[threads]` CLI argument let it take precedence.
/// Thread count never changes results — only wall-clock time.
pub fn default_threads() -> usize {
    std::env::var("AUDIT_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// Render the detection-engine counters for `--cache-stats` output: one
/// line for the estimate cache, one for the prefix-state cache and trie
/// evaluator. The `columns_saved` field is the headline — it counts the
/// column passes the prefix-trie/sweep machinery avoided relative to
/// per-query scalar evaluation, so a nonzero value proves the incremental
/// batch path is engaged (the CI perf smoke greps for exactly that).
pub fn render_cache_stats(stats: &audit_game::detection::CacheStats) -> String {
    format!(
        "engine cache: hits={} misses={} entries={} evictions={}\n\
         engine trie: state_hits={} state_entries={} state_evictions={} \
         columns_evaluated={} columns_saved={}",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.evictions,
        stats.state_hits,
        stats.state_entries,
        stats.state_evictions,
        stats.columns_evaluated,
        stats.columns_saved,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_flag_extraction_handles_both_spellings() {
        let mut args = vec!["2,4".to_string(), "--out".into(), "x.json".into()];
        assert_eq!(
            take_value_flag(&mut args, "--out").as_deref(),
            Some("x.json")
        );
        assert_eq!(args, vec!["2,4".to_string()]);

        let mut args = vec!["--out=y.json".to_string(), "40".into()];
        assert_eq!(
            take_value_flag(&mut args, "--out").as_deref(),
            Some("y.json")
        );
        assert_eq!(args, vec!["40".to_string()]);

        let mut args = vec!["40".to_string()];
        assert_eq!(take_value_flag(&mut args, "--out"), None);
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn boolean_flag_extraction_removes_only_the_flag() {
        let mut args = vec!["10".to_string(), "--json".into(), "4".into()];
        assert!(take_flag(&mut args, "--json"));
        assert!(!take_flag(&mut args, "--json"));
        assert_eq!(args, vec!["10".to_string(), "4".into()]);
    }

    #[test]
    fn positional_count_follows_the_samples_threads_convention() {
        let args = vec!["2,4".to_string(), "120".into()];
        assert_eq!(positional_count(&args, 1, 500), 120);
        assert_eq!(positional_count(&args, 2, 3), 3);
    }

    #[test]
    #[should_panic]
    fn dangling_value_flag_panics() {
        let mut args = vec!["--out".to_string()];
        take_value_flag(&mut args, "--out");
    }

    #[test]
    #[should_panic(expected = "needs a value, found flag '--json'")]
    fn value_flag_rejects_a_following_flag_as_its_value() {
        // The historical bug: `--checkpoint-dir --json` consumed `--json`
        // as the directory, silently disabling JSON output.
        let mut args = vec!["--checkpoint-dir".to_string(), "--json".into()];
        take_value_flag(&mut args, "--checkpoint-dir");
    }

    #[test]
    fn equals_spelling_still_accepts_flag_like_values() {
        let mut args = vec!["--out=--dashed-name".to_string()];
        assert_eq!(
            take_value_flag(&mut args, "--out").as_deref(),
            Some("--dashed-name")
        );
        assert!(args.is_empty());
    }

    #[test]
    #[should_panic(expected = "known keys")]
    fn mid_line_dangling_scenario_flag_panics_with_the_key_list() {
        // `--scenario` mid-line followed by another flag used to slip past
        // the last-position guard and swallow `--json` as the key.
        let mut args = vec!["--scenario".to_string(), "--json".into(), "24".into()];
        take_scenario_flag(&mut args);
    }
}
