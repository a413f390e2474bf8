//! Experiment harnesses regenerating the paper's evaluation artifacts
//! (see `DESIGN.md` §6 and `EXPERIMENTS.md`):
//!
//! - `conformance` (E2/E3): the concurrent validation table — every
//!   library and generated litmus test run exhaustively, model verdict
//!   vs. paper/hardware expectation (`--paper-only` for the six §2
//!   tests);
//! - `seq_conformance` (E1): the sequential differential test run;
//! - `isa_inventory` (E6): the coverage counts vs. the paper's §4.1;
//! - `statespace` (E5): state/transition counts and timing per test;
//! - Criterion benches `oracle` and `sequential` (E5 timing shapes).

/// Command-line flag parsing shared by the experiment binaries.
///
/// Every parser comes in two layers: a `try_*` core returning
/// `Result<_, String>` (unit-testable, message only — no process exit)
/// and a thin wrapper that prints `prog: message` and exits 2 on error.
/// The binaries share these so a bad `--context-bound 0` fails with the
/// same words everywhere instead of silently defaulting in one tool and
/// erroring in another.
pub mod args {
    /// The value following flag `name`, if present.
    #[must_use]
    pub fn arg_value(args: &[String], name: &str) -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    }

    /// Fallible core of [`parse_arg`]: parse `name`'s value, defaulting
    /// only when the flag is absent.
    ///
    /// # Errors
    ///
    /// A flag given an unparseable value is a usage error, not a silent
    /// default — the same principle as rejecting unknown flags.
    pub fn try_parse_arg<T: std::str::FromStr>(
        args: &[String],
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match arg_value(args, name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }

    /// Parse `name`'s value, defaulting only when the flag is absent;
    /// exits 2 with a usage message on a malformed value.
    pub fn parse_arg<T: std::str::FromStr>(
        prog: &str,
        args: &[String],
        name: &str,
        default: T,
    ) -> T {
        try_parse_arg(args, name, default).unwrap_or_else(|e| usage_exit(prog, &e))
    }

    /// Fallible core of [`parse_nonzero_arg`]: like [`try_parse_arg`]
    /// for a `usize` flag whose *explicit* value must be positive.
    ///
    /// Flags like `--context-bound` use `0` internally as "unset/engine
    /// default", but a user typing `0` is asking for something
    /// meaningless (a schedule with no context switches at all) —
    /// reject it and point at the right spelling instead of silently
    /// reinterpreting.
    ///
    /// # Errors
    ///
    /// Unparseable values and an explicit `0` are usage errors.
    pub fn try_parse_nonzero(args: &[String], name: &str, default: usize) -> Result<usize, String> {
        match try_parse_arg::<usize>(args, name, default)? {
            0 if arg_value(args, name).is_some() => Err(format!(
                "{name} must be a positive integer (omit the flag for the default)"
            )),
            n => Ok(n),
        }
    }

    /// [`try_parse_nonzero`], exiting 2 with a usage message on error.
    pub fn parse_nonzero_arg(prog: &str, args: &[String], name: &str, default: usize) -> usize {
        try_parse_nonzero(args, name, default).unwrap_or_else(|e| usage_exit(prog, &e))
    }

    /// Fallible core of [`check_flags`]: verify every argument is a
    /// known flag and every value flag has its value. Unknown arguments
    /// must not silently fall through — a typo'd `--library-only` would
    /// otherwise turn a quick check into the full multi-minute sweep.
    ///
    /// # Errors
    ///
    /// Reports the first unknown argument or missing value.
    pub fn try_check_flags(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<(), String> {
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if value_flags.contains(&a) {
                if i + 1 >= args.len() {
                    return Err(format!("missing value for {a}"));
                }
                i += 2;
            } else if bool_flags.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown argument `{a}`"));
            }
        }
        Ok(())
    }

    /// [`try_check_flags`], printing `usage` and exiting 2 on error.
    pub fn check_flags(
        prog: &str,
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
        usage: &str,
    ) {
        if let Err(e) = try_check_flags(args, value_flags, bool_flags) {
            eprintln!("{prog}: {e}");
            eprintln!("usage: {usage}");
            std::process::exit(2);
        }
    }

    fn usage_exit(prog: &str, msg: &str) -> ! {
        eprintln!("{prog}: {msg}");
        std::process::exit(2)
    }

    #[cfg(test)]
    mod tests {
        use super::{try_check_flags, try_parse_arg, try_parse_nonzero};

        fn argv(args: &[&str]) -> Vec<String> {
            args.iter().map(|s| (*s).to_owned()).collect()
        }

        #[test]
        fn parse_arg_defaults_and_parses() {
            let args = argv(&["--jobs", "3"]);
            assert_eq!(try_parse_arg(&args, "--jobs", 0usize), Ok(3));
            assert_eq!(try_parse_arg(&args, "--threads", 4usize), Ok(4));
        }

        #[test]
        fn parse_arg_rejects_garbage_numerics() {
            for bad in ["x", "1.5", "-1", "3q", ""] {
                let args = argv(&["--jobs", bad]);
                let err = try_parse_arg::<usize>(&args, "--jobs", 0).expect_err("garbage accepted");
                assert!(
                    err.contains("--jobs") && err.contains(bad),
                    "unhelpful message: {err}"
                );
            }
        }

        #[test]
        fn nonzero_rejects_explicit_zero_but_keeps_zero_default() {
            // An explicit `0` is a usage error…
            let args = argv(&["--context-bound", "0"]);
            let err = try_parse_nonzero(&args, "--context-bound", 0).expect_err("zero accepted");
            assert!(err.contains("--context-bound"), "unhelpful message: {err}");
            assert!(err.contains("positive"), "unhelpful message: {err}");
            // …but an absent flag keeps the internal `0 = engine
            // default` sentinel.
            assert_eq!(try_parse_nonzero(&argv(&[]), "--context-bound", 0), Ok(0));
            // Positive explicit values pass through.
            let args = argv(&["--context-bound", "2"]);
            assert_eq!(try_parse_nonzero(&args, "--context-bound", 0), Ok(2));
            // Garbage is still garbage.
            let args = argv(&["--context-bound", "two"]);
            assert!(try_parse_nonzero(&args, "--context-bound", 0).is_err());
        }

        #[test]
        fn check_flags_rejects_unknown_and_missing_values() {
            let value = &["--jobs"];
            let boolean = &["--quiet"];
            assert_eq!(
                try_check_flags(&argv(&["--jobs", "2", "--quiet"]), value, boolean),
                Ok(())
            );
            let err = try_check_flags(&argv(&["--jbos", "2"]), value, boolean)
                .expect_err("typo accepted");
            assert!(err.contains("--jbos"), "unhelpful message: {err}");
            let err = try_check_flags(&argv(&["--jobs"]), value, boolean)
                .expect_err("missing value accepted");
            assert!(err.contains("missing value"), "unhelpful message: {err}");
        }
    }
}
