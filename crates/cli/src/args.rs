//! Minimal command-line argument parser.
//!
//! Supports `--flag`, `--key value`, `--key=value` and positional
//! arguments; short aliases are declared by the caller. No dependency, no
//! macros — just enough for the binaries.

use std::collections::HashMap;

/// Argument parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed arguments: positionals in order, options by canonical name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments in order of appearance.
    pub positional: Vec<String>,
    /// `--key value` options, keyed by canonical (long) name.
    // oris-lint: allow(det-hash) — keyed lookup only; option values are fetched by name, never iterated
    pub options: HashMap<String, String>,
    /// `--flag` switches present, by canonical name.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// `value_keys` lists option names (long form, no dashes) that take a
    /// value; `flag_keys` lists boolean switches; `aliases` maps short
    /// names (e.g. `"W"`) to canonical long names (e.g. `"word"`).
    pub fn parse(
        argv: &[String],
        value_keys: &[&str],
        flag_keys: &[&str],
        aliases: &[(&str, &str)],
    ) -> Result<Args, ArgError> {
        let canon = |raw: &str| -> String {
            let stripped = raw.trim_start_matches('-');
            aliases
                .iter()
                .find(|(a, _)| *a == stripped)
                .map(|(_, c)| c.to_string())
                .unwrap_or_else(|| stripped.to_string())
        };
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if arg.starts_with('-')
                && arg.len() > 1
                && !arg.chars().nth(1).unwrap().is_ascii_digit()
            {
                // `--key=value` spelling: split on the first `=`; the
                // value keeps any further `=` signs verbatim.
                let (raw, inline_value) = match arg.split_once('=') {
                    Some((head, tail)) => (head, Some(tail)),
                    None => (arg.as_str(), None),
                };
                let name = canon(raw);
                if flag_keys.contains(&name.as_str()) {
                    if inline_value.is_some() {
                        return Err(ArgError(format!("flag --{name} takes no value")));
                    }
                    out.flags.push(name);
                } else if value_keys.contains(&name.as_str()) {
                    let val = match inline_value {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .ok_or_else(|| ArgError(format!("option --{name} needs a value")))?
                            .clone(),
                    };
                    out.options.insert(name, val);
                } else {
                    return Err(ArgError(format!("unknown option {arg}")));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Option value parsed as `T`, or `default` when absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value {v:?} for --{key}"))),
        }
    }

    /// Whether a flag is present.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positional_and_options() {
        let a = Args::parse(
            &argv(&["a.fa", "b.fa", "--word", "11", "-e", "0.001"]),
            &["word", "evalue"],
            &[],
            &[("W", "word"), ("e", "evalue")],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["a.fa", "b.fa"]);
        assert_eq!(a.get_or("word", 0usize).unwrap(), 11);
        assert_eq!(a.get_or("evalue", 1.0f64).unwrap(), 0.001);
    }

    #[test]
    fn flags_and_defaults() {
        let a = Args::parse(&argv(&["--stats", "x"]), &["word"], &["stats"], &[]).unwrap();
        assert!(a.has_flag("stats"));
        assert!(!a.has_flag("verbose"));
        assert_eq!(a.get_or("word", 7usize).unwrap(), 7);
    }

    #[test]
    fn unknown_option_is_error() {
        assert!(Args::parse(&argv(&["--nope"]), &[], &[], &[]).is_err());
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Args::parse(&argv(&["--word"]), &["word"], &[], &[]).is_err());
    }

    #[test]
    fn key_equals_value_spelling() {
        let a = Args::parse(
            &argv(&["--word=11", "-e=0.001", "a.fa"]),
            &["word", "evalue"],
            &[],
            &[("e", "evalue")],
        )
        .unwrap();
        assert_eq!(a.get_or("word", 0usize).unwrap(), 11);
        assert_eq!(a.get_or("evalue", 1.0f64).unwrap(), 0.001);
        assert_eq!(a.positional, vec!["a.fa"]);
    }

    #[test]
    fn equals_value_keeps_further_equals_signs() {
        let a = Args::parse(&argv(&["--out=a=b=c"]), &["out"], &[], &[]).unwrap();
        assert_eq!(a.options.get("out").unwrap(), "a=b=c");
    }

    #[test]
    fn empty_equals_value_is_empty_string() {
        let a = Args::parse(&argv(&["--out="]), &["out"], &[], &[]).unwrap();
        assert_eq!(a.options.get("out").unwrap(), "");
    }

    #[test]
    fn flag_with_equals_value_is_error() {
        assert!(Args::parse(&argv(&["--stats=yes"]), &[], &["stats"], &[]).is_err());
    }

    #[test]
    fn unknown_key_equals_value_is_error() {
        assert!(Args::parse(&argv(&["--nope=1"]), &["word"], &[], &[]).is_err());
    }

    #[test]
    fn negative_numbers_are_positional() {
        let a = Args::parse(&argv(&["-5"]), &[], &[], &[]).unwrap();
        assert_eq!(a.positional, vec!["-5"]);
    }

    #[test]
    fn bad_value_type_is_error() {
        let a = Args::parse(&argv(&["--word", "xyz"]), &["word"], &[], &[]).unwrap();
        assert!(a.get_or("word", 0usize).is_err());
    }

    /// The value keys, flag keys and (short, long, short, long, …)
    /// aliases a binary hands to [`Args::parse`], read out of its source
    /// — the three `&[…]` arguments of the call hold no other string
    /// literal — so the property below runs against the real tables,
    /// whatever they become.
    fn tables(src: &'static str) -> [Vec<&'static str>; 3] {
        let call = src.split_once("Args::parse(").expect("parse call").1;
        let call = call.split_once(".map_err").expect("end of call").0;
        let mut groups = call
            .split("&[")
            .skip(1)
            .map(|g| g.split('"').skip(1).step_by(2).collect::<Vec<_>>());
        let tables = [(); 3].map(|()| groups.next().expect("three tables"));
        assert!(tables[0].contains(&"out") && tables[1].contains(&"help"));
        tables
    }

    use proptest::prelude::*;

    proptest! {
        /// Arbitrary argv against the three binaries' key tables: the
        /// parser ends in `Ok` or `ArgError` (never a panic), only
        /// declared names come out, and `--key=value` ≡ `--key value`.
        #[test]
        fn parse_never_panics_and_equals_form_is_equivalent(
            picks in proptest::collection::vec(0usize..1 << 20, 0..8),
            junk in proptest::collection::vec("[a5=é日W ]{0,5}", 0..8),
        ) {
            for src in [
                include_str!("bin/scoris_n.rs"),
                include_str!("bin/mkindex.rs"),
                include_str!("bin/makedb.rs"),
            ] {
                let [values, flags, aliases] = tables(src);
                let aliases: Vec<_> = aliases.chunks(2).map(|p| (p[0], p[1])).collect();
                // ASCII and multi-byte, leading `-`/`--`, `=` anywhere,
                // empty strings, a lone `-`, `-5`-style negatives, real
                // and unknown names.
                let argv: Vec<String> = picks
                    .iter()
                    .zip(&junk)
                    .map(|(&pick, junk)| {
                        let value = values[(pick >> 3) % values.len()];
                        let (short, _) = aliases[(pick >> 3) % aliases.len()];
                        match pick % 8 {
                            0 => format!("--{value}"),
                            1 => format!("--{value}={junk}"),
                            2 => format!("-{short}"),
                            3 => format!("-{short}={junk}"),
                            4 => format!("--{}", flags[(pick >> 3) % flags.len()]),
                            5 => junk.clone(),
                            6 => format!("-{junk}"),
                            _ => format!("--{junk}"),
                        }
                    })
                    .collect();
                let parse = |argv: &[String]| {
                    Args::parse(argv, &values, &flags, &aliases)
                        .map(|a| (a.positional, a.options, a.flags))
                };
                let parsed = parse(&argv);
                if let Ok((_, options, set_flags)) = &parsed {
                    prop_assert!(options.keys().all(|k| values.contains(&k.as_str())));
                    prop_assert!(set_flags.iter().all(|f| flags.contains(&f.as_str())));
                }

                // Respell every inline value of a value option as two
                // arguments: same outcome, error or not.
                let takes_value = |arg: &str| {
                    let mut chars = arg.chars();
                    let is_option = chars.next() == Some('-')
                        && chars.next().is_some_and(|c| !c.is_ascii_digit());
                    let name = arg.trim_start_matches('-');
                    let name = aliases.iter().find(|(a, _)| *a == name).map_or(name, |p| p.1);
                    is_option && values.contains(&name)
                };
                let mut spaced = Vec::new();
                let mut it = argv.iter();
                while let Some(arg) = it.next() {
                    match arg.split_once('=') {
                        Some((head, tail)) if takes_value(head) => {
                            spaced.extend([head.to_string(), tail.to_string()]);
                        }
                        _ => {
                            spaced.push(arg.clone());
                            // A value option written bare takes the next
                            // argument whole, `=` and all.
                            if takes_value(arg) {
                                spaced.extend(it.next().cloned());
                            }
                        }
                    }
                }
                prop_assert_eq!(&parse(&spaced), &parsed);
            }
        }
    }
}
