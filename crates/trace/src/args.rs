//! Command-line arguments for the tools: `--name value` flags, bare
//! `--switch`es that the command names up front, and positional words.
//!
//! Each accessor marks the flag it reads. A command reads every flag
//! it knows, then calls [`Args::finish`], which rejects the rest: a
//! misspelled `--hcd` is an error, not a silently ignored option, even
//! as the last word with no value after it.

use std::cell::Cell;
use std::collections::HashMap;
use std::str::FromStr;

/// Parsed arguments; see the [module docs](self).
#[derive(Debug)]
pub struct Args {
    positional: Vec<String>,
    /// Value (`None` for a last word with none) and whether an
    /// accessor has read it, by flag name.
    flags: HashMap<String, (Option<String>, Cell<bool>)>,
}

impl Args {
    /// Parses the process arguments after the program name.
    pub fn from_env(switches: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), switches)
    }

    /// Parses `args`. A flag named in `switches` takes no value (it
    /// reads as `"1"`); every other flag takes the next argument. A
    /// missing value is reported when the flag is read, or by
    /// [`Args::finish`].
    pub fn parse(args: impl IntoIterator<Item = String>, switches: &[&str]) -> Args {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    Some(String::from("1"))
                } else {
                    it.next()
                };
                flags.insert(name.to_string(), (value, Cell::new(false)));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    /// The words that are not flags or flag values, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--name`, if given; an error if it has none.
    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        let Some((value, read)) = self.flags.get(name) else {
            return Ok(None);
        };
        read.set(true);
        match value {
            Some(v) => Ok(Some(v)),
            None => Err(format!("--{name} needs a value")),
        }
    }

    /// The value of `--name`, if given with one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.value(name).ok().flatten()
    }

    /// The value of `--name`, or an error naming it.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// `--name` parsed as `T`, or `default` when absent.
    pub fn flag<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// `--name` parsed as `T`, which must be above `T::default()`
    /// (zero), or `default` when absent.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.flag(name, default)?;
        if v > T::default() || !self.flags.contains_key(name) {
            Ok(v)
        } else {
            Err(format!("--{name} must be positive"))
        }
    }

    /// Whether the switch `--name` was given.
    pub fn set(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Fails on a flag no accessor has read, then on one given no
    /// value (the first by name).
    pub fn finish(&self) -> Result<(), String> {
        let unread = self
            .flags
            .iter()
            .filter(|(_, (_, read))| !read.get())
            .map(|(name, _)| name)
            .min();
        if let Some(name) = unread {
            return Err(format!("unknown argument '--{name}'"));
        }
        let valueless = self
            .flags
            .iter()
            .filter(|(_, (value, _))| value.is_none())
            .map(|(name, _)| name)
            .min();
        match valueless {
            Some(name) => Err(format!("--{name} needs a value")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|w| w.to_string()), &["verify"])
    }

    #[test]
    fn flags_switches_and_positionals() {
        let a = parse(&["run", "--port", "7", "--verify", "x"]);
        assert_eq!(a.positional(), ["run", "x"]);
        assert_eq!(a.flag("port", 0u16), Ok(7));
        assert_eq!(a.flag("threads", 2usize), Ok(2));
        assert_eq!(a.positive("port", 1u16), Ok(7));
        assert_eq!(a.positive("floor", 0.0), Ok(0.0));
        assert!(parse(&["--x", "NaN"]).positive("x", 1.0).is_err());
        assert_eq!(
            parse(&["--jobs", "0"])
                .positive("jobs", 1usize)
                .unwrap_err(),
            "--jobs must be positive"
        );
        assert!(parse(&["--jobs", "x"])
            .positive("jobs", 1usize)
            .unwrap_err()
            .starts_with("--jobs: "));
        assert!(a.set("verify"));
        assert_eq!(a.finish(), Ok(()));
        assert!(a.required("dir").unwrap_err().contains("--dir is required"));
    }

    #[test]
    fn a_last_flag_without_a_value_is_unknown_or_incomplete() {
        let a = parse(&["--port"]);
        assert_eq!(a.finish().unwrap_err(), "unknown argument '--port'");
        assert_eq!(a.flag("port", 0u16).unwrap_err(), "--port needs a value");
        assert_eq!(a.required("port").unwrap_err(), "--port needs a value");
        assert_eq!(a.get("port"), None);
        assert_eq!(a.finish().unwrap_err(), "--port needs a value");
    }

    #[test]
    fn finish_rejects_the_flags_nobody_read() {
        let a = parse(&["--dir", "d", "--hcd", "256", "--bogus", "1"]);
        assert_eq!(a.required("dir"), Ok("d"));
        assert_eq!(a.finish().unwrap_err(), "unknown argument '--bogus'");
        assert_eq!(a.get("bogus"), Some("1"));
        assert_eq!(a.finish().unwrap_err(), "unknown argument '--hcd'");
    }
}
