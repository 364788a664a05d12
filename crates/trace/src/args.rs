//! Command-line arguments for the tools: `--name value` flags, bare
//! `--switch`es that the command names up front, and positional words.
//!
//! Each accessor marks the flag it reads. A command reads every flag
//! it knows, then calls [`Args::finish`], which rejects the rest: a
//! misspelled `--hcd` is an error, not a silently ignored option.

use std::cell::Cell;
use std::collections::HashMap;
use std::str::FromStr;

/// Parsed arguments; see the [module docs](self).
#[derive(Debug)]
pub struct Args {
    positional: Vec<String>,
    /// Value and whether an accessor has read it, by flag name.
    flags: HashMap<String, (String, Cell<bool>)>,
}

impl Args {
    /// Parses the process arguments after the program name.
    pub fn from_env(switches: &[&str]) -> Result<Args, String> {
        Args::parse(std::env::args().skip(1), switches)
    }

    /// Parses `args`. A flag named in `switches` takes no value (it
    /// reads as `"1"`); every other flag takes the next argument.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    String::from("1")
                } else {
                    it.next().ok_or_else(|| format!("--{name} needs a value"))?
                };
                flags.insert(name.to_string(), (value, Cell::new(false)));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    /// The words that are not flags or flag values, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (value, read) = self.flags.get(name)?;
        read.set(true);
        Some(value)
    }

    /// The value of `--name`, or an error naming it.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// `--name` parsed as `T`, or `default` when absent.
    pub fn flag<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Whether the switch `--name` was given.
    pub fn set(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Fails on a flag no accessor has read (the first by name).
    pub fn finish(&self) -> Result<(), String> {
        let unread = self
            .flags
            .iter()
            .filter(|(_, (_, read))| !read.get())
            .map(|(name, _)| name)
            .min();
        match unread {
            Some(name) => Err(format!("unknown argument '--{name}'")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()), &["verify"])
    }

    #[test]
    fn flags_switches_and_positionals() {
        let a = parse(&["run", "--port", "7", "--verify", "x"]).unwrap();
        assert_eq!(a.positional(), ["run", "x"]);
        assert_eq!(a.flag("port", 0u16), Ok(7));
        assert_eq!(a.flag("threads", 2usize), Ok(2));
        assert!(a.set("verify"));
        assert_eq!(a.finish(), Ok(()));
        assert_eq!(parse(&["--port"]).unwrap_err(), "--port needs a value");
        assert!(a.required("dir").unwrap_err().contains("--dir is required"));
    }

    #[test]
    fn finish_rejects_the_flags_nobody_read() {
        let a = parse(&["--dir", "d", "--hcd", "256", "--bogus", "1"]).unwrap();
        assert_eq!(a.required("dir"), Ok("d"));
        assert_eq!(a.finish().unwrap_err(), "unknown argument '--bogus'");
        assert_eq!(a.get("bogus"), Some("1"));
        assert_eq!(a.finish().unwrap_err(), "unknown argument '--hcd'");
    }
}
