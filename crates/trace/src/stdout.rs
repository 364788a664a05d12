//! Standard output for the command-line tools.
//!
//! `println!` panics when stdout is a pipe whose reader has gone away
//! (`repro --list | head`). The tools print through [`outln!`] and
//! [`out!`] instead, which end the process quietly with exit status 0
//! on a broken pipe: nobody is left to read the rest.
//!
//! [`outln!`]: crate::outln
//! [`out!`]: crate::out

use std::fmt;
use std::io::{self, Write};

/// Writes `args` to stdout, exiting with status 0 if the pipe is closed.
pub fn write(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` that exits cleanly on a closed stdout pipe.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` that exits cleanly on a closed stdout pipe.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write(format_args!($($arg)*))
    };
}
