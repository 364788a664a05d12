//! The UNIX sequential prefetch algorithm (§2.3 of the paper).
//!
//! The file system adapts the number of blocks prefetched to the
//! sequentiality of each file's accesses: sequential reads ramp the
//! window up (doubling per sequential access) to a maximum — 64 KBytes
//! (16 blocks) in Linux — while a random access collapses it to zero.

use std::collections::HashMap;

use forhdc_layout::FileId;

/// Per-file sequential-prefetch state machine.
///
/// # Example
///
/// ```
/// use forhdc_host::SequentialPrefetcher;
/// use forhdc_layout::FileId;
///
/// let mut p = SequentialPrefetcher::new(16);
/// let f = FileId::new(0);
/// assert_eq!(p.on_access(f, 0), 1);  // first access: tentative
/// assert_eq!(p.on_access(f, 1), 2);  // sequential: ramp
/// assert_eq!(p.on_access(f, 2), 4);
/// assert_eq!(p.on_access(f, 40), 0); // random: collapse
/// ```
#[derive(Debug)]
pub struct SequentialPrefetcher {
    max_window: u32,
    state: HashMap<FileId, FileState>,
}

#[derive(Debug, Clone, Copy)]
struct FileState {
    next_offset: u64,
    window: u32,
}

impl SequentialPrefetcher {
    /// Creates a prefetcher with the given maximum window (blocks);
    /// Linux's 64-KByte default is 16 four-KByte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `max_window` is zero.
    pub fn new(max_window: u32) -> Self {
        assert!(max_window > 0, "max window must be positive");
        SequentialPrefetcher {
            max_window,
            state: HashMap::new(),
        }
    }

    /// The maximum window in blocks.
    pub fn max_window(&self) -> u32 {
        self.max_window
    }

    /// Reports an application access to `offset` (blocks) of `file` and
    /// returns how many blocks the OS should prefetch after it.
    ///
    /// Sequential continuation doubles the window (1, 2, 4, … up to the
    /// maximum); anything else resets the file's window.
    pub fn on_access(&mut self, file: FileId, offset: u64) -> u32 {
        let entry = self.state.entry(file).or_insert(FileState {
            next_offset: u64::MAX,
            window: 0,
        });
        if entry.next_offset == offset {
            entry.window = (entry.window.max(1) * 2).min(self.max_window);
        } else if entry.next_offset == u64::MAX {
            // First access to the file: tentative one-block window.
            entry.window = 1;
        } else {
            entry.window = 0;
        }
        entry.next_offset = offset + 1;
        entry.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: u32) -> FileId {
        FileId::new(n)
    }

    #[test]
    fn ramps_to_max_and_saturates() {
        let mut p = SequentialPrefetcher::new(16);
        let mut windows = Vec::new();
        for i in 0..8 {
            windows.push(p.on_access(f(0), i));
        }
        assert_eq!(windows, vec![1, 2, 4, 8, 16, 16, 16, 16]);
    }

    #[test]
    fn random_access_collapses_window() {
        let mut p = SequentialPrefetcher::new(16);
        p.on_access(f(0), 0);
        p.on_access(f(0), 1);
        assert_eq!(p.on_access(f(0), 100), 0);
        // Sequentiality must be re-established from the new position.
        assert_eq!(p.on_access(f(0), 101), 2);
    }

    #[test]
    fn files_are_independent() {
        let mut p = SequentialPrefetcher::new(8);
        p.on_access(f(0), 0);
        p.on_access(f(0), 1);
        assert_eq!(p.on_access(f(1), 0), 1);
        assert_eq!(p.on_access(f(0), 2), 4);
    }

    #[test]
    #[should_panic(expected = "max window must be positive")]
    fn zero_window_panics() {
        let _ = SequentialPrefetcher::new(0);
    }
}
