//! # forhdc-layout
//!
//! The file-system layout model behind FOR (File-Oriented Read-ahead).
//!
//! The disk controller has no notion of files; the host file system
//! determines where each file's blocks land in the logical block space.
//! This crate models that placement:
//!
//! * [`FileMap`] — which file (and which offset within it) owns each
//!   logical block, held as extents only: its size is O(files +
//!   extents), not O(blocks).
//! * [`LayoutBuilder`] — lays a population of files onto the logical
//!   space with a tunable *fragmentation* probability: each within-file
//!   block boundary independently breaks with probability `q`,
//!   splitting the file into physically scattered runs (the model
//!   behind Figure 1 of the paper).
//! * [`ForBitmap`] — the paper's per-disk continuation bitmap: one bit
//!   per physical block, set iff that block is the logical continuation
//!   within a file of the physically preceding block. 0.003 % space
//!   overhead; a read-ahead decision is just counting 1-bits.
//! * [`frag`] — sequential-run statistics (the Figure 1 measurement).

pub mod alloc;
pub mod bitmap;
pub mod filemap;
pub mod frag;

pub use alloc::LayoutBuilder;
pub use bitmap::{build_disk_bitmaps, check_bitmap_consistency, ForBitmap};
pub use filemap::{Extent, FileId, FileMap, UnitPiece};
