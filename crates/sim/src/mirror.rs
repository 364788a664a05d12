//! RAID1/0 mirroring: which physical members back a virtual disk, and
//! which member serves a read.
//!
//! A mirrored array pairs adjacent members: virtual disk `v` owns the
//! primary `2v` and its twin `2v + 1`. Striping addresses virtual
//! disks, writes land on both members, and reads go through one
//! [`MirrorRouter`], shared by the simulator and the live server. This
//! module is the only code that knows the pairing.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::ReadSplit;

/// Physical members per virtual disk: a pair, or the disk itself.
const fn width(mirrored: bool) -> u16 {
    1 + mirrored as u16
}

/// Virtual disks an array of `disks` members addresses.
pub const fn virtual_disks(disks: u16, mirrored: bool) -> u16 {
    disks / width(mirrored)
}

/// The virtual disk that physical `member` backs.
pub const fn virtual_disk(member: u16, mirrored: bool) -> u16 {
    member / width(mirrored)
}

/// The physical members backing virtual disk `vd`, primary first.
pub const fn members(vd: u16, mirrored: bool) -> Range<u16> {
    vd * width(mirrored)..(vd + 1) * width(mirrored)
}

/// The other member of `member`'s pair.
pub const fn twin(member: u16) -> u16 {
    member ^ 1
}

/// How the router sent one mirrored read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The read-split policy chose the member (both members up, or
    /// both down).
    Policy(u16),
    /// Exactly one member was offline; the read goes to the other.
    Failover(u16),
}

impl Route {
    /// The member that serves the read.
    pub fn member(self) -> u16 {
        match self {
            Route::Policy(m) | Route::Failover(m) => m,
        }
    }
}

/// The mirror read router: a [`ReadSplit`] policy plus one atomic
/// round-robin cursor per virtual disk, so the live server's threads
/// share it without a lock. Per-pair cursors matter: one global cursor
/// correlates with the striping parity and starves a member.
#[derive(Debug)]
pub struct MirrorRouter {
    split: ReadSplit,
    cursors: Vec<AtomicU64>,
}

impl MirrorRouter {
    /// A router for `virtual_disks` pairs under `split`.
    pub fn new(split: ReadSplit, virtual_disks: u16) -> MirrorRouter {
        let cursors = (0..virtual_disks).map(|_| AtomicU64::new(0)).collect();
        MirrorRouter { split, cursors }
    }

    /// Picks the member of mirrored virtual disk `vd` that serves a
    /// read. If exactly one member is `offline`, the read fails over to
    /// the other and the cursor stays put; otherwise the policy picks
    /// (see [`ReadSplit`]). `covers(m)` is whether member `m`'s cache
    /// holds the extent and `load(m)` its queue (queued plus in-service
    /// operations), each called only when the policy needs it.
    pub fn pick(
        &self,
        vd: u16,
        offline: impl Fn(u16) -> bool,
        covers: impl Fn(u16) -> bool,
        load: impl Fn(u16) -> usize,
    ) -> Route {
        let a = members(vd, true).start;
        let b = twin(a);
        let (a_off, b_off) = (offline(a), offline(b));
        if a_off != b_off {
            return Route::Failover(if a_off { b } else { a });
        }
        let twin_if = |better: bool| if better { b } else { a };
        Route::Policy(match self.split {
            ReadSplit::PrimaryOnly => a,
            ReadSplit::RoundRobin => {
                twin_if(self.cursors[vd as usize].fetch_add(1, Ordering::Relaxed) & 1 == 1)
            }
            ReadSplit::ShortestQueue => twin_if(load(b) < load(a)),
            ReadSplit::ClosestCopy => twin_if(!covers(a) && (covers(b) || load(b) < load(a))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Picks on pair 0 with both members up, given each member's cache
    /// coverage and load.
    fn pick(r: &MirrorRouter, covers: [bool; 2], load: [usize; 2]) -> u16 {
        r.pick(0, |_| false, |m| covers[m as usize], |m| load[m as usize])
            .member()
    }

    #[test]
    fn pairing_is_adjacent() {
        assert_eq!(virtual_disks(8, true), 4);
        assert_eq!(virtual_disks(8, false), 8);
        assert_eq!(members(3, true), 6..8);
        assert_eq!(members(3, false), 3..4);
        assert_eq!(virtual_disk(7, true), 3);
        assert_eq!(virtual_disk(7, false), 7);
        assert_eq!((twin(6), twin(7)), (7, 6));
    }

    #[test]
    fn each_policy_breaks_ties_as_documented() {
        let primary_only = MirrorRouter::new(ReadSplit::PrimaryOnly, 1);
        assert_eq!(pick(&primary_only, [false, true], [9, 0]), 0);

        let sq = MirrorRouter::new(ReadSplit::ShortestQueue, 1);
        assert_eq!(
            pick(&sq, [false; 2], [2, 2]),
            0,
            "a tie goes to the primary"
        );
        assert_eq!(pick(&sq, [false; 2], [2, 1]), 1);
        assert_eq!(pick(&sq, [false; 2], [1, 2]), 0);

        let cc = MirrorRouter::new(ReadSplit::ClosestCopy, 1);
        assert_eq!(pick(&cc, [true, true], [5, 0]), 0, "primary's cache first");
        assert_eq!(pick(&cc, [true, false], [5, 0]), 0, "cache beats load");
        assert_eq!(
            pick(&cc, [false, true], [0, 5]),
            1,
            "twin's cache beats load"
        );
        assert_eq!(
            pick(&cc, [false; 2], [3, 3]),
            0,
            "a load tie goes to the primary"
        );
        assert_eq!(pick(&cc, [false; 2], [3, 2]), 1);
    }

    #[test]
    fn round_robin_starts_on_the_primary_with_a_cursor_per_pair() {
        let r = MirrorRouter::new(ReadSplit::RoundRobin, 2);
        let up = |vd| r.pick(vd, |_| false, |_| false, |_| 0);
        assert_eq!(up(0), Route::Policy(0));
        assert_eq!(up(0), Route::Policy(1));
        // Pair 1's cursor is untouched by pair 0's picks.
        assert_eq!(up(1), Route::Policy(2));
        assert_eq!(up(0), Route::Policy(0));
        assert_eq!(up(1), Route::Policy(3));
    }

    #[test]
    fn one_member_offline_fails_over_without_moving_the_cursor() {
        let r = MirrorRouter::new(ReadSplit::RoundRobin, 1);
        let never = |_| panic!("a failover consults no policy input");
        assert_eq!(r.pick(0, |m| m == 0, never, |_| 0), Route::Failover(1));
        assert_eq!(r.pick(0, |m| m == 1, |_| false, |_| 0), Route::Failover(0));
        // The cursor still points at the primary.
        assert_eq!(r.pick(0, |_| false, |_| false, |_| 0), Route::Policy(0));

        let cc = MirrorRouter::new(ReadSplit::ClosestCopy, 1);
        assert_eq!(cc.pick(0, |m| m == 0, |_| true, |_| 0), Route::Failover(1));
    }

    #[test]
    fn both_members_offline_fall_through_to_the_policy() {
        let r = MirrorRouter::new(ReadSplit::RoundRobin, 1);
        assert_eq!(r.pick(0, |_| true, |_| false, |_| 0), Route::Policy(0));
        assert_eq!(r.pick(0, |_| true, |_| false, |_| 0), Route::Policy(1));
        let sq = MirrorRouter::new(ReadSplit::ShortestQueue, 1);
        assert_eq!(
            sq.pick(0, |_| true, |_| false, |m| 1 - m as usize),
            Route::Policy(1)
        );
    }
}
