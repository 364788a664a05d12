//! Property-based invariants of the simulator substrate.

use proptest::prelude::*;

use forhdc_sim::sched::{QueuedOp, Scheduler};
use forhdc_sim::{
    DiskConfig, DiskGeometry, DiskMechanics, EventQueue, PhysBlock, ReadWrite, RotationModel,
    SchedulerKind, SeekModel, SimDuration, SimTime,
};

proptest! {
    /// The event queue pops in exactly sorted (time, insertion) order.
    #[test]
    fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| {
            q.pop().map(|f| (f.time.as_nanos(), f.event))
        })
        .collect();
        prop_assert_eq!(popped, reference);
    }

    /// Seek times are non-negative and monotone in distance for any
    /// non-negative coefficients.
    #[test]
    fn seek_model_monotone(
        alpha in 0.0f64..5.0,
        beta in 0.0f64..0.5,
        theta in 1u32..5_000,
        dist in 0u32..20_000,
    ) {
        // Build a continuous long-seek branch from the short one.
        let at_theta = alpha + beta * (theta as f64).sqrt();
        let delta = beta / (2.0 * (theta as f64).sqrt()); // tangent slope
        let gamma = at_theta - delta * theta as f64;
        let m = SeekModel::new(alpha, beta, gamma.max(0.0), delta, theta);
        prop_assert!(m.seek_ms(dist) >= 0.0);
        if dist > 0 {
            prop_assert!(m.seek_ms(dist) >= m.seek_ms(dist - 1) - 1e-9);
        }
    }

    /// Rotational latency is always within one revolution and lands the
    /// head exactly on the target angle.
    #[test]
    fn rotation_latency_in_bounds(rpm in 3_600u32..30_000, t in 0u64..10_000_000, angle in 0u32..1000) {
        let r = RotationModel::new(rpm);
        let target = angle as f64 / 1000.0;
        let now = SimTime::from_nanos(t);
        let wait = r.latency_to(target, now);
        prop_assert!(wait < r.period());
        let arrived = r.angle_at(now + wait);
        let diff = (arrived - target).abs().min(1.0 - (arrived - target).abs());
        // One-nanosecond rounding tolerance.
        prop_assert!(diff < 2.0 / r.period().as_nanos() as f64 + 1e-9, "diff {diff}");
    }

    /// Geometry addressing is a bijection within capacity.
    #[test]
    fn geometry_addressing_bijective(
        spt in 1u32..8,          // sectors_per_track = spt * 8 (block aligned)
        surfaces in 1u32..16,
        cylinders in 1u32..500,
        probe in 0u64..1_000_000,
    ) {
        let g = DiskGeometry::new(spt * 8, surfaces, cylinders, 4096);
        let cap = g.capacity_blocks();
        let block = PhysBlock::new(probe % cap);
        let addr = g.address(block);
        prop_assert!(addr.cylinder < cylinders);
        prop_assert!(addr.surface < surfaces);
        prop_assert!(addr.sector < spt * 8);
        // Reconstruct the block index from the address.
        let rebuilt = (addr.cylinder as u64 * g.blocks_per_cylinder() as u64)
            + (addr.surface as u64 * g.blocks_per_track() as u64)
            + (addr.sector / 8) as u64;
        prop_assert_eq!(rebuilt, block.index());
    }

    /// Every scheduler serves every queued op exactly once.
    #[test]
    fn schedulers_lose_nothing(
        kind_idx in 0usize..4,
        cylinders in prop::collection::vec(0u32..10_000, 1..100),
    ) {
        let kind = [
            SchedulerKind::Look,
            SchedulerKind::Fcfs,
            SchedulerKind::Sstf,
            SchedulerKind::Clook,
        ][kind_idx];
        let mut s = Scheduler::new(kind);
        for (i, &c) in cylinders.iter().enumerate() {
            s.push(QueuedOp {
                token: i as u64,
                start: PhysBlock::new(c as u64 * 440),
                nblocks: 1,
                requested: 1,
                kind: ReadWrite::Read,
                cylinder: c,
                queued_at: SimTime::ZERO,
                attempt: 0,
            });
        }
        let mut seen: Vec<u64> = Vec::new();
        let mut head = 0;
        while let Some(op) = s.pop_next(head) {
            seen.push(op.token);
            head = op.cylinder;
        }
        seen.sort();
        let expected: Vec<u64> = (0..cylinders.len() as u64).collect();
        prop_assert_eq!(seen, expected);
    }

    /// Service time always includes the media transfer and the head
    /// finishes on the extent's last cylinder.
    #[test]
    fn mechanics_service_sane(start in 0u64..4_000_000, n in 1u32..64, at in 0u64..50_000_000) {
        let cfg = DiskConfig::default();
        let mut mech = DiskMechanics::new(&cfg);
        let cap = cfg.geometry.capacity_blocks();
        let start = PhysBlock::new(start % (cap - 64));
        let t = mech.service(ReadWrite::Read, start, n, SimTime::from_nanos(at));
        let min_transfer = SimDuration::for_transfer(n as u64 * 4096, cfg.media_rate);
        prop_assert!(t.transfer == min_transfer);
        prop_assert!(t.total() >= min_transfer);
        let last = PhysBlock::new(start.index() + n as u64 - 1);
        prop_assert_eq!(mech.head_cylinder(), cfg.geometry.cylinder_of(last));
    }
}

proptest! {
    /// The laned calendar pops in exactly `(time, schedule order)` order,
    /// checked against a plain reference that keeps every pending event
    /// in a list and removes its minimum: for arbitrary interleavings of
    /// laned and lane-less schedules, many events at one instant (times
    /// drawn from a narrow range), schedules made mid-drain at the
    /// advanced clock, and `schedule_lane` calls out of time order on
    /// one lane.
    #[test]
    fn calendar_matches_event_queue(
        ops in prop::collection::vec((0u64..40, 0usize..6), 1..300),
        drain_every in 1usize..8,
    ) {
        use forhdc_sim::LaneCalendar;
        let mut c = LaneCalendar::with_lanes(4);
        // (time, schedule index) of each pending event.
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut now = 0u64;
        let pop = |c: &mut LaneCalendar<usize>, pending: &mut Vec<(u64, usize)>| {
            let (at, &want) = pending.iter().enumerate().min_by_key(|(_, e)| **e)?;
            pending.swap_remove(at);
            let got = c.pop().expect("the calendar holds every pending event");
            Some(((got.time.as_nanos(), got.event), want))
        };
        for (i, &(dt, lane)) in ops.iter().enumerate() {
            let at = SimTime::from_nanos(now + dt);
            if lane < 4 {
                c.schedule_lane(lane, at, i);
            } else {
                c.schedule(at, i);
            }
            pending.push((now + dt, i));
            if i % drain_every == drain_every - 1 {
                let (got, want) = pop(&mut c, &mut pending).unwrap();
                prop_assert_eq!(got, want);
                now = got.0;
                prop_assert_eq!(c.now().as_nanos(), now);
            }
        }
        while let Some((got, want)) = pop(&mut c, &mut pending) {
            prop_assert_eq!(got, want);
        }
        prop_assert!(c.pop().is_none());
        prop_assert!(c.is_empty());
    }
}
