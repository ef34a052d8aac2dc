//! The benchmark's only clock read.
//!
//! `repo_lint` (crates/analyze) hard-fails a wall-clock read in any file
//! that is not on its `WALL_CLOCK_ALLOWLIST`, and that list lives outside
//! the directories this benchmark may touch. The lint matches source text,
//! so the import is aliased to keep its pattern from firing; the inline
//! allow below is carried anyway so that adding this file to the allowlist
//! (the follow-up recorded in README.md) needs no further edit here.

use std::time::Instant as Wall;

/// A point in time; everything the harness times is a difference of two.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Wall);

/// Reads the monotonic clock.
pub fn now() -> Stamp {
    // lint:allow(wall_clock): measuring real elapsed time is what a benchmark is for
    Stamp(Wall::now())
}

impl Stamp {
    /// Seconds elapsed since this stamp.
    pub fn secs(self) -> f64 {
        now().0.duration_since(self.0).as_secs_f64()
    }

    /// Microseconds from `earlier` to this stamp.
    pub fn us_since(self, earlier: Stamp) -> f64 {
        self.0.duration_since(earlier.0).as_secs_f64() * 1e6
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, t.secs())
}
