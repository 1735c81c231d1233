//! Virtual time.
//!
//! The simulation clock counts **nanoseconds** in a `u64`. Durations use the
//! same unit. A `u64` nanosecond clock spans ~584 years of virtual time, far
//! beyond any simulated workload here.

/// A point in virtual time, in nanoseconds since simulation start.
pub type Time = u64;

/// A span of virtual time, in nanoseconds.
pub type Duration = u64;

/// Construct a duration from nanoseconds (identity; for symmetry).
#[inline]
pub const fn ns(v: u64) -> Duration {
    v
}

/// Construct a duration from microseconds.
#[inline]
pub const fn us(v: u64) -> Duration {
    v * 1_000
}

/// Construct a duration from milliseconds.
#[inline]
pub const fn ms(v: u64) -> Duration {
    v * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_scale() {
        assert_eq!(ns(7), 7);
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(2), 2_000_000);
    }
}
