//! Public point-to-point types.

use bytes::Bytes;

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match any source (`MPI_ANY_SOURCE`).
    Any,
    /// Match only this rank.
    Rank(usize),
}

impl Src {
    /// Does this selector match rank `r`?
    pub(crate) fn matches(&self, r: usize) -> bool {
        match self {
            Src::Any => true,
            Src::Rank(x) => *x == r,
        }
    }
}

/// Tag selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match only this tag.
    Is(u64),
}

impl TagSel {
    /// Does this selector match tag `t`?
    pub(crate) fn matches(&self, t: u64) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Is(x) => *x == t,
        }
    }
}

/// Handle to an outstanding non-blocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub(crate) u64);

/// Completion status of an operation.
#[derive(Debug, Clone)]
pub struct Status {
    /// Resolved source rank (receives) or destination (sends).
    pub source: usize,
    /// Resolved tag.
    pub tag: u64,
    /// Received payload, if this was a receive.
    pub data: Option<Bytes>,
}

impl Status {
    /// The received payload; panics if this was not a receive.
    pub(crate) fn into_data(self) -> Bytes {
        self.data.expect("status carries no data (send request?)")
    }
}

/// A send buffer, converted once at the API boundary into the [`Bytes`] that
/// travels — by reference, never copied again on the host — through the
/// library and the fabric to the receiver's [`Status::data`].
///
/// `Bytes`, `&Bytes` and `Vec<u8>` convert without copying. A borrowed slice
/// pays exactly one copy: the caller may reuse it once the send returns, and
/// a borrow cannot outlive the call. Virtual-time copy costs
/// (`NetConfig::copy_cost`) are charged identically for every buffer type.
pub trait IntoPayload {
    /// Perform the conversion.
    fn into_payload(self) -> Bytes;
}

impl IntoPayload for Bytes {
    fn into_payload(self) -> Bytes {
        self
    }
}

impl IntoPayload for &Bytes {
    fn into_payload(self) -> Bytes {
        self.clone()
    }
}

impl IntoPayload for Vec<u8> {
    fn into_payload(self) -> Bytes {
        Bytes::from(self)
    }
}

impl IntoPayload for &[u8] {
    fn into_payload(self) -> Bytes {
        Bytes::copy_from_slice(self)
    }
}

impl IntoPayload for &Vec<u8> {
    fn into_payload(self) -> Bytes {
        Bytes::copy_from_slice(self)
    }
}

impl<const N: usize> IntoPayload for &[u8; N] {
    fn into_payload(self) -> Bytes {
        Bytes::copy_from_slice(self)
    }
}

/// Reduction operators for `reduce` / `allreduce` over `f64` payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
}

impl ReduceOp {
    /// Apply the operator elementwise: `acc[i] = op(acc[i], other[i])`.
    /// Panics with "reduce length mismatch" when the lengths differ.
    pub fn apply(&self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
        }
    }
}

/// Serialize a slice of `f64` to little-endian bytes.
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Deserialize little-endian bytes into `f64`s (length must be 8-aligned).
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert!(b.len().is_multiple_of(8), "payload not f64-aligned");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_match() {
        assert!(Src::Any.matches(5));
        assert!(Src::Rank(3).matches(3));
        assert!(!Src::Rank(3).matches(4));
        assert!(TagSel::Any.matches(7));
        assert!(TagSel::Is(7).matches(7));
        assert!(!TagSel::Is(7).matches(8));
    }

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn reduce_ops_apply() {
        let mut a = vec![1.0, 5.0];
        ReduceOp::Sum.apply(&mut a, &[2.0, 2.0]);
        assert_eq!(a, vec![3.0, 7.0]);
    }
}
