//! Host-visible packets.
//!
//! A [`Packet`] is what a two-sided *send* operation deposits in the target
//! NIC's receive queue. The communication libraries built on `simnet` define
//! their own packet types (eager data, RTS, CTS, FIN, ...) via the `ty`
//! discriminator and the four header words; bulk payload rides in `data`.

use bytes::Bytes;

use crate::nic::CausalEdge;

/// A packet delivered to a node's receive queue, awaiting a host poll.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Originating node.
    pub src: usize,
    /// Total wire size (headers + payload), used only for cost accounting.
    pub(crate) wire_bytes: usize,
    /// Library-defined packet type discriminator.
    pub ty: u16,
    /// Library-defined header words (tags, sequence numbers, region ids...).
    pub h: [u64; 6],
    /// Optional inline payload (eager protocol data).
    pub data: Option<Bytes>,
    /// Rides a protected virtual channel: exempt from fault injection
    /// (used for reliability-layer ACK/NACK traffic, which must not itself
    /// require acknowledgment or the protocol could never terminate).
    pub(crate) protected: bool,
    /// Causal breakdown of the packet's journey, stamped by the fabric at
    /// delivery (zeroed until then). Lets *receivers* learn how much of a
    /// message's flight time was fabric contention.
    pub edge: CausalEdge,
}

impl Packet {
    /// A control packet with no payload.
    pub fn control(src: usize, wire_bytes: usize, ty: u16, h: [u64; 6]) -> Self {
        Packet {
            src,
            wire_bytes,
            ty,
            h,
            data: None,
            protected: false,
            edge: CausalEdge::default(),
        }
    }

    /// A packet carrying an inline data payload.
    pub fn with_data(src: usize, wire_bytes: usize, ty: u16, h: [u64; 6], data: Bytes) -> Self {
        Packet {
            src,
            wire_bytes,
            ty,
            h,
            data: Some(data),
            protected: false,
            edge: CausalEdge::default(),
        }
    }

    /// Mark the packet as riding the protected (fault-exempt) channel.
    pub fn protect(mut self) -> Self {
        self.protected = true;
        self
    }

    /// Payload length in bytes (0 if none).
    pub(crate) fn payload_len(&self) -> usize {
        self.data.as_ref().map_or(0, |d| d.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_packets_have_no_payload() {
        let p = Packet::control(3, 64, 7, [1, 2, 3, 4, 5, 6]);
        assert_eq!(p.payload_len(), 0);
        assert_eq!(p.src, 3);
        assert_eq!(p.h[2], 3);
    }

    #[test]
    fn data_packets_report_payload_len() {
        let p = Packet::with_data(0, 1088, 1, [0; 6], Bytes::from(vec![9u8; 1024]));
        assert_eq!(p.payload_len(), 1024);
    }
}
